"""Displacement-function machinery for planar piecewise-smooth systems.

Point classification on the switching line, transition/mirror/transfer
maps as polynomial germs, crossing systems for polycycles, and the three
packaged bifurcation scenarios.
"""

from .core import (
    FilippovSystem,
    PolyField,
    SwitchingFunction,
    classify_sigma_point,
    contact_order,
    lie_derivative,
    sliding_field,
)
from .flow import (
    Section,
    filippov_trajectory,
    flow_smooth,
    hit_section,
    hit_sections,
    next_sigma_hit,
    next_sigma_hits,
)
from .maps import (
    Germ,
    TransferPair,
    exclusion_set,
    fit_germ,
    mirror_map,
    sigma_domain,
    transfer_pair,
    transition_germ,
    transition_map,
)
from .poly2 import Poly2, poly_const, poly_x, poly_y
from .polycycle import (
    CycleReport,
    SyntheticLeg,
    SyntheticModel,
    find_cycles,
    first_return,
    normal_form_model,
)
from .bifurcation import (
    DiagramGrid,
    RegionReport,
    ScenarioFamily,
    circle_system,
    classify_parameter_point,
    cusp_curves,
    cusp_family,
    foldfold_curves,
    foldfold_family,
    scenario_curves,
    sweep_diagram,
    twofold_curves,
    twofold_family,
)

__version__ = "0.1.0"
