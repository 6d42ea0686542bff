"""bench/tracing.py rebinds names of the program; a rename must not break it unseen."""

import importlib.util
import os

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sigmapoly import flow, maps
from sigmapoly.core import PolyField
from sigmapoly.maps import Germ
from sigmapoly.poly2 import Poly2, poly_const, poly_x
from sigmapoly.polycycle import SyntheticModel, normal_form_model

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_counts_what_it_binds_and_uninstalls(fold_field, h_y):
    bound = {
        (Poly2, "__call__"): Poly2.__call__,
        (Germ, "__call__"): Germ.__call__,
        (Germ, "deriv"): Germ.deriv,
        (SyntheticModel, "jacobian"): SyntheticModel.jacobian,
    }
    brentq = flow.brentq
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        # a Sigma return (an event root, and the .time the tracer reads)
        hit = flow.next_sigma_hit(fold_field, (-0.3, 0.0), h_y, "forward")
        flow.flow_smooth(fold_field, (0.2, 0.0), 1.0)  # useful time 1.0
        # one solve_ivp: the only stepper call the tracer wraps, which the package no longer makes
        flow.solve_ivp(lambda t, s: fold_field(s), (0.0, 1.0), np.array([0.2, 0.0]), method="DOP853")
        normal_form_model(1.0, -0.25, 2, lam=(0.01,)).jacobian(np.array([-0.05]))
        c = dict(tracer.counters)
        m = tracer.metrics()
    finally:
        tracer.uninstall()
    assert hit.time == pytest.approx(0.6, abs=1e-12)
    assert c["useful_time"] == pytest.approx(0.6 + 1.0, abs=1e-12)
    assert m["flow.integrations"] == 1 and m["flow.integrated_time"] == pytest.approx(1.0)
    assert m["flow.rhs_evals"] > 0 and m["flow.event_roots"] > 0
    assert m["poly2.evals"] > 0 and m["polycycle.germ_evals"] > 0
    assert m["polycycle.newton_iters"] == 1  # the jacobian call
    # flow's own brentq is back where the tracer rebound it: its counter in flow, a span in maps
    assert flow.solve_ivp is solve_ivp and flow.brentq is brentq and maps.brentq is brentq
    for (owner, name), fn in bound.items():
        assert getattr(owner, name) is fn


def test_tracer_counts_event_roots_alone(h_y):
    # maps binds flow's brentq when it loads, so the tracer's event-root
    # counter, bound to flow.brentq, does not see sigma_contacts polish
    # Fh = (x - 0.3)^2 - 0.04 on y = 0 at 0.1 and 0.5
    s = poly_x() + poly_const(-0.3)
    F = PolyField(poly_const(1.0), s * s + poly_const(-0.04))
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        contacts = maps.sigma_contacts(F, h_y, (-1.0, 1.0))
        roots = tracer.counters["event_roots"]
    finally:
        tracer.uninstall()
    assert [x for x, _, _ in contacts] == pytest.approx([0.1, 0.5], abs=1e-12)
    assert roots == 0


LAZY_TRACE = f"""
import importlib.util, json, sys

from sigmapoly import flow
from sigmapoly.core import PolyField, SwitchingFunction
from sigmapoly.poly2 import poly_const, poly_x, poly_y

before = "scipy" in sys.modules
brentq = flow.brentq
spec = importlib.util.spec_from_file_location("bench_tracing", {TRACING!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
hit = flow.next_sigma_hit(PolyField(poly_const(1.0), poly_x()), (-0.3, 0.0), SwitchingFunction(poly_y()))
roots = tracer.metrics()["flow.event_roots"]
tracer.uninstall()

from scipy.integrate import solve_ivp

print(json.dumps({{
    "before": before, "t": hit.time, "roots": roots,
    "restored": flow.brentq is brentq and flow.solve_ivp is solve_ivp,
}}))
"""


def test_tracer_installed_before_the_first_flight(fresh_python):
    # in a fresh process the tracer reads flow.brentq and flow.solve_ivp
    # before anything has flown, and its wrappers must be the ones flown
    out = fresh_python(LAZY_TRACE)
    assert not out["before"]
    assert out["t"] == pytest.approx(0.6, abs=1e-12)
    assert out["roots"] > 0
    assert out["restored"]
