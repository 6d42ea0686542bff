import math

import numpy as np
import pytest
from scipy.optimize import brentq

from sigmapoly import bifurcation
from sigmapoly.bifurcation import (
    classify_parameter_point,
    cusp_curves,
    cusp_family,
    cusp_fold_points,
    foldfold_curve_value,
    foldfold_curves,
    foldfold_family,
    twofold_curves,
    twofold_family,
)
from sigmapoly.errors import ConfigError, NegativeLambda, NoHit, WrongSign
from sigmapoly.maps import Germ
from sigmapoly.polycycle import SyntheticLeg, SyntheticModel


# -- regular cusp ---------------------------------------------------------------


def test_cusp_fold_points():
    V, I, A = cusp_fold_points(0.03, -1.0)
    assert V == pytest.approx(0.1, abs=1e-14)
    assert I == pytest.approx(-0.1, abs=1e-14)
    assert A == pytest.approx(-0.2, abs=1e-12)


def test_cusp_curves_closed_form():
    fam = cusp_family()
    cur = cusp_curves(fam, 0.03)
    assert cur["Vbar"] == pytest.approx(-0.102, abs=1e-12)
    assert cur["Ibar"] == pytest.approx(0.098, abs=1e-12)
    assert cur["Abar"] == pytest.approx(0.198, abs=1e-12)


def test_cusp_curves_negative_lambda():
    fam = cusp_family()
    with pytest.raises(NegativeLambda):
        cusp_curves(fam, -0.01)


def test_cusp_family_validation():
    with pytest.raises(ConfigError):
        cusp_family(kappa=0.5)


@pytest.mark.parametrize("dtilde", [0.0, 0.5])
def test_cusp_family_refuses_dtilde_at_least_zero(dtilde):
    # the item table assumes Vbar < Ibar < Abar, which reverses for dtilde > 0;
    # at dtilde = 0 the three curves coincide
    with pytest.raises(ConfigError, match="dtilde < 0"):
        cusp_family(-1.0, dtilde)


CUSP_POINTS = [
    # (lam1, beta, item, n_cross, n_poly, n_slide, het)
    (-0.02, 0.0, 1, 1, 0, 0, False),
    (0.0, 0.1, 2, 1, 0, 0, False),
    (0.0, 0.0, 3, 0, 1, 0, False),
    (0.03, -0.2, 4, 1, 0, 0, False),
    (0.03, -0.102, 5, 0, 1, 0, False),
    (0.03, -0.05, 6, 0, 0, 1, False),
    (0.03, 0.098, 7, 0, 0, 1, True),
    (0.03, 0.15, 8, 0, 0, 1, False),
    (0.03, 0.198, 9, 0, 1, 0, False),
    (0.03, 0.23, 10, 1, 0, 0, False),
]


@pytest.mark.parametrize("lam1,beta,item,nc,np_,ns,het", CUSP_POINTS)
def test_cusp_region_inventory(lam1, beta, item, nc, np_, ns, het):
    fam = cusp_family()
    r = classify_parameter_point(fam, (lam1, beta))
    assert r.item == item
    assert len(r.crossing_cycles) == nc
    assert r.polycycles == np_
    assert len(r.sliding_cycles) == ns
    assert r.heteroclinic == het


def test_cusp_connection_uses_the_ibar_band():
    # the V-I connection and the on-curve:Ibar flag share one band,
    # |beta - Ibar| <= CURVE_TOL, also when |dtilde| != 1
    fam = cusp_family(-1.0, -0.5)
    ibar = cusp_curves(fam, 0.01)["Ibar"]
    r = classify_parameter_point(fam, (0.01, ibar + 0.75 * bifurcation.CURVE_TOL))
    assert "on-curve:Ibar" in r.flags and len(r.sliding_cycles) == 1
    assert r.heteroclinic


def test_cusp_cycle_count_matches_cubic_roots():
    # away from the sliding band the crossing cycles are exactly the
    # in-window real roots of kappa x^3 + (lam1 - dtilde) x + beta
    fam = cusp_family()
    for lam1, beta in [(-0.02, 0.0), (0.03, -0.2), (0.03, 0.23)]:
        roots = np.roots([-1.0, 0.0, lam1 + 1.0, beta])
        real = [r.real for r in roots if abs(r.imag) < 1e-10 and -0.6 < r.real < 0.6]
        r = classify_parameter_point(fam, (lam1, beta))
        assert len(r.crossing_cycles) == len(real)
        got = sorted(c.point[0] for c in r.crossing_cycles)
        assert got == pytest.approx(sorted(real), abs=1e-9)


# -- double regular fold ----------------------------------------------------------


def test_twofold_gamma_closed_form():
    fam = twofold_family()
    for b in (0.02, 0.1, 0.15):
        cur = twofold_curves(fam, b)
        assert cur["gamma1"] == pytest.approx(b**2, abs=1e-12)
        assert cur["gamma2"] == pytest.approx(-(b**2), abs=1e-12)


def test_twofold_family_validation():
    with pytest.raises(ConfigError):
        twofold_family(kappa1=1.0)


TWOFOLD_POINTS = [
    # (b1, b2, item, n_cross, n_poly, n_slide, het)
    (0.05, 0.1, 1, 0, 0, 1, False),
    (0.01, 0.1, 2, 0, 1, 0, False),
    (0.005, 0.1, 3, 1, 0, 0, False),
    (0.0, 0.1, 4, 1, 0, 0, True),
    (-0.05, 0.1, 5, 1, 0, 0, False),
    (-0.05, 0.0, 6, 1, 0, 0, True),
    (0.0, 0.0, 7, 0, 1, 0, True),
    (-0.05, -0.001, 8, 1, 0, 0, False),
    (-0.05, -0.0025, 9, 0, 1, 0, False),
    (-0.05, -0.05, 10, 0, 0, 1, False),
    (0.0, -0.05, 11, 0, 0, 1, True),
    (0.05, -0.05, 12, 0, 0, 1, False),
    (0.05, 0.0, 13, 0, 0, 1, True),
]


@pytest.mark.parametrize("b1,b2,item,nc,np_,ns,het", TWOFOLD_POINTS)
def test_twofold_region_inventory(b1, b2, item, nc, np_, ns, het):
    fam = twofold_family()
    r = classify_parameter_point(fam, (b1, b2))
    assert r.item == item
    assert len(r.crossing_cycles) == nc
    assert r.polycycles == np_
    assert len(r.sliding_cycles) == ns
    assert r.heteroclinic == het


def test_twofold_crossing_cycle_is_attracting():
    fam = twofold_family()
    r = classify_parameter_point(fam, (0.005, 0.1))
    assert r.crossing_cycles[0].stability == "attracting"


def test_twofold_sliding_structures():
    fam = twofold_family()
    # region 12: both folds, two sliding segments
    r12 = classify_parameter_point(fam, (0.05, -0.05))
    assert r12.sliding_cycles[0].folds == ("p1", "p2")
    assert r12.sliding_cycles[0].segments == 2
    # region 10: one fold, one segment
    r10 = classify_parameter_point(fam, (-0.05, -0.05))
    assert r10.sliding_cycles[0].segments == 1


@pytest.mark.parametrize(
    "b1,b2,exits",
    [
        (0.05, -0.05, [(2, "slide"), (1, "slide")]),  # region 12: the loop p1 -> p2 -> p1
        (-0.05, -0.05, [(1, "slide"), (1, "slide")]),  # region 10: the self-loop p1 -> p1
        (-0.05, 0.1, [None, None]),  # region 5: both exits contract onto the crossing cycle
        (0.0, 0.0, [(2, "connect"), (1, "connect")]),  # region 7: each fold connects to the other
    ],
)
def test_twofold_fold_exit_map(b1, b2, exits):
    fam = twofold_family()
    model = bifurcation._twofold_model(fam, b1, b2)
    assert [bifurcation._fold_exit(model, f, fam.eps, bifurcation.CURVE_TOL) for f in (1, 2)] == exits


# -- VI fold-fold (synthetic) -------------------------------------------------


def test_foldfold_curves_closed_form():
    fam = foldfold_family(kappa=1.0, dtilde=2.0)
    for a in (0.05, 0.1):
        cur = foldfold_curves(fam, a)
        assert abs(cur["beta1"] + 8 * a**2) < 1e-10
        assert abs(cur["beta2"] + 4 * a**2) < 1e-10
        assert abs(cur["beta4"] + a**2) < 1e-10
        cur = foldfold_curves(fam, -a)
        assert abs(cur["beta1"] + 8 * a**2) < 1e-10
        assert abs(cur["beta3"] - 8 * a**2) < 1e-10
        assert abs(cur["beta5"] - 2 * a**2) < 1e-10


def test_foldfold_curve_wrong_sign():
    fam = foldfold_family()
    with pytest.raises(WrongSign):
        foldfold_curve_value(fam, 0.1, "beta3")


def test_foldfold_family_validation():
    with pytest.raises(ConfigError):
        foldfold_family(kappa=-1.0)
    with pytest.raises(ConfigError):
        foldfold_family(kappa=2.0, dtilde=1.0)  # repelling case


def test_foldfold_region3_nested_cycles():
    fam = foldfold_family()
    r = classify_parameter_point(fam, (0.1, -0.06))
    assert r.item == 3
    assert len(r.crossing_cycles) == 2
    outer, inner = r.crossing_cycles  # sorted by point, outer more negative
    assert outer.point[0] < inner.point[0] < 0
    assert outer.stability == "attracting"
    assert inner.stability == "repelling"
    # dP oracle: Tu'(x - 2 alpha) / DTs'(x) = (x - 0.2) / (2 x)
    for c in (outer, inner):
        x = c.point[0]
        assert c.dP == pytest.approx((x - 0.2) / (2 * x), rel=1e-9)


def test_foldfold_saddle_node_on_beta1():
    fam = foldfold_family()
    r = classify_parameter_point(fam, (0.1, -0.08))
    assert r.item == 2
    assert len(r.crossing_cycles) == 1
    assert r.crossing_cycles[0].stability == "semistable"
    assert r.crossing_cycles[0].saddle_node


def test_foldfold_saddle_node_at_rounding_level_discriminant():
    # a 51x51 grid cell on beta1 = -8 alpha^2, whose displacement
    # -x^2 - 0.24 x - 0.0144 = -(x + 0.12)^2 has a discriminant of rounding size
    fam = foldfold_family()
    r = classify_parameter_point(fam, (0.06, -0.028800000000000006))
    assert r.item == 2
    assert len(r.crossing_cycles) == 1
    c = r.crossing_cycles[0]
    assert c.stability == "semistable" and c.saddle_node
    k, d = fam.coeffs["kappa"], fam.coeffs["dtilde"]
    assert c.point[0] == pytest.approx(2 * k * 0.06 / (k - d), abs=1e-12)


def test_foldfold_polycycle_on_beta2():
    fam = foldfold_family()
    r = classify_parameter_point(fam, (0.1, -0.04))
    assert r.item == 4
    assert r.polycycles == 1
    assert "on-curve:beta2" in r.flags


def test_foldfold_codim2_origin():
    fam = foldfold_family()
    r = classify_parameter_point(fam, (0.0, 0.0))
    assert r.polycycles == 1
    assert "codim2" in r.flags


def test_foldfold_sliding_substructure():
    fam = foldfold_family()
    below = classify_parameter_point(fam, (0.1, -0.02))  # beta < beta4
    above = classify_parameter_point(fam, (0.1, -0.005))  # beta4 < beta < 0
    assert below.sliding_cycles[0].structure == "crosses-once-from-Mminus"
    assert above.sliding_cycles[0].structure == "direct-from-Mplus"


def test_foldfold_region_inventory_grid():
    # every region item 1..6 appears in a coarse parameter sweep
    fam = foldfold_family()
    items = set()
    for a in np.linspace(-0.12, 0.12, 9):
        cur = foldfold_curves(fam, a).values if a != 0 else {}
        betas = list(np.linspace(-0.1, 0.1, 9)) + list(cur.values())
        for b in betas:
            items.add(classify_parameter_point(fam, (a, b)).item)
    assert {1, 2, 3, 4, 5, 6} <= items


# -- VI fold-fold circle (ODE backend) -----------------------------------------


def _circle_closed_form_return(alpha_p, beta_p, x):
    """P(x) on {y = 0}: Y's mirror x -> 2 alpha_p - x, then the exact X orbit down to Sigma.

    About (0, c), c = 1 + beta_p, X is theta' = 1, r' = r - r^3, so
    r(t) = (1 + (r0^-2 - 1) e^(-2t))^(-1/2).  On each lap y = c + r sin(theta)
    falls from theta = pi to one minimum before theta = 2 pi; the orbit comes
    down through Sigma on the first lap whose minimum is below 0.  None when
    it stays above Sigma for 15 laps.
    """
    c = 1.0 + beta_p
    s = 2.0 * alpha_p - x
    r0, th0 = math.hypot(s, c), math.atan2(-c, s)

    def r(t):
        return 1.0 / math.sqrt(1.0 + (1.0 / (r0 * r0) - 1.0) * math.exp(-2.0 * t))

    def y(t):
        return c + r(t) * math.sin(th0 + t)

    def dy(t):
        rt = r(t)
        return (rt - rt**3) * math.sin(th0 + t) + rt * math.cos(th0 + t)

    for lap in range(15):
        t_pi = (2 * lap + 1) * math.pi - th0
        t_min = brentq(dy, t_pi, t_pi + math.pi, xtol=1e-15)
        if y(t_min) < 0.0:
            t = brentq(y, t_pi, t_min, xtol=1e-15)
            return r(t) * math.cos(th0 + t)
    return None


def _circle_closed_form_cycles(alpha_p, beta_p):
    """Stability letters of the sign changes of P(x) - x on (zeta - 0.5, zeta), dense toward zeta."""
    c = 1.0 + beta_p
    fold = (-1.0 + math.sqrt(1.0 - 4.0 * c * c * (c * c - 1.0))) / (2.0 * c)
    zeta = min(fold, 2.0 * alpha_p - fold)
    gaps = np.concatenate([np.linspace(0.5, 0.01, 50, endpoint=False), np.geomspace(0.01, 1e-7, 50)])
    xs = zeta - gaps
    g = []
    for x in xs:
        p = _circle_closed_form_return(alpha_p, beta_p, x)
        g.append(np.nan if p is None else p - x)
    return ["a" if g[k] > 0 else "r" for k in range(len(g) - 1) if g[k] * g[k + 1] < 0]


@pytest.mark.parametrize(
    "alpha_p, beta_p, flag",
    [
        (0.05, -0.05, ""),
        (-0.1, 0.05, "X-cycle-in-Mplus"),
        (-0.05, 0.0, "tangent-X-cycle"),
        (0.05, 0.0, "tangent-X-cycle"),
        (-0.1, -0.025, ""),
        (0.1, -0.025, ""),
    ],
)
def test_circle_cells_match_closed_form(alpha_p, beta_p, flag):
    # cells of the default 5x5 circle grid against the exact flow: the count
    # and stabilities come from the Sigma-to-Sigma return, the flags from beta_p
    stab = _circle_closed_form_cycles(alpha_p, beta_p)
    cell = classify_parameter_point(bifurcation.circle_family(), (alpha_p, beta_p))
    assert [c.stability[0] for c in cell.crossing_cycles] == stab
    assert cell.flags == ((flag,) if flag else ())
    assert cell.polycycles == 0 and cell.sliding_cycles == ()
    assert cell.item == {0: 1, 1: 5, 2: 3}[len(stab)]


def test_circle_origin_is_the_tangent_polycycle():
    # (0, 0) is the codim-2 point itself, not a crossing cycle; the exact flow has none
    assert _circle_closed_form_cycles(0.0, 0.0) == []
    cell = classify_parameter_point(bifurcation.circle_family(), (0.0, 0.0))
    assert cell.label == "item0|x0|p1|s0|codim2|tangent-polycycle"


def test_circle_cycle_is_hyperbolic():
    # one lap from the top section: r(2 pi; r0) with r0 = 1.05 and 1.1 about (0, 1)
    def r(t, r0):
        return (1.0 + (r0**-2 - 1.0) * math.exp(-2.0 * t)) ** -0.5

    dp = bifurcation.circle_cycle_multiplier()
    assert dp == pytest.approx((r(2 * math.pi, 1.1) - r(2 * math.pi, 1.05)) / 0.05, abs=1e-10)
    assert abs(dp - 1.0) > 0.05


# -- sweeps ---------------------------------------------------------------------


def test_circle_has_no_traced_curves():
    # the circle's curves are not known in closed form; none are invented
    assert bifurcation._trace_curves(bifurcation.circle_family()) == {}


def test_sweep_records_period_annulus(monkeypatch):
    fam = foldfold_family()
    g = Germ(base=0.0, coeffs=(0.0, 1.0), window=0.3)
    annulus = SyntheticModel(k=1, legs=(SyntheticLeg(Tu=g, DTs=g, sigma=(-0.3, 0.0)),))
    monkeypatch.setattr(bifurcation, "_foldfold_model", lambda *args: annulus)
    grid = bifurcation.sweep_diagram(fam, 1, 1, ranges=((0.1, 0.1), (-0.05, -0.05)))
    assert grid.cells[0].label.startswith("error:PeriodAnnulus: ")


def test_sweep_records_numeric_errors_and_propagates_bugs(monkeypatch):
    fam = foldfold_family()
    classify = bifurcation.classify_parameter_point

    def no_hit_at_origin(f, params):
        if params == (0.0, 0.0):
            raise NoHit("no section hit")
        return classify(f, params)

    monkeypatch.setattr(bifurcation, "classify_parameter_point", no_hit_at_origin)
    grid = bifurcation.sweep_diagram(fam, 3, 3, ranges=((-0.1, 0.1), (-0.1, 0.1)))
    labels = {c.params: c.label for c in grid.cells}
    assert labels[(0.0, 0.0)] == "error:NoHit: no section hit"
    assert sum(l.startswith("error:") for l in labels.values()) == 1

    def broken(f, params):
        raise TypeError("a bug, not a data point")

    monkeypatch.setattr(bifurcation, "classify_parameter_point", broken)
    with pytest.raises(TypeError):
        bifurcation.sweep_diagram(fam, 3, 3)
