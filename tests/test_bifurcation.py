import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from sigmapoly import bifurcation, cli
from sigmapoly.bifurcation import (
    CURVE_TOL,
    classify_parameter_point,
    cusp_curves,
    cusp_family,
    cusp_fold_points,
    foldfold_curves,
    foldfold_family,
    twofold_curves,
    twofold_family,
)
from sigmapoly.errors import ConfigError, NegativeLambda, NoConvergence, NoHit, NumericError
from sigmapoly import polycycle
from sigmapoly.maps import Germ
from sigmapoly.polycycle import CycleReport, SyntheticLeg, SyntheticModel, _LegArrays


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


@pytest.mark.parametrize(
    "curves, fam, p",
    [(cusp_curves, cusp_family(), 1e300), (twofold_curves, twofold_family(), 1e200),
     (foldfold_curves, foldfold_family(), 1e200), (foldfold_curves, foldfold_family(), -1e200)],
    ids=["cusp", "twofold", "foldfold", "foldfold-negative"],
)
def test_curve_overflow_is_a_numeric_error(curves, fam, p):
    # a Python float overflows in ** (OverflowError), a numpy one to inf with a warning:
    # either is the curve function's NumericError, and no warning is written
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in (p, np.float64(p)):
            with pytest.raises(NumericError, match=f"{curves.__name__} overflows at"):
                curves(fam, v)
    # the wrapper keeps the function's name and module, by which tracers find it
    assert curves.__module__ == "sigmapoly.bifurcation" and curves.__name__ == curves.__wrapped__.__name__


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


def _closed_form_crossing_roots(fam, p1, p2):
    """Sorted first coordinates of the in-window real roots of the scenario's displacement."""
    c, eps = fam.coeffs, fam.eps
    x2 = None
    if fam.name == "Cusp":  # kappa x^3 + (lam1 - dtilde) x + beta on (-eps, eps)
        poly, windows = [c["kappa"], 0.0, p1 - c["dtilde"], p2], [(-eps, eps)]
    elif fam.name == "VIFoldFold":  # (kappa - dtilde) x^2 - 4 kappa alpha x + beta + 4 kappa alpha^2
        k, d = c["kappa"], c["dtilde"]
        poly, windows = [k - d, -4 * k * p1, p2 + 4 * k * p1**2], [(-eps, min(0.0, 2 * p1))]
    else:  # x1 -> x2 = (beta1 + kappa1 x1^2) / dtilde1 -> (beta2 + kappa2 x2^2) / dtilde2 = x1
        x2 = np.poly1d([c["kappa1"], 0.0, p1]) / c["dtilde1"]
        poly = (c["kappa2"] * x2**2 + p2) / c["dtilde2"] - np.poly1d([1.0, 0.0])
        windows = [(0.0, eps), (-eps, 0.0)]
    out = []
    for r in np.roots(poly):
        xs = [r.real] if x2 is None else [r.real, x2(r.real)]
        if abs(r.imag) < 1e-10 and all(lo < x < hi for x, (lo, hi) in zip(xs, windows)):
            out.append(r.real)
    return sorted(out)


def test_cusp_cycle_count_matches_cubic_roots():
    # away from the cusp's sliding band the crossing cycles are exactly the
    # in-window real roots of the displacement: the cubic
    # kappa x^3 + (lam1 - dtilde) x + beta, the fold-fold quadratic, and the
    # two-fold return quartic P(x1) = x1
    cells = [
        (cusp_family(), [(-0.02, 0.0), (0.03, -0.2), (0.03, 0.23)]),
        (twofold_family(), [(0.05, 0.1), (0.005, 0.1), (-0.05, 0.1), (-0.05, -0.001), (0.05, -0.05)]),
        (foldfold_family(), [(0.1, -0.06), (0.1, -0.1), (-0.1, 0.05), (-0.1, 0.1), (0.05, 0.01)]),
    ]
    for fam, points in cells:
        for p1, p2 in points:
            real = _closed_form_crossing_roots(fam, p1, p2)
            r = classify_parameter_point(fam, (p1, p2))
            assert len(r.crossing_cycles) == len(real), (fam.name, p1, p2)
            got = sorted(c.point[0] for c in r.crossing_cycles)
            assert got == pytest.approx(real, abs=1e-9)


def test_band_is_odd_on_an_edge_and_the_first_edge_wins_a_tie():
    band = bifurcation._band
    assert [band(v, (1.0, 2.0), 0.1) for v in (0.5, 1.05, 1.5, 2.0, 3.0)] == [0, 1, 2, 3, 4]
    # two edges within 2 tol, as gamma1 and beta1 = 0 at a small beta2: the first given wins
    assert band(0.0, (1e-10, 0.0), CURVE_TOL) == 3 and band(0.0, (0.0, 1e-10), CURVE_TOL) == 1
    # the same rule over arrays, each row with its own edges
    v, e1, e2 = np.array([0.0, 0.0, 0.5, 3.0]), np.array([1e-10, 0.0, 1.0, 1.0]), np.array([0.0, 1e-10, 2.0, 2.0])
    assert band(v, (e1, e2), CURVE_TOL).tolist() == [3, 1, 0, 4]
    assert classify_parameter_point(twofold_family(), (0.0, 1e-5)).item == 2


def test_twofold_on_curve_flags_follow_the_item_bands():
    # a curve is flagged only where the item takes its edge band: gamma2 on
    # item 9 and gamma1 on item 2.  Near beta1 = 0, gamma2 = -beta1^2 lies
    # within CURVE_TOL of beta2 = 0, whose band the item takes first: item 6
    fam = twofold_family()
    g2 = twofold_curves(fam, -1e-5)["gamma2"]
    near = classify_parameter_point(fam, (-1e-5, g2 + 0.5 * CURVE_TOL))
    assert (near.item, near.flags) == (6, ())
    on2 = classify_parameter_point(fam, (-0.1, twofold_curves(fam, -0.1)["gamma2"]))
    on1 = classify_parameter_point(fam, (twofold_curves(fam, 0.1)["gamma1"], 0.1))
    assert (on2.item, on2.flags) == (9, ("on-curve:gamma2",))
    assert (on1.item, on1.flags) == (2, ("on-curve:gamma1",))


# -- the curve orders the item bands assume, over each family's coefficient box

COEFF = st.floats(0.01, 100.0)


@given(COEFF, COEFF, st.floats(CURVE_TOL, 0.05, exclude_min=True))
def test_cusp_curve_order(kappa, dtilde, lam1):
    cur = cusp_curves(cusp_family(-kappa, -dtilde), lam1)
    assert cur["Vbar"] < cur["Ibar"] < cur["Abar"]


@given(COEFF, COEFF, COEFF, COEFF, st.floats(CURVE_TOL, 0.2, exclude_min=True))
def test_twofold_curve_order(kappa1, kappa2, dtilde1, dtilde2, b):
    fam = twofold_family(-kappa1, kappa2, dtilde1, dtilde2)
    assert 0.0 < twofold_curves(fam, b)["gamma1"]
    assert twofold_curves(fam, -b)["gamma2"] < 0.0


@given(COEFF, COEFF, st.floats(CURVE_TOL, 0.15, exclude_min=True))
def test_foldfold_curve_order(kappa, dtilde, a):
    assume(kappa < dtilde)
    fam = foldfold_family(kappa, dtilde)
    # the sliding window beta2 < beta < 0 (alpha > 0) or 0 < beta < beta3 (alpha < 0),
    # split by the sliding connection beta4 or beta5
    up, down = foldfold_curves(fam, a), foldfold_curves(fam, -a)
    assert up["beta2"] == -4 * kappa * a**2 and down["beta3"] == 4 * dtilde * a**2
    assert up["beta2"] < up["beta4"] < 0.0 < down["beta5"] < down["beta3"]


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


def _scalar_fold_exit(legs, fold: int, eps: float, tol: float) -> tuple[int, int, str]:
    """The fold-exit rule over Python floats, one orbit through SyntheticLeg.land at a time:
    (corner, kind, rule), kind 1 for a slide and 2 for a connection, (0, 0) for no exit."""
    corner, x = 3 - fold, legs[fold - 1].land(0.0)
    last: dict[int, float] = {}
    for _ in range(200):
        if (x < -tol) if corner == 1 else (x > tol):
            return corner, 1, "slide"
        if abs(x) <= tol:
            return corner, 2, "connect"
        if abs(x) > eps * 10:
            return 0, 0, "escape"
        if corner in last and abs(x - last[corner]) < 1e-12:
            return 0, 0, "repeat"
        last[corner] = x
        corner, x = 3 - corner, legs[corner - 1].land(x)
    return 0, 0, "cap"


def _scalar_fold_exits(fam, b1: float, b2: float) -> tuple[tuple[int, int, str], tuple[int, int, str]]:
    """The scalar exits of folds 1 and 2 of the two-fold cell at (b1, b2), from its SyntheticLegs."""
    c, eps = fam.coeffs, fam.eps
    legs = [
        SyntheticLeg(Tu=Germ(0.0, (b, 0.0, c[f"kappa{i}"])), DTs=Germ(0.0, (0.0, c[f"dtilde{i}"])), sigma=sigma)
        for i, b, sigma in ((1, b1, (0.0, eps)), (2, b2, (-eps, 0.0)))
    ]
    return tuple(_scalar_fold_exit(legs, f, eps, CURVE_TOL) for f in (1, 2))


@pytest.mark.parametrize(
    "b1,b2,exits",
    [
        (0.05, -0.05, (2, 1, 1, 1)),  # region 12: the loop p1 -> p2 -> p1, two slides
        (-0.05, -0.05, (1, 1, 1, 1)),  # region 10: the self-loop p1 -> p1
        (-0.05, 0.1, (0, 0, 0, 0)),  # region 5: both exits contract onto the crossing cycle
        (0.0, 0.0, (2, 2, 1, 2)),  # region 7: each fold connects to the other
    ],
)
def test_twofold_fold_exit_map(b1, b2, exits):
    fam = twofold_family()
    # the two-fold builder hands the classifier the columns (to1, kind1, to2, kind2) of its fold exits
    _, cols = bifurcation._twofold_cells(fam, np.array([b1]), np.array([b2]))
    assert tuple(int(col[0]) for col in cols) == exits
    (to1, kind1, _), (to2, kind2, _) = _scalar_fold_exits(fam, b1, b2)
    assert (to1, kind1, to2, kind2) == exits


@pytest.mark.parametrize("r, rules", [
    (0.2, {"slide", "connect", "repeat"}),
    (1.0, {"slide", "connect", "repeat", "escape", "cap"}),  # past +-0.2 orbits escape or run 200 landings
])
def test_twofold_fold_exit_columns_match_the_scalar_rule(r, rules):
    # every cell of a 41x41 grid over +-r: the batched exits equal the scalar rule, cell by cell
    fam = twofold_family()
    b1, b2 = (p.ravel() for p in np.meshgrid(*[np.linspace(-r, r, 41)] * 2, indexing="ij"))
    _, cols = bifurcation._twofold_cells(fam, b1, b2)
    scalar = [_scalar_fold_exits(fam, p, q) for p, q in zip(b1.tolist(), b2.tolist())]
    assert np.stack(cols, axis=1).tolist() == [[*e1[:2], *e2[:2]] for e1, e2 in scalar]
    assert {e[2] for cell in scalar for e in cell} == rules


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
    # beta3 is the alpha < 0 boundary polycycle: undefined at alpha > 0
    assert "beta3" not in foldfold_curves(foldfold_family(), 0.1).values


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


@pytest.mark.parametrize(
    "scenario, label",
    [
        ("cusp-synthetic", "item3|x0|p1|s0|C-attracting|codim2"),
        ("vi-foldfold-synthetic", "item0|x0|p1|s0|codim2|tangent-polycycle"),
    ],
)
def test_codim2_origin_label_alone_and_in_a_sweep(scenario, label):
    fam = bifurcation.SCENARIOS[scenario]()
    assert classify_parameter_point(fam, (0.0, 0.0)).label == label
    grid = bifurcation.sweep_diagram(fam, 3, 3, ranges=((-0.01, 0.01), (-0.01, 0.01)))
    labels = {c.params: c.label for c in grid.cells}
    assert labels[(0.0, 0.0)] == label
    assert [p for p, l in labels.items() if "codim2" in l] == [(0.0, 0.0)]


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


@pytest.mark.parametrize("alpha_p", [0.03, 0.05, 0.1])
def test_circle_saddle_node_is_the_discriminant_root(alpha_p, monkeypatch):
    # the secant's beta_p* against brentq on the same 12-point discriminant
    disc = bifurcation._circle_narrow_fits
    root = brentq(lambda b: disc(alpha_p, b)[0], -1e-6, 1e-6, xtol=1e-15)
    calls = {"fits": 0, "setups": 0, "laps": 0}
    setup, fly = bifurcation._circle_setup, bifurcation._transition_values

    def counted(name, f, counts=lambda *args: True):
        def g(*args):
            calls[name] += counts(*args)
            return f(*args)
        return g

    monkeypatch.setattr(bifurcation, "_circle_narrow_fits", counted("fits", disc))
    monkeypatch.setattr(bifurcation, "_circle_setup", counted("setups", setup))
    # a lap is a forward flight; the backward ones are the short Ts transfers
    monkeypatch.setattr(bifurcation, "_transition_values", counted("laps", fly, lambda *args: args[4] == "forward"))
    sn = bifurcation.circle_saddle_node(alpha_p)
    assert abs(sn["beta_p"] - root) < 1e-13, (sn["beta_p"], root)
    if alpha_p == 0.05:
        # three set-ups and fits, then the wide kappa fit: four forward laps in all
        assert calls == {"fits": 3, "setups": 3, "laps": 4}
        # inside the flow's return-domain closure bracket
        assert 2.10e-8 < sn["beta_p"] < 2.15e-8


def test_circle_saddle_node_reports_the_fit_at_its_root():
    sn = bifurcation.circle_saddle_node(0.05)
    fit = bifurcation.circle_unfolding_fit(0.05, sn.pop("beta_p"))
    assert repr(fit) == repr(sn)


@pytest.mark.parametrize(
    "disc, why",
    [
        (lambda b: b - 5e-6, "left"),  # the first secant step lands on 5e-6
        (lambda b: 1.0, "flat"),
        (lambda b: (b - 5e-7) ** 3, "not settled"),  # a triple root: the secant crawls
    ],
)
def test_circle_saddle_node_search_fails_cleanly(disc, why, monkeypatch):
    monkeypatch.setattr(bifurcation, "_circle_narrow_fits", lambda a, b: (disc(b), None, None, None))
    with pytest.raises(NoConvergence, match=why):
        bifurcation.circle_saddle_node(0.05)


# -- sweeps ---------------------------------------------------------------------


def test_circle_has_no_traced_curves():
    # the circle's curves are not known in closed form; none are invented
    assert bifurcation._trace_curves(bifurcation.circle_family()) == {}


@pytest.mark.parametrize("scenario", ["cusp-synthetic", "twofold-synthetic", "vi-foldfold-synthetic"])
def test_sweep_cells_equal_one_cell_classification(scenario):
    # the sweep's columnar passes give every cell what classifying it alone gives:
    # label, item, flags, sliding shapes, het, polycycles and cycles
    fam = bifurcation.SCENARIOS[scenario]()
    for n1, n2 in ((11, 11), (7, 13)):
        grid = bifurcation.sweep_diagram(fam, n1, n2)
        assert len(grid.cells) == len(grid.labels) == n1 * n2
        for cell, label in zip(grid.cells, grid.labels):
            assert cell == classify_parameter_point(fam, cell.params)
            assert cell.label == label


def test_circle_sweep_is_its_cells_alone_and_keeps_a_cell_error_to_its_cell(monkeypatch):
    # cells compare by repr: a circle cycle's residual is nan, so two reports of one cell differ under ==
    fam = bifurcation.circle_family()
    grid = bifurcation.sweep_diagram(fam, 3, 3)  # both signs of alpha_p and beta_p, and the origin
    assert len(grid.cells) == len(grid.labels) == 9
    for cell, label in zip(grid.cells, grid.labels):
        assert repr(cell) == repr(classify_parameter_point(fam, cell.params)) and cell.label == label
    at = grid.params.index((0.1, 0.0))  # a cell with a crossing cycle
    fly = bifurcation._circle_return

    def no_return_at_one_cell(alpha_p, beta_p):
        if (alpha_p, beta_p) == (0.1, 0.0):
            raise NoHit("no Sigma return")
        return fly(alpha_p, beta_p)

    monkeypatch.setattr(bifurcation, "_circle_return", no_return_at_one_cell)
    broken = bifurcation.sweep_diagram(fam, 3, 3)
    assert broken.labels[at] == broken.cells[at].label == "error:NoHit: no Sigma return"
    assert broken.tails[at] == "0,0,0,"
    others = [k for k in range(9) if k != at]
    assert [broken.labels[k] for k in others] == [grid.labels[k] for k in others]
    assert [repr(broken.cells[k]) for k in others] == [repr(grid.cells[k]) for k in others]
    # a programming error is no cell's error
    monkeypatch.setattr(bifurcation, "_circle_return", lambda alpha_p, beta_p: None + 1)
    with pytest.raises(TypeError):
        bifurcation.sweep_diagram(fam, 3, 3)


def _on_curve_cells():
    """(scenario, (p1, p2)) of cells on and within CURVE_TOL of each curve value, then of
    cells at the codim-2 origins and within CURVE_TOL of the lines lambda1, beta1, alpha = 0."""
    offsets = (0.0, 0.75 * CURVE_TOL, -0.75 * CURVE_TOL)
    cusp, twofold, foldfold = cusp_family(), twofold_family(), foldfold_family()
    for lam1 in (0.03, 2e-9):
        for name in ("Vbar", "Ibar", "Abar"):
            yield from (("cusp-synthetic", (lam1, cusp_curves(cusp, lam1)[name] + o)) for o in offsets)
    for b in (0.1, 1e-5):
        yield from (("twofold-synthetic", (twofold_curves(twofold, b)["gamma1"] + o, b)) for o in offsets)
        yield from (("twofold-synthetic", (-b, twofold_curves(twofold, -b)["gamma2"] + o)) for o in offsets)
    for alpha in (0.1, -0.1, 1e-5, -1e-5):
        for _, v in sorted(foldfold_curves(foldfold, alpha).values.items()):
            yield from (("vi-foldfold-synthetic", (alpha, v + o)) for o in offsets)
    yield from (("cusp-synthetic", p) for p in ((5e-10, 0.1), (-5e-10, -0.1), (0.0, 5e-10)))
    yield from (("twofold-synthetic", p) for p in ((0.0, 1e-5), (0.0, 0.0), (5e-10, -5e-10)))
    yield from (("vi-foldfold-synthetic", p) for p in ((5e-10, 0.01), (0.0, 0.0), (-5e-10, 5e-10)))


# the labels of _on_curve_cells, as the per-cell classifiers gave them
ON_CURVE_LABELS = """
item5|x0|p1|s0|on-curve:Vbar
item5|x0|p1|s0|on-curve:Vbar
item5|x0|p1|s0|on-curve:Vbar
item7|x0|p0|s1[1f1s]|het|on-curve:Ibar
item7|x0|p0|s1[1f1s]|het|on-curve:Ibar
item7|x0|p0|s1[1f1s]|het|on-curve:Ibar
item9|x0|p1|s0|on-curve:Abar
item9|x0|p1|s0|on-curve:Abar
item9|x0|p1|s0|on-curve:Abar
item5|x0|p1|s0|on-curve:Vbar
item5|x0|p1|s0|on-curve:Vbar
item5|x0|p1|s0|on-curve:Vbar
item7|x0|p0|s1[1f1s]|het|on-curve:Ibar
item7|x0|p0|s1[1f1s]|het|on-curve:Ibar
item7|x0|p0|s1[1f1s]|het|on-curve:Ibar
item9|x0|p1|s0|on-curve:Abar
item9|x0|p1|s0|on-curve:Abar
item9|x0|p1|s0|on-curve:Abar
item2|x0|p1|s0|on-curve:gamma1
item2|x0|p1|s0|on-curve:gamma1
item2|x0|p1|s0|on-curve:gamma1
item9|x0|p1|s0|on-curve:gamma2
item9|x0|p1|s0|on-curve:gamma2
item9|x0|p1|s0|on-curve:gamma2
item2|x0|p1|s0|het|on-curve:gamma1
item2|x0|p1|s0|het|on-curve:gamma1
item2|x0|p1|s0|het|on-curve:gamma1
item6|x0|p1|s0|het
item6|x0|p1|s0|het
item6|x0|p1|s0|het
item2|x1[s]|p0|s0|X-cycle-in-Mplus|on-curve:beta1
item3|x2[a,r]|p0|s0|X-cycle-in-Mplus|on-curve:beta1
item1|x0|p0|s0|X-cycle-in-Mplus|on-curve:beta1
item4|x1[a]|p1|s0|X-cycle-in-Mplus|on-curve:beta2
item5|x1[a]|p0|s0|X-cycle-in-Mplus|on-curve:beta2
item3|x2[a,r]|p0|s0|X-cycle-in-Mplus|on-curve:beta2
item5|x1[a]|p0|s1[2f1s]|X-cycle-in-Mplus|on-curve:beta4
item5|x1[a]|p0|s1[2f1s]|X-cycle-in-Mplus|on-curve:beta4
item5|x1[a]|p0|s1[2f1s]|X-cycle-in-Mplus|on-curve:beta4
item1|x0|p0|s0|X-cycle-in-Mplus|on-curve:beta1
item1|x0|p0|s0|X-cycle-in-Mplus|on-curve:beta1
item1|x0|p0|s0|X-cycle-in-Mplus|on-curve:beta1
item6|x0|p1|s0|on-curve:beta3
item6|x0|p1|s0|on-curve:beta3
item6|x0|p1|s0|on-curve:beta3
item1|x0|p0|s1[2f1s]|on-curve:beta5
item1|x0|p0|s1[2f1s]|on-curve:beta5
item1|x0|p0|s1[2f1s]|on-curve:beta5
item2|x1[s]|p0|s0|on-curve:beta1|on-curve:beta2|on-curve:beta4|tangent-X-cycle
item5|x1[a]|p0|s0|on-curve:beta1|on-curve:beta2|on-curve:beta4|tangent-X-cycle
item1|x0|p0|s0|X-cycle-in-Mplus|on-curve:beta1
item4|x1[a]|p1|s0|on-curve:beta1|on-curve:beta2|on-curve:beta4|tangent-X-cycle
item5|x1[a]|p0|s0|on-curve:beta2|on-curve:beta4|tangent-X-cycle
item1|x0|p0|s0|X-cycle-in-Mplus|on-curve:beta1|on-curve:beta2
item5|x1[a]|p0|s0|on-curve:beta1|on-curve:beta2|on-curve:beta4|tangent-X-cycle
item5|x1[a]|p0|s0|on-curve:beta4|tangent-X-cycle
item1|x0|p0|s0|on-curve:beta1|on-curve:beta2|on-curve:beta4|tangent-X-cycle
item1|x0|p0|s0|on-curve:beta1|tangent-X-cycle
item1|x0|p0|s0|on-curve:beta1|on-curve:beta3|on-curve:beta5|tangent-X-cycle
item1|x0|p0|s0|X-cycle-in-Mplus|on-curve:beta1
item6|x0|p1|s0|on-curve:beta3|on-curve:beta5|tangent-X-cycle
item5|x1[a]|p0|s0|on-curve:beta3
item1|x0|p0|s0|on-curve:beta1|on-curve:beta3|on-curve:beta5|tangent-X-cycle
item1|x0|p0|s0|on-curve:beta3|on-curve:beta5|tangent-X-cycle
item5|x1[a]|p0|s0|on-curve:beta3|on-curve:beta5|tangent-X-cycle
item1|x0|p0|s0|on-curve:beta1|on-curve:beta5|tangent-X-cycle
item2|x1[a]|p0|s0
item2|x1[a]|p0|s0
item3|x0|p1|s0|C-attracting|codim2
item2|x0|p1|s0|het|on-curve:gamma1
item7|x0|p1|s0|het|codim2
item7|x0|p1|s0|het|codim2
item5|x1[a]|p0|s0
item0|x0|p1|s0|codim2|tangent-polycycle
item0|x0|p1|s0|codim2|tangent-polycycle
""".split()


def test_cells_on_and_near_every_curve_keep_their_labels_alone_and_in_a_batch():
    cells = list(_on_curve_cells())
    labels = {}
    for scenario in ("cusp-synthetic", "twofold-synthetic", "vi-foldfold-synthetic"):
        fam = bifurcation.SCENARIOS[scenario]()
        points = [p for sc, p in cells if sc == scenario]
        batch = bifurcation._classify_cells(fam, points)
        for p, label, report in zip(points, bifurcation._rows(batch)[0], bifurcation._reports(batch)):
            assert report == classify_parameter_point(fam, p) and report.label == label, (scenario, p)
            labels[scenario, p] = label
    assert [labels[cell] for cell in cells] == ON_CURVE_LABELS


def test_sweep_period_annulus_cell_leaves_the_others(monkeypatch):
    fam = foldfold_family()
    ranges = ((-0.1, 0.1), (-0.1, 0.1))
    plain = {c.params: c for c in bifurcation.sweep_diagram(fam, 3, 3, ranges=ranges).cells}
    _, classify, curves, trace = bifurcation._JOBS["VIFoldFold"]
    build = bifurcation._foldfold_cells

    def annulus_at_one_cell(f, alpha, beta):
        # the builder's row of (0.1, -0.1) becomes Tu = DTs = x, a = 0: every point returns to itself
        (leg,), reads = build(f, alpha, beta)
        at = list(zip(alpha.tolist(), beta.tolist())).index((0.1, -0.1))
        tu, dts, a = leg.tu.copy(), leg.dts.copy(), leg.a.copy()
        tu[at], dts[at], a[at] = (0.0, 1.0, 0.0), (0.0, 1.0, 0.0), 0.0
        annulus = _LegArrays(tu=tuple(tu.T), dts=tuple(dts.T), sigma=(leg.lo, leg.hi), a=a)
        return [annulus], reads

    solve = bifurcation._solve_legs(annulus_at_one_cell)
    monkeypatch.setitem(bifurcation._JOBS, "VIFoldFold", (solve, classify, curves, trace))
    cells = {c.params: c for c in bifurcation.sweep_diagram(fam, 3, 3, ranges=ranges).cells}
    assert cells.pop((0.1, -0.1)).label.startswith("error:PeriodAnnulus: ")
    assert len(cells) == 8 and all(c == plain[p] for p, c in cells.items())
    assert not any(c.error for c in cells.values())


def test_sweep_records_period_annulus(monkeypatch):
    fam = foldfold_family()
    _, classify, curves, trace = bifurcation._JOBS["VIFoldFold"]
    # the one cell's model is Tu = DTs = x: every point of the window returns to itself
    annulus = _LegArrays(tu=(0.0, 1.0), dts=(0.0, 1.0), sigma=(-0.3, 0.0))
    solve = bifurcation._solve_legs(lambda *args: ([annulus], ()))
    monkeypatch.setitem(bifurcation._JOBS, "VIFoldFold", (solve, classify, curves, trace))
    grid = bifurcation.sweep_diagram(fam, 1, 1, ranges=((0.1, 0.1), (-0.05, -0.05)))
    assert grid.cells[0].label.startswith("error:PeriodAnnulus: ")


def test_sweep_records_numeric_errors_and_propagates_bugs(monkeypatch):
    # a cell's numeric error is its return polynomial's (the PeriodAnnulus
    # tests above); the classifiers read columns and raise none per cell
    fam = foldfold_family()
    _, classify, curves, trace = bifurcation._JOBS["VIFoldFold"]

    def broken(f, *params):
        raise TypeError("a bug, not a data point")

    monkeypatch.setitem(bifurcation._JOBS, "VIFoldFold", (bifurcation._solve_legs(broken), classify, curves, trace))
    with pytest.raises(TypeError):
        bifurcation.sweep_diagram(fam, 3, 3)


@pytest.mark.parametrize("scenario", ["cusp-synthetic", "vi-foldfold-synthetic"])
def test_closed_form_sweep_builds_no_model_per_cell_and_no_outside_report(scenario, monkeypatch, tmp_path):
    built = {
        "SyntheticModel": 0, "SyntheticLeg": 0, "Germ": 0,
        "outside CycleReport": 0, "CycleReport": 0, "RegionReport": 0,
    }

    def counting(cls, key):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built[key] += 1
            if cls is CycleReport and self.locus == "outside":
                built["outside CycleReport"] += 1

        monkeypatch.setattr(cls, "__init__", wrapper)

    for cls in (SyntheticModel, SyntheticLeg, Germ, CycleReport, bifurcation.RegionReport):
        counting(cls, cls.__name__)
    # the diagram command writes its CSVs from the columns: no report of any kind
    assert cli.run(["diagram", "--scenario", scenario, "--grid", "51x51", "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "diagram.csv").read_text().splitlines()) == 1 + 51 * 51
    assert set(built.values()) == {0}
    # a sweep's reports are built when its cells are read
    grid = bifurcation.sweep_diagram(bifurcation.SCENARIOS[scenario](), 51, 51)
    assert len(grid.cells) == 51 * 51 and not any(c.error for c in grid.cells)
    reported = sum(len(c.crossing_cycles) for c in grid.cells)
    assert built["CycleReport"] >= reported > 0 and built["RegionReport"] == 51 * 51
    assert {k: v for k, v in built.items() if k not in ("CycleReport", "RegionReport")} == {
        "SyntheticModel": 0, "SyntheticLeg": 0, "Germ": 0, "outside CycleReport": 0,
    }
    # the public solver still reports the roots outside the windows
    outside = polycycle.normal_form_model(1.0, 3.0, 2, lam=(1.0,))
    assert [r.locus for r in polycycle.find_cycles(outside)] == ["outside", "outside"]
