import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigmapoly import io
from sigmapoly.bifurcation import (
    _cusp_cells,
    _foldfold_cells,
    _twofold_cells,
    cusp_family,
    foldfold_family,
    twofold_family,
)
from sigmapoly.cli import run
from sigmapoly.errors import ConfigError, NumericError, PeriodAnnulus
from sigmapoly.maps import Germ, root_cluster_rows, root_clusters
from sigmapoly.polycycle import (
    SyntheticLeg,
    SyntheticModel,
    _cycle_reports,
    _cycle_rows,
    _LegArrays,
    find_cycles,
    first_return,
    normal_form_model,
    return_polynomial_rows,
)


EPS = float(np.finfo(float).eps)


def quad_model(lam0: float, dtilde: float, sigma=(-0.3, 0.0)) -> SyntheticModel:
    """One-leg Tu(x) = x^2 + lam0, DTs(x) = dtilde x."""
    return normal_form_model(1.0, dtilde, 2, lam=(lam0,), sigma=sigma)


def _is_double(lam0: float, dtilde: float) -> bool:
    """Is the discriminant of Delta(x) = x^2 - dtilde x + lam0 zero up to its rounding?"""
    return abs(dtilde * dtilde - 4.0 * lam0) <= 4.0 * EPS * (dtilde * dtilde + 4.0 * abs(lam0))


def in_window_roots(lam0: float, dtilde: float, sigma=(-0.3, 0.0)):
    """Real roots of Delta(x) = x^2 - dtilde x + lam0 in the window, in closed form.

    A double root counts once.
    """
    disc = dtilde * dtilde - 4.0 * lam0
    if _is_double(lam0, dtilde):
        r = np.array([dtilde / 2.0])
    elif disc < 0.0:
        r = np.array([])
    else:
        s = np.sqrt(disc)
        r = np.array([(dtilde - s) / 2.0, (dtilde + s) / 2.0])
    return r[(r >= sigma[0]) & (r <= sigma[1])]


def test_find_cycles_matches_roots():
    model = quad_model(-0.01, 1.0)
    reports = [r for r in find_cycles(model) if r.locus == "interior"]
    expected = in_window_roots(-0.01, 1.0)
    assert len(expected) == 1 and len(reports) == 1
    assert reports[0].point[0] == pytest.approx(expected[0], abs=1e-12)
    assert abs(model.displacement(reports[0].point)[0]) < 1e-12


def test_find_cycles_reports_out_of_window_roots():
    # the only real roots of x^2 + 1 - 3x, (3 -+ sqrt 5)/2, lie right of the window
    reports = find_cycles(quad_model(1.0, 3.0))
    assert [r.point[0] for r in reports] == pytest.approx(
        [(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2], abs=1e-12
    )
    assert all(r.locus == "outside" and r.kind == "outside" for r in reports)


def test_find_cycles_no_real_roots():
    assert find_cycles(quad_model(1.0, 1.0)) == []  # discriminant < 0


def test_find_cycles_two_roots_and_stability():
    model = quad_model(0.01, -0.25)
    reports = [r for r in find_cycles(model) if r.locus == "interior"]
    expected = in_window_roots(0.01, -0.25)  # -0.2 and -0.05
    assert np.allclose(expected, [-0.2, -0.05])
    assert [r.point[0] for r in reports] == pytest.approx(list(expected), abs=1e-10)
    # dP = 2x / dtilde: 1.6 at -0.2 (repelling), 0.4 at -0.05 (attracting)
    assert reports[0].stability == "repelling"
    assert reports[0].dP == pytest.approx(1.6, abs=1e-9)
    assert reports[1].stability == "attracting"
    assert reports[1].dP == pytest.approx(0.4, abs=1e-9)
    assert all(r.kind == "crossing-cycle" for r in reports)


def test_boundary_root_is_polycycle():
    model = quad_model(0.0, 1.0)  # Delta = x^2 - x, root at the window edge 0
    reports = [r for r in find_cycles(model) if r.locus != "outside"]
    assert len(reports) == 1
    assert reports[0].point[0] == 0.0
    assert reports[0].locus == "boundary"
    assert reports[0].kind == "polycycle"


def test_saddle_node_detection():
    # Delta = x^2 + x/4 + 1/64 = (x + 1/8)^2, exact in binary: a double
    # root, where P'(x) = 2x / dtilde = 1
    reports = find_cycles(quad_model(1 / 64, -0.25))
    assert len(reports) == 1
    rep = reports[0]
    assert rep.point[0] == pytest.approx(-0.125, abs=1e-12)
    assert rep.saddle_node
    assert rep.stability == "semistable"
    assert rep.dP == pytest.approx(1.0, abs=1e-12)


def test_first_return_closed_form():
    model = normal_form_model(1.0, 2.0, 2)
    for x in (-0.25, -0.1, -0.01):
        p = first_return(model, x)
        assert p == pytest.approx(x**2 / 2.0, rel=1e-12)
        # consistency: DTs(P(x)) = Tu(x)
        leg = model.legs[0]
        assert leg.DTs(p) == pytest.approx(leg.Tu(x), abs=1e-13)


def test_first_return_eII_shift():
    model = normal_form_model(1.0, 2.0, 2, a=-0.05)
    x = -0.2
    assert first_return(model, x) == pytest.approx((x + 0.1) ** 2 / 2.0, rel=1e-10)


def test_leg_land_inverts_affine_dts():
    # Tu(u) = u^2 - 0.01 at u = x - 2a, DTs(y) = 3 + 2 (y - 0.1): the landing solves DTs(y) = Tu(x - 2a)
    Tu = Germ(base=0.0, coeffs=(-0.01, 0.0, 1.0))
    DTs = Germ(base=0.1, coeffs=(3.0, 2.0))
    leg = SyntheticLeg(Tu=Tu, DTs=DTs, sigma=(-0.3, 0.0), a=0.05)
    for x in (-0.2, 0.0, 0.15):
        assert leg.land(x) == pytest.approx(0.1 + ((x - 0.1) ** 2 - 0.01 - 3.0) / 2.0, rel=1e-14)
        assert DTs(leg.land(x)) == pytest.approx(Tu(x - 0.1), rel=1e-14)


def test_two_leg_symmetric_cycle():
    Tu = Germ(base=0.0, coeffs=(-0.01, 0.0, 1.0), window=0.3)
    DTs = Germ(base=0.0, coeffs=(0.0, 1.0), window=0.3)
    leg = SyntheticLeg(Tu=Tu, DTs=DTs, sigma=(-0.3, 0.0))
    model = SyntheticModel(legs=(leg, leg))
    reports = [r for r in find_cycles(model) if r.locus == "interior"]
    assert len(reports) == 1
    root = in_window_roots(-0.01, 1.0)[0]
    assert np.allclose(reports[0].point, [root, root], atol=1e-12)
    assert reports[0].dP == pytest.approx(4 * root**2, rel=1e-10)


def test_return_derivative_is_jacobian_free_product():
    model = quad_model(0.01, -0.25)
    x = np.array([-0.05])
    # finite-difference check of dP against first_return
    eps = 1e-7
    fd = (first_return(model, x[0] + eps) - first_return(model, x[0] - eps)) / (
        2 * eps
    )
    assert model.return_derivative(x) == pytest.approx(fd, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    dtilde=st.floats(-0.3, -0.1),
    lam0=st.floats(0.001, 0.02),
)
@example(dtilde=-0.2, lam0=0.01)  # the double root -0.1
def test_find_cycles_exhaustive_root_isolation(dtilde, lam0):
    expected = in_window_roots(lam0, dtilde)
    model = quad_model(lam0, dtilde)
    got = sorted(
        r.point[0]
        for r in find_cycles(model)
        if r.locus == "interior" and r.residual < 1e-10
    )
    assert len(got) == len(expected)
    assert got == pytest.approx(list(expected), abs=1e-8)
    # independent isolation: sign changes of Delta on a fine grid
    xs = np.linspace(-0.3 + 1e-9, -1e-9, 20001)
    delta = xs**2 + lam0 - dtilde * xs
    changes = int(np.sum(np.sign(delta[:-1]) * np.sign(delta[1:]) < 0))
    # Delta does not change sign at a double root
    assert changes == (0 if _is_double(lam0, dtilde) else len(got))


_TWOFOLD = twofold_family()


def twofold_model(fam, b1: float, b2: float) -> SyntheticModel:
    """The two-fold cell's model: Tu_i = b_i + kappa_i x^2, DTs_i = dtilde_i x on (0, eps), (-eps, 0)."""
    c, eps = fam.coeffs, fam.eps
    legs = [
        SyntheticLeg(
            Tu=Germ(base=0.0, coeffs=(b, 0.0, c[f"kappa{i}"]), window=eps),
            DTs=Germ(base=0.0, coeffs=(0.0, c[f"dtilde{i}"]), window=eps),
            sigma=sigma,
        )
        for i, b, sigma in ((1, b1, (0.0, eps)), (2, b2, (-eps, 0.0)))
    ]
    return SyntheticModel(legs=tuple(legs))


def cusp_model(fam, lam1: float, beta: float) -> SyntheticModel:
    """The cusp cell's model: displacement kappa x^3 + (lam1 - dtilde) x + beta on (-eps, eps)."""
    return normal_form_model(fam.coeffs["kappa"], fam.coeffs["dtilde"], 3, lam=(beta, lam1), sigma=(-fam.eps, fam.eps))


def foldfold_model(fam, alpha: float, beta: float) -> SyntheticModel:
    """The fold-fold cell's model: Tu(u) = beta + kappa u^2 at u = x - 2 alpha, DTs = dtilde x^2."""
    Tu = Germ(base=0.0, coeffs=(beta, 0.0, fam.coeffs["kappa"]), window=fam.eps)
    DTs = Germ(base=0.0, coeffs=(0.0, 0.0, fam.coeffs["dtilde"]), window=fam.eps)
    return SyntheticModel(legs=(SyntheticLeg(Tu=Tu, DTs=DTs, sigma=(-fam.eps, min(0.0, 2.0 * alpha)), a=alpha),))


@settings(max_examples=60, deadline=None)
@given(b1=st.floats(-0.3, 0.3), b2=st.floats(-0.3, 0.3))
def test_find_cycles_twofold_matches_quartic_roots(b1, b2):
    # x2 = (b1 + k1 x1^2)/d1 and b2 + k2 x2^2 = d2 x1: a quartic in x1
    c = _TWOFOLD.coeffs
    k1, k2, d1, d2 = c["kappa1"], c["kappa2"], c["dtilde1"], c["dtilde2"]
    quartic = [k2 * k1**2 / d1**2, 0.0, 2 * k2 * k1 * b1 / d1**2, -d2, b2 + k2 * b1**2 / d1**2]
    roots = np.roots(quartic)
    real = np.sort(roots[np.abs(roots.imag) <= 1e-7 * np.maximum(1.0, np.abs(roots))].real)
    double = np.diff(real) <= 1e-8
    # a double root (on a saddle-node curve, e.g. (-0.25, 0.25)) is one
    # cycle, fixed only to about the square root of machine epsilon
    expected = real[np.r_[True, ~double]] if len(real) else real
    tol = 1e-7 if double.any() else 1e-10
    reports = find_cycles(twofold_model(_TWOFOLD, b1, b2))
    got = np.array([r.point for r in reports]).reshape(-1, 2)
    assert got[:, 0] == pytest.approx(expected, abs=tol)
    assert got[:, 1] == pytest.approx((b1 + k1 * expected**2) / d1, abs=tol)


def test_find_cycles_double_root_is_one_semistable_cycle():
    # Delta = x^2 + 0.2 x + 0.01 = (x + 0.1)^2
    reports = find_cycles(quad_model(0.01, -0.2))
    assert len(reports) == 1
    assert reports[0].point[0] == pytest.approx(-0.1, abs=1e-12)
    assert reports[0].stability == "semistable"
    assert reports[0].saddle_node


def test_find_cycles_triple_root_is_one_saddle_node():
    # Delta = x^3 + 0.3 x^2 + 0.03 x + 0.001 = (x + 0.1)^3: the companion
    # eigenvalues split it by about 1e-6, far more than a double root's split
    reports = find_cycles(normal_form_model(1.0, -0.03, 3, lam=(0.001, 0.0, 0.3)))
    assert len(reports) == 1
    assert reports[0].point[0] == pytest.approx(-0.1, abs=1e-10)
    assert reports[0].saddle_node
    assert reports[0].stability == "semistable"


@pytest.mark.parametrize("dts", [(0.0, 1.0, 0.5), (0.3, 0.0), (2.0,), (0.5, 0.0, 0.0), (0.0, 1.0, 0.5, 0.0)])
def test_find_cycles_needs_invertible_affine_dts(dts, tmp_path, capsys):
    Tu = Germ(base=0.0, coeffs=(-0.01, 0.0, 1.0), window=0.3)
    leg = SyntheticLeg(Tu=Tu, DTs=Germ(base=0.0, coeffs=dts, window=0.3), sigma=(-0.3, 0.0))
    model = SyntheticModel(legs=(leg, leg))
    # the message quotes the coefficients as given, trailing zeros and all
    message = f"leg 0: a model with several legs needs an affine DTs of nonzero slope, got coefficients {list(dts)}"
    with pytest.raises(ConfigError) as e:
        find_cycles(model)
    assert str(e.value) == message
    mp = tmp_path / "model.json"
    mp.write_text(io.dumps(io.model_to_dict(model)))
    capsys.readouterr()
    assert run(["polycycle-solve", "--model", str(mp)]) == 2
    assert message in capsys.readouterr().err


def test_find_cycles_twofold_double_root_to_machine_precision():
    # on the saddle-node point (-0.25, 0.25) the quartic in x1 is
    # (x1 - 1/2)^2 (x1^2 + x1 + 5/4): one double root, x2 = -1/2
    reports = find_cycles(twofold_model(_TWOFOLD, -0.25, 0.25))
    assert len(reports) == 1
    assert reports[0].point == pytest.approx((0.5, -0.5), abs=1e-12)
    assert reports[0].saddle_node


def _annulus_model() -> SyntheticModel:
    # Tu = DTs: every point of the window returns to itself
    g = Germ(base=0.0, coeffs=(0.0, 1.0), window=0.3)
    return SyntheticModel(legs=(SyntheticLeg(Tu=g, DTs=g, sigma=(-0.3, 0.0)),))


def test_find_cycles_flags_period_annulus(tmp_path, capsys):
    with pytest.raises(PeriodAnnulus):
        find_cycles(_annulus_model())
    mp = tmp_path / "model.json"
    mp.write_text(io.dumps(io.model_to_dict(_annulus_model())))
    assert run(["polycycle-solve", "--model", str(mp)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PeriodAnnulus"
    assert "period annulus" in err["message"]


# -- the batched root and cycle pass ---------------------------------------------


def _rows_of(rows):
    """root_cluster_rows of rows, zero-padded to one width, regrouped into one (x, m) list per row."""
    width = max(map(len, rows))
    row, x, m = root_cluster_rows([list(r) + [0.0] * (width - len(r)) for r in rows])
    out = [[] for _ in rows]
    for i, xi, mi in zip(row.tolist(), x.tolist(), m.tolist()):
        out[i].append((xi, mi))
    return out


def _batch_find_cycles(models) -> list:
    """The reports of every model from one batch per number of legs, as a sweep solves them;
    each row's return polynomial is the model's scalar one, to the bit."""
    out = [None] * len(models)
    for k in {model.k for model in models}:
        of_k = [i for i, model in enumerate(models) if model.k == k]
        legs = [_LegArrays.of([models[i].legs[j] for i in of_k]) for j in range(k)]
        P, errors = return_polynomial_rows(legs)
        assert errors == {}
        for i, row in zip(of_k, P):
            _assert_bits(row, _scalar_return_polynomial(models[i]))
        row, fields, errors = _cycle_rows(legs)
        assert errors == {}
        for i, reports in zip(of_k, _cycle_reports(row, fields, len(of_k))):
            out[i] = reports
    return out


def _assert_batch_equals_one_row_calls(models):
    polys = [_scalar_return_polynomial(model) for model in models]
    assert _rows_of(polys) == [root_clusters(p) for p in polys]
    batch = _batch_find_cycles(models)
    assert batch == [find_cycles(model) for model in models]
    # the array classification is the model's own scalar formulas, to the bit
    for model, reports in zip(models, batch):
        for r in reports:
            xs = list(r.point)
            assert xs[1:] == [leg.land(x) for leg, x in zip(model.legs, xs[:-1])]
            assert r.residual == max(map(abs, model.displacement(xs).tolist()))
            assert r.dP == model.return_derivative(xs)


def _grid(fam, n: int) -> list[np.ndarray]:
    """The p1 and p2 arrays of the family's n x n grid, row-major, as sweep_diagram makes it."""
    (lo1, hi1), (lo2, hi2) = fam.ranges
    return [a.ravel() for a in np.meshgrid(np.linspace(lo1, hi1, n), np.linspace(lo2, hi2, n), indexing="ij")]


@pytest.mark.parametrize(
    "build, fam",
    [(cusp_model, cusp_family()), (foldfold_model, foldfold_family())],
    ids=["cusp", "foldfold"],
)
def test_batched_pass_equals_one_row_calls_on_grid(build, fam):
    models = [build(fam, a, b) for a, b in zip(*(p.tolist() for p in _grid(fam, 51)))]
    _assert_batch_equals_one_row_calls(models)


def _compose(coeffs, arg: list[float]) -> list[float]:
    """Coefficients of c0 + c1 arg + ... + cn arg^n over Python floats: the
    operation order that return_polynomial_rows reproduces."""
    out = [float(coeffs[-1])]
    for c in coeffs[-2::-1]:
        prod = [0.0] * (len(out) + len(arg) - 1)
        for i, u in enumerate(out):
            for j, v in enumerate(arg):
                prod[i + j] += u * v
        prod[0] += c
        out = prod
    return out


def _sub(p: list[float], q: list[float]) -> list[float]:
    n = max(len(p), len(q))
    return [a - b for a, b in zip(p + [0.0] * (n - len(p)), q + [0.0] * (n - len(q)))]


def _scalar_return_polynomial(model: SyntheticModel) -> list[float]:
    """The return polynomial composed leg by leg over Python floats."""
    if model.k == 1:
        leg = model.legs[0]
        tu = _compose(leg.Tu.coeffs, [-2 * leg.a - leg.Tu.base, 1.0])
        return _sub(tu, _compose(leg.DTs.coeffs, [-leg.DTs.base, 1.0]))
    p = [0.0, 1.0]
    for leg in model.legs:
        c0, c1 = leg.DTs.coeffs[:2]
        tu = _compose(leg.Tu.coeffs, _sub(p, [2 * leg.a + leg.Tu.base]))
        tu[0] -= c0
        p = [v / c1 for v in tu]
        p[0] += leg.DTs.base
    return _sub(p, [0.0, 1.0])


def _assert_bits(row: np.ndarray, p: list[float]) -> None:
    """row equals p bit for bit, signs of zero included, and is zero past it."""
    head = np.asarray(p, dtype=float)
    assert np.array_equal(row[: len(p)], head) and np.array_equal(np.signbit(row[: len(p)]), np.signbit(head))
    assert not row[len(p) :].any()


@pytest.mark.parametrize(
    "cells, build, fam, n",
    [
        (_cusp_cells, cusp_model, cusp_family(), 51),
        (_foldfold_cells, foldfold_model, foldfold_family(), 51),
        (_twofold_cells, twofold_model, _TWOFOLD, 41),
    ],
    ids=["cusp", "foldfold", "twofold"],
)
def test_columnar_return_polynomials_equal_scalar_ones_to_the_bit(cells, build, fam, n):
    p1, p2 = _grid(fam, n)
    legs, reads = cells(fam, p1, p2)
    models = [build(fam, a, b) for a, b in zip(p1.tolist(), p2.tolist())]
    P, errors = return_polynomial_rows(legs)
    assert errors == {} and len(P) == len(models) == n * n and all(len(col) == n * n for col in reads)
    for r, (row, model) in enumerate(zip(P, models)):
        _assert_bits(row, _scalar_return_polynomial(model))
        if build is cusp_model and reads[0][r] == reads[0][r]:  # the landing of V, where lam1 > 0
            V = np.sqrt(-model.legs[0].Tu.coeffs[1] / (3.0 * fam.coeffs["kappa"]))
            assert reads[0][r] == model.legs[0].land(float(V))


# (name, model) of rows that take each branch of the root pass: a double
# root, a triple root, a complex pair, a leading coefficient of 0 and several
# legs, so a batch of them also mixes degrees 1 to 4
HAND_MODELS = [
    ("double", quad_model(0.01, -0.2)),
    ("triple", normal_form_model(1.0, -0.03, 3, lam=(0.001, 0.0, 0.3))),
    ("pair", quad_model(1.0, 1.0)),
    ("degree drop", normal_form_model(0.0, 1.0, 3, lam=(0.01, -0.5, 1.0))),
    ("linear", normal_form_model(0.0, -0.25, 1, lam=(0.01, 0.5))),
    ("two legs", twofold_model(_TWOFOLD, -0.25, 0.25)),
    ("simple", quad_model(0.01, -0.25)),
]

# (row, its real roots as (x, m)) of rows whose clusters split.  In the
# first quartic a cluster loses its farthest member and the non-real rest
# breaks up, leaving no real root; in the second far splits leave two simple
# roots.  A perturbed triple root splits into a double and a simple root when
# its farthest member leaves, and a non-real triple breaks up into a real
# root and a pair.
SPLIT_ROWS = [
    ([0.011044135782126568, 0.13627267917447117, 0.6305464995992149, 1.296710195943397, 0.9999999999987916], []),
    (
        [0.9881324837389505, 3.964344374076687, 5.964291191303342, 3.988079300890995, 0.9999999999997303],
        [(-0.9984773593222613, 1), (-0.9955662786476055, 1)],
    ),
    (
        [-28.00061872753324, 51.04429422244836, -31.017409508238796, 6.2826459989767285],
        [(1.6456657350524015, 2), (1.645706705146417, 1)],
    ),
    ([-1.4595962911022347, 7.911111719825988, -14.292922187934922, 8.607623972679692], [(0.5534858560161563, 1)]),
]


def test_batched_pass_equals_one_row_calls_on_hand_rows():
    models = [m for _, m in HAND_MODELS]
    degrees = [len(np.trim_zeros(_scalar_return_polynomial(m), "b")) - 1 for m in models]
    assert sorted(set(degrees)) == [1, 2, 3, 4]
    _assert_batch_equals_one_row_calls(models)
    _assert_batch_equals_one_row_calls(models[::-1])
    # every batch order gives every model the same reports
    alone = [find_cycles(m) for m in models]
    for order in itertools.islice(itertools.permutations(range(len(models))), 1, None, 251):
        batch = [models[i] for i in order]
        assert _batch_find_cycles(batch) == [alone[i] for i in order]
    reports = dict(zip([n for n, _ in HAND_MODELS], _batch_find_cycles(models)))
    assert [(len(reports[n]), reports[n][0].saddle_node) for n in ("double", "triple")] == [(1, True)] * 2
    assert reports["pair"] == []
    # with the rows whose clusters split, the batch gives every row its own roots in any order
    polys = [_scalar_return_polynomial(m) for m in models] + [row for row, _ in SPLIT_ROWS]
    alone = [root_clusters(p) for p in polys]
    assert alone[len(models) :] == [roots for _, roots in SPLIT_ROWS]
    rng = np.random.default_rng(0)
    for order in [range(len(polys)), range(len(polys))[::-1], *(rng.permutation(len(polys)) for _ in range(20))]:
        assert _rows_of([polys[i] for i in order]) == [alone[i] for i in order]


def _leg(tu) -> SyntheticLeg:
    return SyntheticLeg(Tu=Germ(base=0.0, coeffs=tuple(tu)), DTs=Germ(base=0.0, coeffs=(0.0, 1.0)), sigma=(-1.0, 1.0))


def test_overflowing_rows_are_numeric_errors_and_leave_the_others():
    # a non-finite coefficient, a companion matrix past the float range, and closed-form
    # roots that overflow (the roots of x^2 + 1e200 x + 1 are about -1e200 and -1e-200)
    overflow = [[np.inf, 1.0, 0.0, 0.0], [0.0, 1e200, 0.0, 1e-200], [1.0, 1e200, 1.0, 0.0]]
    plain = [[6.0, -5.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 1.0]]
    row, x, m = root_cluster_rows([r for pair in zip(plain, overflow) for r in pair])
    assert row.tolist() == [0, 0, 1, 3, 4, 5, 5] and m.tolist() == [1, 1, 0, 0, 1, 1, 1]
    assert x[[0, 1, 4, 5, 6]].tolist() == [2.0, 3.0, 1.0, -np.inf, -1e-200] and np.isnan(x[[2, 3]]).all()
    for r in overflow:
        with pytest.raises(NumericError):
            root_clusters(r)
    assert [root_clusters(r) for r in plain] == [[(2.0, 1), (3.0, 1)], [], [(1.0, 1)]]
    # one-leg models, displacement Tu(x) - x: the first three overflow, in the companion
    # matrix, the closed form, and the residual at the finite root -1e200 of x^3 + 1e200 x^2 + x
    tus = [[0.0, 1e200, 0.0, 1e-200], [1.0, 1e200, 1.0], [0.0, 2.0, 1e200, 1.0], [-0.25, 1.0, 1.0], [0.0, 0.0, 1.0]]
    models = [SyntheticModel(legs=(_leg(tu),)) for tu in tus]
    row, fields, errors = _cycle_rows([_LegArrays.of([model.legs[0] for model in models])])
    assert sorted(errors) == [0, 1, 2] and all(type(e) is NumericError for e in errors.values())
    assert sorted(set(row.tolist())) == [3, 4]
    for model, reports in zip(models, _cycle_reports(row, fields, len(models))):
        if model is models[3] or model is models[4]:
            assert reports == find_cycles(model) and len(reports) == 2
        else:
            with pytest.raises(NumericError, match="float overflow"):
                find_cycles(model)


def test_root_pass_reads_one_rectangular_array():
    # an empty batch gives three empty columns, whatever its width
    for empty in ([], np.zeros((0, 3))):
        assert [col.tolist() for col in root_cluster_rows(empty)] == [[], [], []]
    # a zero row and a constant row have no roots; every other row keeps its own
    rows = np.array([[0.0, 0.0, 0.0], [2.0, -3.0, 1.0], [5.0, 0.0, 0.0], [-1.0, 1.0, 0.0]])
    row, x, m = root_cluster_rows(rows)
    assert list(zip(row.tolist(), x.tolist(), m.tolist())) == [(1, 1.0, 1), (1, 2.0, 1), (3, 1.0, 1)]
    # a ragged row list is not one array
    with pytest.raises(ValueError):
        root_cluster_rows([[2.0, -3.0, 1.0], [1.0]])


def test_all_zero_row_has_no_roots_and_leaves_the_others():
    rows = [[2.0, -3.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 1.0], [0.0]]
    assert _rows_of(rows) == [[(1.0, 1), (2.0, 1)], [], [(1.0, 1)], []]
    assert _rows_of(rows) == [root_clusters(r) for r in rows]
    # a model whose return polynomial vanishes is flagged on its own
    models = [quad_model(0.01, -0.25), _annulus_model(), quad_model(0.01, -0.2)]
    P, errors = return_polynomial_rows([_LegArrays.of([m.legs[0] for m in models])])
    assert list(errors) == [1] and isinstance(errors[1], PeriodAnnulus)
    assert P[0].tolist() == _scalar_return_polynomial(models[0]) and not P[1].any()


def test_rows_flag_non_affine_legs_with_the_first_leg():
    Tu = Germ(base=0.0, coeffs=(-0.01, 0.0, 1.0))
    affine, curved = Germ(base=0.0, coeffs=(0.0, 1.0)), Germ(base=0.0, coeffs=(0.0, 1.0, 0.5))
    flat = Germ(base=0.0, coeffs=(0.3, 0.0))
    rows = [(affine, affine), (curved, flat), (affine, flat)]
    legs = [_LegArrays.of([SyntheticLeg(Tu=Tu, DTs=r[j], sigma=(-0.3, 0.0)) for r in rows]) for j in (0, 1)]
    P, errors = return_polynomial_rows(legs)
    assert sorted(errors) == [1, 2] and all(isinstance(e, ConfigError) for e in errors.values())
    assert str(errors[1]).startswith("leg 0: ") and str(errors[1]).endswith("coefficients [0.0, 1.0, 0.5]")
    assert str(errors[2]).startswith("leg 1: ") and str(errors[2]).endswith("coefficients [0.3, 0.0]")
    assert not P[1:].any() and P[0].any()
