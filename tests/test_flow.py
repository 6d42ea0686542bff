import copy

import numpy as np
import pytest
from scipy.integrate import OdeSolution

from sigmapoly.core import FilippovSystem, PolyField
from sigmapoly.errors import EquilibriumOnSigmaError, NoHit, NonDeterministicExit
from sigmapoly.flow import (
    MAX_FLIGHT_TIME,
    Section,
    _flight,
    _orbit,
    _regime_at,
    _rhs,
    _section_hits,
    filippov_trajectory,
    flow_smooth,
    hit_section,
    hit_sections,
    next_sigma_hit,
    next_sigma_hits,
    vertical_section,
)
from sigmapoly.poly2 import DEGREE_CAP, Poly2, poly_const, poly_x, poly_y

from conftest import make_system


@pytest.mark.parametrize("t", [1.0, 6.0, -9.0])
def test_flow_smooth_linear(fold_field, t):
    # X = (1, x): x(t) = x0 + t, y(t) = y0 + x0 t + t^2/2; |t| > 4 takes
    # more than one step of at most _CHUNK
    x0, y0 = 0.2, 0.0
    q = flow_smooth(fold_field, (x0, y0), t)
    np.testing.assert_allclose(q, [x0 + t, y0 + x0 * t + t * t / 2], atol=1e-10)


def test_flow_smooth_blow_up_is_no_hit():
    # x' = x^2 from x = 1 blows up at t = 1: an event-free flight fails too
    F = PolyField(poly_x() * poly_x(), poly_const(0.0))
    with pytest.raises(NoHit, match="integration failed"):
        flow_smooth(F, (1.0, 0.0), 2.0)


def test_hit_section_parabola(fold_field):
    q, t = hit_section(fold_field, np.array([0.2, 0.0]), vertical_section(1.0), "forward")
    np.testing.assert_allclose(q, [1.0, (1 - 0.04) / 2], atol=1e-9)
    assert t == pytest.approx(0.8, abs=1e-9)


def test_hit_section_backward(fold_field):
    q, t = hit_section(fold_field, np.array([0.2, 0.0]), vertical_section(-1.0), "backward")
    assert t == pytest.approx(-1.2, abs=1e-9)
    np.testing.assert_allclose(q, [-1.0, (1 - 0.04) / 2], atol=1e-9)


def test_hit_section_respects_halfwidth(fold_field):
    # the orbit passes x = 1 at y = 0.48, outside a narrow segment at y = 0
    narrow = Section(anchor=(1.0, 0.0), direction=(0.0, 1.0), halfwidth=0.05)
    with pytest.raises(NoHit):
        hit_section(fold_field, np.array([0.2, 0.0]), narrow, "forward", tmax=5.0)


# A flight is one integration whose steps are at most 4 time units long and
# whose events are scanned on a lattice of 600 points per 4 units; the hits
# below all lie past the first 4 units.


def test_hit_section_in_a_later_chunk(fold_field):
    q, t = hit_section(fold_field, np.array([0.2, 0.0]), vertical_section(9.0), "forward")
    assert t == pytest.approx(8.8, abs=1e-9)
    np.testing.assert_allclose(q, [9.0, (81 - 0.04) / 2], atol=1e-9)


def test_next_sigma_hit_in_a_later_chunk(fold_field, h_y):
    # y(t) = -5 t + t^2 / 2 returns to Sigma at t = 10, x = 5
    hit = next_sigma_hit(fold_field, np.array([-5.0, 0.0]), h_y, "forward")
    assert hit.kind == "cross"
    assert hit.time == pytest.approx(10.0, abs=1e-9)
    np.testing.assert_allclose(hit.point, [5.0, 0.0], atol=1e-9)


def test_hit_section_outside_halfwidth_then_inside_later(fold_field):
    # from (-5, 0) the orbit meets the line y = -8 at t = 2 (x = -3, outside
    # the segment around x = 3) and again at t = 8 (x = 3, inside it)
    seg = Section(anchor=(3.0, -8.0), direction=(1.0, 0.0), halfwidth=0.5)
    q, t = hit_section(fold_field, np.array([-5.0, 0.0]), seg, "forward")
    assert t == pytest.approx(8.0, abs=1e-9)
    np.testing.assert_allclose(q, [3.0, -8.0], atol=1e-9)


def test_next_sigma_hit_parabolic_return(fold_field, h_y):
    hit = next_sigma_hit(fold_field, np.array([-0.3, 0.0]), h_y, "forward")
    assert hit.kind == "cross"
    assert hit.point[0] == pytest.approx(0.3, abs=1e-9)


def test_hit_sections_circle_laps_match_closed_form_and_lone_flights():
    # theta' = 1, r' = r - r^3: from (r0, 0) the orbit is back on the positive
    # x-axis at t = 2 pi with r = (1 + (r0^-2 - 1) e^(-2t))^(-1/2)
    x, y = poly_x(), poly_y()
    r2 = x * x + y * y
    F = PolyField(y.scale(-1.0) + x - x * r2, x + y - y * r2)
    lap = Section(anchor=(1.0, 0.0), direction=(1.0, 0.0), halfwidth=0.9)
    r0 = np.linspace(0.3, 1.8, 12)
    hits = hit_sections(F, [(r, 0.0) for r in r0], lap, "forward")
    exact = (1.0 + (r0**-2 - 1.0) * np.exp(-4.0 * np.pi)) ** -0.5
    assert len(hits) == 12
    for (q, t), r, want in zip(hits, r0, exact):
        assert t == pytest.approx(2.0 * np.pi, abs=1e-10)
        np.testing.assert_allclose(q, [want, 0.0], atol=1e-10)
        q1, t1 = hit_section(F, (r, 0.0), lap, "forward")
        np.testing.assert_allclose(q, q1, rtol=0, atol=1e-12)
        assert t == pytest.approx(t1, abs=1e-12)


def test_hit_sections_blow_up_leaves_other_orbits_alone():
    # y' = y^2 blows up at t = 1/2 from (0, 2), before reaching x = 1; from
    # (0, 0) the orbit stays on y = 0 and reaches x = 1 at t = 1
    F = PolyField(poly_const(1.0), poly_y() * poly_y())
    sec = vertical_section(1.0)
    blow, hit = (0.0, 2.0), (0.0, 0.0)
    with pytest.raises(NoHit) as lone_err:
        hit_section(F, blow, sec, "forward")
    q1, t1 = hit_section(F, hit, sec, "forward")
    assert t1 == pytest.approx(1.0, abs=1e-12)
    for starts in ([blow, hit], [hit, blow]):
        out = _section_hits(F, starts, sec, "forward", MAX_FLIGHT_TIME)
        err, res = out if starts[0] is blow else out[::-1]
        assert isinstance(err, NoHit) and str(err) == str(lone_err.value)
        assert np.array_equal(res[0], q1) and res[1] == t1
        # the batched call raises the blow-up, wherever it stands
        with pytest.raises(NoHit, match="integration failed"):
            hit_sections(F, starts, sec, "forward")


def test_hit_sections_raises_for_the_lowest_failing_start():
    # X = (1, y^2) onto the segment |y| <= 0.05 of x = 1: from (0, 0) the
    # orbit hits it at t = 1; from (0, 0.5) it passes x = 1 at y = 1 and blows
    # up at t = 2; from (0, -0.5) it passes at y = -1/3 and never returns
    F = PolyField(poly_const(1.0), poly_y() * poly_y())
    seg = Section(anchor=(1.0, 0.0), direction=(0.0, 1.0), halfwidth=0.05)
    ok, up, down = (0.0, 0.0), (0.0, 0.5), (0.0, -0.5)
    (q, t), = hit_sections(F, [ok], seg, "forward", tmax=5.0)
    np.testing.assert_allclose(q, [1.0, 0.0], atol=1e-12)
    assert t == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NoHit, match="integration failed"):
        hit_sections(F, [ok, up, down], seg, "forward", tmax=5.0)
    with pytest.raises(NoHit, match="no section hit within tmax = 5.0"):
        hit_sections(F, [ok, down, up], seg, "forward", tmax=5.0)


@pytest.mark.parametrize("x0", [-5e-8, -1e-6, -1e-4])
def test_next_sigma_hit_subsample_dip(fold_field, h_y, x0):
    # dips much shorter than the sample spacing must still be caught
    hit = next_sigma_hit(fold_field, np.array([x0, 0.0]), h_y, "forward")
    assert hit.point[0] == pytest.approx(-x0, rel=1e-6)


@pytest.mark.parametrize("y0", [1e-17, 0.0, -1e-17])
def test_next_sigma_hit_from_a_rounded_start_on_sigma(fold_field, h_y, y0):
    # a start within EVENT_TOL of Sigma is on Sigma: the sign of its rounding
    # is no crossing, and the orbit of X = (1, x) dips below and returns at x = 0.3
    hit = next_sigma_hit(fold_field, np.array([-0.3, y0]), h_y, "forward")
    assert hit.kind == "cross"
    assert hit.time == pytest.approx(0.6, abs=1e-12)
    assert hit.point[0] == pytest.approx(0.3, abs=1e-12)


def test_batched_sigma_scan_matches_lone_flights(fold_field, h_y):
    # X = (1, x): orbits are y = y0 + (x^2 - x0^2)/2, and x = x0 + t.  One
    # scan flies all five starts; each orbit's first event must be the one
    # its lone flight finds.
    sec = vertical_section(0.7)
    x0 = -74.5 * 4 / 599
    starts = [
        # dips to y = -1e-6 for |x| < 1.4e-3: under Sigma for 2.8e-3 time
        # units, midway between two points of the lattice t_k = 4k/599; only
        # the Fh rule sees it
        (x0, x0 * x0 / 2 - 1e-6),
        (-0.3, 0.0),  # on Sigma, leaves downward, back at x = 0.3, t = 0.6
        (0.2, 0.1),  # stays above Sigma, meets the section at t = 0.5
        (-1.0, 0.2),  # crosses Sigma at x = -sqrt(0.6)
        (0.3, 0.0),  # on Sigma, leaves upward, meets the section at t = 0.4
    ]
    hits = next_sigma_hits(fold_field, starts, h_y, "forward", include_touch=True, section=sec)
    assert [hit.kind for hit in hits] == ["cross", "cross", "section", "cross", "section"]
    exact = [-np.sqrt(2e-6), 0.3, 0.7, -np.sqrt(0.6), 0.7]
    for hit, p, x in zip(hits, starts, exact):
        lone = next_sigma_hit(fold_field, p, h_y, "forward", include_touch=True, section=sec)
        assert hit.kind == lone.kind
        assert hit.time == pytest.approx(lone.time, abs=1e-10)
        np.testing.assert_allclose(hit.point, lone.point, rtol=0, atol=1e-10)
        assert hit.point[0] == pytest.approx(x, abs=1e-9)
    # a flight that fails is the error of that start alone
    F = PolyField(poly_const(1.0), poly_y() * poly_y())
    err, ok = next_sigma_hits(F, [(0.0, 2.0), (0.0, -0.5)], h_y, "forward", section=vertical_section(1.0))
    assert isinstance(err, NoHit) and "integration failed" in str(err)
    assert ok.kind == "section" and ok.time == pytest.approx(1.0, abs=1e-12)


def _pieces(F, starts, t_end):
    """The dense output of each piece of one flight of the starts."""
    state = np.asarray(starts, dtype=float).T.ravel()
    return [sol for sol, _, _ in _flight(_rhs(F, len(starts)), state, t_end, [lambda x, y: x])]


def _split_at_boundaries(sol):
    """sol with each step's start value moved by its own amount.

    Two DOP853 steps give the same bits at the boundary they share (the end
    value is (y1 - y0) + y0 on the first, y1 on the second), so only steps
    that disagree there show which of them is evaluated.
    """
    steps = [copy.copy(d) for d in sol.interpolants]
    for k, d in enumerate(steps):
        d.y_old = d.y_old + 1e-9 * (k + 1)
    return OdeSolution(sol.ts, steps)


def test_step_local_evaluator_is_bitwise_ode_solution():
    # theta' = 1, r' = r - r^3 forward and backward, one orbit and orbit i of
    # three: at random times and at every step boundary, the evaluator gives
    # the bits of OdeSolution's own evaluation
    x, y = poly_x(), poly_y()
    r2 = x * x + y * y
    F = PolyField(y.scale(-1.0) + x - x * r2, x + y - y * r2)
    rng = np.random.default_rng(3)
    flights = [
        ([(0.5, 0.0)], 9.0),
        ([(0.5, 0.0)], -0.6),
        ([(0.5, 0.0), (1.4, 0.2), (-0.3, 0.9)], 9.0),
        ([(0.5, 0.0), (1.05, 0.1), (-0.3, 0.9)], -0.6),
    ]
    for starts, t_end in flights:
        n = len(starts)
        pieces = _pieces(F, starts, t_end)
        assert len(pieces) > 2 and all(len(sol.interpolants) == 2 for sol in pieces[1:])
        for sol in pieces + [_split_at_boundaries(sol) for sol in pieces]:
            lo, hi = sorted((sol.ts[0], sol.ts[-1]))
            for t in np.concatenate([sol.ts, rng.uniform(lo, hi, 20)]).tolist():
                want = sol(t)
                for i in range(n):
                    assert np.asarray(_orbit(sol, i, n)(t)).tobytes() == want[i::n].tobytes()
        # the other step at a boundary gives other bits, so a wrong choice fails
        split = _split_at_boundaries(pieces[1])
        t = split.ts[1]
        assert OdeSolution(split.ts, split.interpolants, alt_segment=True)(t).tobytes() != split(t).tobytes()


def test_filippov_trajectory_reaches_sliding():
    # X = (1, x), Y = (1, 1): orbit from above lands on Sigma and slides
    # rightward (F_Z = (1, 0)) until the visible fold at 0, then exits to M+
    Z = make_system(poly_x(), poly_const(1.0))
    traj = filippov_trajectory(Z, (-1.0, 0.5), tmax=4.0, dt_out=0.05)
    regimes = [a.regime for a in traj.arcs]
    assert "Sliding" in regimes
    k = regimes.index("Sliding")
    arc = traj.arcs[k]
    ys = np.abs(np.asarray(arc.points)[:, 1])
    assert ys.max() < 1e-9
    # after the fold the trajectory lifts off into M+
    assert any(a.regime == "Mplus" for a in traj.arcs[k + 1 :])


_ONE, _X = poly_const(1.0), poly_x()
_FIELDS = {
    "1": _ONE, "-1": poly_const(-1.0), "x": _X, "-x": poly_const(-1.0) * _X,
    "x^2": _X * _X, "-x^2": poly_const(-1.0) * _X * _X,
}
# the forward Filippov orbit from (0, 0) of X = (1, f(x)), Y = (1, g(x)),
# h = y: X leaves into M+ when its lead Lie derivative is positive, Y into
# M- when its lead Lie derivative is negative; None: no unique orbit
START_TABLE = [
    ("1", "1", "Mplus"),  # crossing up
    ("-1", "-1", "Mminus"),  # crossing down
    ("-1", "1", "Sliding"),  # stable sliding
    ("1", "-1", None),  # unstable sliding
    ("x", "1", "Mplus"),  # visible X-fold
    ("-x", "-1", "Mminus"),  # invisible X-fold, Y leaves
    ("x^2", "1", "Mplus"),  # cusp leaving upward
    ("x", "x", "Mplus"),  # VI fold-fold
    ("-x", "-x", "Mminus"),  # IV fold-fold
    ("x", "-1", None),  # visible X-fold, Y leaves too
    ("-x", "1", None),  # invisible X-fold, Y points up: neither leaves
    ("x^2", "-1", None),  # cusp leaving upward, Y leaves too
    ("-x^2", "-1", "Mminus"),  # cusp staying in M-, Y leaves
    ("x", "-x", None),  # VV fold-fold
    ("-x", "x", None),  # II fold-fold
]


@pytest.mark.parametrize("f,g,regime", START_TABLE)
def test_start_on_sigma_follows_the_leaving_field(f, g, regime):
    Z = make_system(_FIELDS[f], _FIELDS[g])
    if regime is None:
        with pytest.raises(NonDeterministicExit):
            _regime_at(Z, (0.0, 0.0))
        return
    assert _regime_at(Z, (0.0, 0.0)) == regime
    # every arc of the trajectory lies on its regime's side of Sigma
    traj = filippov_trajectory(Z, (0.0, 0.0), tmax=0.5, dt_out=0.05)
    assert traj.arcs[0].regime == regime
    for arc in traj.arcs:
        ys = np.asarray(arc.points)[:, 1]
        if arc.regime == "Mplus":
            assert ys.min() >= -1e-12
        elif arc.regime == "Mminus":
            assert ys.max() <= 1e-12
        else:
            assert np.abs(ys).max() <= 1e-9


def test_regime_at_an_equilibrium_on_sigma(h_y):
    Z = FilippovSystem(PolyField(poly_const(0.0), poly_const(0.0)), PolyField(_ONE, _ONE), h_y)
    with pytest.raises(EquilibriumOnSigmaError):
        _regime_at(Z, (0.0, 0.0))


def test_crossing_onto_a_fold_with_two_exits_raises():
    # X = (1, x) from (-0.125, 1/128) runs down the parabola y = x^2/2 onto
    # the visible fold; it lands within CLASSIFY_TOL of the fold, where Y =
    # (1, -1) leaves into M- as well, so the forward orbit is not unique
    Z = make_system(poly_x(), poly_const(-1.0))
    with pytest.raises(NonDeterministicExit):
        filippov_trajectory(Z, (-0.125, 0.0078125), tmax=1.0)


@pytest.mark.parametrize("x0,y0", [(-1.0, 0.5), (-0.6, 0.123), (-0.2, 0.61), (-0.8, 0.37)])
def test_trajectory_crossing_straight_lines(x0, y0):
    # X = (1, -1), Y = (1, -0.9): the orbit runs down y = y0 - t, crosses at
    # t = y0 and runs on down y = -0.9 (t - y0); the crossing lands on Sigma,
    # and Y's flight from there must not find that start again
    Z = make_system(poly_const(-1.0), poly_const(-0.9))
    traj = filippov_trajectory(Z, (x0, y0), tmax=3.0)
    assert [(a.regime, a.exit_event) for a in traj.arcs] == [("Mplus", "cross"), ("Mminus", "time-out")]
    for arc in traj.arcs:
        t, pts = np.asarray(arc.ts), np.asarray(arc.points)
        assert np.abs(pts[:, 0] - (x0 + t)).max() <= 1e-12
        assert np.abs(pts[:, 1] - np.where(t <= y0, y0 - t, -0.9 * (t - y0))).max() <= 1e-12


@pytest.mark.parametrize("lift", [5e-10, 5e-11])
def test_trajectory_touch_keeps_the_regime(lift):
    # X = (1, x) from (-1, 1/2 + lift) runs along y = x^2/2 + lift, which
    # grazes Sigma within CLASSIFY_TOL at x = 0; the orbit goes on in M+ from
    # the touch point itself
    Z = make_system(poly_x(), poly_const(-1.0))
    traj = filippov_trajectory(Z, (-1.0, 0.5 + lift), tmax=2.0)
    arcs = [(a.regime, a.exit_event) for a in traj.arcs]
    assert arcs == [("Mplus", "tangency-touch"), ("Mplus", "time-out")]
    assert traj.arcs[1].ts[0] == pytest.approx(1.0, abs=1e-9)
    for arc in traj.arcs:
        t, pts = np.asarray(arc.ts), np.asarray(arc.points)
        assert np.abs(pts[:, 0] - (t - 1.0)).max() <= 1e-12
        assert np.abs(pts[:, 1] - ((t - 1.0) ** 2 / 2 + lift)).max() <= 1e-12


def test_trajectory_time_monotone():
    Z = make_system(poly_x(), poly_const(1.0))
    traj = filippov_trajectory(Z, (-1.0, 0.5), tmax=3.0, dt_out=0.1)
    ts = np.concatenate([np.asarray(a.ts) for a in traj.arcs])
    assert np.all(np.diff(ts) > -1e-12)


def test_next_sigma_hit_races_a_section(fold_field, h_y):
    # X = (1, x) from (-0.3, 0) dips below Sigma and returns at x = 0.3, t = 0.6
    p = np.array([-0.3, 0.0])
    hit = next_sigma_hit(fold_field, p, h_y, "forward", section=vertical_section(0.1))
    assert hit.kind == "section"
    assert hit.time == pytest.approx(0.4, abs=1e-12)
    assert hit.point == pytest.approx([0.1, -0.04], abs=1e-12)
    hit = next_sigma_hit(fold_field, p, h_y, "forward", section=vertical_section(0.5))
    assert hit.kind == "cross"
    assert hit.time == pytest.approx(0.6, abs=1e-12)
    # a crossing of the section line outside its segment does not count
    seg = vertical_section(0.1, y_anchor=1.0, halfwidth=0.5)
    assert next_sigma_hit(fold_field, p, h_y, "forward", section=seg).kind == "cross"
    # without a section the Sigma hit is the same, to the bit
    plain = next_sigma_hit(fold_field, p, h_y, "forward")
    assert plain.time == hit.time and (plain.point == hit.point).all()


def _random_poly(rng, kind: str) -> Poly2:
    """A zero, constant-only or general Poly2 of degree <= DEGREE_CAP, |c| in [1e-3, 3]."""
    if kind == "zero":
        return Poly2({})
    signs = rng.choice([-1.0, 1.0], size=12)
    cs = signs * 10.0 ** rng.uniform(-3.0, np.log10(3.0), size=12)
    if kind == "const":
        return Poly2({(0, 0): cs[0]})
    deg = int(rng.integers(1, DEGREE_CAP + 1))
    mons = [(i, d - i) for d in range(deg + 1) for i in range(d + 1)]
    # dict order is summation order: shuffle it, and make the top degree appear
    picks = rng.permutation(len(mons))[: int(rng.integers(1, min(11, len(mons)) + 1))]
    keys = [mons[k] for k in picks] + [(deg, 0)]
    return Poly2({k: c for k, c in zip(dict.fromkeys(keys), cs)})


def _random_fields(seed: int = 20240611, count: int = 60):
    rng = np.random.default_rng(seed)
    kinds = ["zero", "const"] + ["general"] * 6
    for k in range(count):
        # the first fields pair every kind of component with every other
        a, b = (kinds[k % 3], kinds[k // 3 % 3]) if k < 9 else rng.choice(kinds, size=2)
        yield PolyField(_random_poly(rng, a), _random_poly(rng, b))


def _random_states(rng, n: int, count: int = 40):
    for _ in range(count):
        s = rng.standard_normal(2 * n) * 10.0 ** rng.uniform(-2.0, 0.3, size=2 * n)
        s[rng.random(2 * n) < 0.15] = 0.0  # exact zeros
        yield s


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def test_field_kernel_is_bitwise_poly2():
    """_rhs and PolyField.__call__ give the bits of Poly2.__call__ on each component.

    The n = 1 right-hand side is pinned against Poly2 on the numpy scalars of
    the state, the n > 1 one against Poly2 on the state's length-n halves.
    """
    rng = np.random.default_rng(7)
    for F in _random_fields():
        f1 = _rhs(F, 1)
        for s in _random_states(rng, 1):
            x, y = s[0], s[1]
            want = np.array([F.fx(x, y), F.fy(x, y)])
            assert _bits(f1(0.0, s)) == _bits(want)
            got = F(s)
            assert got.shape == want.shape and _bits(got) == _bits(want)
            got = F((float(x), float(y)))
            assert got.shape == want.shape and _bits(got) == _bits(want)
        for n in (2, 12):
            fn = _rhs(F, n)
            for s in _random_states(rng, n):
                ref = np.empty(2 * n)
                ref[:n] = F.fx(s[:n], s[n:])
                ref[n:] = F.fy(s[:n], s[n:])
                assert _bits(fn(0.0, s)) == _bits(ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rhs_overflow_is_a_failed_step_not_an_error():
    # y' = y^8 from y = 2 blows up; a power past the float range is inf, as on
    # numpy scalars, so the stepper fails and the flight raises NoHit
    F = PolyField(poly_const(1.0), Poly2({(0, 8): 1.0}))
    with pytest.raises(NoHit, match="integration failed"):
        hit_section(F, (0.0, 2.0), vertical_section(100.0), "forward", tmax=200.0)
