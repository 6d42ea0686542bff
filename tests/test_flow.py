import math
from fractions import Fraction

import numpy as np
import pytest

from sigmapoly import flow
from sigmapoly.core import CLASSIFY_TOL, FilippovSystem, PolyField, SwitchingFunction
from sigmapoly.errors import EquilibriumOnSigmaError, NoHit, NonDeterministicExit, TangentialHit
from sigmapoly.flow import (
    _CHUNK,
    _ORDER,
    MAX_FLIGHT_TIME,
    Section,
    _arc_points,
    _flight,
    _Jet,
    _one_sign,
    _orbit,
    _Piece,
    _regime_at,
    _section_hits,
    _step,
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


def test_hit_section_graze_raises(cusp_field):
    # the cusp orbit y = (x^3 + 1)/3 from (-1, 0) crosses y = 1/3 at x = 0, where (1, x^2) is tangent to it
    seg = Section(anchor=(0.0, 1 / 3), direction=(1.0, 0.0), halfwidth=1.0)
    with pytest.raises(TangentialHit, match="^grazes section at t = 1$"):
        hit_section(cusp_field, np.array([-1.0, 0.0]), seg, "forward")


# A flight is one integration whose steps are at most 4 time units long,
# each searched for events as roots of its own polynomials; the hits below
# all lie past the first 4 units.


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


def test_orbit_that_stays_on_sigma_has_no_next_hit(h_y):
    # X = (1, 0) runs along y = 0: an orbit within EVENT_TOL of Sigma never leaves it,
    # so every step waits for |h| to grow and none ends in an event
    X, starts = PolyField(poly_const(1.0), poly_const(0.0)), [(0.0, 0.0), (0.0, 1e-11)]
    misses = next_sigma_hits(X, starts, h_y, tmax=5.0)
    assert [(type(m), str(m)) for m in misses] == [(NoHit, "no Sigma hit within tmax = 5.0")] * 2
    for p in starts:
        with pytest.raises(NoHit, match="^no Sigma hit within tmax = 5.0$"):
            next_sigma_hit(X, p, h_y, tmax=5.0)


def test_batched_sigma_scan_matches_lone_flights(fold_field, h_y):
    # X = (1, x): orbits are y = y0 + (x^2 - x0^2)/2, and x = x0 + t.  One
    # scan flies all five starts; each orbit's first event must be the one
    # its lone flight finds.
    sec = vertical_section(0.7)
    x0 = -74.5 * 4 / 599
    starts = [
        # dips to y = -1e-6 for |x| < 1.4e-3: under Sigma for 2.8e-3 time
        # units, less than a root bracket may be wide (4/599), so h need not
        # change sign across a bracket and the Fh rule must see it
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
    """The dense output of each step of one flight of the starts."""
    state = np.asarray(starts, dtype=float).T.ravel()
    return [sol for sol, _, _ in _flight(_Jet(F.fx, F.fy, events=[_X]), state, t_end)]


def _moved(sol, k):
    """sol with its start value moved by 1e-9 (k + 1).

    Two Taylor steps give the same bits at the boundary they share (the
    second starts from the first's polynomial there), so only steps that
    disagree there show which of them is evaluated.
    """
    coefs = sol.coefs.copy()
    coefs[0] += 1e-9 * (k + 1)
    return _Piece(sol.ts, coefs)


def test_step_local_evaluator_is_bitwise_taylor_piece():
    # theta' = 1, r' = r - r^3 forward and backward, one orbit and orbit i of
    # three: at random times and at both ends of every step, the evaluator
    # gives the bits of the piece's own vectorised evaluation
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
        assert len(pieces) > 2 and all(len(sol.ts) == 2 for sol in pieces)
        for sol in pieces:
            lo, hi = sorted(sol.ts)
            ts = np.concatenate([sol.ts, rng.uniform(lo, hi, 20)])
            want = sol(ts)
            for t, w in zip(ts.tolist(), want.T):
                for i in range(n):
                    assert np.asarray(_orbit(sol, i, n)(t)).tobytes() == w[i::n].tobytes()
        # an arc reads a time on a step boundary on the step that ends
        # there; the next one gives other bits, so a wrong choice fails
        moved = [_moved(sol, k) for k, sol in enumerate(pieces)]
        for k in range(len(moved) - 1):
            t = moved[k].ts[1:]
            assert _arc_points(moved, t).tobytes() == moved[k](t).tobytes() != moved[k + 1](t).tobytes()


def test_filippov_trajectory_reaches_sliding():
    # X = (1, x), Y = (1, 1): orbit from above lands on Sigma at x = -0.2 (it
    # runs down y = (x^2 - 0.04)/2) and slides rightward (F_Z = (1, 0)) until
    # the visible fold at 0, then exits to M+
    Z = make_system(poly_x(), poly_const(1.0))
    arcs = filippov_trajectory(Z, (-1.0, 0.48), tmax=4.0, dt_out=0.05)
    regimes = [a.regime for a in arcs]
    assert "Sliding" in regimes
    k = regimes.index("Sliding")
    arc = arcs[k]
    ys = np.abs(np.asarray(arc.points)[:, 1])
    assert ys.max() < 1e-9
    # after the fold the trajectory lifts off into M+
    assert any(a.regime == "Mplus" for a in arcs[k + 1 :])


def test_tangent_orbit_touches_the_fold_and_stays_in_mplus():
    # X = (1, x), Y = (1, 1): from (-1, 1/2) the orbit runs down y = x^2/2
    # and reaches Sigma at the visible fold itself, at t = 1; the polynomial
    # orbit is integrated exactly, so it does not dip below Sigma before the
    # fold.  On Sigma only X leaves, so the orbit goes on in M+.
    Z = make_system(poly_x(), poly_const(1.0))
    arcs = filippov_trajectory(Z, (-1.0, 0.5), tmax=2.0, dt_out=0.05)
    assert [(a.regime, a.exit_event) for a in arcs] == [("Mplus", "tangency-touch"), ("Mplus", "time-out")]
    assert arcs[1].ts[0] == 1.0 and arcs[1].points[0].tolist() == [0.0, 0.0]


def test_sliding_arc_follows_the_quotient_field(h_y):
    # X = (0, -1 - x^2), Y = (1, 1), h = y: Xh = -1 - x^2 < 0 < Yh = 1, so
    # all of Sigma slides, with F_Z = (Yh X - Xh Y) / (Yh - Xh) =
    # ((1 + x^2) / (2 + x^2), 0).  From the origin x + atan(x) = t.
    Z = FilippovSystem(
        PolyField(poly_const(0.0), poly_const(-1.0) - poly_x() * poly_x()), PolyField(_ONE, _ONE), h_y
    )
    (arc,) = filippov_trajectory(Z, (0.0, 0.0), tmax=3.0, dt_out=0.01)
    assert (arc.regime, arc.exit_event) == ("Sliding", "time-out")
    x = arc.points[:, 0]
    assert np.abs(x + np.arctan(x) - arc.ts).max() <= 1e-12
    assert np.abs(arc.points[:, 1]).max() <= 1e-15


def test_sigma_hit_on_a_step_end(h_y):
    # X = (1, x^3 - x) from (2, 0): x = 2 + t and y = 6t + 5.5t^2 + 2t^3 +
    # t^4/4, whose Taylor series ends, so the stepper takes the full _CHUNK;
    # backward the orbit is back on Sigma at (-2, 0) at t = -4, that step's end
    F = PolyField(_ONE, _X * _X * _X - _X)
    sol, _, B = next(_flight(_Jet(F.fx, F.fy, events=[h_y.h]), [2.0, 0.0], -8.0))
    # the step's last Bernstein coefficient is h at its end, exactly 0
    assert sol.ts.tolist() == [0.0, -_CHUNK] and B[0, -1, 0] == 0.0
    hit = next_sigma_hit(F, (2.0, 0.0), h_y, "backward")
    assert (hit.kind, hit.time) == ("cross", -_CHUNK)
    assert hit.point.tolist() == [-2.0, 0.0]


def test_step_end_coefficients_are_the_event_polys_there(monkeypatch, h_y):
    # every step of every event flight pins its first and last Bernstein
    # coefficients to the jet's own event Poly2s at the step's start and end
    # states, bit for bit: h, a section's offset, both raced, and a slide's
    # Xh and Yh
    flights, flight = [], flow._flight

    def recording(jet, p, t_end):
        if not jet.events:
            return (yield from flight(jet, p, t_end))
        for step in flight(jet, p, t_end):
            flights.append((jet, step))
            yield step

    monkeypatch.setattr(flow, "_flight", recording)
    Z = make_system(_X, _ONE)
    filippov_trajectory(Z, (-1.0, 0.48), tmax=4.0, dt_out=0.05)
    starts = [(-1.0, 0.48), (-0.5, 0.3), (0.2, 0.0), (-2.0, 1.5)]
    seg = Section(anchor=(0.7, 0.5), direction=(0.6, 0.8), halfwidth=2.0)
    hit_sections(Z.X, starts, seg, "forward", tmax=9.0)
    next_sigma_hits(Z.X, starts, h_y, "forward", section=seg)
    kinds = {(len(jet.events), jet.den is not None) for jet, _ in flights}
    assert kinds == {(1, False), (2, False), (2, True)}
    for jet, (sol, a, B) in flights:
        n = sol.coefs.shape[1] // 2
        for state, col in ((sol.coefs[0], 0), (sol(sol.ts[1:])[:, 0], -1)):
            for e, f in enumerate(jet.events):
                want = np.broadcast_to(f(state[:n], state[n:]), (n,))
                assert B[e, col].tobytes() == want.tobytes()


def test_section_crossed_on_the_last_step_end():
    # X = (1, x) from (-1, 0.5): x = t - 1 and y = (t - 1)^2 / 2, whose
    # series ends, so one step of _CHUNK = tmax takes the whole flight; the
    # orbit meets the slanted section at (3, 4.5) at its last step end
    F = PolyField(_ONE, _X)
    seg = Section(anchor=(3.0, 4.5), direction=(0.6, 0.8), halfwidth=1.0)
    q, t = hit_section(F, (-1.0, 0.5), seg, "forward", tmax=_CHUNK)
    assert t == _CHUNK and q.tolist() == [3.0, 4.5]


def test_short_dip_inside_a_step_is_a_crossing_at_its_first_root(fold_field, h_y):
    # X = (1, x) from (-2, 2 - 1e-10) runs along y = x^2/2 - 1e-10, a
    # polynomial orbit that one 4-unit step holds; it dips below Sigma for
    # |x| < sqrt(2e-10), 2.8e-5 time units around t = 2, mid-step
    hit = next_sigma_hit(fold_field, (-2.0, 2.0 - 1e-10), h_y, "forward", include_touch=True)
    assert hit.kind == "cross"
    assert hit.time == pytest.approx(2.0 - math.sqrt(2e-10), abs=1e-9)
    assert hit.point[0] == pytest.approx(-math.sqrt(2e-10), abs=1e-9)


def test_grazing_touch_inside_a_step_is_found(fold_field, h_y):
    # the same orbit lifted to y = x^2/2 + 5e-10 stays above Sigma and
    # grazes it within CLASSIFY_TOL at t = 2, mid-step
    hit = next_sigma_hit(fold_field, (-2.0, 2.0 + 5e-10), h_y, "forward", include_touch=True)
    assert hit.kind == "touch"
    assert hit.time == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(hit.point, [0.0, 5e-10], rtol=0, atol=1e-12)


def test_certified_steps_call_no_root_finder(monkeypatch):
    # the rotation x' = -y, y' = x keeps the unit circle, so h = y - 2 <= -1
    # and the line x = 2 are never met: the Bernstein coefficients of every
    # step certify it, and no flight calls flow.brentq (Fh = x turns twice a
    # lap); the same counter sees the root finder when h = y - 1/2 is met
    calls, brentq = [], flow.brentq
    monkeypatch.setattr(flow, "brentq", lambda *a, **k: calls.append(a) or brentq(*a, **k))
    F = PolyField(poly_y().scale(-1.0), _X)
    far = SwitchingFunction(poly_y() - poly_const(2.0))
    steps = list(_flight(_Jet(F.fx, F.fy, events=[far.h]), [1.0, 0.0], 20.0))
    assert len(steps) > 10 and all(_one_sign(B[0], CLASSIFY_TOL).all() for _, _, B in steps)
    (miss,) = next_sigma_hits(F, [(1.0, 0.0)], far, "forward", tmax=20.0, include_touch=True)
    assert isinstance(miss, NoHit)
    with pytest.raises(NoHit):
        hit_section(F, (1.0, 0.0), vertical_section(2.0), "forward", tmax=20.0)
    assert calls == []
    near = SwitchingFunction(poly_y() - poly_const(0.5))
    assert next_sigma_hit(F, (1.0, 0.0), near, "forward").time == pytest.approx(math.pi / 6, abs=1e-12)
    assert calls


def test_series_with_gaps_is_not_taken_for_one_that_ends():
    # X = (-y^3, x^3) keeps x^4 + y^4 = 1 from (1, 0), where x has only the
    # powers t^4k and y only t^(4k+1): the top coefficients of an order-15
    # series are 0, yet the series goes on, with radius of convergence about
    # the quarter period Gamma(1/4)^2 / (4 sqrt(pi)) = 1.854
    y3 = poly_y() * poly_y() * poly_y()
    F = PolyField(y3.scale(-1.0), _X * _X * _X)
    c = _Jet(F.fx, F.fy).series(np.array([1.0, 0.0]))
    assert not c[-2:].any() and _step(_Jet(F.fx, F.fy), c) < 0.5
    for t in (4.0, -4.0, 11.0):
        x, y = flow_smooth(F, (1.0, 0.0), t)
        assert abs(x**4 + y**4 - 1.0) <= 1e-10
    quarter = math.gamma(0.25) ** 2 / (4.0 * math.sqrt(math.pi))
    q, t = hit_section(F, (1.0, 0.0), vertical_section(0.0, 1.0, halfwidth=0.5), "forward")
    assert t == pytest.approx(quarter, abs=1e-10)
    np.testing.assert_allclose(q, [0.0, 1.0], rtol=0, atol=1e-10)


def test_series_ends_only_as_an_exact_polynomial_orbit():
    # a jet steps _CHUNK only where the polynomial its series stops at
    # solves the field: X = (1, x^3 - x) (y is quartic in t), the quotient
    # (1, 0) / 2 (x = t / 2) and the unit-speed (1, 0) (x = t); the
    # unit-speed quartic circle (-y^3, x^3) is no line, so its series has no end
    zero, y3 = poly_const(0.0), poly_y() * poly_y() * poly_y()
    ends = [
        (_Jet(_ONE, _X * _X * _X - _X), (2.0, 0.0)),
        (_Jet(_ONE, zero, poly_const(2.0)), (0.3, 0.0)),
        (_Jet(_ONE, zero, _ONE, root=True), (0.3, 0.0)),
    ]
    for jet, p in ends:
        assert _step(jet, jet.series(np.array(p))) == _CHUNK
    quartic = PolyField(y3.scale(-1.0), _X * _X * _X)
    unit = _Jet(quartic.fx, quartic.fy, quartic.fx * quartic.fx + quartic.fy * quartic.fy, root=True)
    assert _step(unit, unit.series(np.array([1.0, 0.0]))) < 0.5
    assert not unit.ends(2, 1) and unit.ends(1, 0)


def test_batched_step_is_the_smallest_lone_step():
    # each orbit of a flight is stepped as tightly as alone: on the rotation
    # about (100, 0) the large state of an orbit near the centre does not
    # loosen the step of a small one on a wide circle, and in the flow of
    # (-y^3, x^3) a gapped series is stepped by its own last terms
    x, y = poly_x(), poly_y()
    cases = [
        (_Jet(y.scale(-1.0), x - poly_const(100.0)), [(0.01, 0.0), (100.5, 0.0)]),
        (_Jet(y.scale(-1.0) * y * y, x * x * x), [(0.01, 0.0), (1.0, 0.0), (30.0, -20.0)]),
    ]
    for jet, starts in cases:
        n = len(starts)
        c = jet.series(np.asarray(starts).T.ravel())
        own = [_step(jet, c[:, [i, n + i]]) for i in range(n)]
        assert _step(jet, c) == min(own)
        lone = [_step(jet, jet.series(np.array(p))) for p in starts]
        np.testing.assert_allclose(own, lone, rtol=1e-6)
        assert max(own) > 2.0 * min(own)


def _exact_series(px, py, start, den=None, root=False, events=(), bound=False):
    """The columns of _Jet.series for one orbit, in Fractions: the reference of the jet tests.

    Each monomial is extended order by order as x^i y^j = x^(i-1) y^j * x
    (x^0 y^j = x^0 y^(j-1) * y), with no slots; w_0 = sqrt(den_0) is the
    one inexact number, to 2^-100.  With bound, the same recurrences run
    on the absolute values of the coefficients and the start, with sums for
    differences: the magnitudes each coefficient is summed from, which
    bound its rounding.
    """
    fix, sgn = (abs, 1) if bound else ((lambda v: v), -1)
    rows = [px, py] + ([den] if den is not None else []) + list(events)
    top = max(i + j for p in rows for i, j in p.coeffs)
    pw = {(i, d - i): [] for d in range(top + 1) for i in range(d + 1)}
    x, y, w, q = [Fraction(fix(start[0]))], [Fraction(fix(start[1]))], [], ([], [])

    def cauchy(a, b, k):
        return sum(a[m] * b[k - m] for m in range(k + 1))

    def value(p, k):
        return sum(Fraction(fix(c)) * pw[ij][k] for ij, c in p.coeffs.items())

    for k in range(_ORDER + 1):
        for i, j in pw:  # by degree, so that the factor of each is complete to order k
            lower = pw[i - 1, j] if i else pw[i, j - 1] if j else None
            pw[i, j].append(Fraction(int(k == 0)) if lower is None else cauchy(lower, x if i else y, k))
        if k == _ORDER:
            break
        vel = [value(px, k), value(py, k)]
        if den is not None:
            u = value(den, k)
            if not root:
                w.append(u)
            elif k == 0:
                w.append(Fraction(math.isqrt(u.numerator * u.denominator * 4**100), u.denominator * 2**100))
            else:
                w.append((u + sgn * sum(w[m] * w[k - m] for m in range(1, k))) / (2 * w[0]))
            for v, qs in zip(vel, q):
                qs.append((v + sgn * sum(w[m] * qs[k - m] for m in range(1, k + 1))) / w[0])
            vel = [qs[k] for qs in q]
        x.append(vel[0] / (k + 1))
        y.append(vel[1] / (k + 1))
    return [x, y] + [[value(e, k) for k in range(_ORDER + 1)] for e in events]


def _every_cubic_monomial(scale: float, flip: int) -> Poly2:
    """A Poly2 with every monomial x^i y^j of degree <= 3, each with a coefficient of its own."""
    return Poly2({(i, d - i): (-1) ** (i + flip * d) * scale * (d + 2 * i + 1) for d in range(4) for i in range(d + 1)})


def _columns(orbits, n: int) -> np.ndarray:
    """The exact series of the first n orbits as _Jet.series lays them out: row r of orbit i in column r n + i."""
    return np.array([[float(v) for v in rows[i]] for rows in zip(*orbits[:n]) for i in range(n)]).T


def test_series_matches_an_exact_reference():
    # the field and the event row hold every monomial of degree <= 3; with a
    # quotient and with the unit-speed root (den of degree 6, 127 word
    # slots), for one orbit and for three, each coefficient is within 1e-13
    # of the magnitudes it is summed from, so a monomial read from a wrong
    # word slot shows
    px, py = _every_cubic_monomial(1 / 16, 0), _every_cubic_monomial(1 / 32, 1)
    event = _every_cubic_monomial(1 / 8, 1)
    starts = [(0.25, -0.375), (-0.5, 0.125), (0.375, 0.5)]
    quotient = Poly2({(0, 0): 2.0, (2, 0): 0.5, (1, 1): -0.25, (0, 1): 0.125})
    for kw in (dict(events=[event]), dict(den=quotient), dict(den=px * px + py * py, root=True)):
        ref, mag = ([_exact_series(px, py, p, bound=bound, **kw) for p in starts] for bound in (False, True))
        for n in (1, 3):
            c = _Jet(px, py, **kw).series(np.asarray(starts[:n]).T.ravel())
            assert (np.abs(c - _columns(ref, n)) <= 1e-13 * _columns(mag, n)).all()


def test_series_does_not_alias_the_reused_buffer():
    # one jet called with 3, 1 and 3 orbits returns the bits of fresh jets,
    # and what it returned before is not written over by later calls: a
    # piece kept from one step of a flight still holds its coefficients
    # after the steps that follow
    px, py = _every_cubic_monomial(1 / 16, 0), _every_cubic_monomial(1 / 32, 1)
    states = [np.array([0.25, -0.5, 0.375, -0.375, 0.125, 0.5]), np.array([0.5, 0.25]), np.linspace(-0.5, 0.5, 6)]
    for kw in (dict(), dict(events=[_X]), dict(den=px * px + py * py, root=True)):
        jet = _Jet(px, py, **kw)
        got = [jet.series(s) for s in states]
        fresh = [_Jet(px, py, **kw).series(s) for s in states]
        assert [_bits(c) for c in got] == [_bits(c) for c in fresh]
    steps = _flight(_Jet(px, py, events=[_X]), states[0], 3.0)
    kept = [(sol.coefs, sol.coefs.copy(), a, a.copy()) for sol, a, _ in steps]
    assert len(kept) > 2
    assert all(_bits(c) == _bits(c0) and _bits(e) == _bits(e0) for c, c0, e, e0 in kept)


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
    arcs = filippov_trajectory(Z, (0.0, 0.0), tmax=0.5, dt_out=0.05)
    assert arcs[0].regime == regime
    for arc in arcs:
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
    arcs = filippov_trajectory(Z, (x0, y0), tmax=3.0)
    assert [(a.regime, a.exit_event) for a in arcs] == [("Mplus", "cross"), ("Mminus", "time-out")]
    for arc in arcs:
        t, pts = np.asarray(arc.ts), np.asarray(arc.points)
        assert np.abs(pts[:, 0] - (x0 + t)).max() <= 1e-12
        assert np.abs(pts[:, 1] - np.where(t <= y0, y0 - t, -0.9 * (t - y0))).max() <= 1e-12


@pytest.mark.parametrize("lift", [5e-10, 5e-11])
def test_trajectory_touch_keeps_the_regime(lift):
    # X = (1, x) from (-1, 1/2 + lift) runs along y = x^2/2 + lift, which
    # grazes Sigma within CLASSIFY_TOL at x = 0; the orbit goes on in M+ from
    # the touch point itself
    Z = make_system(poly_x(), poly_const(-1.0))
    arcs = filippov_trajectory(Z, (-1.0, 0.5 + lift), tmax=2.0)
    assert [(a.regime, a.exit_event) for a in arcs] == [("Mplus", "tangency-touch"), ("Mplus", "time-out")]
    assert arcs[1].ts[0] == pytest.approx(1.0, abs=1e-9)
    for arc in arcs:
        t, pts = np.asarray(arc.ts), np.asarray(arc.points)
        assert np.abs(pts[:, 0] - (t - 1.0)).max() <= 1e-12
        assert np.abs(pts[:, 1] - ((t - 1.0) ** 2 / 2 + lift)).max() <= 1e-12


def test_trajectory_time_monotone():
    Z = make_system(poly_x(), poly_const(1.0))
    arcs = filippov_trajectory(Z, (-1.0, 0.5), tmax=3.0, dt_out=0.1)
    ts = np.concatenate([np.asarray(a.ts) for a in arcs])
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
    """PolyField.__call__ gives the bits of Poly2.__call__ on each component.

    Python floats and numpy scalars are pinned against Poly2 on the numpy
    scalars of the state.
    """
    rng = np.random.default_rng(7)
    for F in _random_fields():
        for s in _random_states(rng, 1):
            x, y = s[0], s[1]
            want = np.array([F.fx(x, y), F.fy(x, y)])
            got = F(s)
            assert got.shape == want.shape and _bits(got) == _bits(want)
            got = F((float(x), float(y)))
            assert got.shape == want.shape and _bits(got) == _bits(want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rhs_overflow_is_a_failed_step_not_an_error():
    # y' = y^8 from y = 2 blows up; a power past the float range is inf, as on
    # numpy scalars, so the stepper fails and the flight raises NoHit
    F = PolyField(poly_const(1.0), Poly2({(0, 8): 1.0}))
    with pytest.raises(NoHit, match="integration failed"):
        hit_section(F, (0.0, 2.0), vertical_section(100.0), "forward", tmax=200.0)
