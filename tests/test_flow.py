import numpy as np
import pytest

from sigmapoly.core import PolyField
from sigmapoly.errors import NoHit
from sigmapoly.flow import (
    MAX_FLIGHT_TIME,
    Section,
    _section_hits,
    filippov_trajectory,
    flow_smooth,
    hit_section,
    hit_sections,
    next_sigma_hit,
    vertical_section,
)
from sigmapoly.poly2 import poly_const, poly_x, poly_y

from conftest import make_system


def test_flow_smooth_linear(fold_field):
    # X = (1, x): x(t) = x0 + t, y(t) = y0 + x0 t + t^2/2
    q = flow_smooth(fold_field, (0.2, 0.0), 1.0)
    np.testing.assert_allclose(q, [1.2, 0.7], atol=1e-10)


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
