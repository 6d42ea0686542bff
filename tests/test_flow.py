import numpy as np
import pytest

from sigmapoly.errors import NoHit
from sigmapoly.flow import (
    Section,
    filippov_trajectory,
    flow_smooth,
    hit_section,
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


# Flights are integrated in chunks of 4 time units, each continuing from the
# last state of the one before; the hits below all lie past the first chunk.


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
