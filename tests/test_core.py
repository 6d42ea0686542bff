import numpy as np
import pytest
from hypothesis import given, strategies as st

from sigmapoly.core import (
    Crossing,
    FoldFold,
    StableSliding,
    SwitchingFunction,
    Tangency,
    UnstableSliding,
    classify_sigma_point,
    contact_order,
    lie_derivative,
    sliding_field,
)
from sigmapoly.poly2 import Poly2, poly_const, poly_x, poly_y

from conftest import make_system


def test_lie_derivatives_fold(fold_field, h_y):
    p = np.array([0.0, 0.0])
    assert lie_derivative(fold_field, h_y, p, 1) == 0.0
    assert lie_derivative(fold_field, h_y, p, 2) == 1.0


def test_contact_order_fold_cusp(fold_field, cusp_field, h_y):
    p = np.array([0.0, 0.0])
    assert contact_order(fold_field, h_y, p) == (2, 1)
    assert contact_order(cusp_field, h_y, p) == (3, 1)


def test_classify_crossing_and_sliding():
    # X = (1, x), Y = (1, 1): Xh = x, Yh = 1
    Z = make_system(poly_x(), poly_const(1.0))
    assert isinstance(classify_sigma_point(Z, (0.5, 0.0)), Crossing)
    # Xh < 0 < Yh: stable sliding
    assert isinstance(classify_sigma_point(Z, (-0.5, 0.0)), StableSliding)
    Zu = make_system(poly_const(1.0), poly_x())
    # Xh > 0 > Yh at x = -0.5
    assert isinstance(classify_sigma_point(Zu, (-0.5, 0.0)), UnstableSliding)


def test_classify_tangency_visibility():
    Z = make_system(poly_x(), poly_const(1.0))
    cls = classify_sigma_point(Z, (0.0, 0.0))
    assert isinstance(cls, Tangency)
    assert cls.side == "plus" and cls.order == 2 and cls.visibility == "visible"

    # X = (1, -x): invisible fold from above
    Z = make_system(poly_x().scale(-1.0), poly_const(1.0))
    cls = classify_sigma_point(Z, (0.0, 0.0))
    assert cls.visibility == "invisible"

    # Y-side fold: Y = (1, x) has Y2h = +1, invisible from below
    Z = make_system(poly_const(-1.0), poly_x())
    cls = classify_sigma_point(Z, (0.0, 0.0))
    assert cls.side == "minus" and cls.visibility == "invisible"


def test_classify_cusp_is_odd():
    Z = make_system(poly_x() * poly_x(), poly_const(1.0))
    cls = classify_sigma_point(Z, (0.0, 0.0))
    assert cls.order == 3 and cls.visibility == "odd"


@pytest.mark.parametrize(
    "sx, sy, kind",
    [
        (1.0, -1.0, "VV"),  # X2h > 0 visible above, Y2h < 0 visible below
        (1.0, 1.0, "VI"),
        (-1.0, -1.0, "IV"),
        (-1.0, 1.0, "II"),
    ],
)
def test_fold_fold_kinds(sx, sy, kind):
    Z = make_system(poly_x().scale(sx), poly_x().scale(sy))
    cls = classify_sigma_point(Z, (0.0, 0.0))
    assert isinstance(cls, FoldFold)
    assert cls.kind == kind


def test_sliding_field_convex_combination():
    Z = make_system(poly_x(), poly_const(1.0))
    p = (-0.5, 0.0)
    F = sliding_field(Z, p)
    # for X = (1, x), Y = (1, 1): F_Z = (Yh X - Xh Y)/(Yh - Xh) = (1, 0)
    np.testing.assert_allclose(F, [1.0, 0.0], atol=1e-14)


@given(st.floats(-3, -1e-3), st.floats(0.05, 3.0))
def test_sliding_field_tangent_to_sigma(xval, slope):
    # property: <F_Z, grad h> = 0 on the sliding region
    Z = make_system(poly_x().scale(slope), poly_const(1.0))
    F = sliding_field(Z, (xval, 0.0))
    assert abs(F[1]) < 1e-12


def test_singular_point_of_h_on_a_grid_node_is_refused():
    # h = ((x + 5)^2 + (y - 5)^2) ((x - 5)^2 + (y + 5)^2) vanishes, with its
    # gradient, only at (-5, 5) and (5, -5), both nodes of the 25 x 25 check
    # grid on [-10, 10]^2; the first in x-major order is named
    x, y, five = poly_x(), poly_y(), poly_const(5.0)
    a, b, c, d = x + five, y - five, x - five, y + five
    h = (a * a + b * b) * (c * c + d * d)
    with pytest.raises(ValueError, match=r"^grad h vanishes on Sigma near \(-5, 5\)$"):
        SwitchingFunction(h)
    # a regular h is accepted, and the grid reads every point: h = y^2 - 25 is 0 on y = +-5
    assert SwitchingFunction(y * y - five * five).h(0.0, 5.0) == 0.0
