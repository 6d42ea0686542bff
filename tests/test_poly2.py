import numpy as np
import pytest
from hypothesis import given, strategies as st

from sigmapoly.poly2 import DEGREE_CAP, DuplicateMonomial, Poly2

coeff = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def small_polys():
    return st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), coeff, max_size=6
    ).map(Poly2)


def test_eval_matches_monomials():
    p = Poly2({(2, 0): 3.0, (0, 1): -1.0, (1, 1): 0.5})
    assert p(2.0, 3.0) == 3 * 4 - 3 + 0.5 * 6


def test_duplicate_triples_rejected():
    with pytest.raises(DuplicateMonomial):
        Poly2.from_triples([[0, 0, 1.0], [0, 0, 2.0]])


def test_zero_coefficients_dropped():
    p = Poly2({(1, 0): 0.0, (0, 0): 2.0})
    assert p.coeffs == {(0, 0): 2.0}
    assert Poly2({}).coeffs == {}


def test_derivatives_exact():
    p = Poly2({(3, 2): 2.0})  # 2 x^3 y^2
    assert p.dx().coeffs == {(2, 2): 6.0}
    assert p.dy().coeffs == {(3, 1): 4.0}


def test_restrict_y():
    p = Poly2({(2, 0): 1.0, (0, 1): 5.0, (1, 1): 2.0})
    np.testing.assert_allclose(p.restrict_y(0.0), [0.0, 0.0, 1.0])
    np.testing.assert_allclose(p.restrict_y(1.0), [5.0, 2.0, 1.0])


@given(small_polys(), small_polys(), coeff, coeff)
def test_ring_ops_pointwise(p, q, x, y):
    assert np.isclose((p + q)(x, y), p(x, y) + q(x, y), rtol=1e-9, atol=1e-6)
    assert np.isclose((p - q)(x, y), p(x, y) - q(x, y), rtol=1e-9, atol=1e-6)
    assert np.isclose((p * q)(x, y), p(x, y) * q(x, y), rtol=1e-9, atol=1e-6)


def test_degree_cap_not_enforced_here():
    # the cap is a field-level contract; raw Poly2 may exceed it
    mono = {(DEGREE_CAP + 1, 0): 1.0}
    assert Poly2(mono).degree() == DEGREE_CAP + 1
