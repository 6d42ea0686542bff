"""flow.brentq is scipy.optimize.brentq bit for bit; scipy is the oracle here, not a dependency of the program."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from sigmapoly.flow import brentq

# the two tolerance sets the program polishes with: flow._brentq's event
# roots and sigma_contacts' Sigma contacts
TOLERANCES = [{"xtol": 1e-300, "rtol": 8.9e-16}, {"xtol": 1e-14}]


def _polynomials(seed: int, n: int):
    """n seeded polynomials of degree 1 to 15 with a sign change on a bracket: (f, a, b).

    Their scales run from 1e-150 to 1e4, so that some products of two
    values underflow to 0.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        coefs = (rng.standard_normal(int(rng.integers(2, 17))) * 10.0 ** int(rng.integers(-150, 5))).tolist()

        def f(x, coefs=coefs):
            v = 0.0
            for c in reversed(coefs):
                v = v * x + c
            return v

        a, b = sorted(rng.uniform(-2.0, 2.0, 2).tolist())
        if (f(a) < 0) != (f(b) < 0):
            out.append((f, a, b))
    return out


def _run(solve, f, a, b, **tol):
    """(root as hex, or the exception type, and every abscissa f was evaluated at)."""
    xs = []
    try:
        r = solve(lambda x: xs.append(x) or f(x), a, b, **tol)
    except (ValueError, RuntimeError) as e:
        return type(e).__name__, xs
    return float(r).hex(), xs


@pytest.mark.parametrize("tol", TOLERANCES, ids=["event", "contact"])
def test_brentq_is_scipys_bit_for_bit(tol):
    cases = _polynomials(7, 1500)
    # exact roots at an end and on a run of zeros, as on an exact polynomial orbit
    run = lambda x: min(x - 0.4, 0.0) + max(x - 0.6, 0.0)  # noqa: E731
    cases += [(lambda x: x - 0.25, 0.25, 1.0), (lambda x: x - 1.0, 0.25, 1.0), (run, 0.0, 1.0), (run, 1.0, 0.0)]
    for f, a, b in cases:
        assert _run(brentq, f, a, b, **tol) == _run(scipy_brentq, f, a, b, **tol)


def test_brentq_raises_as_scipy_does():
    def nan_inside(x):
        return math.nan if 0.3 < x < 0.7 else x - 0.5

    for f, a, b, kw, err in [
        (nan_inside, 0.0, 1.0, {}, ValueError),  # a NaN value inside the bracket
        (lambda x: math.nan, 0.0, 1.0, {}, ValueError),  # a NaN value at an end
        (lambda x: x * x + 1.0, -1.0, 1.0, {}, ValueError),  # both ends of one sign
        (lambda x: x**3 - 0.2, 0.0, 1.0, {"maxiter": 3}, RuntimeError),
    ]:
        for solve in (brentq, scipy_brentq):
            with pytest.raises(err):
                solve(f, a, b, xtol=1e-14, **kw)
