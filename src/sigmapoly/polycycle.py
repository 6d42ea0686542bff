"""Crossing systems for Sigma-polycycles and their solutions.

A k-leg model carries, per corner, the unstable-side transfer germ Tu, the
stable-side germ DTs (connection diffeomorphism already composed in), and
the admissible window sigma.  Crossing cycles are zeros of the cyclic
displacement Delta_i(x) = Tu_i(x_i) - DTs_i(x_{i+1}); a zero on the window
boundary is a polycycle.  They are found as the real roots of one
polynomial in x_1: the displacement itself for one leg, the fixed-point
equation P(x_1) = x_1 of the composed first-return map for several.

The solver is columnar: a batch of models with the same number of legs is
one `_LegArrays` per leg, a row per model, built from `SyntheticLeg`s or
straight from coefficient columns.  `return_polynomial_rows` composes every
row's return polynomial at once, one batched root pass
(`maps.root_cluster_rows`) solves them, and `_cycle_rows` propagates every
root around its row's legs and classifies it as array arithmetic.
`find_cycles`, the one public solve, and `first_return` are one-row cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoConvergence, PeriodAnnulus, SigmapolyError
from .maps import Germ, _horner, _horner_rows, root_cluster_rows, root_clusters

BOUNDARY_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class SyntheticLeg:
    """One corner of the model: transfer germs and the admissible window."""

    Tu: Germ
    DTs: Germ
    sigma: tuple[float, float]
    a: float = 0.0  # E-II shift: Tu is evaluated at u = x - 2a

    def delta(self, x: float, x_next: float) -> float:
        u = x - 2 * self.a
        return self.Tu(u) - self.DTs(x_next)

    def land(self, x: float) -> float:
        """DTs^{-1}(Tu(x - 2a)): where the orbit from x reaches the next corner, for an affine DTs."""
        c0, c1 = self.DTs.coeffs[:2]
        return self.DTs.base + (_horner(self.Tu.coeffs, x - 2 * self.a - self.Tu.base) - c0) / c1


@dataclass(frozen=True, slots=True)
class SyntheticModel:
    legs: tuple[SyntheticLeg, ...]

    @property
    def k(self) -> int:
        return len(self.legs)

    def displacement(self, xs) -> np.ndarray:
        return np.array(
            [leg.delta(xs[i], xs[(i + 1) % self.k]) for i, leg in enumerate(self.legs)]
        )

    def jacobian(self, xs: np.ndarray) -> np.ndarray:
        J = np.zeros((self.k, self.k))
        for i, leg in enumerate(self.legs):
            J[i, i] += leg.Tu.deriv(xs[i] - 2 * leg.a)
            J[i, (i + 1) % self.k] -= leg.DTs.deriv(xs[(i + 1) % self.k])
        return J

    def return_derivative(self, xs: np.ndarray) -> float:
        """dP/dx of the first-return map along the cycle: prod Tu'/DTs'."""
        num, den = 1.0, 1.0
        for i, leg in enumerate(self.legs):
            num *= leg.Tu.deriv(xs[i] - 2 * leg.a)
            den *= leg.DTs.deriv(xs[(i + 1) % self.k])
        if den == 0.0:
            return np.inf
        return num / den


class _LegArrays:
    """One leg of a batch of models, a row per model: the germs' coefficients
    (zero-padded to one width, at least 2, which Horner's rule passes over),
    their derivatives, bases, the E-II shift a and the window (lo, hi), and
    the number of DTs coefficients each row was given (dts_len), which
    error messages quote.

    Built from coefficient columns: tu and dts list the columns c0, c1, ...
    of Tu and DTs, and every column or other field is an array with a row
    per model or a scalar that all rows share.  ``of`` builds it from
    SyntheticLegs.
    """

    __slots__ = ("tu", "dtu", "dts", "ddts", "dts_len", "tu_base", "dts_base", "a", "lo", "hi")

    def __init__(self, tu, dts, sigma, a=0.0, tu_base=0.0, dts_base=0.0, dts_len=None):
        fields = (a, tu_base, dts_base, *sigma)
        n = max([len(c) for c in (*tu, *dts, *fields) if np.ndim(c)], default=1)
        self.tu, self.dtu = _coeff_rows(tu, n)
        self.dts, self.ddts = _coeff_rows(dts, n)
        self.dts_len = np.full(n, len(dts) if dts_len is None else dts_len, dtype=int)
        self.a, self.tu_base, self.dts_base, self.lo, self.hi = (np.full(n, f, dtype=float) for f in fields)

    @classmethod
    def of(cls, legs: list[SyntheticLeg]) -> _LegArrays:
        """The rows of the legs, in order."""
        w = max(len(leg.Tu.coeffs) for leg in legs)
        v = max(len(leg.DTs.coeffs) for leg in legs)
        return cls(
            tu=list(zip(*(tuple(leg.Tu.coeffs) + (0.0,) * (w - len(leg.Tu.coeffs)) for leg in legs))),
            dts=list(zip(*(tuple(leg.DTs.coeffs) + (0.0,) * (v - len(leg.DTs.coeffs)) for leg in legs))),
            sigma=tuple(zip(*(leg.sigma for leg in legs))),
            a=[leg.a for leg in legs],
            tu_base=[leg.Tu.base for leg in legs],
            dts_base=[leg.DTs.base for leg in legs],
            dts_len=[len(leg.DTs.coeffs) for leg in legs],
        )

    def land(self, x: np.ndarray, g) -> np.ndarray:
        """SyntheticLeg.land of the g[e]-th row at x[e], for each e."""
        t = _horner_rows(self.tu[g], x - 2 * self.a[g] - self.tu_base[g])
        return self.dts_base[g] + (t - self.dts[g, 0]) / self.dts[g, 1]


def _coeff_rows(columns, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficient columns side by side as n rows, zero-padded to width 2, and
    the rows of their derivatives (Germ._dcoeffs)."""
    c = np.zeros((n, max(2, len(columns))))
    for j, col in enumerate(columns):
        c[:, j] = col
    return c, np.arange(1, c.shape[1]) * c[:, 1:]


# -- return polynomials ---------------------------------------------------------


def _compose_rows(C: np.ndarray, arg: np.ndarray) -> np.ndarray:
    """Rows of c0 + c1 arg + ... + cn arg^n, for coefficient rows C and polynomial rows arg.

    Horner's rule from c_n; each product's coefficient sums its terms by
    ascending power of the outer factor.  Each row is computed in the
    operation order of the same composition over Python floats.
    """
    out = C[:, -1:]
    m = arg.shape[1]
    for k in range(C.shape[1] - 2, -1, -1):
        prod = np.zeros((len(C), out.shape[1] + m - 1))
        for i in range(out.shape[1]):
            prod[:, i : i + m] += out[:, i : i + 1] * arg
        prod[:, 0] += C[:, k]
        out = prod
    return out


def _sub_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p - q, the narrower padded with zeros."""
    out = np.zeros((len(p), max(p.shape[1], q.shape[1])))
    out[:, : p.shape[1]] = p
    out[:, : q.shape[1]] -= q
    return out


def _linear_rows(c0: np.ndarray) -> np.ndarray:
    """The rows c0 + x."""
    return np.stack([c0, np.ones(len(c0))], axis=1)


def return_polynomial_rows(legs: list[_LegArrays]) -> tuple[np.ndarray, dict[int, SigmapolyError]]:
    """(P, errors): the ascending coefficients, in x_1, of each row's return polynomial
    as the rows of P, and the error of each row that has none, by row.

    legs[j] is leg j of every model.  One leg: Delta(x) = Tu(x - 2a) - DTs(x),
    for any DTs.  Several legs: P(x_1) - x_1 with x_{i+1} =
    DTs_i^{-1}(Tu_i(x_i - 2a_i)) composed around the loop, which needs every
    DTs_i affine and invertible (a ConfigError naming the first leg that is
    not).  A polynomial that vanishes identically is a PeriodAnnulus.  The
    row of a model with an error is zero, which has no roots.
    """
    errors: dict[int, SigmapolyError] = {}
    with np.errstate(all="ignore"):
        if len(legs) == 1:
            (leg,) = legs
            tu = _compose_rows(leg.tu, _linear_rows(-2 * leg.a - leg.tu_base))
            P = _sub_rows(tu, _compose_rows(leg.dts, _linear_rows(-leg.dts_base)))
        else:
            P = _linear_rows(np.zeros(len(legs[0].a)))
            for i, leg in enumerate(legs):
                for r in np.flatnonzero(leg.dts[:, 2:].any(axis=1) | (leg.dts[:, 1] == 0.0)).tolist():
                    errors.setdefault(r, ConfigError(
                        f"leg {i}: a model with several legs needs an affine DTs of nonzero "
                        f"slope, got coefficients {leg.dts[r, : leg.dts_len[r]].tolist()}"
                    ))
                arg = P.copy()
                arg[:, 0] -= 2 * leg.a + leg.tu_base
                tu = _compose_rows(leg.tu, arg)
                tu[:, 0] -= leg.dts[:, 0]
                P = tu / leg.dts[:, 1:2]
                P[:, 0] += leg.dts_base
            P[:, 1] -= 1.0
    for r in np.flatnonzero(~P.any(axis=1)).tolist():
        errors.setdefault(r, PeriodAnnulus(
            "the return polynomial vanishes identically: every point of the "
            "window is a crossing cycle (a period annulus)"
        ))
    P[list(errors)] = 0.0
    return P, errors


# -- solver -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CycleReport:
    point: tuple[float, ...]
    residual: float
    locus: str  # "interior" | "boundary" | "outside"
    kind: str  # "crossing-cycle" | "polycycle" | "outside"
    stability: str  # "attracting" | "repelling" | "semistable" | "unknown"
    dP: float
    saddle_node: bool = False


def find_cycles(model: SyntheticModel) -> list[CycleReport]:
    """Every real solution of the crossing system, classified, sorted by x_1.

    The one-row case of ``return_polynomial_rows`` and ``_cycle_rows``,
    raising the row's ConfigError or PeriodAnnulus.
    """
    legs = [_LegArrays.of([leg]) for leg in model.legs]
    P, errors = return_polynomial_rows(legs)
    if errors:
        raise errors[0]
    return _cycle_reports(*_cycle_rows(legs, P), 1)[0]


def _cycle_rows(legs: list[_LegArrays], polys) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(row, fields) of every solution of the batch whose rows' return polynomials are polys.

    One batched root pass (``maps.root_cluster_rows``) gives every row's root
    clusters, sorted by row and then x_1; each is one solution, propagated
    around its row's legs through the affine DTs inverses, and a cluster of
    multiplicity m >= 2 is a saddle-node.  The solutions are classified as
    array arithmetic in the operation order of the germs' own evaluation:
    the residual max |Delta_i|, the locus against the windows
    (BOUNDARY_TOL), dP = prod Tu_i' / DTs_i' (inf where the DTs product
    vanishes), and the stability, semistable at an interior saddle-node and
    otherwise attracting for |dP| < 1.  fields are the arrays
    (residual, locus, stability, dP, m, x_1, ..., x_k); locus indexes _LOCI
    and _KINDS (0 is outside), stability _STABILITY.
    """
    row, x, m = root_cluster_rows(polys)
    k = len(legs)
    with np.errstate(all="ignore"):
        xs = [x]
        for leg in legs[:-1]:
            xs.append(leg.land(xs[-1], row))
        num, den = np.ones(len(x)), np.ones(len(x))
        outside, boundary = np.zeros(len(x), bool), np.zeros(len(x), bool)
        for j, leg in enumerate(legs):
            u, nxt = xs[j] - 2 * leg.a[row] - leg.tu_base[row], xs[(j + 1) % k] - leg.dts_base[row]
            d = np.abs(_horner_rows(leg.tu[row], u) - _horner_rows(leg.dts[row], nxt))
            residual = d if j == 0 else np.where(d > residual, d, residual)  # Python's max
            num = num * _horner_rows(leg.dtu[row], u)
            den = den * _horner_rows(leg.ddts[row], nxt)
            lo, hi = leg.lo[row], leg.hi[row]
            outside |= (xs[j] < lo - BOUNDARY_TOL) | (xs[j] > hi + BOUNDARY_TOL)
            a, b = np.abs(xs[j] - lo), np.abs(xs[j] - hi)
            boundary |= np.where(b < a, b, a) <= BOUNDARY_TOL  # Python's min
        dP = np.where(den == 0.0, np.inf, num / den)
    locus = np.where(outside, 0, np.where(boundary, 1, 2))
    stability = np.where(locus < 2, 0, np.where(m >= 2, 1, np.where(np.abs(dP) < 1.0, 2, 3)))
    return row, (residual, locus, stability, dP, m, *xs)


def _cycle_reports(row: np.ndarray, fields, n: int) -> list[list[CycleReport]]:
    """The CycleReports of the solutions (row, fields) of ``_cycle_rows``, one list per
    row of the n rows; row must be sorted."""
    res, loc, st, dp, mm, *xs = (f.tolist() for f in fields)
    reports = [
        CycleReport(
            point=pt, residual=res[e], locus=_LOCI[loc[e]], kind=_KINDS[loc[e]],
            stability=_STABILITY[st[e]], dP=dp[e], saddle_node=mm[e] >= 2,
        )
        for e, pt in enumerate(zip(*xs))
    ]
    ends = np.searchsorted(row, np.arange(n + 1)).tolist()
    return [reports[a:b] for a, b in zip(ends, ends[1:])]


_LOCI = ("outside", "boundary", "interior")
_KINDS = ("outside", "polycycle", "crossing-cycle")
_STABILITY = ("unknown", "semistable", "attracting", "repelling")


# -- first-return maps --------------------------------------------------------


def first_return(model: SyntheticModel, x: float) -> float:
    """P(x) = DTs^{-1}(Tu(x - 2a)) for a one-leg model: the preimage nearest x."""
    if model.k != 1:
        raise ValueError("first_return is defined for k = 1 models")
    leg = model.legs[0]
    dts = np.array([leg.DTs.coeffs], dtype=float)
    c = _compose_rows(dts, np.array([[-leg.DTs.base, 1.0]]))[0].tolist()
    c[0] -= leg.Tu(x - 2 * leg.a)
    preimages = [y for y, _ in root_clusters(c)]
    if not preimages:
        raise NoConvergence(f"could not invert DTs at x = {x}: no real preimage")
    return min(preimages, key=lambda y: abs(y - x))


def normal_form_model(
    kappa: float,
    dtilde: float,
    n: int,
    lam: tuple[float, ...] = (),
    sigma: tuple[float, float] = (-0.3, 0.0),
    a: float = 0.0,
) -> SyntheticModel:
    """One-leg model Tu(x) = lam_0 + ... + kappa x^n, DTs(x) = dtilde x."""
    coeffs = list(lam) + [0.0] * (n + 1 - len(lam))
    coeffs[n] = kappa
    Tu = Germ(base=0.0, coeffs=tuple(coeffs), window=max(abs(sigma[0]), abs(sigma[1])))
    DTs = Germ(base=0.0, coeffs=(0.0, dtilde), window=Tu.window)
    leg = SyntheticLeg(Tu=Tu, DTs=DTs, sigma=sigma, a=a)
    return SyntheticModel(legs=(leg,))
