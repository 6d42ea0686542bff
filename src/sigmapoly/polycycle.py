"""Crossing systems for Sigma-polycycles and their solutions.

A k-leg model carries, per corner, the unstable-side transfer germ Tu, the
stable-side germ DTs (connection diffeomorphism already composed in), and
the admissible window sigma.  Crossing cycles are zeros of the cyclic
displacement Delta_i(x) = Tu_i(x_i) - DTs_i(x_{i+1}); a zero on the window
boundary is a polycycle.  They are found as the real roots of one
polynomial in x_1: the displacement itself for one leg, the fixed-point
equation P(x_1) = x_1 of the composed first-return map for several.

Many models are solved at once (`find_cycles_rows`): their return
polynomials go through one batched root pass (`maps.root_cluster_rows`),
and every root is propagated around its model's legs and classified as
array arithmetic; `find_cycles` is the one-model case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError, NoConvergence, PeriodAnnulus
from .maps import Germ, _horner_rows, root_cluster_rows, root_clusters

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
        return self.DTs.base + (self.Tu(x - 2 * self.a) - c0) / c1


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


def _compose(coeffs, arg: list[float]) -> list[float]:
    """Coefficients of c0 + c1 arg + ... + cn arg^n for a coefficient list arg."""
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


def _affine(i: int, germ: Germ) -> tuple[float, float]:
    c = tuple(germ.coeffs) + (0.0,)
    if any(c[2:]) or c[1] == 0.0:
        raise ConfigError(
            f"leg {i}: a model with several legs needs an affine DTs of nonzero "
            f"slope, got coefficients {list(germ.coeffs)}"
        )
    return c[0], c[1]


def return_polynomial(model: SyntheticModel) -> list[float]:
    """Ascending coefficients, in x_1, of a polynomial whose real roots are the cycles.

    One leg: Delta(x) = Tu(x - 2a) - DTs(x), for any DTs.  Several legs:
    P(x_1) - x_1 with x_{i+1} = DTs_i^{-1}(Tu_i(x_i - 2a_i)) composed around
    the loop, which needs every DTs_i affine and invertible (ConfigError
    otherwise).  A polynomial that vanishes identically raises
    PeriodAnnulus.
    """
    if model.k == 1:
        leg = model.legs[0]
        tu = _compose(leg.Tu.coeffs, [-2 * leg.a - leg.Tu.base, 1.0])
        p = _sub(tu, _compose(leg.DTs.coeffs, [-leg.DTs.base, 1.0]))
    else:
        p = [0.0, 1.0]
        for i, leg in enumerate(model.legs):
            c0, c1 = _affine(i, leg.DTs)
            tu = _compose(leg.Tu.coeffs, _sub(p, [2 * leg.a + leg.Tu.base]))
            tu[0] -= c0
            p = [v / c1 for v in tu]
            p[0] += leg.DTs.base
        p = _sub(p, [0.0, 1.0])
    if not any(p):
        raise PeriodAnnulus(
            "the return polynomial vanishes identically: every point of the "
            "window is a crossing cycle (a period annulus)"
        )
    return p


def find_cycles(model: SyntheticModel) -> list[CycleReport]:
    """Every real solution of the crossing system, classified, sorted by x_1.

    The one-row case of ``find_cycles_rows``.  Raises ConfigError or
    PeriodAnnulus as ``return_polynomial`` does.
    """
    return next(find_cycles_rows([model], [return_polynomial(model)]))


def find_cycles_rows(models, polys) -> Iterator[list[CycleReport]]:
    """find_cycles of every model at once, polys[i] being return_polynomial(models[i]).

    One batched root pass (``maps.root_cluster_rows``) gives every model's
    root clusters; each is one solution, propagated around the legs through
    the affine DTs inverses, and a cluster of multiplicity m >= 2 is a
    saddle-node.  The solutions of the models with the same number of legs
    are then classified together, as array arithmetic in the operation
    order of the germs' own evaluation: the residual max |Delta_i|, the
    locus against the windows (BOUNDARY_TOL), dP = prod Tu_i' / DTs_i' (inf
    where the DTs product vanishes), and the stability, semistable at an
    interior saddle-node and otherwise attracting for |dP| < 1.  The
    reports are yielded model by model and built only then, so that a
    sweep holds one cell's reports at a time.
    """
    row, x1, mult = root_cluster_rows(polys)
    del polys  # a sweep's polynomials are not needed past the root pass
    ks = np.array([model.k for model in models], dtype=int)
    solved = {}  # legs -> [the next unread solution, the fields of those models' solutions]
    for k in sorted(set(ks[row].tolist())):
        of_k = np.flatnonzero(ks == k)
        legs = [_LegArrays([models[i].legs[j] for i in of_k.tolist()]) for j in range(k)]
        sel = ks[row] == k
        solved[k] = [0, _classify_solutions(legs, np.searchsorted(of_k, row[sel]), x1[sel], mult[sel])]
    del models  # a sweep frees each model once its cell is classified
    for k, n in zip(ks.tolist(), np.bincount(row, minlength=len(ks)).tolist()):
        if not n:
            yield []
            continue
        at, fields = solved[k]
        solved[k][0] = at + n
        res, loc, st, dp, mm, *xs = (f[at : at + n].tolist() for f in fields)
        yield [
            CycleReport(
                point=pt, residual=res[e], locus=_LOCI[loc[e]], kind=_KINDS[loc[e]],
                stability=_STABILITY[st[e]], dP=dp[e], saddle_node=mm[e] >= 2,
            )
            for e, pt in enumerate(zip(*xs))
        ]


def _classify_solutions(legs: list[_LegArrays], g: np.ndarray, x: np.ndarray, m: np.ndarray):
    """(residual, locus, stability, dP, m, x_1, ..., x_k) of the solutions x_1 = x of
    multiplicity m as arrays, solution e being one of the g[e]-th model of the legs.

    locus indexes _LOCI and _KINDS, stability _STABILITY.
    """
    k = len(legs)
    with np.errstate(all="ignore"):
        xs = [x]
        for leg in legs[:-1]:
            xs.append(leg.land(xs[-1], g))
        num, den = np.ones(len(x)), np.ones(len(x))
        outside, boundary = np.zeros(len(x), bool), np.zeros(len(x), bool)
        for j, leg in enumerate(legs):
            u, nxt = xs[j] - 2 * leg.a[g] - leg.tu_base[g], xs[(j + 1) % k] - leg.dts_base[g]
            d = np.abs(_horner_rows(leg.tu[g], u) - _horner_rows(leg.dts[g], nxt))
            residual = d if j == 0 else np.where(d > residual, d, residual)  # Python's max
            num = num * _horner_rows(leg.dtu[g], u)
            den = den * _horner_rows(leg.ddts[g], nxt)
            lo, hi = leg.lo[g], leg.hi[g]
            outside |= (xs[j] < lo - BOUNDARY_TOL) | (xs[j] > hi + BOUNDARY_TOL)
            a, b = np.abs(xs[j] - lo), np.abs(xs[j] - hi)
            boundary |= np.where(b < a, b, a) <= BOUNDARY_TOL  # Python's min
        dP = np.where(den == 0.0, np.inf, num / den)
    locus = np.where(outside, 0, np.where(boundary, 1, 2))
    stability = np.where(locus < 2, 0, np.where(m >= 2, 1, np.where(np.abs(dP) < 1.0, 2, 3)))
    return (residual, locus, stability, dP, m, *xs)


_LOCI = ("outside", "boundary", "interior")
_KINDS = ("outside", "polycycle", "crossing-cycle")
_STABILITY = ("unknown", "semistable", "attracting", "repelling")


class _LegArrays:
    """One leg of many models as arrays, a row per model: the germs' coefficients
    (padded with zeros, which Horner's rule passes over), their derivatives,
    bases, the E-II shift a and the window (lo, hi)."""

    def __init__(self, legs: list[SyntheticLeg]):
        self.tu, self.dtu = _coeff_arrays([leg.Tu.coeffs for leg in legs])
        self.dts, self.ddts = _coeff_arrays([leg.DTs.coeffs for leg in legs])
        self.tu_base = np.array([leg.Tu.base for leg in legs], dtype=float)
        self.dts_base = np.array([leg.DTs.base for leg in legs], dtype=float)
        self.a = np.array([leg.a for leg in legs], dtype=float)
        self.lo, self.hi = np.array([leg.sigma for leg in legs], dtype=float).reshape(-1, 2).T

    def land(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """SyntheticLeg.land of the g[e]-th leg at x[e], for each e."""
        t = _horner_rows(self.tu[g], x - 2 * self.a[g] - self.tu_base[g])
        return self.dts_base[g] + (t - self.dts[g, 0]) / self.dts[g, 1]


def _coeff_arrays(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded rows of germ coefficients and of their derivatives (Germ._dcoeffs)."""
    w = max(2, max(map(len, coeffs), default=1))
    c = np.array([tuple(cs) + (0.0,) * (w - len(cs)) for cs in coeffs], dtype=float).reshape(-1, w)
    return c, np.arange(1, w) * c[:, 1:]


# -- first-return maps --------------------------------------------------------


def first_return(model: SyntheticModel, x: float) -> float:
    """P(x) = DTs^{-1}(Tu(x - 2a)) for a one-leg model: the preimage nearest x."""
    if model.k != 1:
        raise ValueError("first_return is defined for k = 1 models")
    leg = model.legs[0]
    c = _compose(leg.DTs.coeffs, [-leg.DTs.base, 1.0])
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
