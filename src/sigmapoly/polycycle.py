"""Crossing systems for Sigma-polycycles and their solutions.

A k-leg model carries, per corner, the unstable-side transfer germ Tu, the
stable-side germ DTs (connection diffeomorphism already composed in), and
the admissible window sigma.  Crossing cycles are zeros of the cyclic
displacement Delta_i(x) = Tu_i(x_i) - DTs_i(x_{i+1}); a zero on the window
boundary is a polycycle.  They are found as the real roots of one
polynomial in x_1: the displacement itself for one leg, the fixed-point
equation P(x_1) = x_1 of the composed first-return map for several.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoConvergence, PeriodAnnulus
from .maps import Germ, root_clusters

BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CycleReport:
    point: tuple[float, ...]
    residual: float
    locus: str  # "interior" | "boundary" | "outside"
    kind: str  # "crossing-cycle" | "polycycle" | "outside"
    stability: str  # "attracting" | "repelling" | "semistable" | "unknown"
    dP: float
    saddle_node: bool = False


def _locus(model: SyntheticModel, xs: np.ndarray) -> str:
    on_boundary = False
    for i, leg in enumerate(model.legs):
        lo, hi = leg.sigma
        if xs[i] < lo - BOUNDARY_TOL or xs[i] > hi + BOUNDARY_TOL:
            return "outside"
        if min(abs(xs[i] - lo), abs(xs[i] - hi)) <= BOUNDARY_TOL:
            on_boundary = True
    return "boundary" if on_boundary else "interior"


def classify_solution(model: SyntheticModel, xs, multiplicity: int) -> CycleReport:
    """Locus, kind and stability of one solution of the crossing system.

    multiplicity is that of the solution's root of the return polynomial; a
    root of multiplicity >= 2 is a saddle-node, semistable when interior.
    """
    xs = [float(v) for v in xs]
    residual = max(map(abs, model.displacement(xs).tolist()))
    locus = _locus(model, xs)
    dP = model.return_derivative(xs)
    saddle_node = multiplicity >= 2
    if locus == "outside":
        kind, stability = "outside", "unknown"
    elif locus == "boundary":
        kind, stability = "polycycle", "unknown"
    else:
        kind = "crossing-cycle"
        if saddle_node:
            stability = "semistable"
        elif abs(dP) < 1.0:
            stability = "attracting"
        else:
            stability = "repelling"
    return CycleReport(
        point=tuple(xs),
        residual=residual,
        locus=locus,
        kind=kind,
        stability=stability,
        dP=float(dP),
        saddle_node=saddle_node,
    )


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


def _return_polynomial(model: SyntheticModel) -> list[float]:
    """Ascending coefficients, in x_1, of a polynomial whose real roots are the cycles.

    One leg: Delta(x) = Tu(x - 2a) - DTs(x), for any DTs.  Several legs:
    P(x_1) - x_1 with x_{i+1} = DTs_i^{-1}(Tu_i(x_i - 2a_i)) composed around
    the loop, which needs every DTs_i affine and invertible (ConfigError
    otherwise).
    """
    if model.k == 1:
        leg = model.legs[0]
        tu = _compose(leg.Tu.coeffs, [-2 * leg.a - leg.Tu.base, 1.0])
        return _sub(tu, _compose(leg.DTs.coeffs, [-leg.DTs.base, 1.0]))
    p = [0.0, 1.0]
    for i, leg in enumerate(model.legs):
        c0, c1 = _affine(i, leg.DTs)
        tu = _compose(leg.Tu.coeffs, _sub(p, [2 * leg.a + leg.Tu.base]))
        tu[0] -= c0
        p = [v / c1 for v in tu]
        p[0] += leg.DTs.base
    return _sub(p, [0.0, 1.0])


def _propagate(model: SyntheticModel, x1: float) -> list[float]:
    """(x_1, ..., x_k) from x_1 through the affine DTs inverses."""
    xs = [x1]
    for leg in model.legs[:-1]:
        xs.append(leg.land(xs[-1]))
    return xs


def find_cycles(model: SyntheticModel) -> list[CycleReport]:
    """Every real solution of the crossing system, classified, sorted by x_1.

    Each root cluster of ``_return_polynomial`` (``maps.root_clusters``) is
    one solution, propagated around the legs; a cluster of multiplicity
    m >= 2 is a saddle-node.  A return polynomial that vanishes identically
    raises PeriodAnnulus.
    """
    coeffs = _return_polynomial(model)
    if not any(coeffs):
        raise PeriodAnnulus(
            "the return polynomial vanishes identically: every point of the "
            "window is a crossing cycle (a period annulus)"
        )
    return [
        classify_solution(model, _propagate(model, x1), m)
        for x1, m in root_clusters(coeffs)
    ]


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
