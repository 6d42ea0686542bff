"""Switching-manifold point classification for planar Filippov systems.

A Filippov system is a pair Z = (X, Y) of polynomial vector fields
separated by the zero set Sigma of a switching polynomial h: X governs
M+ = {h > 0}, Y governs M- = {h < 0}.  This module provides exact Lie
derivatives, contact orders, the crossing/sliding partition of Sigma, the
tangency/fold-fold taxonomy, and the Filippov sliding vector field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateContact,
    DenominatorNearZero,
    EquilibriumOnSigmaError,
    NotOnSigma,
    NotSliding,
    OutOfDomain,
    UnsupportedSingularity,
    fmt_point,
)
from .poly2 import DEGREE_CAP, Poly2

# Classification tolerance on Lie-derivative values; anything whose
# magnitude falls in (NEAR_DEGENERATE_TOL, CLASSIFY_TOL) is treated as zero
# but flagged so strict runs can refuse it.
CLASSIFY_TOL = 1e-9
NEAR_DEGENERATE_TOL = 1e-12
CONTACT_ORDER_CAP = 6


@dataclass(frozen=True)
class PolyField:
    """Planar vector field (fx, fy) with polynomial components."""

    fx: Poly2
    fy: Poly2

    def __post_init__(self) -> None:
        if max(self.fx.degree(), self.fy.degree()) > DEGREE_CAP:
            raise ValueError(f"field degree exceeds cap {DEGREE_CAP}")

    def __call__(self, p) -> np.ndarray:
        x, y = p
        return np.array([self.fx(x, y), self.fy(x, y)])


@dataclass(frozen=True)
class SwitchingFunction:
    """Switching polynomial h with the rectangle where Sigma is considered."""

    h: Poly2
    # xmin, xmax, ymin, ymax
    domain: tuple[float, float, float, float] = (-10.0, 10.0, -10.0, 10.0)

    def __post_init__(self) -> None:
        xmin, xmax, ymin, ymax = self.domain
        if not (xmin < xmax and ymin < ymax):
            raise ValueError("degenerate domain rectangle")
        self._check_regular_value()

    def _check_regular_value(self) -> None:
        # 0 must be a regular value of h on Sigma, sampled on a 25 x 25 grid
        # in x-major order; the first singular point found is named.
        xmin, xmax, ymin, ymax = self.domain
        scale = max(abs(self.h(x, y)) for x in (xmin, xmax) for y in (ymin, ymax))
        scale = max(scale, 1.0)
        grid = np.meshgrid(np.linspace(xmin, xmax, 25), np.linspace(ymin, ymax, 25), indexing="ij")
        x, y = (g.ravel() for g in grid)
        on = np.abs(self.h(x, y)) < 1e-6 * scale
        flat = np.hypot(self.h.dx()(x, y), self.h.dy()(x, y)) < CLASSIFY_TOL
        bad = np.flatnonzero(np.broadcast_to(on & flat, x.shape))
        if bad.size:
            k = bad[0]
            raise ValueError(f"grad h vanishes on Sigma near ({x[k]:.3g}, {y[k]:.3g})")

    def contains(self, p) -> bool:
        xmin, xmax, ymin, ymax = self.domain
        x, y = p
        return xmin <= x <= xmax and ymin <= y <= ymax


@dataclass(frozen=True)
class FilippovSystem:
    X: PolyField
    Y: PolyField
    h: SwitchingFunction


# -- Sigma point classes -----------------------------------------------------


@dataclass(frozen=True)
class Crossing:
    direction: int  # +1: both fields push h upward, -1: downward
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class StableSliding:
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class UnstableSliding:
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Tangency:
    side: str  # "plus" (X tangent) or "minus" (Y tangent)
    order: int
    visibility: str  # "visible" | "invisible" | "odd"
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class FoldFold:
    kind: str  # "VV" | "VI" | "IV" | "II"
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class EquilibriumOnSigma:
    side: str
    flags: tuple[str, ...] = ()


SigmaClass = Crossing | StableSliding | UnstableSliding | Tangency | FoldFold | EquilibriumOnSigma


# -- operations ---------------------------------------------------------------


def lie_poly(F: PolyField, h: Poly2, k: int) -> Poly2:
    """F^k h as an exact polynomial (repeated <F, grad .>)."""
    if k < 1:
        raise ValueError("order must be >= 1")
    g = h
    for _ in range(k):
        g = F.fx * g.dx() + F.fy * g.dy()
    return g


def lie_derivative(F: PolyField, h: SwitchingFunction, p, k: int) -> float:
    if k > DEGREE_CAP:
        raise ValueError(f"Lie order {k} exceeds degree cap")
    if not h.contains(p):
        raise OutOfDomain(f"point {fmt_point(p)} outside domain rectangle")
    return lie_poly(F, h.h, k)(p[0], p[1])


def _sign(v: float) -> int:
    return 1 if v > 0 else (-1 if v < 0 else 0)


def contact_order(F: PolyField, h: SwitchingFunction, p, flags: list[str] | None = None):
    """Smallest n with |F^n h(p)| above tolerance, and the sign there.

    n = 1 means the field is transversal to Sigma at p.  A near-degenerate
    F^k h with k >= 2 is appended to flags; order 1 is left to
    classify_sigma_point, which flags it as Xh or Yh.
    """
    if abs(h.h(p[0], p[1])) > CLASSIFY_TOL:
        raise NotOnSigma(f"h(p) = {h.h(p[0], p[1]):.3e} at {fmt_point(p)}")
    v = F(p)
    if float(np.hypot(*v)) < CLASSIFY_TOL:
        raise EquilibriumOnSigmaError(f"field vanishes at {fmt_point(p)}")
    g = h.h
    for k in range(1, CONTACT_ORDER_CAP + 1):
        g = F.fx * g.dx() + F.fy * g.dy()
        val = g(p[0], p[1])
        if abs(val) > CLASSIFY_TOL:
            return k, _sign(val)
        if k > 1 and abs(val) > NEAR_DEGENERATE_TOL and flags is not None:
            flags.append(f"near-degenerate F^{k}h = {val:.3e}")
    raise DegenerateContact(
        f"all Lie derivatives up to order {CONTACT_ORDER_CAP} below tolerance at {fmt_point(p)}"
    )


def _visibility(side: str, order: int, lead_sign: int) -> str:
    """Even-order tangency visibility.

    The tangent arc of X lies in {h >= 0} iff the orbit-local extremum of h
    is a minimum, i.e. sign(X^n h) = +1; for Y (living in {h <= 0}) the arc
    stays below iff sign(Y^n h) = -1.
    """
    if order % 2 == 1:
        return "odd"
    if side == "plus":
        return "visible" if lead_sign > 0 else "invisible"
    return "visible" if lead_sign < 0 else "invisible"


_FOLD_FOLD_KIND = {
    ("visible", "visible"): "VV",
    ("visible", "invisible"): "VI",
    ("invisible", "visible"): "IV",
    ("invisible", "invisible"): "II",
}


def classify_sigma_point(Z: FilippovSystem, p, strict: bool = False) -> SigmaClass:
    x, y = p
    if abs(Z.h.h(x, y)) > CLASSIFY_TOL:
        raise NotOnSigma(f"h(p) = {Z.h.h(x, y):.3e}")
    flags: list[str] = []

    vX = Z.X(p)
    vY = Z.Y(p)
    if float(np.hypot(*vX)) < CLASSIFY_TOL:
        return EquilibriumOnSigma(side="plus", flags=tuple(flags))
    if float(np.hypot(*vY)) < CLASSIFY_TOL:
        return EquilibriumOnSigma(side="minus", flags=tuple(flags))

    Xh = lie_poly(Z.X, Z.h.h, 1)(x, y)
    Yh = lie_poly(Z.Y, Z.h.h, 1)(x, y)
    for name, v in (("Xh", Xh), ("Yh", Yh)):
        if NEAR_DEGENERATE_TOL < abs(v) <= CLASSIFY_TOL:
            flags.append(f"near-degenerate {name} = {v:.3e}")
    if strict and flags:
        from .errors import NearDegenerate

        raise NearDegenerate("; ".join(flags))

    x_tangent = abs(Xh) <= CLASSIFY_TOL
    y_tangent = abs(Yh) <= CLASSIFY_TOL

    if not x_tangent and not y_tangent:
        if Xh * Yh > 0:
            return Crossing(direction=_sign(Xh), flags=tuple(flags))
        if Xh < 0 < Yh:
            return StableSliding(flags=tuple(flags))
        return UnstableSliding(flags=tuple(flags))

    if x_tangent and y_tangent:
        nx, sx = contact_order(Z.X, Z.h, p, flags)
        ny, sy = contact_order(Z.Y, Z.h, p, flags)
        if nx != 2 or ny != 2:
            raise UnsupportedSingularity(
                f"tangential-tangential point of orders ({nx}, {ny}); only fold-fold handled"
            )
        kind = _FOLD_FOLD_KIND[
            (_visibility("plus", nx, sx), _visibility("minus", ny, sy))
        ]
        return FoldFold(kind=kind, flags=tuple(flags))

    side = "plus" if x_tangent else "minus"
    F = Z.X if x_tangent else Z.Y
    n, s = contact_order(F, Z.h, p, flags)
    return Tangency(side=side, order=n, visibility=_visibility(side, n, s), flags=tuple(flags))


def sliding_field(Z: FilippovSystem, p) -> np.ndarray:
    """Filippov sliding vector field F_Z = (Yh X - Xh Y) / (Yh - Xh)."""
    cls = classify_sigma_point(Z, p)
    if not isinstance(cls, (StableSliding, UnstableSliding)):
        raise NotSliding(f"point {fmt_point(p)} classified {type(cls).__name__}")
    x, y = p
    Xh = lie_poly(Z.X, Z.h.h, 1)(x, y)
    Yh = lie_poly(Z.Y, Z.h.h, 1)(x, y)
    den = Yh - Xh
    if abs(den) < CLASSIFY_TOL:
        raise DenominatorNearZero(f"Yh - Xh = {den:.3e}")
    return (Yh * Z.X(p) - Xh * Z.Y(p)) / den

