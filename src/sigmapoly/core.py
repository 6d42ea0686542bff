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
        # term tables (c, i, j) in coefficient-dict order, the order
        # Poly2.__call__ sums in
        terms = tuple(tuple((c, i, j) for (i, j), c in p.coeffs.items()) for p in (self.fx, self.fy))
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_xdeg", max((i for t in terms for _, i, _ in t), default=0))
        object.__setattr__(self, "_ydeg", max((j for t in terms for _, _, j in t), default=0))

    def __call__(self, p) -> np.ndarray:
        x, y = p
        return np.array(self.components(x, y))

    def components(self, x, y) -> tuple:
        """(fx(x, y), fy(x, y)) with the bits of the two Poly2.__call__, from shared powers.

        Each power x**k, y**k is taken once, with Poly2's own **, and both
        components sum their terms from them in Poly2's order, starting at
        0.0.  A factor of exponent 0 is left out (a product with 1.0 is
        exact) and x**1 is x.  x and y are floats or arrays of one shape; a
        constant or zero component comes back as a float.
        """
        xp, yp = [1.0, x], [1.0, y]
        for k in range(2, self._xdeg + 1):
            xp.append(x**k)
        for k in range(2, self._ydeg + 1):
            yp.append(y**k)
        tx, ty = self._terms
        return _sum_terms(tx, xp, yp), _sum_terms(ty, xp, yp)


def _sum_terms(terms, xp, yp):
    """sum of c * xp[i] * yp[j] over the table, in its order, as Poly2.__call__ sums."""
    acc = 0.0
    for c, i, j in terms:
        if i:
            c = c * xp[i]
        if j:
            c = c * yp[j]
        acc += c
    return acc


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

    def _check_regular_value(self, n: int = 25) -> None:
        # 0 must be a regular value of h on the sampled part of Sigma.
        xmin, xmax, ymin, ymax = self.domain
        hx, hy = self.h.dx(), self.h.dy()
        scale = max(abs(self.h(x, y)) for x in (xmin, xmax) for y in (ymin, ymax))
        scale = max(scale, 1.0)
        for x in np.linspace(xmin, xmax, n):
            for y in np.linspace(ymin, ymax, n):
                if abs(self.h(x, y)) < 1e-6 * scale:
                    if np.hypot(hx(x, y), hy(x, y)) < CLASSIFY_TOL:
                        raise ValueError(
                            f"grad h vanishes on Sigma near ({x:.3g}, {y:.3g})"
                        )

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
    lead_sign: int
    visibility: str  # "visible" | "invisible" | "odd"
    other_side_sign: int
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class FoldFold:
    kind: str  # "VV" | "VI" | "IV" | "II"
    x_sign: int
    y_sign: int
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
        raise OutOfDomain(f"point {tuple(p)} outside domain rectangle")
    return lie_poly(F, h.h, k)(p[0], p[1])


def _sign(v: float) -> int:
    return 1 if v > 0 else (-1 if v < 0 else 0)


def contact_order(F: PolyField, h: SwitchingFunction, p, flags: list[str] | None = None):
    """Smallest n with |F^n h(p)| above tolerance, and the sign there.

    n = 1 means the field is transversal to Sigma at p.
    """
    if abs(h.h(p[0], p[1])) > CLASSIFY_TOL:
        raise NotOnSigma(f"h(p) = {h.h(p[0], p[1]):.3e} at {tuple(p)}")
    v = F(p)
    if float(np.hypot(*v)) < CLASSIFY_TOL:
        raise EquilibriumOnSigmaError(f"field vanishes at {tuple(p)}")
    g = h.h
    for k in range(1, CONTACT_ORDER_CAP + 1):
        g = F.fx * g.dx() + F.fy * g.dy()
        val = g(p[0], p[1])
        if abs(val) > CLASSIFY_TOL:
            return k, _sign(val)
        if abs(val) > NEAR_DEGENERATE_TOL and flags is not None:
            flags.append(f"near-degenerate F^{k}h = {val:.3e}")
    raise DegenerateContact(
        f"all Lie derivatives up to order {CONTACT_ORDER_CAP} below tolerance at {tuple(p)}"
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
        return FoldFold(kind=kind, x_sign=sx, y_sign=sy, flags=tuple(flags))

    side = "plus" if x_tangent else "minus"
    F = Z.X if x_tangent else Z.Y
    n, s = contact_order(F, Z.h, p, flags)
    other = Yh if x_tangent else Xh
    return Tangency(
        side=side,
        order=n,
        lead_sign=s,
        visibility=_visibility(side, n, s),
        other_side_sign=_sign(other),
        flags=tuple(flags),
    )


def sliding_field(Z: FilippovSystem, p) -> np.ndarray:
    """Filippov sliding vector field F_Z = (Yh X - Xh Y) / (Yh - Xh)."""
    cls = classify_sigma_point(Z, p)
    if not isinstance(cls, (StableSliding, UnstableSliding)):
        raise NotSliding(f"point {tuple(p)} classified {type(cls).__name__}")
    x, y = p
    Xh = lie_poly(Z.X, Z.h.h, 1)(x, y)
    Yh = lie_poly(Z.Y, Z.h.h, 1)(x, y)
    den = Yh - Xh
    if abs(den) < CLASSIFY_TOL:
        raise DenominatorNearZero(f"Yh - Xh = {den:.3e}")
    return (Yh * Z.X(p) - Xh * Z.Y(p)) / den

