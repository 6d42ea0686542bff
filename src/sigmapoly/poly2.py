"""Exact bivariate polynomial arithmetic.

Coefficients live in a dict keyed by exponent pairs (i, j), meaning
``c * x**i * y**j``.  All vector fields and switching functions are built
from these, so Lie derivatives and jets come out of exact coefficient
algebra instead of finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEGREE_CAP = 8


class DuplicateMonomial(ValueError):
    """A coefficient-triple list mentions the same (i, j) twice."""


@dataclass(frozen=True)
class Poly2:
    coeffs: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {}
        for (i, j), c in self.coeffs.items():
            c = float(c)
            if not np.isfinite(c):
                raise ValueError(f"non-finite coefficient at {(i, j)}")
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent {(i, j)}")
            if c != 0.0:
                clean[(int(i), int(j))] = c
        object.__setattr__(self, "coeffs", clean)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_triples(cls, triples) -> "Poly2":
        """Build from [[i, j, c], ...]; duplicate (i, j) entries are an error."""
        seen: dict[tuple[int, int], float] = {}
        for i, j, c in triples:
            key = (int(i), int(j))
            if key in seen:
                raise DuplicateMonomial(f"duplicate monomial {key}")
            seen[key] = float(c)
        return cls(seen)

    # -- queries -----------------------------------------------------------

    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(i + j for i, j in self.coeffs)

    def __call__(self, x: float, y: float) -> float:
        acc = 0.0
        for (i, j), c in self.coeffs.items():
            acc += c * x**i * y**j
        return acc

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return Poly2(out)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + other.scale(-1.0)

    def scale(self, s: float) -> "Poly2":
        return Poly2({k: s * c for k, c in self.coeffs.items()})

    def __mul__(self, other: "Poly2") -> "Poly2":
        out: dict[tuple[int, int], float] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0.0) + c1 * c2
        return Poly2(out)

    def dx(self) -> "Poly2":
        return Poly2({(i - 1, j): i * c for (i, j), c in self.coeffs.items() if i > 0})

    def dy(self) -> "Poly2":
        return Poly2({(i, j - 1): j * c for (i, j), c in self.coeffs.items() if j > 0})

    def restrict_y(self, y0: float = 0.0) -> np.ndarray:
        """1-D restriction x -> p(x, y0), as ascending coefficients."""
        if not self.coeffs:
            return np.zeros(1)
        deg = max(i for i, _ in self.coeffs)
        out = np.zeros(deg + 1)
        for (i, j), c in self.coeffs.items():
            out[i] += c * y0**j
        return out


def poly_x() -> Poly2:
    return Poly2({(1, 0): 1.0})


def poly_y() -> Poly2:
    return Poly2({(0, 1): 1.0})


def poly_const(c: float) -> Poly2:
    return Poly2({(0, 0): float(c)})
