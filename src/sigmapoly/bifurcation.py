"""Scenario-level bifurcation analysis.

Three packaged scenarios: the regular-cusp polycycle (parameters
(lambda1, beta)), the double regular-fold polycycle (beta1, beta2), and
the visible-invisible fold-fold polycycle (alpha, beta).  Each scenario
offers bifurcation-curve computation, region classification and a
parameter-plane sweep.  A cell's crossing cycles and polycycles come from
root placement versus the admissible windows.  Where it lies relative to
the closed-form curves is one rule, `_band`: its band among a few curve
values, odd on a curve (within CURVE_TOL) and even between two.  The cusp
and two-fold items, the fold-fold sliding window and the X-cycle flags are
read off such bands (the fold-fold item, from the cycles the cell has).
The two-fold sliding cycles are the loops of the fold-exit map, whose
exits from both folds of every cell fly as one batch (`_fold_exits`).

Cells are classified in three columnar passes (`_classify_cells`): the
scenario solves every cell, the closed-form ones building the leg columns
of every cell's model (`polycycle._LegArrays`), whose return polynomials
one batched pass solves and classifies root by root; the scenario's
classifier reads every cell's cycles and bands as arrays and gives integer
key columns, whose labels and CSV rows are formatted once per distinct
key.  A sweep is one batch, its reports are built only when read, and
`classify_parameter_point` is a batch of one.

A fourth family, "Circle", realizes the fold-fold scenario on a concrete
circle field: each cell's crossing cycles come from its own Sigma-to-Sigma
return, and it has no closed-form curves.  A family is a plain record, and
one table (`_JOBS`) gives each name its solve, classifier, curves and tracer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, wraps
import math
from typing import Callable, NamedTuple

import numpy as np

from .core import FilippovSystem, PolyField, SwitchingFunction
from .errors import ConfigError, NegativeLambda, NoConvergence, NoHit, NumericError, SigmapolyError
from .flow import Section, SigmaHit, hit_sections, next_sigma_hits
from .maps import Germ, _transition_values, fit_germ, place_section, sigma_contacts
from .poly2 import poly_const, poly_x, poly_y
from .polycycle import _STABILITY, CycleReport, _LegArrays, _cycle_reports, _cycle_rows

CURVE_TOL = 1e-9
NO_CIRCLE_CURVES = "the circle ODE scenario has no closed-form bifurcation curves yet"


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class SlidingCycle:
    folds: tuple[str, ...]
    segments: int
    structure: str = ""


@dataclass(frozen=True)
class RegionReport:
    params: tuple[float, float]
    item: int | None
    crossing_cycles: tuple[CycleReport, ...]
    polycycles: int
    sliding_cycles: tuple[SlidingCycle, ...]
    heteroclinic: bool = False
    flags: tuple[str, ...] = ()
    error: str = ""

    @property
    def label(self) -> str:
        if self.error:
            return f"error:{self.error}"
        letters = [c.stability[0] for c in self.crossing_cycles]
        return _label(self.item, letters, self.polycycles, self.sliding_cycles, self.heteroclinic, self.flags)


def _label(item, letters, polycycles: int, sliding, het, flags) -> str:
    """A cell's label: item, cycle stability letters, polycycles, sliding shapes, het, sorted flags."""
    stab = ",".join(letters)
    slide = ",".join(f"{len(s.folds)}f{s.segments}s" for s in sliding)
    x, s = f"x{len(letters)}" + (f"[{stab}]" if stab else ""), f"s{len(sliding)}" + (f"[{slide}]" if slide else "")
    return "|".join([f"item{item or 0}", x, f"p{polycycles}", s, *(["het"] if het else []), *sorted(flags)])


def _tail(crossing: int, polycycles: int, sliding: int, flags) -> str:
    return f"{crossing},{polycycles},{sliding},{';'.join(sorted(flags))}"


@dataclass(frozen=True)
class CurveValues:
    values: dict
    degenerate: bool = False

    def __getitem__(self, k):
        return self.values[k]


def _finite_curves(curves):
    """The curve function curves at a float p, with a non-finite value or a float overflow a NumericError."""
    @wraps(curves)
    def checked(fam: ScenarioFamily, p: float) -> CurveValues:
        try:
            cur = curves(fam, float(p))
            if all(map(math.isfinite, cur.values.values())):
                return cur
        except OverflowError:
            pass
        raise NumericError(f"{curves.__name__} overflows at {float(p)!r}")
    return checked


def _band(v, edges, tol: float):
    """The band of v among the curve values edges: 2j + 1 on an edge, 2j off every edge.

    v is on an edge within tol of it, the first such in the order given;
    j counts the edges strictly below that edge, or below v.  v and the
    edges are floats or arrays of one length, and so is the band.
    """
    band = 2 * sum(f < v for f in edges)
    for e in reversed(edges):  # the first edge's band is placed last, so it wins
        band = np.where(np.abs(v - e) <= tol, 2 * sum(f < e for f in edges) + 1, band)
    return band


def _per_value(f, v: np.ndarray, width: int, where=slice(None)) -> np.ndarray:
    """Row i is f(v[i]) where where[i], nan elsewhere: f, a tuple of width floats of a
    Python float, is called once per distinct value (bit pattern) of v, so its bits are the scalar ones."""
    sel = v[where]
    _, first, inv = np.unique(sel.view(np.int64), return_index=True, return_inverse=True)
    out = np.full((len(v), width), np.nan)
    out[where] = np.array([f(x) for x in sel[first].tolist()], dtype=float).reshape(len(first), width)[inv]
    return out.T


# Columnar cells carry their flags as bits (bit j is _FLAGS[j], so the bits
# read in order give the flags sorted) and their sliding cycles as an index
# into _SLIDES: the cusp's one to three fold-V cycles of one structure, the
# fold-fold cycle through p0 and pY, and the loops of the two-fold fold-exit map:
# the loop through p1 and p2 with its segments, or the self-loops of p1 and p2.
_CUSP_CURVES = ("Vbar", "Ibar", "Abar")
_FLAGS = tuple(sorted((
    "C-attracting", "X-cycle-in-Mplus", "codim2", "tangent-X-cycle", "tangent-polycycle",
    *(f"on-curve:{n}" for n in (*_CUSP_CURVES, "gamma1", "gamma2", *(f"beta{i}" for i in range(1, 6)))),
)))
_BIT = {name: 1 << j for j, name in enumerate(_FLAGS)}
_CUSP_STRUCTURES = ("land-in-(I,V)", "land-in-(A,I)", "V-I-connection")
_FOLDFOLD_STRUCTURES = ("crosses-once-from-Mminus", "connection-p0-pY", "direct-from-Mplus")
_SLIDES: tuple[tuple[SlidingCycle, ...], ...] = (
    (),
    *((SlidingCycle(("V",), 1, s),) * n for s in _CUSP_STRUCTURES for n in (1, 2, 3)),  # 3 s + n
    *((SlidingCycle(("p0", "pY"), 1, s),) for s in _FOLDFOLD_STRUCTURES),  # 10 + s
    (SlidingCycle(("p1", "p2"), 1),), (SlidingCycle(("p1", "p2"), 2),),  # 12 + segments
    # 14 + p1 + 2 p2, p_f being 1 where fold f slides back into itself
    (SlidingCycle(("p1",), 1),), (SlidingCycle(("p2",), 1),), (SlidingCycle(("p1",), 1), SlidingCycle(("p2",), 1)),
)


def _flag_names(bits: int) -> tuple[str, ...]:
    return tuple(name for name in _FLAGS if bits & _BIT[name])


# -- scenario families --------------------------------------------------------


@dataclass(frozen=True)
class ScenarioFamily:
    name: str  # "Cusp" | "TwoFold" | "VIFoldFold" | "Circle"
    ranges: tuple[tuple[float, float], tuple[float, float]]
    coeffs: dict = field(default_factory=dict)
    eps: float | None = None  # the synthetic windows' half-width; the circle has none


def cusp_family(kappa: float = -1.0, dtilde: float = -1.0) -> ScenarioFamily:
    # Vbar, Ibar, Abar = c + dtilde V, c - dtilde V, c - 2 dtilde V: the item bands need dtilde < 0
    if not (kappa < 0 and dtilde < 0):
        raise ConfigError("regular-cusp scenario requires kappa < 0 and dtilde < 0 (Vbar < Ibar < Abar)")
    return ScenarioFamily(
        name="Cusp",
        coeffs={"kappa": kappa, "dtilde": dtilde},
        ranges=((-0.05, 0.05), (-0.25, 0.25)),
        eps=0.6,
    )


def twofold_family(
    kappa1: float = -1.0,
    kappa2: float = 1.0,
    dtilde1: float = 1.0,
    dtilde2: float = 1.0,
) -> ScenarioFamily:
    # DRF-A sign table
    if not (kappa1 < 0 < kappa2 and dtilde1 > 0 and dtilde2 > 0):
        raise ConfigError(
            "double regular-fold (attracting case) requires kappa1<0<kappa2, dtilde_i>0"
        )
    # at the origin the return polynomial is c x^4 - x: x = 0 is always a polycycle
    return ScenarioFamily(
        name="TwoFold",
        coeffs={"kappa1": kappa1, "kappa2": kappa2, "dtilde1": dtilde1, "dtilde2": dtilde2},
        ranges=((-0.2, 0.2), (-0.2, 0.2)),
        eps=0.6,
    )


def foldfold_family(kappa: float = 1.0, dtilde: float = 2.0) -> ScenarioFamily:
    if not (kappa > 0 and dtilde > 0):
        raise ConfigError("VI fold-fold scenario requires kappa > 0 and dtilde > 0")
    if kappa - dtilde >= 0:
        raise ConfigError("attracting VI fold-fold requires kappa - dtilde < 0")
    return ScenarioFamily(
        name="VIFoldFold",
        coeffs={"kappa": kappa, "dtilde": dtilde},
        ranges=((-0.15, 0.15), (-0.12, 0.12)),
        eps=1.0,
    )


def circle_family() -> ScenarioFamily:
    return ScenarioFamily(name="Circle", ranges=((-0.1, 0.1), (-0.05, 0.05)))


# -- cusp ---------------------------------------------------------------------


def cusp_fold_points(lam1: float, kappa: float) -> tuple[float, float, float]:
    """(V, I, A): visible fold, invisible fold, mirror landing of V.

    Folds are the double roots of the tangency cubic x^3 + (lam1/kappa) x;
    A is the third point on V's level: with mu = -lam1/kappa = 3 V^2,
    x^3 - mu x - (V^3 - mu V) = (x - V)^2 (x + 2V).
    """
    V = math.sqrt(-lam1 / (3.0 * kappa))
    return V, -V, -2.0 * V


@_finite_curves
def cusp_curves(fam: ScenarioFamily, lam1: float) -> CurveValues:
    """(Abar, Vbar, Ibar): beta values of the cusp bifurcation curves."""
    if lam1 < 0:
        raise NegativeLambda(f"cusp curves undefined for lambda1 = {lam1} < 0")
    k, d = fam.coeffs["kappa"], fam.coeffs["dtilde"]
    if lam1 == 0:
        return CurveValues({"Abar": 0.0, "Vbar": 0.0, "Ibar": 0.0}, degenerate=True)
    V, I, A = cusp_fold_points(lam1, k)
    # Vbar, Abar: the beta for which V, A is a root of the displacement Tu(x) - dtilde x
    Vbar = d * V - lam1 * V - k * V**3
    Abar = d * A - lam1 * A - k * A**3
    # V-I connection: the fold orbit from V lands exactly on I
    Ibar = d * I - lam1 * V - k * V**3
    return CurveValues({"Abar": Abar, "Vbar": Vbar, "Ibar": Ibar})


def _cusp_cells(fam: ScenarioFamily, lam1: np.ndarray, beta: np.ndarray):
    """(legs, reads) of the cells at (lam1, beta), as ``_classify_cells`` takes them.

    Each cell's model is one leg with Tu(x) = beta + lam1 x + kappa x^3 and
    DTs(x) = dtilde x on (-eps, eps), so its displacement is
    kappa x^3 + (lam1 - dtilde) x + beta; its classifier reads where the
    orbit from the visible fold V lands (nan where lam1 < 0, which has no V).
    """
    k, d = fam.coeffs["kappa"], fam.coeffs["dtilde"]
    legs = [_LegArrays(tu=(beta, lam1, 0.0, k), dts=(0.0, d), sigma=(-fam.eps, fam.eps))]
    with np.errstate(invalid="ignore"):
        V = np.sqrt(-lam1 / (3.0 * k))  # cusp_fold_points
    return legs, (legs[0].land(V, slice(None)),)


def _classify_cusp(fam: ScenarioFamily, lam1, beta, row, fields, land_V):
    tol, n = CURVE_TOL, len(lam1)
    origin = (np.abs(lam1) <= tol) & (np.abs(beta) <= tol)  # the codim-2 origin
    side = _band(lam1, (0.0,), tol)
    on = side == 2

    def curves(lam: float) -> tuple:
        cur = cusp_curves(fam, lam)
        return (*cusp_fold_points(lam, fam.coeffs["kappa"]), *(cur[nm] for nm in _CUSP_CURVES))

    V, I, A, *bars = _per_value(curves, lam1, 6, on)
    flags = sum(np.where(np.abs(beta - c) <= tol, _BIT[f"on-curve:{nm}"], 0) for nm, c in zip(_CUSP_CURVES, bars))
    # items 4..10 are the bands of beta among Vbar < Ibar < Abar
    item = np.where(on, 4 + _band(beta, bars, tol), 1 + side)
    # a sliding cycle is structured by where the fold orbit from V lands relative to the
    # invisible fold I (V - I = 2V > 0); it lands on I on the curve Ibar, item 7
    structure = np.where(item == 7, 2, np.where(land_V > I, 0, 1))  # of _CUSP_STRUCTURES
    x = fields[5]
    interior = (fields[1] == 2) & ~origin[row]
    at_fold = on[row] & (np.minimum(np.abs(x - A[row]), np.abs(x - V[row])) <= tol)
    # the return map's fixed point falls on the sliding segment (A, V)
    slide = on[row] & ~at_fold & (A[row] < x) & (x < V[row]) & interior
    nslide = np.bincount(row[slide], minlength=n)
    return (
        np.where(origin, 3, item),
        interior & ~at_fold & ~slide,
        np.where(origin, 1, np.bincount(row[interior & at_fold], minlength=n)),
        np.where(nslide > 0, 3 * structure + nslide, 0),
        (nslide > 0) & (item == 7),
        np.where(origin, _BIT["codim2"] | _BIT["C-attracting"], flags),
    )


# -- double regular fold --------------------------------------------------------


def _twofold_cells(fam: ScenarioFamily, b1: np.ndarray, b2: np.ndarray):
    """(legs, reads) of the cells at (beta1, beta2), as ``_classify_cells`` takes them.

    Every cell's model has two legs, Tu_i(x) = beta_i + kappa_i x^2 and
    DTs_i(x) = dtilde_i x, on the windows (0, eps) and (-eps, 0); its
    classifier reads the exits of its folds 1 and 2 (``_fold_exits``).
    """
    c, eps = fam.coeffs, fam.eps
    legs = [
        _LegArrays(tu=(b1, 0.0, c["kappa1"]), dts=(0.0, c["dtilde1"]), sigma=(0.0, eps)),
        _LegArrays(tu=(b2, 0.0, c["kappa2"]), dts=(0.0, c["dtilde2"]), sigma=(-eps, 0.0)),
    ]
    return legs, _fold_exits(legs, eps, CURVE_TOL)


@_finite_curves
def twofold_curves(fam: ScenarioFamily, b: float) -> CurveValues:
    """gamma1 evaluated at beta2 = b, gamma2 at beta1 = b.

    gamma1(beta2): the beta1 producing the polycycle through p2 (solve the
    crossing system with xi2 pinned to the fold); gamma2 symmetric.
    """
    c = fam.coeffs
    # xi2 = 0: xi1 = beta2/dtilde2 from Delta2, then beta1 from Delta1 = 0
    xi1 = b / c["dtilde2"]
    gamma1 = c["dtilde1"] * 0.0 - c["kappa1"] * xi1**2
    xi2 = b / c["dtilde1"]
    gamma2 = -c["kappa2"] * xi2**2
    return CurveValues({"gamma1": gamma1, "gamma2": gamma2})


def _fold_exits(legs: list[_LegArrays], eps: float, tol: float):
    """(to1, kind1, to2, kind2): where the orbit leaving each cell's fold p1, p2 next reaches a fold.

    to is the corner reached, 0 for none; kind is 1 for a slide, 2 for a
    connection, 0 for none.  The 2n orbits fly as one batch, landing corner
    by corner, legs[i - 1] landing from corner i on the other.  A landing
    on a corner's sliding side (x < 0 at corner 1, x > 0 at corner 2)
    slides into that corner's fold; a landing on the fold connects to it.
    An orbit has no exit when it escapes past 10 eps, repeats the x of two
    landings back (the same corner) within 1e-12, as the crossing iteration
    does when it contracts onto a crossing cycle, or is still going after
    200 landings.  An orbit leaves the batch once its exit is decided.
    """
    n = len(legs[0].a)
    to, kind = np.zeros(2 * n, dtype=int), np.zeros(2 * n, dtype=int)
    e = np.arange(2 * n)  # entry e leaves fold 1 + e // n of cell e % n
    cell, x, k = e % n, np.zeros(2 * n), n  # fold 1's entries are x[:k], fold 2's the rest
    side = np.repeat([1, -1], n)  # 1 where an entry lands on corner 2 next, -1 on corner 1
    one = two = np.full(2 * n, np.nan)  # x one and two landings back
    for s in (0, 1) * 100:  # fold 1's entries land through legs[s], fold 2's through the other
        x = np.concatenate([legs[s].land(x[:k], cell[:k]), legs[1 - s].land(x[k:], cell[k:])])
        slide = side * x > tol  # x > tol at corner 2, x < -tol at corner 1
        hit = slide | (np.abs(x) <= tol)
        to[e[hit]], kind[e[hit]] = (3 + side[hit]) // 2, 2 - slide[hit]
        go = ~hit & ~(np.abs(x) > eps * 10) & ~(np.abs(x - two) < 1e-12)  # a nan x flies on, as over Python floats
        if not go.any():
            break
        k, e, cell, side, x, one, two = np.count_nonzero(go[:k]), e[go], cell[go], -side[go], x[go], x[go], one[go]
    return to[:n], kind[:n], to[n:], kind[n:]


def _twofold_item(b1, b2, g1, g2, tol: float):
    """The items of cells: their bands about beta2 = 0 and beta1 = 0, then about gamma1 or gamma2; 0 for none."""
    row, col = _band(b2, (0.0,), tol), _band(b1, (0.0,), tol)
    item = np.array(((0, 11, 12), (6, 7, 13)))[np.minimum(row, 1), col]
    # beta2 < 0 and beta1 < 0: gamma2 < 0 splits beta2 < 0
    item = np.where((row == 0) & (col == 0), 10 - _band(b2, (g2,), tol), item)
    return np.where(row == 2, 5 - _band(b1, (g1, 0.0), tol), item)  # beta2 > 0: gamma1 > 0 splits beta1 > 0


def _classify_twofold(fam: ScenarioFamily, b1, b2, row, fields, to1, kind1, to2, kind2):
    tol, n = CURVE_TOL, len(b1)
    gammas = lambda b: tuple(twofold_curves(fam, b).values.values())  # noqa: E731
    (g1, _), (_, g2) = _per_value(gammas, b2, 2), _per_value(gammas, b1, 2)
    item = _twofold_item(b1, b2, g1, g2, tol)
    # a curve is flagged where the item takes its edge band: gamma1's is item 2, gamma2's item 9
    flags = (
        np.where(item == 2, _BIT["on-curve:gamma1"], 0) | np.where(item == 9, _BIT["on-curve:gamma2"], 0)
        | np.where((np.abs(b1) <= tol) & (np.abs(b2) <= tol), _BIT["codim2"], 0)
    )
    # the sliding cycles are the loops of the fold-exit map, the one through p1 and p2 when each
    # fold exits to the other, else each fold that exits to itself; a loop's segments are its slides
    loop = (to1 == 2) & (to2 == 1)
    segments = (kind1 == 1).astype(int) + (kind2 == 1)
    self1, self2 = (to1 == 1) & (kind1 == 1), (to2 == 2) & (kind2 == 1)
    slide = np.select([loop & (segments > 0), self1 | self2], [12 + segments, 14 + self1 + 2 * self2], 0)
    hetero = ((to1 == 2) & (kind1 == 2)) | ((to2 == 1) & (kind2 == 2))  # a fold connects to the other
    return item, fields[1] == 2, np.bincount(row[fields[1] == 1], minlength=n), slide, hetero, flags


# -- VI fold-fold (synthetic) -----------------------------------------------


@_finite_curves
def foldfold_curves(fam: ScenarioFamily, alpha: float) -> CurveValues:
    """Bifurcation curves of the VI fold-fold unfolding at a given alpha.

    beta1: saddle-node of crossing cycles (both signs of alpha);
    beta2 / beta4: boundary polycycle / sliding connection (alpha > 0);
    beta3 / beta5: their alpha < 0 counterparts.
    """
    k, d = fam.coeffs["kappa"], fam.coeffs["dtilde"]
    vals: dict = {}
    if alpha == 0.0:
        return CurveValues(
            {"beta1": 0.0, "beta2": 0.0, "beta3": 0.0, "beta4": 0.0, "beta5": 0.0},
            degenerate=True,
        )
    # saddle-node: Delta and dDelta/dx vanish together. dDelta/dx is
    # independent of beta, so solve for the critical x, then beta linearly.
    x_sn = 2.0 * k * alpha / (k - d)
    vals["beta1"] = -(k * (x_sn - 2 * alpha) ** 2 - d * x_sn**2)
    if alpha > 0:
        vals["beta2"] = -4 * k * alpha**2  # Delta(0) = 0
        vals["beta4"] = -k * alpha**2  # Tu(alpha) = 0: orbit of p_Y hits p_0
    if alpha < 0:
        vals["beta3"] = 4 * d * alpha**2  # Delta(2 alpha) = 0
        vals["beta5"] = d * alpha**2  # DTs(alpha) = Tu(2 alpha): p_0 orbit hits p_Y
    return CurveValues(vals)


def _foldfold_cells(fam: ScenarioFamily, alpha: np.ndarray, beta: np.ndarray):
    """(legs, reads) of the cells at (alpha, beta), as ``_classify_cells`` takes them.

    Each cell's model is one leg with Tu(u) = beta + kappa u^2 at
    u = x - 2 alpha and DTs(x) = dtilde x^2 on (-eps, zeta),
    zeta = min(0, 2 alpha), so its displacement is
    (k - d) x^2 - 4 k alpha x + beta + 4 k alpha^2; its classifier reads
    nothing more.
    """
    c = fam.coeffs
    zeta = np.where(2.0 * alpha < 0.0, 2.0 * alpha, 0.0)  # Python's min(0.0, 2 alpha)
    legs = [_LegArrays(tu=(beta, 0.0, c["kappa"]), dts=(0.0, 0.0, c["dtilde"]), sigma=(-fam.eps, zeta), a=alpha)]
    return legs, ()


def _classify_foldfold(fam: ScenarioFamily, alpha, beta, row, fields):
    tol, n = CURVE_TOL, len(alpha)
    origin = (np.abs(alpha) <= tol) & (np.abs(beta) <= tol)  # the codim-2 origin: the tangent polycycle
    names = [f"beta{i}" for i in range(1, 6)]
    curves = _per_value(lambda a: tuple(foldfold_curves(fam, a).values.get(nm, np.nan) for nm in names), alpha, 5)
    off = np.abs(alpha) > tol
    flags = sum(np.where((np.abs(beta - c) <= tol) & off, _BIT[f"on-curve:{nm}"], 0) for nm, c in zip(names, curves))
    _, b2, b3, b4, b5 = curves
    # a sliding cycle through both folds lives strictly between the boundary polycycle
    # and beta = 0; its band about the sliding connection places the orbit joining p0 and pY
    side = _band(alpha, (0.0,), tol)
    neg = side == 0
    lo, hi, conn = np.where(neg, 0.0, b2), np.where(neg, b3, 0.0), np.where(neg, b5, b4)
    slide = np.where((side != 1) & (_band(beta, (lo, hi), tol) == 2), 10 + _band(beta, (conn,), tol), 0)
    flags |= np.array((_BIT["X-cycle-in-Mplus"], _BIT["tangent-X-cycle"], 0))[_band(beta, (0.0,), tol)]
    cross = (fields[1] == 2) & ~origin[row]
    poly = np.bincount(row[fields[1] == 1], minlength=n)
    saddle_node = np.bincount(row[cross & (fields[4] >= 2)], minlength=n) > 0
    item = _foldfold_item(saddle_node, np.bincount(row[cross], minlength=n), poly)
    return (
        np.where(origin, 0, item),
        cross,
        np.where(origin, 1, poly),
        np.where(origin, 0, slide),
        np.zeros(n, dtype=bool),
        np.where(origin, _BIT["codim2"] | _BIT["tangent-polycycle"], flags),
    )


def _foldfold_item(saddle_node, crossing, polycycles):
    """The item of cells from whether a crossing cycle is a saddle-node, and the counts."""
    return np.select(
        [saddle_node, crossing == 2, crossing == 1], [2, 3, np.where(polycycles, 4, 5)], np.where(polycycles, 6, 1)
    )


# -- VI fold-fold (ODE circle backend) ----------------------------------------


def circle_system(alpha_p: float = 0.0, beta_p: float = 0.0) -> FilippovSystem:
    """Concrete VI fold-fold realization on Sigma = {y = 0}.

    X spirals onto the circle of radius 1 centered (0, 1 + beta_p), which
    for beta_p = 0 is tangent to Sigma at the origin (visible fold);
    Y = (1, x - alpha_p) has an invisible fold at (alpha_p, 0) with the
    exact mirror map x -> 2 alpha_p - x.
    """
    c = 1.0 + beta_p
    x, y = poly_x(), poly_y()
    t = y + poly_const(-c)
    r2 = x * x + t * t + poly_const(-1.0)
    fx = t.scale(-1.0) + (x * r2).scale(-1.0)
    fy = x + (t * r2).scale(-1.0)
    X = PolyField(fx, fy)
    Y = PolyField(poly_const(1.0), x + poly_const(-alpha_p))
    h = SwitchingFunction(y)
    return FilippovSystem(X=X, Y=Y, h=h)


def circle_visible_fold(Z: FilippovSystem) -> float:
    """Abscissa of the visible X-fold of the circle field near the origin."""
    contacts = sigma_contacts(Z.X, Z.h, (-0.45, 0.45))
    vis = [c for c in contacts if c[1] == 2 and c[2] > 0]
    if not vis:
        raise NoHit("no visible X-fold found near the origin")
    return min((c[0] for c in vis), key=abs)


def _circle_return(alpha_p: float, beta_p: float) -> list[tuple[float, int, float]]:
    """(x, stability, dP) of each crossing cycle of the circle field, stability indexing
    polycycle._STABILITY: the sign changes of P(x) - x on (zeta - 0.5, zeta).

    P is the Poincare map on Sigma, Y's exact mirror x -> 2 alpha_p - x and
    then the X flight back to Sigma.  The 16 starts crowd toward zeta, where
    a cycle near the tangency sits, and fly as one system for one lap and a
    half-unit margin; a start that does not come back has no cycle through
    it.  A cycle, placed by the secant on its bracket, is attracting when
    P(x) - x > 0 on its left.
    """
    Z = circle_system(alpha_p, beta_p)
    fold = circle_visible_fold(Z)
    zeta = min(fold, 2.0 * alpha_p - fold)
    xs = zeta - 0.5 * 10.0 ** (-6.0 * np.arange(16) / 15.0)
    # about (0, 1 + beta_p) X is theta' = 1, r' = r - r^3: a start x' > fold (|fold| < 0.2)
    # passes the bottom of its first lap before t = 2 pi + 0.2, and r only falls, so a
    # start still above Sigma there never comes back
    hits = next_sigma_hits(Z.X, [(2.0 * alpha_p - x, 0.0) for x in xs], Z.h, tmax=2.0 * np.pi + 0.5)
    g = [q.point[0] - x if isinstance(q, SigmaHit) else np.nan for q, x in zip(hits, xs)]
    cycles = []
    for k in range(len(xs) - 1):
        if g[k] * g[k + 1] < 0:  # False when either start did not return
            slope = (g[k + 1] - g[k]) / (xs[k + 1] - xs[k])
            cycles.append((float(xs[k] - g[k] / slope), 2 if g[k] > 0 else 3, float(1.0 + slope)))
    return cycles


def _circle_setup(alpha_p: float, beta_p: float):
    """(Z, alpha_p, x_fold, zeta, tau_s): the system, visible X-fold, crossing-window end, and
    the section in whose chart the transfer maps take their values.

    The transfers are flights of maps._transition_values onto tau_s, TuD forward from Y's
    mirror image 2 alpha_p - x and Ts backward from x.  The flows are forward-stable: the
    circle contracts radially like exp(-4 pi) per lap, so the connection D is composed onto
    Tu (TuD = D o T+ o rho_Y, a full forward lap) and Ts stays the short local backward transfer.
    """
    Z = circle_system(alpha_p, beta_p)
    x_fold = circle_visible_fold(Z)
    # section on the stable-side separatrix, a short backward hop from the fold,
    # with the chart oriented away from the circle centre so both germs come
    # out with positive quadratic coefficients
    tau_s = place_section(Z.X, (x_fold, 0.0), distance=0.3, direction="backward")
    outward = np.asarray(tau_s.anchor) - np.array([0.0, 1.0 + beta_p])
    if float(np.dot(outward, tau_s.direction)) < 0.0:
        d = tau_s.direction
        tau_s = Section(anchor=tau_s.anchor, direction=(-d[0], -d[1]), halfwidth=tau_s.halfwidth)
    return Z, alpha_p, x_fold, min(x_fold, 2 * alpha_p - x_fold), tau_s


def _circle_narrow_fits(alpha_p: float, beta_p: float):
    """(C1^2 - 4 C0 C2, setup, Ts, D): Ts, and D = TuD - Ts about Ts's vertex, on 12 points within
    2e-3 below zeta.  The narrow Ts fit pins down the vertex to ~1e-9; a wide-window vertex
    error delta shifts C1 by 2*dtilde*delta, which would swamp -4*kappa*alpha.
    """
    Z, _, x_fold, zeta, tau_s = setup = _circle_setup(alpha_p, beta_p)
    xs = zeta - np.linspace(1e-4, 2e-3, 12)
    ts_n = np.array(_transition_values(Z.X, Z.h, tau_s, xs, "backward"))
    Ts = fit_germ(list(zip(xs, ts_n)), x_fold, 3)
    x_v = x_fold - Ts.coeffs[1] / (2.0 * Ts.coeffs[2])
    tud = _transition_values(Z.X, Z.h, tau_s, 2.0 * alpha_p - xs, "forward")
    D = fit_germ(list(zip(xs, tud - ts_n)), x_v, 3)
    return D.coeffs[1] * D.coeffs[1] - 4.0 * D.coeffs[0] * D.coeffs[2], setup, Ts, D


def _circle_report(setup, Ts: Germ, D: Germ) -> dict:
    """The unfolding from the narrow fits and one wide kappa fit (circle_unfolding_fit)."""
    Z, alpha_p, x_fold, zeta, tau_s = setup
    xs_w = zeta - np.linspace(0.012, 0.12, 12)
    tud = _transition_values(Z.X, Z.h, tau_s, 2.0 * alpha_p - xs_w, "forward")
    kappa = fit_germ(list(zip(xs_w, tud)), x_fold, 4).coeffs[2]
    C0, C1, C2 = D.coeffs[0], D.coeffs[1], D.coeffs[2]
    alpha = -C1 / (4.0 * kappa)
    return {"alpha": float(alpha), "beta": float(C0 + C1 * alpha), "kappa": float(kappa),
            "dtilde": float(Ts.coeffs[2]), "fold": float(x_fold), "C": (float(C0), float(C1), float(C2))}


def circle_unfolding_fit(alpha_p: float, beta_p: float) -> dict:
    """Fit the germ-level unfolding (alpha, beta, kappa, dtilde) by flow at (alpha_p, beta_p).

    kappa comes from a degree-4 fit over a wide window; dtilde, beta and alpha
    from the cubic fits over a narrow window near the fold, where the
    saddle-node lives and the truncation error stays below the size of beta
    itself (beta scales like the lap contraction, ~3.5e-6, in the tau_s
    chart).  The fit reports; cells count from _circle_return.
    """
    return _circle_report(*_circle_narrow_fits(alpha_p, beta_p)[1:])


def circle_crossing_count(alpha_p: float, beta_p: float) -> int:
    """Number of crossing cycles of the circle field, from its Sigma-to-Sigma return."""
    return len(_circle_return(alpha_p, beta_p))


def circle_saddle_node(alpha_p: float) -> dict:
    """circle_unfolding_fit, with "beta_p", at the root beta_p* of the narrow-fit discriminant.

    The discriminant is affine in beta_p to ~1e-6 relative, so a secant from beta_p = 0 and
    1e-7 settles after its third evaluation (next step below 1e-13), whose set-up and fits the
    report reuses.  beta_p* is a few 1e-8 for alpha_p ~ 0.05, within O(exp(-8 pi)) of the
    boundary curve beta_2 in germ units.  NoConvergence: an iterate leaves (-1e-6, 1e-6), the
    secant is flat, or it has not settled in 8 evaluations.
    """
    b0, b1 = 0.0, 1e-7
    f0 = _circle_narrow_fits(alpha_p, b0)[0]
    for _ in range(7):
        f1, *fit = _circle_narrow_fits(alpha_p, b1)
        if f1 == f0:
            raise NoConvergence(f"flat discriminant secant at beta_p = {b1!r}")
        step = f1 * (b1 - b0) / (f1 - f0)
        if abs(step) < 1e-13:
            return {**_circle_report(*fit), "beta_p": b1}
        b0, f0, b1 = b1, f1, b1 - step
        if not -1e-6 < b1 < 1e-6:
            raise NoConvergence(f"saddle-node secant left (-1e-6, 1e-6) at beta_p = {b1!r}")
    raise NoConvergence(f"saddle-node secant has not settled at beta_p = {b1!r}")


def circle_cycle_multiplier() -> float:
    """Return-map derivative of the unperturbed circle cycle (finite difference)."""
    Z = circle_system(0.0, 0.0)
    sec = Section(anchor=(0.0, 2.0), direction=(0.0, 1.0), halfwidth=0.3)
    (q1, _), (q2, _) = hit_sections(Z.X, [sec.point_at(0.05), sec.point_at(0.1)], sec, "forward")
    return (sec.coord(q2) - sec.coord(q1)) / 0.05


def _circle_cells(fam: ScenarioFamily, alpha: np.ndarray, beta: np.ndarray):
    """(row, fields, errors) of the circle cells at (alpha_p, beta_p), as ``_classify_cells`` takes them:
    every cell but the codim-2 origin flies its own Sigma return, whose SigmapolyError is the
    cell's error, and its cycles are ``_cycle_rows`` columns of residual nan, locus interior, m = 1."""
    found, errors = [], {}
    for r, (a, b) in enumerate(zip(alpha.tolist(), beta.tolist())):
        try:
            found += [(r, *c) for c in (_circle_return(a, b) if a or b else ())]
        except SigmapolyError as e:
            errors[r] = e
    row, x, stability, dP = np.array(found, dtype=float).reshape(-1, 4).T
    one = np.ones(len(x), dtype=int)
    return row.astype(int), (np.full(len(x), np.nan), 2 * one, stability.astype(int), dP, one, x), errors


def _classify_circle(fam: ScenarioFamily, alpha, beta, row, fields):
    n, origin = len(alpha), (alpha == 0.0) & (beta == 0.0)  # the origin is the tangent polycycle
    # every circle cycle is simple (m = 1): no cell holds a saddle-node
    item = _foldfold_item(False, np.bincount(row, minlength=n), 0)
    # beta_p > 0 lifts the X-cycle off Sigma into M+; beta_p = 0 makes it tangent
    flags = np.array((0, _BIT["tangent-X-cycle"], _BIT["X-cycle-in-Mplus"]))[_band(beta, (0.0,), 0.0)]
    flags = np.where(origin, _BIT["codim2"] | _BIT["tangent-polycycle"], flags)
    none = np.zeros(n, dtype=int)  # no sliding cycle and no heteroclinic connection
    return np.where(origin, 0, item), np.ones(len(row), dtype=bool), origin.astype(int), none, none, flags


# -- dispatch -----------------------------------------------------------------


def _solve_legs(build):
    """The solve of a closed-form scenario whose builder gives (legs, reads): ``_cycle_rows`` of legs, and reads."""
    def solve(fam: ScenarioFamily, p1: np.ndarray, p2: np.ndarray):
        legs, reads = build(fam, p1, p2)
        return (*_cycle_rows(legs), *reads)
    return solve


class _Cells(NamedTuple):
    """Classified cells as columns, row r being cell r."""

    params: list[tuple[float, float]]
    keys: np.ndarray  # item, crossing cycles, their stabilities in base 4, polycycles, slides, het, flag bits
    cycles: tuple  # (row, fields) of every crossing cycle
    errors: dict[int, SigmapolyError]


def _classify_cells(fam: ScenarioFamily, points) -> _Cells:
    """Classify the cells at points in three columnar passes.

    1. The scenario's solve (``_JOBS``) gives every cell's errors and what
       its classifier reads: a closed-form scenario builds the leg columns of
       every cell (``_solve_legs``); the circle flies each cell's Sigma return.
    2. ``polycycle._cycle_rows`` solves the return polynomials and classifies
       every root; the circle's cycles come as the same columns.
    3. The classifier reads all cells' bands and solutions, its curve values
       computed once per distinct parameter, and returns the key columns.
    """
    solve, classify, _, _ = _JOBS[fam.name]
    pts = np.asarray(points, dtype=float)
    p1, p2 = pts[:, 0], pts[:, 1]
    row, fields, errors, *reads = solve(fam, p1, p2)
    item, cross, poly, slide, het, flags = classify(fam, p1, p2, row, fields, *reads)
    row, fields, n = row[cross], [f[cross] for f in fields], len(pts)
    place = np.arange(len(row)) - np.searchsorted(row, row)  # of each cycle among its cell's
    digits = np.bincount(row, fields[2] * 4.0**place, minlength=n)
    keys = np.stack([item, np.bincount(row, minlength=n), digits, poly, slide, het, flags], axis=1)
    return _Cells(list(zip(p1.tolist(), p2.tolist())), keys.astype(np.int64), (row, fields), errors)


def _reports(cells: _Cells) -> tuple[RegionReport, ...]:
    """The RegionReport of each cell, an error report where the cell has an error."""
    cycles = _cycle_reports(*cells.cycles, len(cells.params))
    return tuple(
        _error_report(p, cells.errors[r]) if r in cells.errors else RegionReport(
            params=p, item=item or None, crossing_cycles=tuple(cycles[r]), polycycles=poly,
            sliding_cycles=_SLIDES[slide], heteroclinic=bool(het), flags=_flag_names(flags),
        )
        for r, (p, (item, _, _, poly, slide, het, flags)) in enumerate(zip(cells.params, cells.keys.tolist()))
    )


def _rows(cells: _Cells) -> tuple[list[str], list[str]]:
    """The label and CSV tail of each cell, each formatted once per distinct key row."""
    code = np.ravel_multi_index(cells.keys.T, cells.keys.max(axis=0) + 1)  # the rows (all >= 0) in mixed radix
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    labels, tails = [], []
    for item, crossing, digits, poly, slide, het, bits in cells.keys[first].tolist():
        letters = [_STABILITY[(digits >> 2 * j) & 3][0] for j in range(crossing)]
        flags = _flag_names(bits)
        labels.append(_label(item, letters, poly, _SLIDES[slide], het, flags))
        tails.append(_tail(crossing, poly, len(_SLIDES[slide]), flags))
    labels, tails = ([col[k] for k in inverse.tolist()] for col in (labels, tails))
    for r, e in cells.errors.items():
        labels[r], tails[r] = _error_report(cells.params[r], e).label, _tail(0, 0, 0, ())
    return labels, tails


def _error_report(params: tuple[float, float], e: SigmapolyError) -> RegionReport:
    return RegionReport(params, None, (), 0, (), error=f"{type(e).__name__}: {e}")


def classify_parameter_point(fam: ScenarioFamily, params) -> RegionReport:
    """The cell at params, raising its SigmapolyError: the one-row case of the columnar
    classification, for every scenario."""
    cells = _classify_cells(fam, [params])
    if cells.errors:
        raise cells.errors[0]
    return _reports(cells)[0]


def _curves_of(fam: ScenarioFamily) -> Callable[[ScenarioFamily, float], CurveValues]:
    """The scenario's closed-form curve function; the circle has none."""
    curves = _JOBS[fam.name][2]
    if curves is None:
        raise ConfigError(NO_CIRCLE_CURVES)
    return curves


def scenario_curves(fam: ScenarioFamily, p: float) -> CurveValues:
    return _curves_of(fam)(fam, p)


# -- diagrams ------------------------------------------------------------------


@dataclass(frozen=True)
class DiagramGrid:
    """A swept grid, row-major over (p1, p2): each cell's params, label and CSV tail
    (its diagram.csv columns after the label), the traced curves, and the
    cells' RegionReports, built by ``reports`` when ``cells`` is first read."""

    params: list[tuple[float, float]]
    labels: list[str]
    tails: list[str]
    curves: dict  # name -> list of (param, p1, p2)
    reports: Callable[[], tuple[RegionReport, ...]] = field(repr=False, compare=False)

    @cached_property
    def cells(self) -> tuple[RegionReport, ...]:
        return self.reports()


def _span(lo: float, hi: float, n: int) -> np.ndarray:
    """n samples of [lo, hi]; none when the interval is empty."""
    return np.linspace(lo, hi, n) if lo <= hi else np.array([])


def _trace_cusp(fam: ScenarioFamily, n: int, r1, r2):
    for lam in _span(max(r1[0], 1e-6), r1[1], n):
        cur = cusp_curves(fam, lam)
        for nm in _CUSP_CURVES:
            yield nm, lam, lam, cur[nm]


def _trace_twofold(fam: ScenarioFamily, n: int, r1, r2):
    for b in _span(max(r2[0], 0.0), r2[1], n):  # gamma1 is a curve in beta2
        yield "gamma1", b, twofold_curves(fam, b)["gamma1"], b
    for b in _span(r1[0], min(r1[1], 0.0), n):
        yield "gamma2", b, b, twofold_curves(fam, b)["gamma2"]


def _trace_foldfold(fam: ScenarioFamily, n: int, r1, r2):
    for a in np.linspace(r1[0], r1[1], n):
        for nm, val in sorted(foldfold_curves(fam, a).values.items()):
            yield nm, a, a, val


def _trace_curves(fam: ScenarioFamily, nsamples: int = 201, ranges=None) -> dict:
    """Sample every bifurcation curve of the scenario over its own parameter's range."""
    curves: dict = {}
    trace = _JOBS[fam.name][3] or (lambda fam, n, r1, r2: ())  # the circle has no closed-form curves
    for name, param, p1, p2 in trace(fam, nsamples, *(ranges or fam.ranges)):
        curves.setdefault(name, []).append((float(param), float(p1), float(p2)))
    return curves


def sweep_diagram(fam: ScenarioFamily, n1: int, n2: int, ranges=None) -> DiagramGrid:
    """Classify an n1 x n2 grid of cells, row-major over (p1, p2), and trace the curves.

    Every sweep is one columnar batch (``_classify_cells``): its labels and
    CSV tails are formatted once per distinct key, and its RegionReports
    are built only if read.  A cell whose solve meets a SigmapolyError is
    recorded as an error cell; a programming error propagates.
    """
    (lo1, hi1), (lo2, hi2) = ranges or fam.ranges
    p1, p2 = np.meshgrid(np.linspace(lo1, hi1, n1), np.linspace(lo2, hi2, n2), indexing="ij")
    curves = _trace_curves(fam, ranges=ranges)
    cells = _classify_cells(fam, np.stack([p1.ravel(), p2.ravel()], axis=1))
    return DiagramGrid(cells.params, *_rows(cells), curves, lambda: _reports(cells))


# Each scenario's (solve, classify, curves, trace), by family name.
# solve(fam, p1, p2) returns (row, fields, errors, *reads): the cells'
# solutions as polycycle._cycle_rows gives them, row r being cell r, the
# SigmapolyError of each cell that has one, and the arrays the classifier
# reads besides (the cusp's fold landings, the two-fold's fold exits).
# classify(fam, p1, p2, row, fields, *reads) returns the columns item (0 for
# none), a mask of the solutions that are crossing cycles, polycycles,
# sliding code (an index into _SLIDES), heteroclinic and flag bits; the
# circle has no closed-form curves to give or trace.
_JOBS = {
    "Cusp": (_solve_legs(_cusp_cells), _classify_cusp, cusp_curves, _trace_cusp),
    "TwoFold": (_solve_legs(_twofold_cells), _classify_twofold, twofold_curves, _trace_twofold),
    "VIFoldFold": (_solve_legs(_foldfold_cells), _classify_foldfold, foldfold_curves, _trace_foldfold),
    "Circle": (_circle_cells, _classify_circle, None, None),
}


SCENARIOS: dict[str, Callable[[], ScenarioFamily]] = {
    "cusp-synthetic": cusp_family,
    "twofold-synthetic": twofold_family,
    "vi-foldfold-synthetic": foldfold_family,
    "vi-foldfold-circle": circle_family,
}
