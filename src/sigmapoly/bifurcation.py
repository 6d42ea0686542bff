"""Scenario-level bifurcation analysis.

Three packaged scenarios: the regular-cusp polycycle (parameters
(lambda1, beta)), the double regular-fold polycycle (beta1, beta2), and
the visible-invisible fold-fold polycycle (alpha, beta).  Each scenario
offers bifurcation-curve computation, region classification and a
parameter-plane sweep.  A cell's crossing cycles and polycycles come from
root placement versus the admissible windows; its item number comes from
where the cell lies relative to the closed-form curves (the fold-fold item,
from the cycles it has).  The two-fold sliding cycles are the loops of the
fold-exit map (`_fold_exit`).

A fourth family, "Circle", realizes the fold-fold scenario on a concrete
circle field: its cells count crossing cycles from the flow's Sigma-to-Sigma
return, and it has no closed-form curves.  A family is a plain record, and
every job dispatches on its name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import FilippovSystem, PolyField, SwitchingFunction
from .errors import ConfigError, NegativeLambda, NoHit, SigmapolyError, WrongSign
from .flow import Section, SigmaHit, hit_sections, next_sigma_hits
from .maps import Germ, fit_germ, place_section, sigma_contacts
from .poly2 import poly_const, poly_x, poly_y
from .polycycle import (
    CycleReport,
    SyntheticLeg,
    SyntheticModel,
    find_cycles,
    normal_form_model,
)

CURVE_TOL = 1e-9
DEFAULT_EPS = 0.3
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
        stab = ",".join(c.stability[0] for c in self.crossing_cycles)
        slide = ",".join(
            f"{len(s.folds)}f{s.segments}s" for s in self.sliding_cycles
        )
        parts = [
            f"item{self.item if self.item is not None else 0}",
            f"x{len(self.crossing_cycles)}" + (f"[{stab}]" if stab else ""),
            f"p{self.polycycles}",
            f"s{len(self.sliding_cycles)}" + (f"[{slide}]" if slide else ""),
        ]
        if self.heteroclinic:
            parts.append("het")
        parts.extend(sorted(self.flags))
        return "|".join(parts)


@dataclass(frozen=True)
class CurveValues:
    values: dict
    degenerate: bool = False

    def __getitem__(self, k):
        return self.values[k]


# -- scenario families --------------------------------------------------------


@dataclass(frozen=True)
class ScenarioFamily:
    name: str  # "Cusp" | "TwoFold" | "VIFoldFold" | "Circle"
    ranges: tuple[tuple[float, float], tuple[float, float]]
    coeffs: dict = field(default_factory=dict)
    eps: float = DEFAULT_EPS


def cusp_family(kappa: float = -1.0, dtilde: float = -1.0) -> ScenarioFamily:
    # Vbar, Ibar, Abar = c + dtilde V, c - dtilde V, c - 2 dtilde V: _cusp_item's order needs dtilde < 0
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


def _cusp_beta_map(x: float, lam1: float, kappa: float, dtilde: float) -> float:
    """beta for which x is a root of the displacement Tu(x) - dtilde*x."""
    return dtilde * x - lam1 * x - kappa * x**3


def cusp_fold_points(lam1: float, kappa: float) -> tuple[float, float, float]:
    """(V, I, A): visible fold, invisible fold, mirror landing of V.

    Folds are the double roots of the tangency cubic x^3 + (lam1/kappa) x;
    A is the third point on V's level: with mu = -lam1/kappa = 3 V^2,
    x^3 - mu x - (V^3 - mu V) = (x - V)^2 (x + 2V).
    """
    V = float(np.sqrt(-lam1 / (3.0 * kappa)))
    return V, -V, -2.0 * V


def cusp_curves(fam: ScenarioFamily, lam1: float) -> CurveValues:
    """(Abar, Vbar, Ibar): beta values of the cusp bifurcation curves."""
    if lam1 < 0:
        raise NegativeLambda(f"cusp curves undefined for lambda1 = {lam1} < 0")
    k, d = fam.coeffs["kappa"], fam.coeffs["dtilde"]
    if lam1 == 0:
        return CurveValues({"Abar": 0.0, "Vbar": 0.0, "Ibar": 0.0}, degenerate=True)
    V, I, A = cusp_fold_points(lam1, k)
    Vbar = _cusp_beta_map(V, lam1, k, d)
    Abar = _cusp_beta_map(A, lam1, k, d)
    # V-I connection: the fold orbit from V lands exactly on I
    Ibar = d * I - lam1 * V - k * V**3
    return CurveValues({"Abar": Abar, "Vbar": Vbar, "Ibar": Ibar})


def _classify_cusp(fam: ScenarioFamily, lam1: float, beta: float) -> RegionReport:
    k, d = fam.coeffs["kappa"], fam.coeffs["dtilde"]
    tol = CURVE_TOL

    if abs(lam1) <= tol and abs(beta) <= tol:
        return RegionReport(
            params=(lam1, beta),
            item=3,
            crossing_cycles=(),
            polycycles=1,
            sliding_cycles=(),
            flags=("codim2", "C-attracting"),
        )

    # displacement kappa x^3 + (lam1 - dtilde) x + beta
    model = normal_form_model(k, d, 3, lam=(beta, lam1), sigma=(-fam.eps, fam.eps))
    roots = [r for r in find_cycles(model) if r.kind == "crossing-cycle"]

    if lam1 <= tol:
        return RegionReport(
            params=(lam1, beta),
            item=1 if lam1 < -tol else 2,
            crossing_cycles=tuple(roots),
            polycycles=0,
            sliding_cycles=(),
        )

    V, I, A = cusp_fold_points(lam1, k)
    cur = cusp_curves(fam, lam1)
    flags = [f"on-curve:{n}" for n in ("Vbar", "Ibar", "Abar") if abs(beta - cur[n]) <= tol]
    # a sliding cycle is structured by where the fold orbit from V lands relative to the
    # invisible fold I (V - I = 2V > 0); it lands on I on the curve Ibar, in that flag's band
    x_land = model.legs[0].land(V)
    if abs(beta - cur["Ibar"]) <= tol:
        structure = "V-I-connection"
    else:
        structure = "land-in-(I,V)" if x_land > I else "land-in-(A,I)"

    cycles: list[CycleReport] = []
    polycycles = 0
    sliding: list[SlidingCycle] = []
    for r in roots:
        x = r.point[0]
        if min(abs(x - A), abs(x - V)) <= tol:
            polycycles += 1
        elif A < x < V:  # the return map's fixed point falls on the sliding segment
            sliding.append(SlidingCycle(folds=("V",), segments=1, structure=structure))
        else:
            cycles.append(r)

    return RegionReport(
        params=(lam1, beta),
        item=_cusp_item(beta, cur, tol),
        crossing_cycles=tuple(cycles),
        polycycles=polycycles,
        sliding_cycles=tuple(sliding),
        heteroclinic=bool(sliding) and structure == "V-I-connection",
        flags=tuple(flags),
    )


def _cusp_item(beta: float, cur: CurveValues, tol: float) -> int:
    vbar, ibar, abar = cur["Vbar"], cur["Ibar"], cur["Abar"]
    if beta < vbar - tol:
        return 4
    if abs(beta - vbar) <= tol:
        return 5
    if beta < ibar - tol:
        return 6
    if abs(beta - ibar) <= tol:
        return 7
    if beta < abar - tol:
        return 8
    if abs(beta - abar) <= tol:
        return 9
    return 10


# -- double regular fold --------------------------------------------------------


def _twofold_model(fam: ScenarioFamily, b1: float, b2: float) -> SyntheticModel:
    c = fam.coeffs
    eps = fam.eps
    Tu1 = Germ(base=0.0, coeffs=(b1, 0.0, c["kappa1"]), window=eps)
    Tu2 = Germ(base=0.0, coeffs=(b2, 0.0, c["kappa2"]), window=eps)
    DTs1 = Germ(base=0.0, coeffs=(0.0, c["dtilde1"]), window=eps)
    DTs2 = Germ(base=0.0, coeffs=(0.0, c["dtilde2"]), window=eps)
    leg1 = SyntheticLeg(Tu=Tu1, DTs=DTs1, sigma=(0.0, eps))
    leg2 = SyntheticLeg(Tu=Tu2, DTs=DTs2, sigma=(-eps, 0.0))
    return SyntheticModel(k=2, legs=(leg1, leg2))


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


def _fold_exit(model: SyntheticModel, fold: int, eps: float, tol: float) -> tuple[int, str] | None:
    """Where the orbit leaving fold p_fold next reaches a fold: (corner, "slide" | "connect").

    The orbit lands corner by corner through the legs' maps.  A landing on a
    corner's sliding side (x < 0 at corner 1, x > 0 at corner 2) slides into
    that corner's fold; a landing on the fold connects to it.  None when the
    orbit escapes past 10 eps or the crossing iteration contracts onto a
    crossing cycle (a repeat at the same corner).
    """
    corner, x = 3 - fold, model.legs[fold - 1].land(0.0)
    last: dict[int, float] = {}
    for _ in range(200):
        if (x < -tol) if corner == 1 else (x > tol):
            return corner, "slide"
        if abs(x) <= tol:
            return corner, "connect"
        if abs(x) > eps * 10 or (corner in last and abs(x - last[corner]) < 1e-12):
            return None
        last[corner] = x
        corner, x = 3 - corner, model.legs[corner - 1].land(x)
    return None


def _twofold_sliding_trace(model: SyntheticModel, eps: float, tol: float) -> tuple[list[SlidingCycle], bool]:
    """Sliding cycles as the loops of the fold-exit map, and whether a fold connects to the other.

    The loop is (1, 2) when each fold's exit reaches the other, otherwise each
    fold that returns to itself; a loop's segments are the slides on it.
    """
    exits = {f: _fold_exit(model, f, eps, tol) for f in (1, 2)}
    to = {f: e[0] if e else None for f, e in exits.items()}
    loops = [(1, 2)] if to == {1: 2, 2: 1} else [(f,) for f in (1, 2) if to[f] == f]
    sliding = []
    for loop in loops:
        segments = sum(exits[f][1] == "slide" for f in loop)
        if segments:
            sliding.append(SlidingCycle(folds=tuple(f"p{f}" for f in loop), segments=segments))
    return sliding, any(e == (3 - f, "connect") for f, e in exits.items())


def _twofold_item(b1: float, b2: float, g1: float, g2: float, tol: float) -> int:
    if b2 > tol:
        if b1 > g1 + tol:
            return 1
        if abs(b1 - g1) <= tol:
            return 2
        if b1 > tol:
            return 3
        if abs(b1) <= tol:
            return 4
        return 5
    if abs(b2) <= tol:
        if b1 < -tol:
            return 6
        if abs(b1) <= tol:
            return 7
        return 13
    # b2 < 0
    if abs(b1) <= tol:
        return 11
    if b1 > tol:
        return 12
    if b2 > g2 + tol:
        return 8
    if abs(b2 - g2) <= tol:
        return 9
    return 10


def _classify_twofold(fam: ScenarioFamily, b1: float, b2: float) -> RegionReport:
    tol = CURVE_TOL
    model = _twofold_model(fam, b1, b2)
    reports = find_cycles(model)
    cycles = tuple(r for r in reports if r.kind == "crossing-cycle")
    polycycles = sum(1 for r in reports if r.kind == "polycycle")
    sliding, hetero = _twofold_sliding_trace(model, fam.eps, tol)
    flags: list[str] = []
    g1 = twofold_curves(fam, b2)["gamma1"]
    g2 = twofold_curves(fam, b1)["gamma2"]
    if b2 > tol and abs(b1 - g1) <= tol:
        flags.append("on-curve:gamma1")
    if b1 < -tol and abs(b2 - g2) <= tol:
        flags.append("on-curve:gamma2")
    if abs(b1) <= tol and abs(b2) <= tol:
        flags.append("codim2")
    return RegionReport(
        params=(b1, b2),
        item=_twofold_item(b1, b2, g1, g2, tol),
        crossing_cycles=cycles,
        polycycles=polycycles,
        sliding_cycles=tuple(sliding),
        heteroclinic=hetero,
        flags=tuple(flags),
    )


# -- VI fold-fold (synthetic) -----------------------------------------------


def _foldfold_model(fam: ScenarioFamily, alpha: float, beta: float) -> SyntheticModel:
    c = fam.coeffs
    zeta = min(0.0, 2.0 * alpha)
    lo = -fam.eps
    Tu = Germ(base=0.0, coeffs=(beta, 0.0, c["kappa"]), window=fam.eps)
    DTs = Germ(base=0.0, coeffs=(0.0, 0.0, c["dtilde"]), window=fam.eps)
    leg = SyntheticLeg(Tu=Tu, DTs=DTs, sigma=(lo, zeta), a=alpha)
    return SyntheticModel(k=1, legs=(leg,))


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
        vals["beta2"] = -(k * (0.0 - 2 * alpha) ** 2 - d * 0.0**2)
        vals["beta4"] = -k * alpha**2  # Tu(alpha) = 0: orbit of p_Y hits p_0
    if alpha < 0:
        zeta = 2.0 * alpha
        vals["beta3"] = -(k * (zeta - 2 * alpha) ** 2 - d * zeta**2)
        vals["beta5"] = d * alpha**2  # DTs(alpha) = Tu(2 alpha): p_0 orbit hits p_Y
    return CurveValues(vals)


def foldfold_curve_value(fam: ScenarioFamily, alpha: float, name: str) -> float:
    cur = foldfold_curves(fam, alpha)
    if name not in cur.values:
        raise WrongSign(f"curve {name} undefined at alpha = {alpha}")
    return cur[name]


def _classify_foldfold(fam: ScenarioFamily, alpha: float, beta: float) -> RegionReport:
    k, d = fam.coeffs["kappa"], fam.coeffs["dtilde"]
    tol = CURVE_TOL
    flags: list[str] = []

    cur = foldfold_curves(fam, alpha)
    for name, val in sorted(cur.values.items()):
        if abs(beta - val) <= tol and abs(alpha) > tol:
            flags.append(f"on-curve:{name}")

    if abs(alpha) <= tol and abs(beta) <= tol:
        return _tangent_polycycle((alpha, beta))

    # displacement (k - d) x^2 - 4 k alpha x + beta + 4 k alpha^2 on (-eps, zeta)
    reports = find_cycles(_foldfold_model(fam, alpha, beta))
    cycles = tuple(r for r in reports if r.kind == "crossing-cycle")
    polycycles = sum(1 for r in reports if r.kind == "polycycle")

    # a sliding cycle through both folds; the sign of s places the orbit
    # joining p0 and pY (s = 0: the connection itself)
    sliding: list[SlidingCycle] = []
    s = None
    if alpha > tol and -4.0 * k * alpha**2 + tol < beta < -tol:
        s = beta + k * alpha**2
    elif alpha < -tol and tol < beta < 4.0 * d * alpha**2 - tol:
        s = beta - d * alpha**2
    if s is not None:
        if s < -tol:
            structure = "crosses-once-from-Mminus"
        elif s > tol:
            structure = "direct-from-Mplus"
        else:
            structure = "connection-p0-pY"
        sliding.append(SlidingCycle(folds=("p0", "pY"), segments=1, structure=structure))

    if beta < -tol:
        flags.append("X-cycle-in-Mplus")
    elif abs(beta) <= tol:
        flags.append("tangent-X-cycle")

    return RegionReport(
        params=(alpha, beta),
        item=_foldfold_item(cycles, polycycles),
        crossing_cycles=cycles,
        polycycles=polycycles,
        sliding_cycles=tuple(sliding),
        flags=tuple(flags),
    )


def _tangent_polycycle(params: tuple[float, float]) -> RegionReport:
    """The codim-2 origin of the VI fold-fold unfolding: the tangent polycycle."""
    return RegionReport(
        params=params, item=None, crossing_cycles=(), polycycles=1, sliding_cycles=(),
        flags=("codim2", "tangent-polycycle"),
    )


def _foldfold_item(cycles: tuple[CycleReport, ...], polycycles: int) -> int:
    if any(c.saddle_node for c in cycles):
        return 2
    if len(cycles) == 2:
        return 3
    if len(cycles) == 1:
        return 4 if polycycles else 5
    return 6 if polycycles else 1


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


def _circle_return(alpha_p: float, beta_p: float) -> tuple[CycleReport, ...]:
    """Crossing cycles of the circle field: the sign changes of P(x) - x on (zeta - 0.5, zeta).

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
            cycles.append(CycleReport(
                point=(float(xs[k] - g[k] / slope),), residual=float("nan"), locus="interior",
                kind="crossing-cycle", stability="attracting" if g[k] > 0 else "repelling",
                dP=float(1.0 + slope),
            ))
    return tuple(cycles)


def _circle_setup(alpha_p: float, beta_p: float):
    """(x_fold, zeta, tud, ts): visible X-fold, crossing-window end, transfer maps.

    tud and ts map abscissae to values in the tau_s chart, each call flying
    its orbits as one system (flow.hit_sections).  The flows are
    forward-stable: the circle contracts radially like exp(-4 pi) per lap, so
    the connection D is composed onto Tu (TuD = D o T+ o rho_Y, a full
    forward lap) and Ts stays the short local backward transfer.
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

    def tud(xs) -> np.ndarray:
        hits = hit_sections(Z.X, [(2.0 * alpha_p - x, 0.0) for x in xs], tau_s, "forward")
        return np.array([tau_s.coord(q) for q, _ in hits])

    def ts(xs) -> np.ndarray:
        hits = hit_sections(Z.X, [(x, 0.0) for x in xs], tau_s, "backward")
        return np.array([tau_s.coord(q) for q, _ in hits])

    return x_fold, min(x_fold, 2 * alpha_p - x_fold), tud, ts


def _circle_narrow_fits(setup, n: int) -> tuple[Germ, Germ]:
    """Ts, and D = TuD - Ts about Ts's vertex, fitted on n points within 2e-3 below zeta.

    The narrow Ts fit pins down the vertex to ~1e-9; a wide-window vertex
    error delta shifts C1 by 2*dtilde*delta, which would swamp -4*kappa*alpha.
    """
    x_fold, zeta, tud, ts = setup
    xs = zeta - np.linspace(1e-4, 2e-3, n)
    ts_n = ts(xs)
    Ts = fit_germ(list(zip(xs, ts_n)), x_fold, 3)
    x_v = x_fold - Ts.coeffs[1] / (2.0 * Ts.coeffs[2])
    return Ts, fit_germ(list(zip(xs, tud(xs) - ts_n)), x_v, 3)


def circle_unfolding_fit(alpha_p: float, beta_p: float) -> dict:
    """Fit the germ-level unfolding (alpha, beta, kappa, dtilde) by flow.

    kappa and dtilde come from degree-4 fits over a wide window; beta and
    alpha from the displacement quadratic over a narrow window near the fold,
    where the saddle-node lives and the 2-jet truncation error stays below
    the size of beta itself (beta scales like the lap contraction, ~3.5e-6,
    in the tau_s chart).  The fit reports; cells count from _circle_return.
    """
    setup = _circle_setup(alpha_p, beta_p)
    x_fold, zeta, tud, _ = setup
    xs_w = zeta - np.linspace(0.012, 0.12, 12)
    kappa = fit_germ(list(zip(xs_w, tud(xs_w))), x_fold, 4).coeffs[2]
    Ts, D = _circle_narrow_fits(setup, 12)
    dtilde = Ts.coeffs[2]
    C0, C1, C2 = D.coeffs[0], D.coeffs[1], D.coeffs[2]
    alpha = -C1 / (4.0 * kappa)
    beta = C0 + C1 * alpha
    return {
        "alpha": float(alpha),
        "beta": float(beta),
        "kappa": float(kappa),
        "dtilde": float(dtilde),
        "fold": float(x_fold),
        "C": (float(C0), float(C1), float(C2)),
    }


def circle_crossing_count(alpha_p: float, beta_p: float) -> int:
    """Number of crossing cycles of the circle field, from its Sigma-to-Sigma return."""
    return len(_circle_return(alpha_p, beta_p))


def _circle_disc(alpha_p: float, beta_p: float) -> float:
    """Discriminant of the narrow-window displacement quadratic (fast path)."""
    _, D = _circle_narrow_fits(_circle_setup(alpha_p, beta_p), 10)
    C0, C1, C2 = D.coeffs[0], D.coeffs[1], D.coeffs[2]
    return C1 * C1 - 4.0 * C0 * C2


def circle_saddle_node(alpha_p: float) -> dict:
    """Locate the saddle-node in beta_p on (-1e-6, 1e-6) and report the germ-chart unfolding.

    The saddle-node sits within O(exp(-8 pi)) of the boundary curve beta_2 in
    germ units, i.e. at beta_p of a few 1e-8 for alpha_p ~ 0.05."""
    from scipy.optimize import brentq

    beta_p_star = brentq(lambda b: _circle_disc(alpha_p, b), -1e-6, 1e-6, xtol=1e-13)
    fit = circle_unfolding_fit(alpha_p, beta_p_star)
    fit["beta_p"] = float(beta_p_star)
    return fit


def circle_cycle_multiplier() -> float:
    """Return-map derivative of the unperturbed circle cycle (finite difference)."""
    Z = circle_system(0.0, 0.0)
    sec = Section(anchor=(0.0, 2.0), direction=(0.0, 1.0), halfwidth=0.3)
    (q1, _), (q2, _) = hit_sections(Z.X, [sec.point_at(0.05), sec.point_at(0.1)], sec, "forward")
    return (sec.coord(q2) - sec.coord(q1)) / 0.05


def _classify_circle(fam: ScenarioFamily, alpha_p: float, beta_p: float) -> RegionReport:
    """A circle cell: its crossing cycles from the flow, its flags from the exact geometry."""
    if alpha_p == 0.0 and beta_p == 0.0:
        return _tangent_polycycle((alpha_p, beta_p))
    cycles = _circle_return(alpha_p, beta_p)
    # beta_p > 0 lifts the X-cycle off Sigma into M+; beta_p = 0 makes it tangent
    flags = ("X-cycle-in-Mplus",) if beta_p > 0 else ("tangent-X-cycle",) if beta_p == 0 else ()
    return RegionReport(
        params=(alpha_p, beta_p), item=_foldfold_item(cycles, 0), crossing_cycles=cycles, polycycles=0,
        sliding_cycles=(), flags=flags,
    )


# -- dispatch -----------------------------------------------------------------


_CLASSIFIERS = {
    "Cusp": _classify_cusp,
    "TwoFold": _classify_twofold,
    "VIFoldFold": _classify_foldfold,
    "Circle": _classify_circle,
}
_CURVES = {"Cusp": cusp_curves, "TwoFold": twofold_curves, "VIFoldFold": foldfold_curves}


def classify_parameter_point(fam: ScenarioFamily, params) -> RegionReport:
    return _CLASSIFIERS[fam.name](fam, float(params[0]), float(params[1]))


def _curves_of(fam: ScenarioFamily) -> Callable[[ScenarioFamily, float], CurveValues]:
    """The scenario's closed-form curve function; the circle has none."""
    if fam.name not in _CURVES:
        raise ConfigError(NO_CIRCLE_CURVES)
    return _CURVES[fam.name]


def scenario_curves(fam: ScenarioFamily, p: float) -> CurveValues:
    return _curves_of(fam)(fam, p)


# -- diagrams ------------------------------------------------------------------


@dataclass(frozen=True)
class DiagramGrid:
    cells: tuple[RegionReport, ...]  # row-major over (p1, p2)
    curves: dict  # name -> list of (param, p1, p2)


def _span(lo: float, hi: float, n: int) -> np.ndarray:
    """n samples of [lo, hi]; none when the interval is empty."""
    return np.linspace(lo, hi, n) if lo <= hi else np.array([])


def _trace_cusp(fam: ScenarioFamily, n: int, r1, r2):
    for lam in _span(max(r1[0], 1e-6), r1[1], n):
        cur = cusp_curves(fam, lam)
        for nm in ("Vbar", "Ibar", "Abar"):
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


_TRACERS = {
    "Cusp": _trace_cusp, "TwoFold": _trace_twofold, "VIFoldFold": _trace_foldfold,
    "Circle": lambda fam, n, r1, r2: (),  # no closed-form curves
}


def _trace_curves(fam: ScenarioFamily, nsamples: int = 201, ranges=None) -> dict:
    """Sample every bifurcation curve of the scenario over its own parameter's range."""
    curves: dict = {}
    for name, param, p1, p2 in _TRACERS[fam.name](fam, nsamples, *(ranges or fam.ranges)):
        curves.setdefault(name, []).append((float(param), float(p1), float(p2)))
    return curves


def sweep_diagram(fam: ScenarioFamily, n1: int, n2: int, ranges=None) -> DiagramGrid:
    (lo1, hi1), (lo2, hi2) = ranges or fam.ranges
    p1s = np.linspace(lo1, hi1, n1) if n1 > 1 else np.array([lo1])
    p2s = np.linspace(lo2, hi2, n2) if n2 > 1 else np.array([lo2])
    cells = []
    for p1 in p1s:
        for p2 in p2s:
            try:
                cells.append(classify_parameter_point(fam, (p1, p2)))
            except SigmapolyError as e:  # recorded; a programming error propagates
                cells.append(RegionReport(
                    params=(float(p1), float(p2)), item=None, crossing_cycles=(), polycycles=0,
                    sliding_cycles=(), error=f"{type(e).__name__}: {e}",
                ))
    return DiagramGrid(cells=tuple(cells), curves=_trace_curves(fam, ranges=ranges))


SCENARIOS: dict[str, Callable[[], ScenarioFamily]] = {
    "cusp-synthetic": cusp_family,
    "twofold-synthetic": twofold_family,
    "vi-foldfold-synthetic": foldfold_family,
    "vi-foldfold-circle": circle_family,
}
