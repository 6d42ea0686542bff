"""Transition maps, mirror maps, transfer pairs, and their polynomial germs.

Near an n-order contact the transition map to a transversal section has the
germ lambda_0 + lambda_1 x + ... + kappa x^n; this module extracts such
germs numerically (least squares on Chebyshev abscissae) and builds the
transfer pairs (cases O, E-I, E-II) feeding the crossing systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import cmath
import math
from functools import cached_property
from itertools import groupby

import numpy as np

from .core import (
    CLASSIFY_TOL,
    Crossing,
    FilippovSystem,
    FoldFold,
    PolyField,
    SwitchingFunction,
    Tangency,
    classify_sigma_point,
    contact_order,
    lie_poly,
)
from .errors import (
    DegenerateContact,
    EquilibriumOnSigmaError,
    IllConditioned,
    InExclusionSet,
    NoHit,
    NoReturn,
    OrbitHitsSliding,
    TangentialHit,
    UnsupportedSingularity,
    WindowTooSmall,
    fmt_point,
)
from .flow import (
    MAX_FLIGHT_TIME, Section, SigmaHit, _end_state, _regime_at, _rhs, hit_sections, next_sigma_hit,
    next_sigma_hits,
)

GERM_COND_CAP = 1e10
SEPARATRIX_DISTANCE = 0.1
SECTION_HALFWIDTH = 0.05
# half-width of the Sigma window a transfer pair's germs are fitted on
GERM_WINDOW = 0.05
# distance below which two Sigma points count as the same excluded point
_EXCLUSION_TOL = 1e-9
# rounding of a polynomial's value at x, in units of eps * sum |c_j| |x|^j:
# Horner's bound is about 2n for degree n, and coefficients carry their own
_ROOT_ROUNDING = 10.0
_POLISH_ITERS = 20
_EPS = float(np.finfo(float).eps)


# -- germs --------------------------------------------------------------------


@dataclass(frozen=True)
class Germ:
    """Truncated polynomial c0 + c1 u + ... + cn u^n in u = x - base."""

    base: float
    coeffs: tuple[float, ...]
    residual: float = 0.0
    window: float = 0.0
    chart: dict = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def kappa(self) -> float:
        return self.coeffs[-1]

    @cached_property
    def _dcoeffs(self) -> tuple[float, ...]:
        """Coefficients of the derivative germ, in u = x - base."""
        return tuple(j * c for j, c in enumerate(self.coeffs))[1:] or (0.0,)

    def __call__(self, x: float) -> float:
        return _horner(self.coeffs, x - self.base)

    def deriv(self, x: float) -> float:
        return _horner(self._dcoeffs, x - self.base)

    def high_confidence(self) -> bool:
        return self.residual <= 1e-7 * max(self.window, 1e-12) ** self.degree

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "coeffs": list(self.coeffs),
            "residual": self.residual,
            "window": self.window,
            "chart": dict(self.chart),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Germ":
        return cls(
            base=float(d["base"]),
            coeffs=tuple(float(c) for c in d["coeffs"]),
            residual=float(d.get("residual", 0.0)),
            window=float(d.get("window", 0.0)),
            chart=dict(d.get("chart", {})),
        )


def _horner(coeffs, u: float) -> float:
    """c0 + c1 u + ... + cn u^n, in the operation order of numpy's polyval."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = c + acc * u
    return float(acc)


def root_clusters(coeffs) -> list[tuple[float, int]]:
    """Sorted real roots of c0 + c1 x + ... + cn x^n, each with its multiplicity.

    Degree 2 is solved in closed form, other degrees by the companion
    eigenvalues.  Rounding splits an m-fold root into m roots about
    (eps * S / |p^(m) / m!|)^(1/m) apart, S = sum |c_j| |x|^j: nearest
    clusters are merged while every member stays within that spread of the
    merged centre, so a root near the real axis joins its conjugate.  A
    cluster is kept when its centre is real.  The centre is polished
    by Newton on the (m-1)-th derivative, where an m-fold root is simple
    (Zeng, Math. Comp. 2005); that derivative and the lower ones must
    vanish there to rounding, or the member farthest from the centre
    leaves the cluster.
    """
    c = [float(v) for v in coeffs]
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    if len(c) == 3:
        roots = _quadratic_roots(*c)
    else:
        roots = _companion_roots(c)
    ders = _derivatives(c, len(c) - 1)
    clusters = [[r] for r in roots]
    while len(clusters) > 1 and _merge_nearest(clusters, ders):
        pass
    out = []
    while clusters:
        cl = clusters.pop()
        centre = sum(cl) / len(cl)
        # a cluster of conjugate pairs: its centre is real up to the rounding
        # of the imaginary parts' sum; a lopsided one falls apart
        if centre.imag and abs(centre.imag) > _EPS * sum(abs(r.imag) for r in cl):
            if len(cl) > 1:
                clusters += [[r] for r in cl]
            continue
        x = _polish(ders, centre.real, len(cl))
        if len(cl) == 1 or all(abs(_horner(d, x)) <= _rounding(d, x) for d in ders[: len(cl)]):
            out.append((x, len(cl)))
        else:
            far = max(cl, key=lambda r: abs(r - centre))
            cl.remove(far)
            clusters += [cl, [far]]
    return sorted(out)


def _companion_roots(c: list[float]) -> list[complex]:
    """The companion eigenvalues that numpy's polyroots gives, without its argument
    checks, which cost more than a 3x3 eigenproblem."""
    n = len(c) - 1
    if n < 1:
        return []
    m = np.zeros((n, n))
    m.reshape(-1)[n :: n + 1] = 1.0
    m[:, -1] -= np.array(c[:-1]) / c[-1]
    r = np.linalg.eigvals(m)
    r.sort()
    return r.tolist()


def _merge_nearest(clusters: list[list], ders: list[list[float]]) -> bool:
    """Merge the nearest two clusters whose union fits the spread of one root."""
    centres = [sum(cl) / len(cl) for cl in clusters]
    k = len(centres)
    for _, i, j in sorted([(abs(centres[i] - centres[j]), i, j) for i in range(k) for j in range(i)]):
        cand = clusters[i] + clusters[j]
        z = sum(cand) / len(cand)
        if max([abs(r - z) for r in cand]) <= _spread(ders, z, len(cand)):
            clusters[j] = cand
            del clusters[i]
            return True
    return False


def _derivatives(c: list[float], m: int) -> list[list[float]]:
    """Coefficients of c and of its first m derivatives."""
    out = [c]
    for _ in range(m):
        out.append([j * v for j, v in enumerate(out[-1])][1:] or [0.0])
    return out


def _rounding(c: list[float], z) -> float:
    """Bound on the rounding of c at z: _ROOT_ROUNDING * eps * sum |c_j| |z|^j."""
    return _ROOT_ROUNDING * _EPS * _horner([abs(v) for v in c], abs(z))


def _spread(ders: list[list[float]], z: complex, m: int) -> float:
    """How far rounding scatters the computed roots of an m-fold root at z.

    ders holds a polynomial and its derivatives, at least up to the m-th.
    """
    lead = 0.0
    for v in reversed(ders[m]):  # Horner at a complex z
        lead = v + lead * z
    if lead == 0.0:  # p^(m) = 0 at the centre: no m-fold root here, only exact copies merge
        return 0.0
    return (_rounding(ders[0], z) * math.factorial(m) / abs(lead)) ** (1.0 / m)


def _quadratic_roots(c0: float, c1: float, c2: float) -> list[complex]:
    s = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
    q = -0.5 * (c1 + (s if c1 >= 0.0 else -s))  # no cancellation between c1 and s
    if s.imag:  # an exact conjugate pair, as the companion eigenvalues give
        return [q / c2, (q / c2).conjugate()]
    return [q / c2, c0 / q] if q != 0.0 else [0.0, 0.0]


def _polish(ders: list[list[float]], x: float, m: int) -> float:
    """Newton on the (m-1)-th of the derivatives ders from x, until the step stops shrinking."""
    c, dc = ders[m - 1], ders[m]
    step = math.inf
    for _ in range(_POLISH_ITERS):
        d = _horner(dc, x)
        new = _horner(c, x) / d if d != 0.0 else math.inf
        if not abs(new) < abs(step):
            break
        step = new
        x -= step
        if abs(step) <= _EPS * abs(x):
            break
    return float(x)


def cheb_nodes(base: float, halfwidth: float, m: int) -> np.ndarray:
    """m Chebyshev abscissae on [base - halfwidth, base + halfwidth]."""
    k = np.arange(m)
    return base + halfwidth * np.cos((2 * k + 1) * np.pi / (2 * m))


def fit_germ(samples, base: float, degree: int, chart: dict | None = None) -> Germ:
    """Least-squares polynomial fit about base on a scaled Vandermonde basis."""
    xs = np.array([s[0] for s in samples], dtype=float)
    ys = np.array([s[1] for s in samples], dtype=float)
    if len(xs) < 2 * (degree + 1):
        raise WindowTooSmall(
            f"need >= {2 * (degree + 1)} samples for degree {degree}, got {len(xs)}"
        )
    w = float(np.max(np.abs(xs - base)))
    if w <= 0:
        raise WindowTooSmall("all samples coincide with the base point")
    u = (xs - base) / w
    V = np.vander(u, degree + 1, increasing=True)
    cond = np.linalg.cond(V)
    if cond > GERM_COND_CAP:
        raise IllConditioned(f"Vandermonde condition estimate {cond:.3e}")
    sol, *_ = np.linalg.lstsq(V, ys, rcond=None)
    residual = float(np.max(np.abs(V @ sol - ys)))
    coeffs = tuple(float(c) / w**j for j, c in enumerate(sol))
    return Germ(
        base=base,
        coeffs=coeffs,
        residual=residual,
        window=w,
        chart=chart or {},
    )


# -- Sigma parametrization --------------------------------------------------


def sigma_point(h: SwitchingFunction, x: float) -> np.ndarray:
    """Point of Sigma over abscissa x (Newton on y from y = 0; exact when h = y)."""
    hy = h.h.dy()
    y = 0.0
    for _ in range(50):
        val = h.h(x, y)
        if abs(val) < 1e-14:
            break
        d = hy(x, y)
        if abs(d) < CLASSIFY_TOL:
            raise NoHit(f"Sigma is not a graph over x = {x}")
        y -= val / d
    return np.array([x, y])


# -- transition maps -------------------------------------------------------


def transition_map(
    F: PolyField, h: SwitchingFunction, tau: Section, x: float, direction: str = "forward"
) -> float:
    """Chart value on tau of the orbit through the Sigma point over x."""
    return _transition_values(F, h, tau, [x], direction)[0]


def _transition_values(F, h, tau, xs, direction: str) -> list[float]:
    """transition_map at every x in xs, the orbits flown as one system."""
    hits = hit_sections(F, [sigma_point(h, x) for x in xs], tau, direction)
    return [tau.coord(q) for q, _ in hits]


def transition_germ(
    F: PolyField,
    h: SwitchingFunction,
    tau: Section,
    base: float,
    degree: int,
    window: float,
    direction: str = "forward",
    domain=None,
) -> Germ:
    m = max(2 * (degree + 1), 12)
    xs = cheb_nodes(base, window, m)
    if domain is not None:
        lo, hi = domain
        xs = xs[(xs >= lo) & (xs <= hi)]
        xs = np.concatenate([xs, np.linspace(lo, hi, m)])
    samples = list(zip(xs, _transition_values(F, h, tau, xs, direction)))
    chart = {
        "anchor": list(tau.anchor),
        "direction": list(tau.direction),
        "flow_direction": direction,
    }
    return fit_germ(samples, base, degree, chart)


def place_section(
    F: PolyField,
    p0,
    distance: float = SEPARATRIX_DISTANCE,
    direction: str = "forward",
    halfwidth: float = SECTION_HALFWIDTH,
) -> Section:
    """Transversal section at arclength distance along the separatrix from p0.

    One flight of the unit-speed field F / max(|F|, 1e-9) for time
    +-distance puts the anchor at that arclength.  The chart runs along the
    left normal of the field, so polycycle charts keep the enclosed region
    on a fixed side.
    """
    f = _rhs(F)

    def unit(t, s):
        vx, vy = f(t, s)
        k = 1.0 / max(math.hypot(vx, vy), 1e-9)
        return (vx * k, vy * k)

    sgn = 1.0 if direction == "forward" else -1.0
    q = _end_state(unit, p0, sgn * distance)
    v = F(q)
    v = v / np.hypot(*v)
    return Section(anchor=(q[0], q[1]), direction=(-v[1], v[0]), halfwidth=halfwidth)


# -- sigma domains ----------------------------------------------------------


def _arcs_stay_in_half_plane(F: PolyField, h: SwitchingFunction, tau: Section, xs, side: int) -> list[bool]:
    """Per x in xs: does the arc from the Sigma point over x leave into {side*h > 0} and meet tau before Sigma?

    The arcs that leave into that side fly as one system.  No arc leaves an
    equilibrium on Sigma, or a point where Sigma is invariant.
    """
    fh = lie_poly(F, h.h, 1)
    ps, leave = [sigma_point(h, x) for x in xs], []
    for k, p in enumerate(ps):
        # the side hdot = Fh points to; only where Fh is exactly 0 does a higher
        # Lie derivative decide, so an edge at a root of Fh lands on the root
        v = fh(p[0], p[1])
        try:
            if (np.sign(v) if v != 0.0 else contact_order(F, h, p)[1]) == side:
                leave.append(k)
        except (EquilibriumOnSigmaError, DegenerateContact):
            pass
    ok = [False] * len(ps)
    for k, hit in zip(leave, next_sigma_hits(F, [ps[k] for k in leave], h, "forward", section=tau)):
        if isinstance(hit, TangentialHit):
            raise hit
        ok[k] = isinstance(hit, SigmaHit) and hit.kind == "section"
    return ok


def sigma_domain(
    F: PolyField, h: SwitchingFunction, p0, tau: Section, window: float, side: int = 1
) -> list[tuple[float, float]]:
    """Subset of (x0-window, x0+window) whose arcs to tau stay in the half-plane.

    Returns a list of closed-ish intervals; boundaries refined by bisection.
    The 41-point scan's arcs fly as one system, each bisection step's arc alone.
    """
    x0 = float(p0[0])
    xs = np.linspace(x0 - window, x0 + window, 41)
    ok = _arcs_stay_in_half_plane(F, h, tau, xs, side)
    intervals = []
    for inside, run in groupby(range(len(xs)), key=ok.__getitem__):
        if inside:
            run = list(run)
            k, j = run[0], run[-1]
            lo = _bisect_edge(F, h, tau, xs[k - 1], xs[k], side) if k > 0 else xs[k]
            hi = _bisect_edge(F, h, tau, xs[j + 1], xs[j], side) if j + 1 < len(xs) else xs[j]
            intervals.append((float(lo), float(hi)))
    return intervals


def _bisect_edge(F, h, tau, bad, good, side):
    for _ in range(40):
        mid = 0.5 * (bad + good)
        if _arcs_stay_in_half_plane(F, h, tau, [mid], side)[0]:
            good = mid
        else:
            bad = mid
        if abs(good - bad) < 1e-11:
            break
    return good


# -- mirror maps --------------------------------------------------------------


def sigma_contacts(
    F: PolyField, h: SwitchingFunction, window: tuple[float, float]
) -> list[tuple[float, int, int]]:
    """Contacts of F with Sigma on the window: (x, order, lead sign).

    Roots of g(x) = Fh on Sigma over x.  The critical points of g cut the
    window into monotone pieces, each with at most one sign change,
    polished by brentq; a critical point where |g| <= CLASSIFY_TOL is a
    touching root (an even-multiplicity root, which no sign change shows).
    When h = c*y the critical points are the real roots of the exact
    polynomial restriction's derivative; otherwise they are the sign
    changes of dg/dx along Sigma on a 400-point scan, polished by brentq.
    """
    from scipy.optimize import brentq

    fh = lie_poly(F, h.h, 1)
    lo, hi = window

    def g(x):
        p = sigma_point(h, x)
        return fh(p[0], p[1])

    if set(h.h.coeffs) == {(0, 1)}:
        dpoly = np.polynomial.polynomial.polyder(fh.restrict_y(0.0))
        crit = [r for r, _ in root_clusters(dpoly) if lo < r < hi]
    else:
        fhx, fhy, hx, hy = fh.dx(), fh.dy(), h.h.dx(), h.h.dy()

        def dg(x):
            px, py = sigma_point(h, x)
            return fhx(px, py) - fhy(px, py) * hx(px, py) / hy(px, py)

        xs = np.linspace(lo, hi, 400)
        dv = np.array([dg(x) for x in xs])
        crit = [float(x) for x in xs[1:-1][dv[1:-1] == 0.0]]
        for k in np.flatnonzero(np.sign(dv[:-1]) * np.sign(dv[1:]) < 0):
            crit.append(brentq(dg, xs[k], xs[k + 1], xtol=1e-14))
    knots = [lo, *sorted(crit), hi]
    vals = [g(x) for x in knots]
    for k in range(1, len(knots) - 1):
        if abs(vals[k]) <= CLASSIFY_TOL:
            vals[k] = 0.0
    roots = []
    for k in range(len(knots) - 1):
        if vals[k] == 0.0:
            roots.append(knots[k])
        elif np.sign(vals[k]) * np.sign(vals[k + 1]) < 0:
            roots.append(brentq(g, knots[k], knots[k + 1], xtol=1e-14))
    out = []
    for r in roots:
        p = sigma_point(h, r)
        n, s = contact_order(F, h, p)
        out.append((float(r), n, s))
    return out


def exclusion_set(
    F: PolyField,
    h: SwitchingFunction,
    window: tuple[float, float],
    side: int = -1,
) -> list[float]:
    """Points where the mirror map is refused.

    Clause (i): visible even contacts and odd contacts (no arc on the
    mirror side).  Clause (ii): Sigma-intersections of the orbits through
    those contacts (their arc terminates at the contact).
    """
    excluded: list[float] = []

    def add(x: float) -> None:
        # the orbit of one contact often ends at another, which is then
        # found a second time an ulp away: keep each point once
        if all(abs(x - e) >= _EXCLUSION_TOL for e in excluded):
            excluded.append(x)

    for x, n, s in sigma_contacts(F, h, window):
        arc_side = 1 if s > 0 else -1  # side the tangent arc occupies
        if n % 2 == 1 or arc_side != side:
            add(x)
    for x in list(excluded):
        p = sigma_point(h, x)
        for direction in ("forward", "backward"):
            try:
                hit = next_sigma_hit(F, p, h, direction, tmax=20.0, include_touch=True)
            except NoHit:
                continue
            q = float(hit.point[0])
            if window[0] <= q <= window[1]:
                add(q)
    return sorted(excluded)


def mirror_map(
    F: PolyField, h: SwitchingFunction, x: float, side: int = -1, exclusions: list[float] | None = None,
    tmax: float = MAX_FLIGHT_TIME,
) -> float:
    """Other Sigma-intersection of the orbit arc through x on the given side.

    side = -1: arcs in the closed lower half-plane {h <= 0}; +1: upper.
    Fixed points are the invisible even contacts.  Points at (or orbitally
    connected to) visible even contacts or odd contacts are refused.
    """
    return _mirror_values(F, h, [x], side, exclusions, tmax)[0]


def _mirror_values(F, h, xs, side: int, exclusions=None, tmax: float = MAX_FLIGHT_TIME) -> list[float]:
    """mirror_map at every x in xs, the orbits of each time direction flown as one system.

    A refused x raises before any flight; then the first orbit that does
    not return, forward flights before backward ones, raises NoReturn.
    """
    fh = lie_poly(F, h.h, 1)
    out: list = []
    starts: dict[str, list[int]] = {"forward": [], "backward": []}
    for x in xs:
        for e in exclusions or ():
            if abs(x - e) < _EXCLUSION_TOL:
                raise InExclusionSet(f"x = {x} is excluded (contact at {e})")
        p = sigma_point(h, x)
        v = fh(p[0], p[1])
        if abs(v) > CLASSIFY_TOL:
            # pick the time direction whose orbit enters {side*h > 0}: hdot = Fh
            starts["forward" if side * v > 0 else "backward"].append(len(out))
            out.append(p)
            continue
        n, s = contact_order(F, h, p)
        if n % 2 == 1 or (1 if s > 0 else -1) != side:
            raise InExclusionSet(f"x = {x} is a contact of order {n} with no arc on side {side}")
        out.append(x)  # invisible even contact: fixed point of the involution
    for direction, ks in starts.items():
        for k, hit in zip(ks, next_sigma_hits(F, [out[k] for k in ks], h, direction, tmax, include_touch=True)):
            if isinstance(hit, NoHit):
                raise NoReturn(str(hit)) from hit
            out[k] = float(hit.point[0])
    return out


# -- transfer pairs ---------------------------------------------------------


@dataclass(frozen=True)
class TransferPair:
    Tu: Germ
    Ts: Germ
    sigma: tuple[tuple[float, float], ...]
    case_tag: str  # "O" | "EI" | "EII"
    excluded: tuple[float, ...] = ()
    alpha: float = 0.0  # E-II: chart coordinate of the Y-fold


@dataclass(frozen=True)
class SectionConfig:
    tau_u: Section | None = None
    tau_s: Section | None = None
    halfwidth: float = SECTION_HALFWIDTH
    same_side: bool = False  # force the R1 / E-I construction


def transfer_pair(
    Z: FilippovSystem, p, cfg: SectionConfig | None = None
) -> TransferPair:
    """Transfer functions at a Sigma-singularity.

    Regular-tangential points with both separatrices on the polycycle use
    case O; the R1 geometry uses E-I; a VI fold-fold uses E-II with
    Tu = T+^X o rho_Y.
    """
    cfg = cfg or SectionConfig()
    cls = classify_sigma_point(Z, p)
    if isinstance(cls, Tangency):
        if cfg.same_side:
            return _transfer_ei(Z, p, cls, cfg)
        return _transfer_o(Z, p, cls, cfg)
    if isinstance(cls, FoldFold):
        if cls.kind != "VI":
            raise UnsupportedSingularity(f"fold-fold of kind {cls.kind}")
        return _transfer_eii(Z, p, cfg)
    raise UnsupportedSingularity(f"{type(cls).__name__} at {fmt_point(p)}")


def _transfer_o(Z, p, cls: Tangency, cfg: SectionConfig) -> TransferPair:
    F = Z.X if cls.side == "plus" else Z.Y
    G = Z.Y if cls.side == "plus" else Z.X
    tau_u = cfg.tau_u or place_section(F, p, SEPARATRIX_DISTANCE, "forward", cfg.halfwidth)
    tau_s = cfg.tau_s or place_section(F, p, SEPARATRIX_DISTANCE, "backward", cfg.halfwidth)
    Tu = transition_germ(F, Z.h, tau_u, float(p[0]), cls.order, GERM_WINDOW, "forward")
    Ts = transition_germ(G, Z.h, tau_s, float(p[0]), 1, GERM_WINDOW, "backward")
    side = 1 if cls.side == "plus" else -1
    sig = sigma_domain(F, Z.h, p, tau_u, GERM_WINDOW, side=side)
    return TransferPair(Tu=Tu, Ts=Ts, sigma=tuple(sig), case_tag="O")


def _transfer_ei(Z, p, cls: Tangency, cfg: SectionConfig) -> TransferPair:
    F = Z.X if cls.side == "plus" else Z.Y
    tau_u = cfg.tau_u or place_section(F, p, SEPARATRIX_DISTANCE, "forward", cfg.halfwidth)
    tau_s = cfg.tau_s or place_section(F, p, SEPARATRIX_DISTANCE, "backward", cfg.halfwidth)
    # sigma is a transversal segment over p: chart by height above Sigma
    sgn = 1.0 if cls.side == "plus" else -1.0
    sigma_sec = Section(anchor=(float(p[0]), float(p[1])), direction=(0.0, sgn), halfwidth=GERM_WINDOW)
    xs = cheb_nodes(GERM_WINDOW / 2, GERM_WINDOW / 2 * 0.9, 14)
    q0s = [sigma_sec.point_at(s) for s in xs]
    tu = hit_sections(F, q0s, tau_u, "forward")
    ts = hit_sections(F, q0s, tau_s, "backward")
    Tu = fit_germ([(s, tau_u.coord(q)) for s, (q, _) in zip(xs, tu)], 0.0, 1)
    Ts = fit_germ([(s, tau_s.coord(q)) for s, (q, _) in zip(xs, ts)], 0.0, 1)
    return TransferPair(
        Tu=Tu, Ts=Ts, sigma=((0.0, GERM_WINDOW),), case_tag="EI"
    )


def _flip_if_concave(g: Germ) -> Germ:
    if g.coeffs[-1] >= 0:
        return g
    chart = dict(g.chart)
    chart["flipped"] = True
    return Germ(
        base=g.base,
        coeffs=tuple(-c for c in g.coeffs),
        residual=g.residual,
        window=g.window,
        chart=chart,
    )


def _transfer_eii(Z, p, cfg: SectionConfig) -> TransferPair:
    # X has the visible fold at p, Y the invisible one nearby.
    tau_u = cfg.tau_u or place_section(Z.X, p, SEPARATRIX_DISTANCE, "forward", cfg.halfwidth)
    tau_s = cfg.tau_s or place_section(Z.X, p, SEPARATRIX_DISTANCE, "backward", cfg.halfwidth)
    x0 = float(p[0])
    contacts = sigma_contacts(Z.Y, Z.h, (x0 - 4 * GERM_WINDOW, x0 + 4 * GERM_WINDOW))
    if not contacts:
        raise UnsupportedSingularity("no Y-fold near the X-fold")
    alpha = min((c[0] for c in contacts), key=lambda c: abs(c - x0))
    excluded = tuple(
        exclusion_set(Z.Y, Z.h, (x0 - 4 * GERM_WINDOW, x0 + 4 * GERM_WINDOW), side=-1)
    )

    zeta = min(0.0, 2 * alpha - x0) + x0  # crossing boundary: min(x0, 2*alpha - x0)
    lo, hi = x0 - GERM_WINDOW, zeta
    if hi <= lo:
        raise WindowTooSmall("empty crossing window left of the fold")
    xs = np.linspace(lo, hi - 1e-6 * (hi - lo), 14)
    # Tu = T+^X o rho_Y: the mirrors in one flight, then their transitions in one flight
    rs = _mirror_values(Z.Y, Z.h, xs, side=-1)
    Tu = fit_germ(list(zip(xs, _transition_values(Z.X, Z.h, tau_u, rs, "forward"))), x0, 2)
    Ts = transition_germ(
        Z.X, Z.h, tau_s, x0, 2, GERM_WINDOW, "backward", domain=(lo, hi)
    )
    # VI convention: charts oriented so both quadratic coefficients are
    # positive (flipping a section chart negates its germ values)
    Tu = _flip_if_concave(Tu)
    Ts = _flip_if_concave(Ts)
    return TransferPair(
        Tu=Tu,
        Ts=Ts,
        sigma=((lo, hi),),
        case_tag="EII",
        excluded=excluded,
        alpha=float(alpha),
    )


# -- connection diffeomorphisms ------------------------------------------------


def connection_diffeo(Z: FilippovSystem, tau_from: Section, tau_to: Section, y: float) -> float:
    """Chart value on tau_to of the regular Z-orbit from tau_from at chart y.

    Each leg flies the field that flow._regime_at picks at its start (the
    section point, then each Sigma hit), so a start on Sigma leaves into the
    side its Filippov orbit takes.  The orbit may cross Sigma in the
    crossing region only: a leg that starts on sliding, or a Sigma hit that
    is not a crossing, raises OrbitHitsSliding.
    """
    point = tau_from.point_at(y)
    t_used = 0.0
    for _ in range(64):
        regime = _regime_at(Z, point)
        if regime == "Sliding":
            raise OrbitHitsSliding(f"connection starts on sliding at {fmt_point(point)}")
        F = Z.X if regime == "Mplus" else Z.Y
        try:
            hit = next_sigma_hit(F, point, Z.h, "forward", tmax=MAX_FLIGHT_TIME - t_used, section=tau_to)
        except NoHit as e:
            raise NoHit("orbit reaches neither the target section nor Sigma") from e
        if hit.kind == "section":
            return tau_to.coord(hit.point)
        t_used += hit.time
        point = hit.point
        cls = classify_sigma_point(Z, point)
        if not isinstance(cls, Crossing):
            raise OrbitHitsSliding(f"connection hits {type(cls).__name__} at {fmt_point(point)}")
    raise NoHit("too many Sigma crossings between sections")
