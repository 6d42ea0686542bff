"""Transition maps, mirror maps, transfer pairs, and their polynomial germs.

Near an n-order contact the transition map to a transversal section has the
germ lambda_0 + lambda_1 x + ... + kappa x^n; this module extracts such
germs numerically (least squares on Chebyshev abscissae) and builds the
transfer pairs (cases O, E-I, E-II) feeding the crossing systems.  It also
finds the real roots of many polynomials at once (`root_cluster_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import math
from itertools import combinations, groupby

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
    NumericError,
    OrbitHitsSliding,
    TangentialHit,
    UnsupportedSingularity,
    WindowTooSmall,
    fmt_point,
)
from .flow import (
    MAX_FLIGHT_TIME, Section, SigmaHit, _end_state, _horner, _Jet, _regime_at, brentq, hit_sections,
    next_sigma_hit, next_sigma_hits,
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


@dataclass(frozen=True, slots=True)
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

    @property
    def _dcoeffs(self) -> tuple[float, ...]:
        """Coefficients of the derivative germ, in u = x - base."""
        return tuple(j * c for j, c in enumerate(self.coeffs))[1:] or (0.0,)

    def __call__(self, x: float) -> float:
        return float(_horner(self.coeffs, x - self.base))

    def deriv(self, x: float) -> float:
        return float(_horner(self._dcoeffs, x - self.base))

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


def root_clusters(coeffs) -> list[tuple[float, int]]:
    """Sorted real roots of c0 + c1 x + ... + cn x^n, each with its multiplicity.

    The one-row case of ``root_cluster_rows``; a root that is not finite is a NumericError.
    """
    _, x, m = root_cluster_rows([coeffs])
    if not np.isfinite(x).all():
        raise NumericError(f"the roots of {np.asarray(coeffs, float).tolist()} overflow")
    return list(zip(x.tolist(), m.tolist()))


def root_cluster_rows(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The real roots of every row c0 + c1 x + ... + cn x^n at once, as (row, x, m).

    rows is one rectangular array-like, a row per polynomial, zero-padded to
    one width; trailing zeros are not coefficients, so rows may differ in
    degree, and a zero or constant row has no roots.  Each root x of row
    ``row`` has multiplicity m; the roots are sorted by row, then x, then m.
    Degree 2 is solved in closed form, other degrees by the companion
    eigenvalues (Edelman & Murakami, Math. Comp. 1995), one stacked
    eigenproblem per degree.  Rounding splits an m-fold root into m
    roots about (eps * S / |p^(m) / m!|)^(1/m) apart, S = sum |c_j| |x|^j,
    so only a row where some pair of roots fits that spread (``_pairs_fit``)
    can hold a multiple root: it runs the cluster rule, ``_row_clusters``,
    in Python floats.  The roots of every other row are simple; the real
    ones are polished together by Newton on (p, p').  A row's roots do not
    depend on the rows batched with it.  A non-finite coefficient or companion
    entry leaves a row unsolved (x = nan, m = 0); a closed-form root may be +-inf.
    """
    D, deg = _derivative_table(rows)
    lone, found = [(np.zeros(0, int), np.zeros(0))], []
    with np.errstate(all="ignore"):
        top = D[np.arange(len(D)), 0, deg]
        unsolved = ~np.isfinite(D[:, 0] / np.where(top == 0.0, 1.0, top)[:, None]).all(axis=1)
        for n in sorted(set(deg[~unsolved].tolist()) - {0}):
            idx = np.flatnonzero((deg == n) & ~unsolved)
            C = D[idx, 0, : n + 1]
            re, im = _quadratic_roots(C) if n == 2 else _companion_roots(C)
            if n > 1 and (fit := _pairs_fit(re, im, D[idx])).any():
                for i, zr, zi in zip(idx[fit].tolist(), re[fit].tolist(), im[fit].tolist()):
                    found += [(i, x, m) for x, m in _row_clusters(D[i].tolist(), list(map(complex, zr, zi)))]
                idx, re, im = idx[~fit], re[~fit], im[~fit]
            # a lone root is its own centre, real when its imaginary part is 0 (+ 0.0 turns -0.0 into 0.0)
            x, real = re.ravel() + 0.0, im.ravel() == 0.0
            lone.append((np.repeat(idx, n)[real], x[real]))
        row, x = (np.concatenate([p[k] for p in lone]) for k in range(2))
        x = _polish(D[row, :2].T, x)
    found += [(r, np.nan, 0) for r in np.flatnonzero(unsolved).tolist()]
    fr, fx, fm = np.array(found).reshape(-1, 3).T
    m = np.concatenate([np.ones(len(row), int), fm]).astype(int)
    row, x = np.concatenate([row, fr]).astype(int), np.concatenate([x, fx])
    order = np.lexsort((m, x, row))
    return row[order], x[order], m[order]


def _derivative_table(rows) -> tuple[np.ndarray, np.ndarray]:
    """(D, deg): D[i, k] the coefficients of the k-th derivative of row i of the
    rectangular rows, and deg[i] the degree of row i once trailing zeros are dropped.
    An empty batch, or a batch of rows of width 0, is read at width 1, D[:, 1] zero."""
    C = np.array(rows, dtype=float)
    if not C.size:  # np.array([]) has one axis, and a width-0 row no coefficient
        C = np.zeros((len(C), 1))
    width = C.shape[1]
    nonzero = C != 0.0
    deg = np.where(nonzero.any(axis=1), width - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    C[np.arange(width) > deg[:, None]] = 0.0  # trailing zeros, -0.0 too, are not coefficients
    D = np.zeros((len(C), max(width, 2), width))
    D[:, 0] = C
    j = np.arange(1, width)
    for k in range(1, width):
        D[:, k, :-1] = j * D[:, k - 1, 1:]
    return D, deg


def _row_clusters(ders: list[list[float]], roots: list[complex]) -> list[tuple[float, int]]:
    """(x, m) of the real roots of one row, from its computed roots, by the cluster rule.

    ders holds the row and its derivatives.  Nearest clusters are merged
    while every member stays within the spread of one root about the merged
    centre (``_merge_nearest``), so a root near the real axis joins its
    conjugate.  A cluster is kept when its centre, the mean of its members,
    is real to within the rounding of their imaginary parts; otherwise a
    lone root is dropped and a cluster splits into its members.  The centre
    is polished by Newton on the (m-1)-th derivative, where an m-fold root
    is simple (Zeng, Math. Comp. 2005); that derivative and the lower ones
    must vanish there to rounding, or the member farthest from the centre
    leaves the cluster.
    """
    clusters = [[z] for z in roots]
    while len(clusters) > 1 and _merge_nearest(clusters, ders):
        pass
    out = []
    while clusters:
        cl = clusters.pop()
        m = len(cl)
        c = sum(cl) / m
        if c.imag != 0.0 and abs(c.imag) > _EPS * sum(abs(z.imag) for z in cl):
            if m > 1:  # a non-real cluster breaks up; a non-real lone root is dropped
                clusters += [[z] for z in cl]
            continue
        x = float(_polish(np.array(ders[m - 1 : m + 1]).T[..., None], np.array([c.real]))[0])
        vanish = (abs(_horner(d, x)) <= _ROOT_ROUNDING * _EPS * _horner([abs(v) for v in d], abs(x)) for d in ders[:m])
        if m == 1 or all(vanish):
            out.append((x, m))
        else:
            far = max(range(m), key=lambda k: abs(cl[k] - c))
            clusters += [cl[:far] + cl[far + 1 :], [cl[far]]]
    return out


def _polish(cd: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Newton on each entry's polynomial cd[0], with derivative cd[1], from x, until its step stops shrinking.

    cd has shape (width, 2, entries).  An entry stops on its own, so its
    result does not depend on the entries polished with it.
    """
    step = np.full(len(x), np.inf)
    live = np.ones(len(x), bool)
    for _ in range(_POLISH_ITERS):
        c, d = _horner(cd, x)
        new = c / d  # inf or nan where d = 0: either stops the entry
        live &= np.abs(new) < np.abs(step)
        if not live.any():
            break
        np.copyto(step, new, where=live)
        np.subtract(x, step, out=x, where=live)
        live &= np.abs(step) > _EPS * np.abs(x)
    return x


def _pairs_fit(re: np.ndarray, im: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Whether some pair of each row's roots fits the spread of one double root about its mean.

    These are the rows whose clusters the merge loop can change.  The
    spread is _spread's, by the same Horner at the complex mean; a factor 2
    covers the last bits in which numpy's complex products (fused where the
    machine has FMA), abs, the distances and the square root may differ
    from the merge loop's Python arithmetic.
    """
    i, j = (list(v) for v in zip(*combinations(range(re.shape[1]), 2)))
    z = (re[:, i] + re[:, j]) / 2.0 + 1j * ((im[:, i] + im[:, j]) / 2.0)
    dist = np.hypot(re[:, i] - re[:, j], im[:, i] - im[:, j]) / 2.0  # each member's distance from z
    lead = np.abs(_horner(D.T[:-2, 2, :, None], z))  # p'' at z (its top two coefficients are 0)
    rounding = _ROOT_ROUNDING * _EPS * _horner(np.abs(D.T[:, 0, :, None]), np.abs(z))
    spread = np.where(lead == 0.0, 0.0, np.sqrt(rounding * 2 / lead))
    return (dist <= 2.0 * spread).any(axis=1)


def _companion_roots(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the sorted companion eigenvalues of each row of c,
    the roots numpy's polyroots gives, as one stacked eigenproblem."""
    N, n = c.shape[0], c.shape[1] - 1
    m = np.zeros((N, n, n))
    m.reshape(N, -1)[:, n :: n + 1] = 1.0
    m[:, :, -1] -= c[:, :-1] / c[:, -1:]
    r = np.linalg.eigvals(m)
    r.sort(axis=-1)
    return r.real, np.imag(r)


def _quadratic_roots(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the roots of each quadratic row c0 + c1 x + c2 x^2, c2 != 0.

    q = -(c1 + sign(c1) s) / 2 with s the square root of the discriminant,
    so that c1 and s do not cancel; the roots are q / c2 and c0 / q, or the
    exact conjugate pair q / c2 and its conjugate, as the companion
    eigenvalues give.  The numbers are those of Python's cmath.sqrt and
    complex arithmetic (for a discriminant above 8 DBL_MIN in size), up to
    the sign of a zero part, which no later step reads.
    """
    c0, c1, c2 = c[:, 0], c[:, 1], c[:, 2]
    disc = c1 * c1 - 4.0 * c2 * c0
    pair = ~(disc >= 0.0)  # NaN too, as cmath.sqrt gives it an imaginary part
    s = np.where(c1 >= 0.0, 1.0, -1.0) * np.sqrt(np.abs(disc))
    q_re, q_im = -0.5 * np.where(pair, c1, c1 + s), np.where(pair, -0.5 * s, 0.0)
    r1_re, r1_im = q_re / c2, q_im / c2
    r2_re, r2_im = np.where(pair, r1_re, c0 / q_re), np.where(pair, -r1_im, 0.0)
    zero = ~pair & (q_re == 0.0)
    re = np.where(zero[:, None], 0.0, np.stack([r1_re, r2_re], axis=1))
    return re, np.stack([r1_im, r2_im], axis=1)


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


def _spread(ders: list[list[float]], z: complex, m: int) -> float:
    """How far rounding scatters the computed roots of an m-fold root at z.

    ders holds a polynomial and its derivatives, at least up to the m-th.
    """
    lead = _horner(ders[m], z)
    if lead == 0.0:  # p^(m) = 0 at the centre: no m-fold root here, only exact copies merge
        return 0.0
    rounding = _ROOT_ROUNDING * _EPS * _horner([abs(v) for v in ders[0]], abs(z))
    return (rounding * math.factorial(m) / abs(lead)) ** (1.0 / m)


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
    hy, y = None, 0.0
    for _ in range(50):
        val = h.h(x, y)
        if abs(val) < 1e-14:
            break
        if hy is None:  # built only once Newton needs it: h = y is done at y = 0
            hy = h.h.dy()
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

    One flight of the unit-speed field F (fx^2 + fy^2)^(-1/2) for time
    +-distance puts the anchor at that arclength; an equilibrium on the way
    fails the flight.  The chart runs along the left normal of the field,
    so polycycle charts keep the enclosed region on a fixed side.
    """
    unit = _Jet(F.fx, F.fy, F.fx * F.fx + F.fy * F.fy, root=True)
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
    """Contacts of F with Sigma on the window, its ends included: (x, order, lead sign).

    Roots of g(x) = Fh on Sigma over x.  The critical points of g cut the
    window into monotone pieces, each with at most one sign change,
    polished by flow's brentq (xtol 1e-14); a critical point where |g| <=
    CLASSIFY_TOL is a touching root (an even-multiplicity root, which no
    sign change shows).  When h = c*y the critical points are the real
    roots of the exact polynomial restriction's derivative; otherwise they
    are the sign changes of dg/dx along Sigma on a 400-point scan, polished
    the same way.  brentq is bound when maps loads, so a tracer that
    rebinds flow.brentq counts event roots alone.
    """
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
    for k in range(len(knots)):
        if vals[k] == 0.0:
            roots.append(knots[k])
        elif k + 1 < len(knots) and np.sign(vals[k]) * np.sign(vals[k + 1]) < 0:
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
        F = Z.X if cls.side == "plus" else Z.Y
        build = _transfer_ei if cfg.same_side else _transfer_o
    elif isinstance(cls, FoldFold):
        if cls.kind != "VI":
            raise UnsupportedSingularity(f"fold-fold of kind {cls.kind}")
        F, build = Z.X, _transfer_eii
    else:
        raise UnsupportedSingularity(f"{type(cls).__name__} at {fmt_point(p)}")
    # the sections sit on the separatrices of the tangent field (X at a VI fold-fold)
    tau_u = cfg.tau_u or place_section(F, p, SEPARATRIX_DISTANCE, "forward", cfg.halfwidth)
    tau_s = cfg.tau_s or place_section(F, p, SEPARATRIX_DISTANCE, "backward", cfg.halfwidth)
    return build(Z, p, cls, tau_u, tau_s)


def _transfer_o(Z, p, cls: Tangency, tau_u: Section, tau_s: Section) -> TransferPair:
    F = Z.X if cls.side == "plus" else Z.Y
    G = Z.Y if cls.side == "plus" else Z.X
    Tu = transition_germ(F, Z.h, tau_u, float(p[0]), cls.order, GERM_WINDOW, "forward")
    Ts = transition_germ(G, Z.h, tau_s, float(p[0]), 1, GERM_WINDOW, "backward")
    side = 1 if cls.side == "plus" else -1
    sig = sigma_domain(F, Z.h, p, tau_u, GERM_WINDOW, side=side)
    return TransferPair(Tu=Tu, Ts=Ts, sigma=tuple(sig), case_tag="O")


def _transfer_ei(Z, p, cls: Tangency, tau_u: Section, tau_s: Section) -> TransferPair:
    F = Z.X if cls.side == "plus" else Z.Y
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
    return replace(g, coeffs=tuple(-c for c in g.coeffs), chart={**g.chart, "flipped": True})


def _transfer_eii(Z, p, cls: FoldFold, tau_u: Section, tau_s: Section) -> TransferPair:
    # X has the visible fold at p, Y the invisible one nearby.
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
