"""Event-driven integration of the smooth pieces and the Filippov dynamics.

Every orbit is a flight, _flight, the one stepper the package has: a
Taylor method on the exact Poly2 algebra of its field (Jorba & Zou,
Exp. Math. 2005; Biscani & Izzo's heyoka, MNRAS 2021), from t = 0 towards
its time limit, never integrating an arc twice.
- Series.  _Jet builds the Taylor coefficients of the orbits of a field
  (px, py) / q from its Poly2 terms: at each order the Cauchy products of
  the monomials, shared by both components and vectorised over the n
  orbits of a flight, then one matrix product for the polynomials, and the
  recurrences of a quotient (the sliding field of _slide) or of a square
  root (the unit-speed field of maps.place_section).
- Order and step.  The order _ORDER = ceil(-ln(INTEGRATOR_TOL) / 2) + 1 is
  fixed.  Each orbit's step is _STEP_SHARE (1/e^2 and heyoka's safety
  factor) of the radius of convergence that its last two nonzero
  coefficients give, absolute where its state is below 1 and relative
  above, and at most _CHUNK; an orbit whose series ends steps the full
  _CHUNK, but only where the polynomial it ends at provably solves the
  field (_Jet.ends), not a series with gaps.  A flight takes the smallest
  of its orbits' steps (_step).
- Failure.  A step below 10 spacing(t), or a non-finite coefficient (a
  blow-up, an equilibrium of the unit-speed field), ends the flight with
  NoHit("integration failed: ...").
- Dense output.  Each step's polynomial is its own dense output (_Piece),
  evaluated by Horner about the step's start; the next step starts from
  its value at the step's end, so two steps agree at their boundary.

The event functions are evaluated vectorised on the pieces at the fixed
time lattice t_k = k * _CHUNK / (_SAMPLES_PER_CHUNK - 1), one step (or run
of steps) at a time.  An event-free flight (flow_smooth,
maps.place_section) builds no lattice, yields nothing and returns the
last step's polynomial at t_end.

One scanner, _scan, flies n starts as one 2n-dimensional system; since a
flight takes the smallest of its orbits' own steps, each orbit is bounded
as tightly as in a flight of its own.  Per orbit it applies the
Sigma rules (h and Fh bracketed on the lattice, so that a dip through
Sigma shorter than the lattice spacing is found; a sample exactly on Sigma
that hdot carries across is a crossing; a start within EVENT_TOL of Sigma
is on it, h = 0 at t = 0, and leaves into the side Fh points to), the
section rules of _section_hit and the race between the two.  Each orbit
keeps its first event and then rides along unread.  If a step fails, the
orbits without an event fly again alone, so a blow-up in one orbit never
decides another's result.
hit_sections, next_sigma_hits, their n = 1 calls hit_section and
next_sigma_hit, and filippov_trajectory's smooth arcs are calls to it; a
section-only scan never evaluates h or Fh.

Each event root is polished by brentq to ~1e-14 in time on the step
polynomial that holds it, evaluated for its orbit alone in Python floats
(_orbit): bit for bit the piece's vectorised evaluation.  A trajectory
samples each arc from the pieces of the flight that found its event, and
starts the next arc at that event: _regime_at is the one rule that picks
the field from a point on Sigma, and no flight is nudged off it.

scipy's brentq is bound by _scipy the first time an event polish needs
it, so the closed-form paths never import scipy.  flow.brentq is read at
call time and bound on first read through the module __getattr__, so that
a tracer can wrap and rebind it; solve_ivp is bound the same way for the
tracer alone, and nothing calls it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CLASSIFY_TOL, FilippovSystem, PolyField, SwitchingFunction, contact_order, lie_poly
from .errors import NoHit, NonDeterministicExit, TangentialHit, fmt_point
from .poly2 import Poly2

INTEGRATOR_TOL = 1e-12
EVENT_TOL = 1e-10
MAX_FLIGHT_TIME = 100.0
_CHUNK = 4.0
_SAMPLES_PER_CHUNK = 600
# the Taylor order for INTEGRATOR_TOL, the share of the radius of
# convergence a step takes (Jorba & Zou's 1/e^2 with heyoka's safety
# factor) and the two orders that read the radius
_ORDER = int(np.ceil(-0.5 * np.log(INTEGRATOR_TOL))) + 1
_STEP_SHARE = float(np.exp(-2.0 - 0.7 / (_ORDER - 1)))
_TOP = (_ORDER - 1, _ORDER)

# scipy's solver and root finder: bound by _scipy
solve_ivp: Callable  # uncalled: bench/tracing.py wraps it, until its tracer counts _flight's steps
brentq: Callable
_SCIPY_NAMES = ("solve_ivp", "brentq")


def _scipy() -> None:
    """Bind solve_ivp and brentq as module globals, on the first call."""
    if "solve_ivp" not in globals():
        from scipy.integrate import solve_ivp
        from scipy.optimize import brentq

        globals().update(solve_ivp=solve_ivp, brentq=brentq)


def __getattr__(name: str):
    # PEP 562: a read of flow.solve_ivp or flow.brentq before the first flight binds scipy
    if name in _SCIPY_NAMES:
        _scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class Section:
    """Transversal segment with an arclength chart.

    Points are anchor + s * direction; the chart value of q is
    <q - anchor, direction>.  halfwidth None means the full line.
    """

    anchor: tuple[float, float]
    direction: tuple[float, float]
    halfwidth: float | None = 0.05

    def __post_init__(self) -> None:
        d = np.asarray(self.direction, dtype=float)
        n = float(np.hypot(*d))
        if n == 0:
            raise ValueError("zero section direction")
        if self.halfwidth is not None and not self.halfwidth > 0:
            raise ValueError(f"section halfwidth must be positive, got {self.halfwidth}")
        object.__setattr__(self, "direction", (d[0] / n, d[1] / n))

    @property
    def normal(self) -> np.ndarray:
        dx, dy = self.direction
        return np.array([-dy, dx])

    def coord(self, q) -> float:
        d = np.asarray(self.direction)
        return float(np.dot(np.asarray(q) - np.asarray(self.anchor), d))

    def point_at(self, s: float) -> np.ndarray:
        return np.asarray(self.anchor) + s * np.asarray(self.direction)


def vertical_section(x0: float, y_anchor: float = 0.0, halfwidth=None) -> Section:
    """The line {x = x0} charted by y - y_anchor."""
    return Section(anchor=(x0, y_anchor), direction=(0.0, 1.0), halfwidth=halfwidth)


class _Jet:
    """Taylor coefficients of the orbits of the field (px, py) / q, from exact Poly2 algebra.

    px, py and den are Poly2s; q is 1, den, or with root sqrt(den).  Every
    monomial x^i y^j of them is a series: 1, x, y, or the Cauchy product of
    x^a y^b of degree ceil((i + j) / 2) and the rest, so the products come
    in ceil(log2 degree) levels, each one vectorised call per order.  The
    polynomials are one matrix product of the monomial series; a quotient
    a / b continues q_k = (a_k - sum_{m=1..k} b_m q_{k-m}) / b_0 and a
    square root w = sqrt(u) continues
    w_k = (u_k - sum_{m=1..k-1} w_m w_{k-m}) / (2 w_0).
    """

    def __init__(self, px: Poly2, py: Poly2, den: Poly2 | None = None, root: bool = False):
        polys = [px, py] + ([den] if den is not None else [])
        slot, level, prods = {(0, 0): 0, (1, 0): 1, (0, 1): 2}, [0, 0, 0], []

        def mono(i, j):
            if (i, j) not in slot:
                h = (i + j + 1) // 2  # the degree of the first factor
                a = min(i, h)
                a, b = mono(a, h - a), mono(i - a, j - h + a)
                slot[i, j] = len(level)
                level.append(1 + max(level[a], level[b]))
                prods.append((slot[i, j], a, b))
            return slot[i, j]

        terms = [[(mono(i, j), c) for (i, j), c in p.coeffs.items()] for p in polys]
        self.levels = [
            tuple(np.array(v) for v in zip(*(q for q in prods if level[q[0]] == lv)))
            for lv in range(1, max(level) + 1)
        ]
        self.nmono = m = len(level)
        self.mix = np.zeros((len(polys), m))
        for r, row in enumerate(terms):
            for s, c in row:
                self.mix[r, s] += c
        # slots: the monomials, then the polynomials, sqrt(den) and the quotients
        self.polys = slice(m, m + len(polys))
        self.den = None if den is None else m + 2 + root
        self.out = slice(m, m + 2) if den is None else slice(self.den + 1, self.den + 3)
        self.root = root
        self.size = self.out.stop
        self.exps = [list(p.coeffs) for p in polys]

    def ends(self, dx: int, dy: int) -> bool:
        """Whether an orbit whose series stops at degree dx in x and dy in y is that polynomial.

        Each identity the recurrences build (p = q * (x', y') for the
        polynomials p, and w * w = den for a root w) holds at the orders
        below _ORDER, so it holds outright once both its sides have degree
        in t below _ORDER.  A root's orbit has unit speed: a polynomial one
        is a line, where w = p / (x', y') has the degree of p.
        """
        deg = [max((i * dx + j * dy for i, j in e), default=0) for e in self.exps]
        d = max(dx, dy)
        if self.root:
            deg += [2 * max(deg[:2])] if d <= 1 else [_ORDER]
        elif self.den is not None:
            deg.append(deg[2] + d - 1)
        return max(deg) < _ORDER

    def series(self, state: np.ndarray) -> np.ndarray:
        """Coefficients (_ORDER + 1, 2n) of the orbits from state = (x_1..x_n, y_1..y_n)."""
        n = state.size // 2
        S = np.zeros((self.size, _ORDER + 1, n))
        S[0, 0] = 1.0
        S[1, 0], S[2, 0] = state[:n], state[n:]
        num, q = S[self.polys.start : self.polys.start + 2], S[self.out]
        for k in range(_ORDER):
            for s, a, b in self.levels:
                S[s, k] = np.einsum("smn,smn->sn", S[a, : k + 1], S[b, k::-1])
            S[self.polys, k] = self.mix @ S[: self.nmono, k]
            if self.den is not None:
                b = S[self.den]
                if self.root and k == 0:  # b = sqrt(u), u in the slot before
                    b[0] = np.sqrt(S[self.den - 1, 0])
                elif self.root:
                    b[k] = (S[self.den - 1, k] - np.einsum("mn,mn->n", b[1:k], b[k - 1 : 0 : -1])) / (2.0 * b[0])
                carry = np.einsum("mn,smn->sn", b[1 : k + 1], q[:, k - 1 :: -1]) if k else 0.0
                q[:, k] = (num[:, k] - carry) / b[0]
            S[1:3, k + 1] = q[:, k] / (k + 1)
        return S[1:3].transpose(1, 0, 2).reshape(_ORDER + 1, 2 * n)


def _horner(c, u):
    """sum_k c[k] u^k by Horner, elementwise over c's trailing axes."""
    acc = c[-1]
    for ck in c[-2::-1]:
        acc = acc * u + ck
    return acc


class _Piece:
    """Dense output of a run of Taylor steps: each step's polynomial about its own start.

    ts holds the step boundaries in flight order and coefs[j] the
    (_ORDER + 1, 2n) coefficients of step j, whose state at ts[j] + u is
    sum_k coefs[j][k] u^k.  A time on a boundary is read on the step that
    ends there; the first step also reads the times before it and the last
    those after it.
    """

    def __init__(self, ts, coefs):
        self.ts = np.array(ts)
        self.coefs = np.array(coefs)

    def step(self, t):
        """Index of the step that reads each time in t."""
        sgn = 1.0 if self.ts[-1] > self.ts[0] else -1.0
        return np.minimum(np.searchsorted(sgn * self.ts[1:], sgn * t), len(self.coefs) - 1)

    def __call__(self, t) -> np.ndarray:
        """States (2n, len(t)) at the times t."""
        j = self.step(t)
        out = np.empty((self.coefs.shape[2], len(t)))
        for s in np.unique(j):
            at = j == s
            out[:, at] = _horner(self.coefs[s], (t[at] - self.ts[s])[:, None]).T
        return out


def _step(jet: _Jet, c: np.ndarray) -> float:
    """The step of the Taylor coefficients c (_ORDER + 1, 2n): the smallest of the orbits' own.

    An orbit whose series ends (_Jet.ends) steps _CHUNK.  Any other steps
    _STEP_SHARE of the radius of convergence that its last two nonzero
    coefficients give, relative to its state where that is above 1 and
    absolute below.  So a series with gaps, whose top coefficients are 0
    (along (-y^3, x^3) from (1, 0) x has only the powers t^4k), is stepped
    by its last terms, not taken for one that has ended.
    """
    mag = np.abs(c).reshape(_ORDER + 1, 2, -1)
    a = mag.max(axis=1)
    if a[-2:].all():  # the common case: no orbit's top coefficients are 0
        ratios = (np.maximum(a[0], 1.0) / a[-2:]).tolist()
        return min(_CHUNK, _STEP_SHARE * min(r ** (1.0 / m) for m, row in zip(_TOP, ratios) for r in row))
    h = _CHUNK
    for i, col in enumerate(a.T.tolist()):
        nonzero = [m for m in range(1, _ORDER + 1) if col[m] > 0.0]
        if nonzero[-1:] != [_ORDER]:
            dx, dy = (int(np.flatnonzero(mag[:, k, i]).max(initial=0)) for k in (0, 1))
            if jet.ends(dx, dy):
                continue
        scale = max(1.0, col[0])
        for m in nonzero[-2:]:
            h = min(h, _STEP_SHARE * (scale / col[m]) ** (1.0 / m))
    return h


def _flight(jet: _Jet, p, t_end: float, events):
    """Integrate jet from p over [0, t_end] (backward if t_end < 0) with one Taylor stepper.

    The state holds n orbits as (x_1..x_n, y_1..y_n); see the module
    docstring for the order, the step and when a step fails.  Yields one
    piece per step, or run of steps, that passes a point of the lattice
    t_k = k * _CHUNK / (_SAMPLES_PER_CHUNK - 1), which t_end closes:
    (sol, ts, vals) with sol the _Piece of the piece's steps, ts the lattice
    points from the last one before the piece to the last one in it, and
    vals[i] = events[i](x, y) on all of them at once, of shape (n, len(ts)).
    With no events there is no lattice and no piece.  A caller stops the
    flight by leaving the loop; one that reaches t_end returns the state
    there, the last step's polynomial at t_end.  A failed step ends the
    flight with NoHit, after a last piece that reaches the last good step.
    """
    sgn = 1.0 if t_end > 0 else -1.0
    dt = _CHUNK / (_SAMPLES_PER_CHUNK - 1)
    # a lattice point within half a spacing of t_end gives way to t_end
    last = abs(t_end) - 0.5 * dt
    state, t = np.asarray(p, dtype=float), 0.0
    bounds, steps = [0.0], []
    k = 0  # the lattice point the next piece starts from
    while True:
        c = jet.series(state)
        failed = None
        if not np.isfinite(c).all():
            failed = f"non-finite Taylor coefficient at t = {t:.6g}"
        else:
            h = _step(jet, c)
            if h < 10.0 * np.spacing(t):
                failed = f"step {h:.3g} below 10 spacing(t) at t = {t:.6g}"
        if failed is None:
            t_new = t_end if abs(t) + h >= abs(t_end) else t + sgn * h
            state = _horner(c, t_new - t)
            t = t_new
            bounds.append(t)
            steps.append(c)
        if events:  # the lattice serves only to locate events
            reach = abs(t)
            j = max(k, int(min(reach, last) / dt) - 1)
            while (j + 1) * dt <= reach and (j + 1) * dt < last:
                j += 1
            ts = np.arange(k, j + 1) * (sgn * dt)
            if (failed or t == t_end) and reach > j * dt:
                ts = np.append(ts, t)  # t_end, or the last good step
            if ts.size > 1:
                sol = _Piece(bounds, steps)
                x, y = np.split(sol(ts), 2)
                yield sol, ts, [np.broadcast_to(f(x, y), x.shape) for f in events]
                # the next piece starts inside the last step
                k, bounds, steps = j, bounds[-2:], steps[-1:]
        if failed:
            raise NoHit(f"integration failed: {failed}")
        if t == t_end:
            return state


def _end_state(jet: _Jet, p, t_end: float) -> np.ndarray:
    """The state at t_end of the event-free flight of jet from p."""
    try:
        next(_flight(jet, p, t_end, []))
    except StopIteration as end:
        return end.value


def _orbit(sol: _Piece, i: int = 0, n: int = 1):
    """t -> (x_i(t), y_i(t)) on the piece sol of a flight of n orbits, in Python floats.

    Bit for bit sol(t)[i::n]: the same step, and orbit i's two coefficient
    columns summed in the same Horner order.
    """
    sgn = 1.0 if sol.ts[-1] > sol.ts[0] else -1.0
    ends = [sgn * b for b in sol.ts[1:].tolist()]
    starts = sol.ts.tolist()
    rows = sol.coefs[:, ::-1][:, :, [i, n + i]].tolist()
    last = len(rows) - 1

    def at(t):
        j = min(bisect_left(ends, sgn * t), last)
        u = t - starts[j]
        (x, y), *rest = rows[j]
        for cx, cy in rest:
            x = x * u + cx
            y = y * u + cy
        return x, y

    return at


def _arc_points(arc, ts) -> np.ndarray:
    """Points, shape (2, len(ts)), at the times ts of a flight's pieces in time order."""
    ts = np.asarray(ts, dtype=float)
    sgn = 1.0 if arc[-1].ts[-1] >= arc[0].ts[0] else -1.0
    ends = np.array([sgn * sol.ts[-1] for sol in arc])
    idx = np.minimum(np.searchsorted(ends, sgn * ts), len(arc) - 1)
    out = np.empty((2, ts.size))
    for k in np.unique(idx):
        at = idx == k
        out[:, at] = arc[k](ts[at])
    return out


def flow_smooth(F: PolyField, p, t: float) -> np.ndarray:
    """phi_F(t; p) with local tolerance 1e-12."""
    return _end_state(_Jet(F.fx, F.fy), p, t)


def _brentq(g, a, b):
    """The root of g between a and b (a first in time), polished to ~1e-14.

    Where g is exactly 0 on a run of adjacent floats, as on an exact
    polynomial orbit, the root is the first of the run from a (a few
    floats at most), not whichever one brentq stopped on.
    """
    lo, hi = (a, b) if a < b else (b, a)
    _scipy()
    r = brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16)
    for _ in range(4):
        s = float(np.nextafter(r, a))
        if r == a or g(s) != 0.0:
            break
        r = s
    return r


def _sign_changes(g, ts, vals):
    """Roots of g where its samples vals at ts change sign, in time order.

    A sign change between two nonzero samples is polished by brentq; a
    sample after the first that is exactly zero is itself a root.
    """
    s = np.sign(vals)
    for k in np.flatnonzero((s[:-1] * s[1:] < 0) | (s[1:] == 0)):
        yield ts[k + 1] if s[k + 1] == 0 else _brentq(g, ts[k], ts[k + 1])


def _offset(section: Section):
    """(x, y) -> the signed distance from the section's line, vectorised."""
    (ax, ay), (nx, ny) = section.anchor, section.normal.tolist()
    return lambda x, y: (x - ax) * nx + (y - ay) * ny


def _section_hit(F: PolyField, section: Section, at, ts, gv, sgn: float):
    """(t, q): the first meeting of the orbit at with the section segment in a piece, or None.

    gv holds the orbit's section offsets at the piece's times ts.  A root at
    t = 0 is skipped when the flight starts on the section, and a crossing
    of the section line outside the segment is skipped; q is a
    TangentialHit when the orbit grazes the line.
    """
    if ts[0] == 0.0 and abs(gv[0]) < EVENT_TOL:
        keep = ts * sgn > 1e-9
        ts, gv = ts[keep], gv[keep]
    offset = _offset(section)
    for troot in _sign_changes(lambda t: offset(*at(t)), ts, gv):
        q = np.array(at(troot))
        if abs(float(np.dot(F(q), section.normal))) < CLASSIFY_TOL:
            return troot, TangentialHit(f"grazes section at t = {troot:.6g}")
        if section.halfwidth is None or abs(section.coord(q)) <= section.halfwidth:
            return troot, q
    return None


def _departure(hpoly, fhpoly, p, sgn: float):
    """The side of Sigma (+-1) that the orbit from p is on, or 0.0 while it is still on Sigma.

    A transversal start on Sigma is on the side hdot = Fh points to in the
    time direction sgn: waiting for |h| to grow would miss an early return.
    """
    hv = hpoly(p[0], p[1])
    if abs(hv) > EVENT_TOL:
        return np.sign(hv)
    fh0 = fhpoly(p[0], p[1])
    return np.sign(sgn * fh0) if abs(fh0) > CLASSIFY_TOL else 0.0


def _sigma_event(hpoly, fhpoly, at, ts, hs, cross, turn, side, k0: int, include_touch: bool):
    """(t, kind): the first Sigma event of the orbit at in a piece, from lattice point k0 on, or None.

    A crossing (or a grazing dip entirely between two samples) forces hdot =
    Fh to cross zero somewhere near it, and Fh varies on the flow timescale,
    so bracketing h AND Fh on the lattice finds every Sigma interaction even
    when the dip is much shorter than the lattice spacing.  hs holds the
    signs of h on the lattice, cross and turn its sign changes and Fh's.
    """
    hfun = lambda t: hpoly(*at(t))
    for k in np.flatnonzero(cross[k0:] | turn[k0:]) + k0:
        if cross[k]:
            return _brentq(hfun, ts[k], ts[k + 1]), "cross"
        tm = _brentq(lambda t: fhpoly(*at(t)), ts[k], ts[k + 1])
        hm = hfun(tm)
        if np.sign(hm) != 0 and np.sign(hm) != side:
            lo = ts[k] if hs[k] == side else ts[max(k0, k - 1)]
            return _brentq(hfun, lo, tm), "cross"
        if np.sign(hm) != 0 and hs[k + 1] != 0 and hs[k + 1] != np.sign(hm):
            # dip entirely on the departure side ending in a crossing
            # (start-on-Sigma orbits that return before the first sample)
            return _brentq(hfun, tm, ts[k + 1]), "cross"
        if include_touch and abs(hm) < CLASSIFY_TOL and abs(tm) > 1e-9:
            return tm, "touch"
    return None


@dataclass(frozen=True)
class SigmaHit:
    point: np.ndarray
    time: float
    kind: str  # "cross" | "touch" | "section" | "fold-exit-X" | "fold-exit-Y"


def _scan(F: PolyField, ps, direction: str, tmax: float, h=None, section=None, include_touch=False, arc=None):
    """Per start in ps: its first event as a SigmaHit, None if it meets none by tmax, or its flight's error.

    The starts fly as one system (see the module docstring).  With h, an
    event is a Sigma crossing (a grazing touch too, with include_touch); with
    a section, a hit of the segment, kind "section", which wins a tie; a
    graze of the section that comes first is the orbit's TangentialHit.
    arc, for a lone start, collects the dense pieces of its flight.
    """
    sgn = 1.0 if direction == "forward" else -1.0
    ps = np.asarray(ps, dtype=float).reshape(-1, 2)
    n = len(ps)
    out: list = [None] * n
    if not n:
        return out
    todo = np.ones(n, dtype=bool)
    near = moved = np.zeros(n, dtype=bool)
    events = []
    if h is not None:
        hpoly, fhpoly = h.h, lie_poly(F, h.h, 1)
        events += [hpoly, fhpoly]
        side = np.array([_departure(hpoly, fhpoly, p, sgn) for p in ps])
    if section is not None:
        events.append(_offset(section))
    flight = _flight(_Jet(F.fx, F.fy), ps.T.ravel(), sgn * tmax, events)
    try:
        for sol, ts, vals in flight:
            if arc is not None:
                arc.append(sol)
            if h is not None:
                hs, fs = np.sign(vals[0]), np.sign(vals[1])
                if ts[0] == 0.0:
                    # a start on Sigma is at h = 0: the rounding of its h is no crossing
                    hs[np.abs(vals[0][:, 0]) <= EVENT_TOL, 0] = 0
                # a sign change of h, or a sample exactly on Sigma that the
                # orbit reaches while hdot = sgn Fh still carries it across
                cross = (hs[:, :-1] * hs[:, 1:] < 0) | ((hs[:, 1:] == 0) & (sgn * fs[:, 1:] == -hs[:, :-1]))
                turn = (fs[:, :-1] != 0) & (fs[:, :-1] != fs[:, 1:])
                k0 = np.zeros(n, dtype=int)
                for i in np.flatnonzero(side == 0):  # still on Sigma: wait for |h| to grow
                    big = np.flatnonzero(np.abs(vals[0][i]) > EVENT_TOL)
                    if big.size:
                        k0[i], side[i] = big[0], hs[i, big[0]]
                near = (side != 0) & (cross | turn).any(axis=1)
            if section is not None:
                s = np.sign(vals[-1])
                moved = ((s[:, :-1] * s[:, 1:] < 0) | (s[:, 1:] == 0)).any(axis=1)
            for i in np.flatnonzero((near | moved) & todo):
                at = _orbit(sol, i, n)
                ev = near[i] and _sigma_event(
                    hpoly, fhpoly, at, ts, hs[i], cross[i], turn[i], side[i], k0[i], include_touch
                )
                on = moved[i] and _section_hit(F, section, at, ts, vals[-1][i], sgn)
                if on and (not ev or abs(on[0]) <= abs(ev[0])):
                    t, q = on
                    out[i] = q if isinstance(q, TangentialHit) else SigmaHit(point=q, time=t, kind="section")
                elif ev:
                    out[i] = SigmaHit(point=np.array(at(ev[0])), time=ev[0], kind=ev[1])
                todo[i] = out[i] is None
            if not todo.any():
                return out
    except NoHit as e:
        if n == 1:
            return [e]
        # a failed step ends the flight for every orbit; fly the open ones alone
        for i in np.flatnonzero(todo):
            out[i] = _scan(F, ps[i], direction, tmax, h, section, include_touch)[0]
    return out


def _with_misses(out: list, what: str, tmax: float) -> list:
    return [NoHit(f"no {what} hit within tmax = {tmax}") if o is None else o for o in out]


def _raise_first_error(out: list) -> list:
    for o in out:
        if isinstance(o, Exception):
            raise o
    return out


def _section_hits(F: PolyField, ps, section: Section, direction: str, tmax: float) -> list:
    """Per start in ps: its first hit (q, tq) of the section, or the error of its flight."""
    out = _with_misses(_scan(F, ps, direction, tmax, section=section), "section", tmax)
    return [o if isinstance(o, Exception) else (o.point, o.time) for o in out]


def hit_sections(
    F: PolyField, ps, section: Section, direction: str = "forward", tmax: float = MAX_FLIGHT_TIME
) -> list:
    """First hits (q, tq) of the section from each start in ps, in one flight.

    Raises the error of the lowest-index start whose flight fails, the one
    that flying the starts one after another would raise.
    """
    return _raise_first_error(_section_hits(F, ps, section, direction, tmax))


def hit_section(F: PolyField, p, section: Section, direction: str = "forward", tmax: float = MAX_FLIGHT_TIME):
    """First hit (q, tq) of the section in the given time direction."""
    return _raise_first_error(_section_hits(F, [p], section, direction, tmax))[0]


def next_sigma_hits(
    F: PolyField, ps, h: SwitchingFunction, direction: str = "forward", tmax: float = MAX_FLIGHT_TIME,
    include_touch: bool = False, section: Section | None = None,
) -> list:
    """next_sigma_hit from each start in ps, in one flight: per start its SigmaHit, or the error it raises."""
    return _with_misses(_scan(F, ps, direction, tmax, h, section, include_touch), "Sigma", tmax)


def next_sigma_hit(
    F: PolyField, p, h: SwitchingFunction, direction: str = "forward", tmax: float = MAX_FLIGHT_TIME,
    include_touch: bool = False, section: Section | None = None,
) -> SigmaHit:
    """Next intersection (or grazing touch) of the orbit with Sigma.

    Works when starting on Sigma (|h| <= EVENT_TOL): the start is no event,
    whatever the sign of its rounding, and an orbit that leaves tangentially
    waits for |h| to grow past EVENT_TOL.  With a section, the
    same flight races Sigma against the section segment, under the rules of
    hit_section: the first of the two comes back, a section hit as kind
    "section", and a graze of the section that comes first raises
    TangentialHit.
    """
    out = _scan(F, [p], direction, tmax, h, section, include_touch)
    return _raise_first_error(_with_misses(out, "Sigma", tmax))[0]


# -- full Filippov trajectories ------------------------------------------------


@dataclass
class Arc:
    regime: str  # "Mplus" | "Mminus" | "Sliding"
    ts: np.ndarray
    points: np.ndarray  # shape (N, 2)
    exit_event: str


def _sample_arc(arc, t1, dt_out):
    n = max(2, int(np.ceil(abs(t1) / dt_out)) + 1)
    ts = np.linspace(0.0, t1, n)
    return ts, _arc_points(arc, ts).T


def _regime_at(Z: FilippovSystem, p) -> str:
    """The regime ("Mplus" | "Mminus" | "Sliding") of the forward Filippov orbit from p.

    Off Sigma it is the side of p.  On Sigma (Filippov's convention), X
    leaves into M+ when the lead Lie derivative X^n h of its contact is
    positive, and Y leaves into M- when Y^n h is negative: the orbit follows
    the one field that leaves, and slides when neither leaves and both are
    transversal.  Any other point has no unique forward orbit.
    """
    hv = Z.h.h(p[0], p[1])
    if abs(hv) > CLASSIFY_TOL:
        return "Mplus" if hv > 0 else "Mminus"
    (nx, sx), (ny, sy) = contact_order(Z.X, Z.h, p), contact_order(Z.Y, Z.h, p)
    if (sx > 0) != (sy < 0):
        return "Mplus" if sx > 0 else "Mminus"
    if sx < 0 and nx == ny == 1:  # neither field leaves
        return "Sliding"
    raise NonDeterministicExit(
        f"no unique forward orbit at {fmt_point(p)}: X^{nx}h sign {sx}, Y^{ny}h sign {sy}"
    )


def _slide(Z: FilippovSystem, p, t_budget, arc):
    """The first fold exit of the sliding orbit from p, or None at time out.

    The exit is a SigmaHit of kind "fold-exit-X" or "fold-exit-Y", after the
    field whose contact ends the slide; arc collects the flight's dense
    pieces in time order.
    """
    Xh = lie_poly(Z.X, Z.h.h, 1)
    Yh = lie_poly(Z.Y, Z.h.h, 1)
    den = Yh - Xh
    # the sliding field (Yh X - Xh Y) / (Yh - Xh), less a mild projection
    # 10 h grad h that keeps the arc pinned to Sigma
    pin = Z.h.h.scale(10.0) * den
    jet = _Jet(
        Yh * Z.X.fx - Xh * Z.Y.fx - pin * Z.h.h.dx(), Yh * Z.X.fy - Xh * Z.Y.fy - pin * Z.h.h.dy(), den
    )
    for sol, ts, vals in _flight(jet, p, t_budget, [Xh, Yh]):
        arc.append(sol)
        # include t = 0: a slide entering within a hair of the boundary must
        # exit immediately (exact-zero starts are skipped by _sign_changes)
        exits, at = [], _orbit(sol)
        for name, f, (v,) in zip("XY", (Xh, Yh), vals):
            r = next(_sign_changes(lambda t: f(*at(t)), ts, v), None)
            if r is not None:
                exits.append((r, name))
        if exits:
            troot, which = min(exits)
            return SigmaHit(point=_arc_points(arc, [troot])[:, 0], time=troot, kind=f"fold-exit-{which}")
    return None


def filippov_trajectory(Z: FilippovSystem, p, tmax: float, dt_out: float = 0.01) -> list[Arc]:
    """Forward Filippov orbit: smooth arcs alternating with sliding arcs.

    Each arc is one flight from the event point that ended the one before:
    a smooth arc flies its field (_scan) to the next Sigma crossing or
    grazing touch, a sliding arc the sliding field (_slide) to a fold exit.
    A touch that stays off Sigma keeps the regime; after a crossing, a fold
    exit or a touch that reaches h = 0 _regime_at picks it at the event
    point itself, so no flight is nudged off Sigma.
    A fold exit that slides on, or a point with no unique forward orbit,
    raises NonDeterministicExit.
    """
    arcs = []
    t = 0.0
    point = np.asarray(p, dtype=float)
    regime = _regime_at(Z, point)
    while t < tmax - 1e-12:
        arc = []
        if regime == "Sliding":
            hit = _slide(Z, point, tmax - t, arc)
        else:
            F = Z.X if regime == "Mplus" else Z.Y
            out = _scan(F, [point], "forward", tmax - t, Z.h, include_touch=True, arc=arc)
            (hit,) = _raise_first_error(out)
        ts, pts = _sample_arc(arc, tmax - t if hit is None else hit.time, dt_out)
        end = "time-out" if hit is None else "tangency-touch" if hit.kind == "touch" else hit.kind
        arcs.append(Arc(regime, ts + t, pts, end))
        if hit is None:
            return arcs
        t += hit.time
        point = hit.point
        if hit.kind != "touch" or Z.h.h(point[0], point[1]) == 0.0:
            regime = _regime_at(Z, point)
            if regime == "Sliding" and hit.kind.startswith("fold-exit"):
                raise NonDeterministicExit(f"sliding exit at {fmt_point(point)} slides on")
    return arcs
