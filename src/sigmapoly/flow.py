"""Event-driven integration of the smooth pieces and the Filippov dynamics.

Every orbit is a flight, _flight, the one stepper the package has: a
Taylor method on the exact Poly2 algebra of its field (Jorba & Zou,
Exp. Math. 2005; Biscani & Izzo's heyoka, MNRAS 2021), from t = 0 towards
its time limit, never integrating an arc twice.
- Series.  _Jet builds the Taylor coefficients of the orbits of a field
  (px, py) / q from its Poly2 terms, in a buffer it reuses from step to
  step: at each order the monomials of each degree d, as the words
  {x, y}^d, are one Cauchy product of those of degree d - 1 with (x, y),
  vectorised over the n orbits of a flight, then one matrix product gives
  the polynomials, and the recurrences of a quotient (the sliding field of
  _slide) or of a square root (maps.place_section's unit-speed field).
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

Events are roots of each step's own polynomials.  A jet owns its event
functions, _Jet.events (h, a section's offset, _slide's Xh and Yh), each
one Poly2, and returns their Taylor coefficients along the orbits as
well: extra rows of its matrix product, to order _ORDER.  _flight writes
them on each step, s = (t - t0) / (t1 - t0) in [0, 1], in the Bernstein
basis (one fixed matrix), with the first and last coefficients that same
Poly2 at the step's start and end states, so that a root exactly on a
step end is never certified away.  Coefficients of one sign, clear of
their rounding (_one_sign), certify that the step holds no root, and
such a step evaluates no event function inside it.  Where they do not,
de Casteljau splitting (_brackets) isolates the roots in brackets at
most _BRACKET wide, and the rules below read the event functions at the
ends of those brackets (_step_times).  An event-free flight
(flow_smooth, maps.place_section) yields nothing and returns the last
step's polynomial at t_end.

One scanner, _scan, flies n starts as one 2n-dimensional system; since a
flight takes the smallest of its orbits' own steps, each orbit is bounded
as tightly as in a flight of its own.  Per orbit it applies the
Sigma rules (h and Fh bracketed on each step, Fh's roots as those of the
derivative of h's series, so that a dip through Sigma inside one bracket
is found by its turn; a bracket end exactly on Sigma that hdot carries
across is a crossing; a start within EVENT_TOL of Sigma is on it, h = 0
at t = 0, and leaves into the side Fh points to), the section rules of
_section_hit and the race between the two.  Each orbit keeps its first
event and then rides along unread.  If a step fails, the orbits without
an event fly again alone, so a blow-up in one orbit never decides
another's result.
hit_sections, next_sigma_hits, their n = 1 calls hit_section and
next_sigma_hit, and filippov_trajectory's smooth arcs are calls to it; a
section-only scan never evaluates h or Fh.

Each event root is polished by brentq, to the rounding of t, on the step
polynomial that holds it, evaluated for its orbit alone in Python floats
(_orbit): bit for bit the piece's vectorised evaluation.  brentq is
Brent's method (1973) as SciPy's C routine runs it, the same float
operations in the same order, so every event time is SciPy's bit for bit
and the package runs on numpy alone.  _brentq reads flow.brentq at call
time, so that a tracer can wrap and rebind it.  A trajectory samples each
arc from the pieces of the flight that found its event, and starts the
next arc at that event: _regime_at is the one rule that picks the field
from a point on Sigma, and no flight is nudged off it.

solve_ivp is bound from scipy.integrate on its first read, through the
module __getattr__, for a tracer that wraps it; nothing here calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .core import CLASSIFY_TOL, FilippovSystem, PolyField, SwitchingFunction, contact_order, lie_poly
from .errors import NoHit, NonDeterministicExit, TangentialHit, fmt_point
from .poly2 import Poly2

INTEGRATOR_TOL = 1e-12
EVENT_TOL = 1e-10
MAX_FLIGHT_TIME = 100.0
_CHUNK = 4.0
# the widest bracket of an event root, in time
_BRACKET = _CHUNK / 599
# the Taylor order for INTEGRATOR_TOL, the share of the radius of
# convergence a step takes (Jorba & Zou's 1/e^2 with heyoka's safety
# factor) and the two orders that read the radius
_ORDER = int(np.ceil(-0.5 * np.log(INTEGRATOR_TOL))) + 1
_STEP_SHARE = float(np.exp(-2.0 - 0.7 / (_ORDER - 1)))
_TOP = (_ORDER - 1, _ORDER)
# power coefficients on [0, 1] to Bernstein coefficients, b_j = sum_k C(j, k) / C(N, k) a_k
_BERNSTEIN = np.array([[math.comb(j, k) / math.comb(_ORDER, k) for k in range(_ORDER + 1)] for j in range(_ORDER + 1)])
# power coefficients on [0, 1] to the Bernstein coefficients of their derivative in s:
# column k is k times column k - 1 of _BERNSTEIN
_DERIVATIVE = np.concatenate([np.zeros((_ORDER + 1, 1)), _BERNSTEIN[:, :-1] * np.arange(1.0, _ORDER + 1)], axis=1)
_SPLIT = 32
# the rounding of a Bernstein coefficient, relative to the largest of its polynomial
_ROUNDING = 64.0 * np.finfo(float).eps

# scipy's solver, bound on first read: uncalled, bench/tracing.py wraps it
# until its tracer counts _flight's steps
solve_ivp: Callable


def __getattr__(name: str):
    # PEP 562: only a read of flow.solve_ivp imports scipy
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        globals()["solve_ivp"] = solve_ivp
        return solve_ivp
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

    px, py and den are Poly2s; q is 1, den, or with root sqrt(den).  Slots
    2^d - 1 .. 2^(d+1) - 2 hold the words {x, y}^d, x^i y^j the one of i x's
    and then j y's, to the degree D of the jet: 2^(D+1) - 1 slots, 15 for a
    cubic field and 127 for its unit-speed jet (D = 6).  At each order the
    words of degree d are one einsum, the Cauchy product of those of degree
    d - 1 with (x, y), and the polynomials one matrix product of the words,
    1/(k + 1) folded into the field's rows; a quotient a / b continues
    q_k = (a_k - sum_{m=1..k} b_m q_{k-m}) / b_0 and a square root
    w = sqrt(u) continues w_k = (u_k - sum_{m=1..k-1} w_m w_{k-m}) / (2 w_0).
    The event functions, the Poly2s events, are further rows of the
    matrix, read off the words complete to order _ORDER.  The buffer
    (order, slot, orbit) is allocated once per number of orbits and reused.
    """

    def __init__(self, px: Poly2, py: Poly2, den: Poly2 | None = None, root: bool = False, events=()):
        polys = [px, py] + ([den] if den is not None else [])
        rows = polys + list(events)
        self.degree = max([1] + [i + j for p in rows for i, j in p.coeffs])
        self.nmono = m = 2 ** (self.degree + 1) - 1
        # rows: the field's polynomials, then the event functions
        self.mix = np.zeros((len(rows), m))
        for r, p in enumerate(rows):
            for (i, j), c in p.coeffs.items():
                self.mix[r, 2 ** (i + j) + 2**j - 2] = c
        self.rates = self.mix[:2] / np.arange(1.0, _ORDER + 1)[:, None, None]
        self.events = tuple(events)
        # slots: the words, then the polynomials, sqrt(den) and the quotients
        self.npoly = len(polys)
        self.den = None if den is None else m + 2 + root
        self.root = root
        self.size = m if den is None else self.den + 3
        self.exps = [list(p.coeffs) for p in polys]
        self.bufs = {}

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
        """Coefficients (_ORDER + 1, (2 + len(events)) n) from state = (x_1..x_n, y_1..y_n).

        The columns are the orbits' x_1..x_n and y_1..y_n, then each event
        function's n series along them; they are a new array, not a view
        of the buffer.
        """
        n = state.size // 2
        if n not in self.bufs:
            M = np.empty((_ORDER + 1, self.size, n))
            M[:, 0], M[0, 0] = 0.0, 1.0
            blocks = [
                (M[:, 2 ** (d - 1) - 1 : 2**d - 1], M[:, 2**d - 1 : 2 ** (d + 1) - 1].reshape(_ORDER + 1, -1, 2, n))
                for d in range(2, self.degree + 1)
            ]
            self.bufs[n] = M, blocks
        M, blocks = self.bufs[n]
        m, X = self.nmono, M[:, 1:3]
        X[0] = state.reshape(2, n)
        if self.den is not None:
            num, b, q = M[:, m : m + 2], M[:, self.den], M[:, self.den + 1 :]
        # the event functions need the words to order _ORDER, one product pass more
        for k in range(_ORDER + bool(self.events)):
            for lower, block in blocks:
                np.einsum("jan,jcn->acn", lower[: k + 1], X[k::-1], out=block[k])
            if k == _ORDER:
                break
            if self.den is None:
                np.matmul(self.rates[k], M[k, :m], out=X[k + 1])
                continue
            np.matmul(self.mix[: self.npoly], M[k, :m], out=M[k, m : m + self.npoly])
            if self.root and k == 0:  # b = sqrt(u), u in the slot before
                b[0] = np.sqrt(M[0, self.den - 1])
            elif self.root:
                b[k] = (M[k, self.den - 1] - np.einsum("mn,mn->n", b[1:k], b[k - 1 : 0 : -1])) / (2.0 * b[0])
            carry = np.einsum("mn,msn->sn", b[1 : k + 1], q[k - 1 :: -1]) if k else 0.0
            q[k] = (num[k] - carry) / b[0]
            X[k + 1] = q[k] / (k + 1)
        c = X.reshape(_ORDER + 1, 2 * n)
        if not self.events:
            return c.copy()
        ev = np.einsum("em,kmn->ken", self.mix[self.npoly :], M[:, :m])
        return np.concatenate([c, ev.reshape(_ORDER + 1, -1)], axis=1)


def _horner(c, u):
    """sum_k c[k] u^k by Horner, elementwise over c's trailing axes: the package's one Horner (_orbit fuses it)."""
    acc = c[-1]
    for ck in c[-2::-1]:
        acc = acc * u + ck
    return acc


class _Piece:
    """Dense output of one Taylor step: its polynomial about its own start.

    ts = (t0, t1) are the step's ends in flight order and coefs the
    (_ORDER + 1, 2n) coefficients, whose state at t0 + u is
    sum_k coefs[k] u^k.
    """

    def __init__(self, ts, coefs):
        self.ts = np.array(ts)
        self.coefs = coefs
        self.rows = None  # coefs' columns, top order first, as lists: read by _orbit

    def __call__(self, t) -> np.ndarray:
        """States (2n, len(t)) at the times t."""
        return _horner(self.coefs, (np.asarray(t) - self.ts[0])[:, None]).T


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


def _flight(jet: _Jet, p, t_end: float):
    """Integrate jet from p over [0, t_end] (backward if t_end < 0) with one Taylor stepper.

    The state holds n orbits as (x_1..x_n, y_1..y_n); see the module
    docstring for the order, the step and when a step fails.  A jet with
    event functions yields each step as (sol, a, B): sol its _Piece, a[e]
    the power coefficients (_ORDER + 1, n) of jet.events[e] in s, t = t0 +
    s (t1 - t0) on the step [t0, t1], and B[e] its Bernstein coefficients
    on [0, 1], the first and the last of them jet.events[e] itself at the
    step's start and end states, so that a root on a step end is never
    certified away.  An event-free jet yields nothing.  A caller stops the
    flight by leaving the loop; one that reaches t_end returns the state
    there, the last step's polynomial at t_end.  A failed step ends the
    flight with NoHit.
    """
    sgn = 1.0 if t_end > 0 else -1.0
    state, t = np.asarray(p, dtype=float), 0.0
    n = state.size // 2
    k = np.arange(_ORDER + 1)[:, None]
    end = np.empty((len(jet.events), n))
    for e, f in enumerate(jet.events):
        end[e] = f(state[:n], state[n:])
    while True:
        c = jet.series(state)
        if not np.isfinite(c).all():
            raise NoHit(f"integration failed: non-finite Taylor coefficient at t = {t:.6g}")
        c, ev = c[:, : 2 * n], c[:, 2 * n :]
        h = _step(jet, c)
        if h < 10.0 * np.spacing(t):
            raise NoHit(f"integration failed: step {h:.3g} below 10 spacing(t) at t = {t:.6g}")
        t_new = t_end if abs(t) + h >= abs(t_end) else t + sgn * h
        state = _horner(c, t_new - t)
        if jet.events:
            a = ev.reshape(_ORDER + 1, len(end), n).transpose(1, 0, 2) * (t_new - t) ** k
            B = _BERNSTEIN @ a
            B[:, 0] = end
            for e, f in enumerate(jet.events):
                B[e, -1] = f(state[:n], state[n:])
            end = B[:, -1]
            yield _Piece((t, t_new), c), a, B
        t = t_new
        if t == t_end:
            return state


def _end_state(jet: _Jet, p, t_end: float) -> np.ndarray:
    """The state at t_end of the event-free flight of jet from p."""
    try:
        next(_flight(jet, p, t_end))
    except StopIteration as end:
        return end.value


def _one_sign(B: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Whether each column of the Bernstein coefficients B (..., _ORDER + 1, m) is of one sign, clear of 0.

    Clear means by more than margin plus the rounding of the column's
    largest coefficient.
    """
    tol = margin + _ROUNDING * np.abs(B).max(axis=-2, keepdims=True)
    return (B > tol).all(axis=-2) | (B < -tol).all(axis=-2)


@cache
def _pieces() -> np.ndarray:
    """The Bernstein coefficients of the _SPLIT pieces [j / _SPLIT, (j + 1) / _SPLIT] of [0, 1].

    Row k * _SPLIT + j maps coefficients on [0, 1] to coefficient k of
    piece j, by repeated de Casteljau halving at 1/2.  It is built on first
    use, so that a run that locates no event (a synthetic sweep) holds no
    table.
    """
    halves = np.array([
        [[math.comb(i, j) / 2.0**i for j in range(_ORDER + 1)] for i in range(_ORDER + 1)],
        [[math.comb(_ORDER - i, j - i) / 2.0 ** (_ORDER - i) if j >= i else 0.0 for j in range(_ORDER + 1)]
         for i in range(_ORDER + 1)],
    ])
    pieces = np.eye(_ORDER + 1)[None]
    while len(pieces) < _SPLIT:
        pieces = np.einsum("hij,sjk->shik", halves, pieces).reshape(-1, _ORDER + 1, _ORDER + 1)
    return pieces.transpose(1, 0, 2).reshape(-1, _ORDER + 1)


def _brackets(C: np.ndarray, width: float):
    """(col, lo, w): intervals [lo, lo + w] of [0, 1] where the polynomial of Bernstein column C[:, col] may vanish.

    De Casteljau splits [0, 1] into _SPLIT pieces, and each kept piece
    again, until w is at most width.  A piece whose coefficients are of one
    sign, clear of the rounding of the column's largest coefficient on
    [0, 1], holds no root and is dropped, and so is a column that is 0; a
    root on a split point keeps the pieces on both sides.
    """
    tol = _ROUNDING * np.abs(C).max(axis=0)
    tol[tol == 0.0] = -1.0  # a column that is 0 keeps no piece
    col, lo, w, D = np.arange(C.shape[1]), np.zeros(C.shape[1]), 1.0, C[:, None]
    while True:
        if w > width:  # coefficient k of piece j of column c is D[k, j, c]
            w /= _SPLIT
            D = (_pieces() @ C).reshape(_ORDER + 1, _SPLIT, -1)
        t = tol[col]
        j, c = np.nonzero((D.min(axis=0) <= t) & (D.max(axis=0) >= -t))
        C, col, lo = D[:, j, c], col[c], lo[c] + w * j
        if w <= width or not col.size:
            return col, lo, w


def _step_times(sol: _Piece, C: np.ndarray, owner: np.ndarray, whole=()) -> dict:
    """{orbit: times}: per orbit in owner, the ends of the brackets of its columns of C on sol's step.

    owner[c] is the orbit of Bernstein column C[:, c]; no root of a column
    lies between its brackets.  The orbits in whole read the step's own
    ends too.  The times are in flight order, t1 exact.
    """
    t0, t1 = sol.ts.tolist()
    col, lo, w = _brackets(C, _BRACKET / abs(t1 - t0))
    ends = {i: {0.0, 1.0} for i in whole}
    for i, s in zip(owner[col].tolist(), lo.tolist()):
        ends.setdefault(i, set()).update((s, s + w))
    return {i: [t0 + s * (t1 - t0) if s < 1.0 else t1 for s in sorted(e)] for i, e in ends.items()}


def _orbit(sol: _Piece, i: int = 0, n: int = 1):
    """t -> (x_i(t), y_i(t)) on the piece sol of a flight of n orbits, in Python floats.

    Bit for bit sol(t)[i::n]: orbit i's two coefficient columns summed in
    the same Horner order.  Each time is evaluated once: the bracket ends
    of a step are read by its rules and again by brentq.
    """
    if sol.rows is None:
        sol.rows = sol.coefs[::-1].T.tolist()
    t0, (x0, *rx), (y0, *ry) = float(sol.ts[0]), sol.rows[i], sol.rows[n + i]
    rest = list(zip(rx, ry))
    seen = {}

    def at(t):
        if t in seen:
            return seen[t]
        u = t - t0
        x, y = x0, y0
        for cx, cy in rest:
            x = x * u + cx
            y = y * u + cy
        seen[t] = x, y
        return x, y

    return at


def _arc_points(arc, ts) -> np.ndarray:
    """States, shape (2n, len(ts)), at the times ts of a flight's pieces in time order."""
    ts = np.asarray(ts, dtype=float)
    sgn = 1.0 if arc[-1].ts[-1] >= arc[0].ts[0] else -1.0
    ends = np.array([sgn * sol.ts[-1] for sol in arc])
    idx = np.minimum(np.searchsorted(ends, sgn * ts), len(arc) - 1)
    out = np.empty((arc[0].coefs.shape[1], ts.size))
    for k in np.unique(idx):
        at = idx == k
        out[:, at] = arc[k](ts[at])
    return out


def flow_smooth(F: PolyField, p, t: float) -> np.ndarray:
    """phi_F(t; p) with local tolerance 1e-12."""
    return _end_state(_Jet(F.fx, F.fy), p, t)


def brentq(f, a: float, b: float, xtol: float, rtol: float = 4 * float(np.finfo(float).eps), maxiter: int = 100):
    """A root of f between a and b, where f changes sign, by Brent's method (1973).

    SciPy's C routine (optimize/Zeros/brentq.c) line for line, rtol and
    maxiter defaulting as there: the same float operations in the same
    order, so the root is SciPy's bit for bit.  An end where f is 0 is the
    root; a NaN value of f or a bracket whose ends have one sign raises
    ValueError, and maxiter steps without convergence RuntimeError.  Where
    C divides by 0 its step is not finite and it bisects; so does this.
    """

    def value(x):
        v = float(f(x))  # as C reads it: numpy scalar arithmetic is several times slower
        if v != v:
            raise ValueError(f"f({x}) is NaN")
        return v

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # a good short step
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"brentq failed to converge after {maxiter} iterations")


def _brentq(g, a, b):
    """The root of g between a and b (a first in time), polished by brentq to the rounding of t.

    Where g is exactly 0 on a run of adjacent floats, as on an exact
    polynomial orbit, the root is the first of the run from a, not whichever
    float brentq stopped on: a root brentq stops on at a 0 walks back along
    the run (a few floats at most), and one it stops on elsewhere halves
    brentq's last bracket, a few floats wide, down to two adjacent floats,
    where a 0 is the root.
    """
    tried = {}

    def f(t):
        tried[t] = v = g(t)
        return v

    r = brentq(f, min(a, b), max(a, b), xtol=1e-300, rtol=8.9e-16)
    side, d = _sign(tried[a]), 1.0 if b > a else -1.0
    if side != 0 and tried[r] != 0.0:
        p = max((t for t, v in tried.items() if _sign(v) == side), key=lambda t: d * t)
        q = min((t for t, v in tried.items() if _sign(v) != side and d * t > d * p), key=lambda t: d * t)
        while (m := p + 0.5 * (q - p)) not in (p, q):
            p, q = (m, q) if _sign(f(m)) == side else (p, m)
        return q if tried[q] == 0.0 else r
    for _ in range(4):
        s = float(np.nextafter(r, a))
        if r == a or g(s) != 0.0:
            break
        r = s
    return r


def _sign(v: float) -> float:
    """np.sign of a Python float: -1.0, 0.0 or 1.0 (nan stays nan)."""
    return 1.0 if v > 0.0 else -1.0 if v < 0.0 else v


def _sign_changes(g, ts, vals):
    """Roots of g where its samples vals at ts change sign, in time order.

    A sign change between two nonzero samples is polished by brentq; a
    sample after the first that is exactly zero is itself a root.
    """
    s = [_sign(v) for v in vals]
    for k in range(len(s) - 1):
        if s[k + 1] == 0:
            yield ts[k + 1]
        elif s[k] * s[k + 1] < 0:
            yield _brentq(g, ts[k], ts[k + 1])


def _offset(section: Section) -> Poly2:
    """The signed distance from the section's line."""
    (ax, ay), (nx, ny) = section.anchor, section.normal.tolist()
    return Poly2({(1, 0): nx, (0, 1): ny, (0, 0): -(ax * nx + ay * ny)})


def _section_hit(F: PolyField, section: Section, offset, at, ts, pts, sgn: float):
    """(t, q): the first meeting of the orbit at with the section segment at the times ts of a step, or None.

    offset is the section's _offset and pts the orbit's points at ts.  A
    root at t = 0 is skipped when the flight starts on the section, and a
    crossing of the section line outside the segment is skipped; q is a
    TangentialHit when the orbit grazes the line.
    """
    g = lambda t: offset(*at(t))
    gv = [offset(x, y) for x, y in pts]
    if ts[0] == 0.0 and abs(gv[0]) < EVENT_TOL:
        keep = [k for k, t in enumerate(ts) if t * sgn > 1e-9]
        ts, gv = [ts[k] for k in keep], [gv[k] for k in keep]
    for troot in _sign_changes(g, ts, gv):
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


def _sigma_event(hpoly, fhpoly, at, ts, pts, side: float, sgn: float, include_touch: bool):
    """((t, kind) or None, side): the first Sigma event of the orbit at among the times ts of a step, and its side.

    ts are the ends of the brackets of h's and Fh's roots on the step (of
    the step too while the orbit is on Sigma), and pts the orbit's points
    there.  A crossing (or a grazing dip inside one bracket) forces hdot =
    Fh to cross zero near it, so bracketing h AND Fh finds every Sigma
    interaction even when the dip is much shorter than a bracket.  An orbit
    still on Sigma (side 0) takes the side of its first time with |h| >
    EVENT_TOL and is read from there on.
    """
    hfun = lambda t: hpoly(*at(t))
    hv = [hpoly(x, y) for x, y in pts]
    hs, fs = [_sign(v) for v in hv], [_sign(fhpoly(x, y)) for x, y in pts]
    if ts[0] == 0.0 and abs(hv[0]) <= EVENT_TOL:
        hs[0] = 0.0  # a start on Sigma is at h = 0: the rounding of its h is no crossing
    k0 = 0
    if side == 0:  # still on Sigma: wait for |h| to grow
        k0 = next((k for k, v in enumerate(hv) if abs(v) > EVENT_TOL), None)
        if k0 is None:
            return None, side
        side = hs[k0]
    for k in range(k0, len(ts) - 1):
        # a sign change of h, or a time exactly on Sigma that the orbit
        # reaches while hdot = sgn Fh still carries it across
        if hs[k] * hs[k + 1] < 0 or (hs[k + 1] == 0 and sgn * fs[k + 1] == -hs[k]):
            return (_brentq(hfun, ts[k], ts[k + 1]), "cross"), side
        if fs[k] == 0 or fs[k] == fs[k + 1]:  # no turn
            continue
        tm = _brentq(lambda t: fhpoly(*at(t)), ts[k], ts[k + 1])
        hm = hfun(tm)
        if _sign(hm) != 0 and _sign(hm) != side:
            lo = ts[k] if hs[k] == side else ts[max(k0, k - 1)]
            return (_brentq(hfun, lo, tm), "cross"), side
        if _sign(hm) != 0 and hs[k + 1] != 0 and hs[k + 1] != _sign(hm):
            # dip entirely on the departure side ending in a crossing
            # (start-on-Sigma orbits that return within one bracket)
            return (_brentq(hfun, tm, ts[k + 1]), "cross"), side
        if include_touch and abs(hm) < CLASSIFY_TOL and abs(tm) > 1e-9:
            return (tm, "touch"), side
    return None, side


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
        events.append(hpoly)
        side = np.array([_departure(hpoly, fhpoly, p, sgn) for p in ps])
        # away from Sigma by more than CLASSIFY_TOL a turn can be no touch
        margin = CLASSIFY_TOL if include_touch else 0.0
    if section is not None:
        events.append(offset := _offset(section))
    steps = _flight(_Jet(F.fx, F.fy, events=events), ps.T.ravel(), sgn * tmax)
    try:
        for sol, a, B in steps:
            if arc is not None:
                arc.append(sol)
            # the Bernstein columns to isolate roots of, and their orbits:
            # h and its derivative (Fh) where h is not certified, the offset
            # where it is not
            cols, owner = [], []
            if h is not None:
                near = todo & ((side == 0) | ~_one_sign(B[0], margin))
                idx = np.flatnonzero(near)
                cols += [B[0][:, idx], _DERIVATIVE @ a[0][:, idx]]
                owner += [idx, idx]
            if section is not None:
                moved = todo & ~_one_sign(B[-1])
                idx = np.flatnonzero(moved)
                cols.append(B[-1][:, idx])
                owner.append(idx)
            if not (near | moved).any():
                continue
            still = np.flatnonzero(near & (side == 0)) if h is not None else ()
            times = _step_times(sol, np.concatenate(cols, axis=1), np.concatenate(owner), still)
            for i, ts in times.items():
                at = _orbit(sol, i, n)
                pts = [at(t) for t in ts]
                ev = None
                if near[i]:
                    ev, side[i] = _sigma_event(hpoly, fhpoly, at, ts, pts, side[i], sgn, include_touch)
                on = moved[i] and _section_hit(F, section, offset, at, ts, pts, sgn)
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
        Yh * Z.X.fx - Xh * Z.Y.fx - pin * Z.h.h.dx(), Yh * Z.X.fy - Xh * Z.Y.fy - pin * Z.h.h.dy(), den,
        events=(Xh, Yh),
    )
    for sol, _, B in _flight(jet, p, t_budget):
        arc.append(sol)
        vary = ~_one_sign(B)[:, 0]
        if not vary.any():
            continue
        # a slide that enters within a hair of a fold has a bracket at t = 0
        # and exits at once (_sign_changes skips an exact-zero start)
        exits, at = [], _orbit(sol)
        ts = _step_times(sol, B[vary, :, 0].T, np.zeros(vary.sum(), dtype=int)).get(0, [])
        pts = [at(t) for t in ts]
        for name, f, v in zip("XY", (Xh, Yh), vary):
            if not v:
                continue
            g = lambda t: f(*at(t))
            r = next(_sign_changes(g, ts, [f(x, y) for x, y in pts]), None)
            if r is not None:
                exits.append((r, name))
        if exits:
            troot, which = min(exits)
            return SigmaHit(point=np.array(at(troot)), time=troot, kind=f"fold-exit-{which}")
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
