"""Event-driven integration of the smooth pieces and the Filippov dynamics.

Every orbit is a flight, _flight, the one DOP853 stepper the package builds
(Hairer, Norsett & Wanner, Solving ODEs I), from t = 0 towards its time
limit, never integrating an arc twice.  Its steps are at most _CHUNK long,
and the event functions are evaluated vectorised on the dense output at
the fixed time lattice t_k = k * _CHUNK / (_SAMPLES_PER_CHUNK - 1), one
step (or run of steps) at a time.  An event-free flight (flow_smooth,
maps.place_section) builds neither, yields nothing and returns the
stepper's own state at t_end.

One scanner, _scan, flies n starts as one 2n-dimensional system with
tolerance INTEGRATOR_TOL / sqrt(n), so that the stepper's RMS error norm
bounds each orbit as tightly as a flight of its own.  Per orbit it applies
the Sigma rules (h and Fh bracketed on the lattice, so that a dip through
Sigma shorter than the lattice spacing is found; a start within EVENT_TOL
of Sigma is on it, h = 0 at t = 0, and leaves into the side Fh points to),
the section rules of _section_hit and the race between the two.  Each
orbit keeps its first event and then rides along unread.  If a step fails,
the orbits without an event fly again alone, so a blow-up in one orbit
never decides another's result.
hit_sections, next_sigma_hits, their n = 1 calls hit_section and
next_sigma_hit, and filippov_trajectory's smooth arcs are calls to it; a
section-only scan never evaluates h or Fh.

Each event root is polished by brentq to ~1e-12 in time on the step
interpolant that holds it, evaluated for its orbit alone in Python floats
(_orbit): bit for bit what OdeSolution gives, at a fraction of the cost.
A trajectory samples each arc from the pieces of the flight that found its
event, and starts the next arc at that event: _regime_at is the one rule
that picks the field from a point on Sigma, and no flight is nudged off
it.  Every right-hand side evaluates its field through
PolyField.components, bit for bit the two Poly2 components.

scipy's DOP853, OdeSolution and brentq are bound by _scipy the first time
a flight or an event polish needs them, so the closed-form paths never
import scipy.  flow.brentq is read at call time and bound on first read
through the module __getattr__, so that a tracer can wrap and rebind it;
solve_ivp is bound the same way for the tracer alone, and nothing calls it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CLASSIFY_TOL, FilippovSystem, PolyField, SwitchingFunction, contact_order, lie_poly
from .errors import NoHit, NonDeterministicExit, TangentialHit, fmt_point

INTEGRATOR_TOL = 1e-12
EVENT_TOL = 1e-10
MAX_FLIGHT_TIME = 100.0
_CHUNK = 4.0
_SAMPLES_PER_CHUNK = 600

# scipy's stepper, dense output, solver and root finder: bound by _scipy
DOP853: type
OdeSolution: type
solve_ivp: Callable  # uncalled: bench/tracing.py wraps it, until its tracer counts _flight's steps
brentq: Callable
_SCIPY_NAMES = ("DOP853", "OdeSolution", "solve_ivp", "brentq")


def _scipy() -> None:
    """Bind DOP853, OdeSolution, solve_ivp and brentq as module globals, on the first call."""
    if "solve_ivp" not in globals():
        from scipy.integrate import DOP853, OdeSolution, solve_ivp
        from scipy.optimize import brentq

        globals().update(DOP853=DOP853, OdeSolution=OdeSolution, solve_ivp=solve_ivp, brentq=brentq)


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


def _rhs(F: PolyField, n: int = 1):
    """Right-hand side of n orbits of F, on the state (x_1..x_n, y_1..y_n)."""
    if n == 1:
        # Python floats: the same IEEE operations as on numpy scalars, in
        # about 40% less time; but a float ** that overflows raises, where
        # numpy's gives the inf that makes the stepper reject its step

        def f(t, s):
            try:
                return F.components(*s.tolist())
            except OverflowError:
                return F.components(s[0], s[1])

    else:

        def f(t, s):
            out = np.empty(2 * n)
            out[:n], out[n:] = F.components(s[:n], s[n:])
            return out

    return f


def _flight(rhs, p, t_end: float, events, tol: float = INTEGRATOR_TOL):
    """Integrate rhs from p over [0, t_end] (backward if t_end < 0) with one stepper.

    The state holds n orbits as (x_1..x_n, y_1..y_n); steps are at most
    _CHUNK long.  Yields one piece per step, or run of steps, that passes a
    point of the lattice t_k = k * _CHUNK / (_SAMPLES_PER_CHUNK - 1), which
    t_end closes: (sol, ts, vals) with sol the dense output of the piece's
    steps, ts the lattice points from the last one before the piece to the
    last one in it, and vals[i] = events[i](x, y) on all of them at once, of
    shape (n, len(ts)).  With no events there is neither dense output nor
    lattice, and no piece.  A caller stops the flight by leaving the loop;
    one that reaches t_end returns the stepper's own state there (not the
    dense output's).  A failed step ends the flight with NoHit, after a
    last piece that reaches the last good step.
    """
    sgn = 1.0 if t_end > 0 else -1.0
    dt = _CHUNK / (_SAMPLES_PER_CHUNK - 1)
    # a lattice point within half a spacing of t_end gives way to t_end
    last = abs(t_end) - 0.5 * dt
    _scipy()
    solver = DOP853(rhs, 0.0, np.asarray(p, dtype=float), t_end, max_step=_CHUNK, rtol=tol, atol=tol)
    bounds, dense = [0.0], []
    k = 0  # the lattice point the next piece starts from
    while True:
        message = solver.step()
        if events:  # dense output and the lattice serve only to locate events
            if solver.status != "failed":
                bounds.append(solver.t)
                dense.append(solver.dense_output())
            reach = abs(solver.t)
            j = k
            while (j + 1) * dt <= reach and (j + 1) * dt < last:
                j += 1
            ts = np.arange(k, j + 1) * (sgn * dt)
            if solver.status != "running" and reach > j * dt:
                ts = np.append(ts, solver.t)  # t_end, or the last good step
            if ts.size > 1:
                sol = OdeSolution(bounds, dense)
                x, y = np.split(sol(ts), 2)
                yield sol, ts, [np.broadcast_to(f(x, y), x.shape) for f in events]
                # the next piece starts inside the last step
                k, bounds, dense = j, bounds[-2:], dense[-1:]
        if solver.status == "failed":
            raise NoHit(f"integration failed: {message}")
        if solver.status == "finished":
            return solver.y


def _end_state(rhs, p, t_end: float) -> np.ndarray:
    """The stepper's state at t_end of the event-free flight of rhs from p."""
    try:
        next(_flight(rhs, p, t_end, []))
    except StopIteration as end:
        return end.value


def _orbit(sol, i: int = 0, n: int = 1):
    """t -> (x_i(t), y_i(t)) on the dense output sol of a piece of n orbits, in Python floats.

    Bit for bit sol(t)[i::n]: the step is the one OdeSolution picks for t
    (at a step boundary, the lower segment index, forward or backward), and
    orbit i's two components of its Dop853DenseOutput are summed in the
    Horner order of _call_impl.
    """
    bounds = sol.ts_sorted.tolist()
    find = bisect_left if sol.side == "left" else bisect_right
    steps = [(float(d.t_old), float(d.h), d.F[::-1, i::n].tolist(), d.y_old[i::n].tolist())
             for d in sol.interpolants]
    if not sol.ascending:
        steps.reverse()  # in the order of bounds

    def at(t):
        t_old, h, rows, (x0, y0) = steps[min(max(find(bounds, t) - 1, 0), len(steps) - 1)]
        u = (t - t_old) / h
        v = 1 - u
        x = y = 0.0
        for m, (fx, fy) in enumerate(rows):
            w = v if m % 2 else u
            x = (x + fx) * w
            y = (y + fy) * w
        return x + x0, y + y0

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
    return _end_state(_rhs(F), p, t)


def _brentq(g, a, b):
    lo, hi = (a, b) if a < b else (b, a)
    _scipy()
    return brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16)


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
    flight = _flight(_rhs(F, n), ps.T.ravel(), sgn * tmax, events, tol=INTEGRATOR_TOL / np.sqrt(n))
    try:
        for sol, ts, vals in flight:
            if arc is not None:
                arc.append(sol)
            if h is not None:
                hs, fs = np.sign(vals[0]), np.sign(vals[1])
                if ts[0] == 0.0:
                    # a start on Sigma is at h = 0: the rounding of its h is no crossing
                    hs[np.abs(vals[0][:, 0]) <= EVENT_TOL, 0] = 0
                cross = hs[:, :-1] * hs[:, 1:] < 0
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
    hx, hy = Z.h.h.dx(), Z.h.h.dy()

    def rhs(t, s):
        xh, yh = Xh(s[0], s[1]), Yh(s[0], s[1])
        v = (yh * Z.X(s) - xh * Z.Y(s)) / (yh - xh)
        # mild projection keeps the arc pinned to Sigma
        return v - 10.0 * Z.h.h(s[0], s[1]) * np.array([hx(s[0], s[1]), hy(s[0], s[1])])

    for sol, ts, vals in _flight(rhs, p, t_budget, [Xh, Yh]):
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
    A touch keeps the regime; after a crossing or a fold exit _regime_at
    picks it at the event point itself, so no flight is nudged off Sigma.
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
        if hit.kind != "touch":
            regime = _regime_at(Z, point)
            if regime == "Sliding" and hit.kind.startswith("fold-exit"):
                raise NonDeterministicExit(f"sliding exit at {fmt_point(point)} slides on")
    return arcs
