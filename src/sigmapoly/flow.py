"""Event-driven integration of the smooth pieces and the Filippov dynamics.

A flight drives one DOP853 stepper (Hairer, Norsett & Wanner, Solving ODEs
I) with dense output from t = 0 towards its time limit, never integrating
an arc twice.  The event functions (section offset, h, Fh, the
sliding-boundary Lie derivatives) are evaluated vectorised, on the dense
output, at the fixed time lattice t_k = k * _CHUNK / (_SAMPLES_PER_CHUNK - 1),
one step (or run of steps) at a time; Sigma hits, section hits and grazing
touches are bracketed on that lattice and polished by brentq to ~1e-12 in
time, and the flight stops in the piece that holds the event.  A step is
never longer than _CHUNK, so the dense output stays accurate between
lattice points.

hit_sections flies the n starting points of a germ fit as one 2n-dimensional
system with tolerance INTEGRATOR_TOL / sqrt(n), so that the stepper's RMS
error norm bounds each orbit as tightly as a flight of its own; every orbit
keeps its own first hit, and an orbit that has hit rides along unread.  If a
step fails, the orbits that have not hit yet are flown again one by one, so
a blow-up in one orbit never decides another's result.  hit_section is the
n = 1 call.

next_sigma_hit with a section tracks the section offset in the same flight
as h and Fh and returns whichever event comes first, so "does this orbit
reach the section before it meets Sigma again?" takes one integration.  The
section rules (skip the start on the section, ignore crossings outside the
segment, a graze is a TangentialHit) live in _section_hit, which both
paths use.

filippov_trajectory samples each arc from the dense pieces of the flight
that found its event (the Sigma flight of a smooth arc, the sliding flight
of a sliding arc), so no arc is integrated twice.

Every right-hand side evaluates its field through PolyField.components,
which takes each power of x and y once and sums both components from those
shared powers, bit for bit what the two Poly2 components give on their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853, OdeSolution, solve_ivp
from scipy.optimize import brentq

from .core import (
    CLASSIFY_TOL,
    Crossing,
    FilippovSystem,
    FoldFold,
    PolyField,
    StableSliding,
    SwitchingFunction,
    Tangency,
    classify_sigma_point,
    lie_poly,
)
from .errors import NoHit, NonDeterministicExit, TangentialHit

INTEGRATOR_TOL = 1e-12
EVENT_TOL = 1e-10
MAX_FLIGHT_TIME = 100.0
_CHUNK = 4.0
_SAMPLES_PER_CHUNK = 600


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


def _solve(rhs, p, t0: float, t1: float):
    sol = solve_ivp(
        rhs,
        (t0, t1),
        np.asarray(p, dtype=float),
        method="DOP853",
        rtol=INTEGRATOR_TOL,
        atol=INTEGRATOR_TOL,
        dense_output=True,
    )
    if not sol.success:
        raise NoHit(f"integration failed: {sol.message}")
    return sol


def _flight(rhs, p, t_end: float, events, tol: float = INTEGRATOR_TOL):
    """Integrate rhs from p over [0, t_end] (backward if t_end < 0) with one stepper.

    The state holds n orbits as (x_1..x_n, y_1..y_n); steps are at most
    _CHUNK long.  Yields one piece per step, or run of steps, that passes a
    point of the lattice t_k = k * _CHUNK / (_SAMPLES_PER_CHUNK - 1), which
    t_end closes: (sol, ts, vals) with sol the dense output of the piece's
    steps, ts the lattice points from the last one before the piece to the
    last one in it, and vals[i] = events[i](x, y) on all of them at once, of
    shape (n, len(ts)).  A caller stops the flight by leaving the loop.  A
    failed step ends the flight with NoHit, after a last piece that reaches
    the last good step.
    """
    sgn = 1.0 if t_end > 0 else -1.0
    dt = _CHUNK / (_SAMPLES_PER_CHUNK - 1)
    # a lattice point within half a spacing of t_end gives way to t_end
    last = abs(t_end) - 0.5 * dt
    solver = DOP853(rhs, 0.0, np.asarray(p, dtype=float), t_end, max_step=_CHUNK, rtol=tol, atol=tol)
    bounds, dense = [0.0], []
    k = 0  # the lattice point the next piece starts from
    while True:
        message = solver.step()
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
            return


def _along(sol, f, i: int = 0, n: int = 1):
    """t -> f(x_i(t), y_i(t)) on a dense solution of n orbits, for brentq polishing."""
    return lambda t: f(*sol(t)[i::n])


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
    if t == 0:
        return np.asarray(p, dtype=float)
    return _solve(_rhs(F), p, 0.0, t).y[:, -1]


def _brentq(g, a, b):
    lo, hi = (a, b) if a < b else (b, a)
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
    anchor, nrm = np.asarray(section.anchor), section.normal
    return lambda x, y: (x - anchor[0]) * nrm[0] + (y - anchor[1]) * nrm[1]


def _section_hit(F: PolyField, section: Section, sol, ts, gv, sgn: float, i: int = 0, n: int = 1):
    """(t, q): the first meeting of orbit i of n with the section segment in a piece, or None.

    gv holds the orbit's section offsets at the piece's times ts.  A root at
    t = 0 is skipped when the flight starts on the section, and a crossing
    of the section line outside the segment is skipped; q is a
    TangentialHit when the orbit grazes the line.
    """
    if ts[0] == 0.0 and abs(gv[0]) < EVENT_TOL:
        keep = ts * sgn > 1e-9
        ts, gv = ts[keep], gv[keep]
    for troot in _sign_changes(_along(sol, _offset(section), i, n), ts, gv):
        q = sol(troot)[i::n]
        if abs(float(np.dot(F(q), section.normal))) < CLASSIFY_TOL:
            return troot, TangentialHit(f"grazes section at t = {troot:.6g}")
        if section.halfwidth is None or abs(section.coord(q)) <= section.halfwidth:
            return troot, q
    return None


def _section_hits(F: PolyField, ps, section: Section, direction: str, tmax: float) -> list:
    """Per start in ps: its first hit (q, tq) of the section, or the error of its flight.

    The starts are flown as one system (see the module docstring).
    """
    sgn = 1.0 if direction == "forward" else -1.0
    ps = np.asarray(ps, dtype=float).reshape(-1, 2)
    n = len(ps)
    out: list = [None] * n
    flight = _flight(_rhs(F, n), ps.T.ravel(), sgn * tmax, [_offset(section)], tol=INTEGRATOR_TOL / np.sqrt(n))
    try:
        for sol, ts, (gv,) in flight:
            s = np.sign(gv)
            moved = ((s[:, :-1] * s[:, 1:] < 0) | (s[:, 1:] == 0)).any(axis=1)
            for i in np.flatnonzero(moved):
                if out[i] is None and (hit := _section_hit(F, section, sol, ts, gv[i], sgn, i, n)):
                    t, q = hit
                    out[i] = q if isinstance(q, TangentialHit) else (q, t)
            if all(o is not None for o in out):
                return out
    except NoHit as e:
        if n == 1:
            return [e]
        # a failed step ends the flight for every orbit; fly the open ones alone
        return [
            o if o is not None else _section_hits(F, p, section, direction, tmax)[0]
            for o, p in zip(out, ps)
        ]
    return [NoHit(f"no section hit within tmax = {tmax}") if o is None else o for o in out]


def _raise_first_error(out: list) -> list:
    for o in out:
        if isinstance(o, Exception):
            raise o
    return out


def hit_sections(
    F: PolyField,
    ps,
    section: Section,
    direction: str = "forward",
    tmax: float = MAX_FLIGHT_TIME,
) -> list:
    """First hits (q, tq) of the section from each start in ps, in one flight.

    Raises the error of the lowest-index start whose flight fails, the one
    that flying the starts one after another would raise.
    """
    return _raise_first_error(_section_hits(F, ps, section, direction, tmax))


def hit_section(
    F: PolyField,
    p,
    section: Section,
    direction: str = "forward",
    tmax: float = MAX_FLIGHT_TIME,
):
    """First hit (q, tq) of the section in the given time direction."""
    return _raise_first_error(_section_hits(F, [p], section, direction, tmax))[0]


@dataclass(frozen=True)
class SigmaHit:
    point: np.ndarray
    time: float
    kind: str  # "cross" | "touch" | "section"


def next_sigma_hit(
    F: PolyField,
    p,
    h: SwitchingFunction,
    direction: str = "forward",
    tmax: float = MAX_FLIGHT_TIME,
    include_touch: bool = False,
    section: Section | None = None,
) -> SigmaHit:
    """Next intersection (or grazing touch) of the orbit with Sigma.

    Works when starting exactly on Sigma: the initial root is skipped by
    waiting for |h| to grow past the event tolerance.  With a section, the
    same flight races Sigma against the section segment, under the rules of
    hit_section: the first of the two comes back, a section hit as kind
    "section", and a graze of the section that comes first raises
    TangentialHit.
    """
    for _, hit in _sigma_flight(F, p, h, direction, tmax, include_touch, section):
        if hit is not None:
            return hit
    raise NoHit(f"no Sigma hit within tmax = {tmax}")


def _sigma_flight(F, p, h, direction, tmax, include_touch, section):
    """The flight of next_sigma_hit: yields (sol, hit) per piece of it, hit a SigmaHit or None.

    The flight ends after the piece that holds its hit, or without a hit at
    tmax; a failed step raises NoHit.
    """
    sgn = 1.0 if direction == "forward" else -1.0
    hpoly = h.h
    fhpoly = lie_poly(F, hpoly, 1)
    escaped = abs(hpoly(p[0], p[1])) > EVENT_TOL
    ref_sign = np.sign(hpoly(p[0], p[1])) if escaped else 0.0
    if not escaped:
        fh0 = fhpoly(p[0], p[1])
        if abs(fh0) > CLASSIFY_TOL:
            # starting on Sigma transversally: the orbit leaves into the side
            # hdot points to; waiting for |h| to grow would miss a return
            # that happens before the first sample
            escaped = True
            ref_sign = np.sign(sgn * fh0)

    def sigma_event(sol, ts, hv, fhv, k0):
        hfun, fhfun = _along(sol, hpoly), _along(sol, fhpoly)
        # A crossing (or a grazing dip entirely between two samples) forces
        # hdot = Fh to cross zero somewhere near it, and Fh varies on the
        # flow timescale, so bracketing h AND Fh on the sample grid finds
        # every Sigma interaction even when the dip is much shorter than
        # the sample spacing.
        hs, fs = np.sign(hv), np.sign(fhv)
        cross = hs[:-1] * hs[1:] < 0
        turn = (fs[:-1] != 0) & (fs[:-1] != fs[1:])
        for k in np.flatnonzero(cross[k0:] | turn[k0:]) + k0:
            if cross[k]:
                troot = _brentq(hfun, ts[k], ts[k + 1])
                return SigmaHit(point=sol(troot), time=troot, kind="cross")
            tm = _brentq(fhfun, ts[k], ts[k + 1])
            hm = hfun(tm)
            if np.sign(hm) != 0 and np.sign(hm) != ref_sign:
                lo = ts[k] if hs[k] == ref_sign else ts[max(k0, k - 1)]
                troot = _brentq(hfun, lo, tm)
                return SigmaHit(point=sol(troot), time=troot, kind="cross")
            if np.sign(hm) != 0 and hs[k + 1] != 0 and hs[k + 1] != np.sign(hm):
                # dip entirely on the departure side ending in a crossing
                # (start-on-Sigma orbits that return before the first sample)
                troot = _brentq(hfun, tm, ts[k + 1])
                return SigmaHit(point=sol(troot), time=troot, kind="cross")
            if include_touch and abs(hm) < CLASSIFY_TOL and abs(tm) > 1e-9:
                return SigmaHit(point=sol(tm), time=tm, kind="touch")
        return None

    events = [hpoly, fhpoly] if section is None else [hpoly, fhpoly, _offset(section)]
    for sol, ts, ((hv,), (fhv,), *gv) in _flight(_rhs(F), p, sgn * tmax, events):
        hit, k0 = None, 0
        if not escaped:
            big = np.flatnonzero(np.abs(hv) > EVENT_TOL)
            if big.size:
                k0 = int(big[0])
                ref_sign = np.sign(hv[k0])
                escaped = True
        if escaped:
            hit = sigma_event(sol, ts, hv, fhv, k0)
        if gv and (on := _section_hit(F, section, sol, ts, gv[0][0], sgn)):
            t, q = on
            if hit is None or abs(t) <= abs(hit.time):
                if isinstance(q, TangentialHit):
                    raise q
                hit = SigmaHit(point=q, time=t, kind="section")
        yield sol, hit
        if hit is not None:
            return


# -- full Filippov trajectories ------------------------------------------------


@dataclass
class Arc:
    regime: str  # "Mplus" | "Mminus" | "Sliding"
    ts: np.ndarray
    points: np.ndarray  # shape (N, 2)
    t0: float
    t1: float
    entry_event: str
    exit_event: str


@dataclass
class Trajectory:
    arcs: list[Arc] = field(default_factory=list)


def _sample_arc(arc, t1, dt_out):
    n = max(2, int(np.ceil(abs(t1) / dt_out)) + 1)
    ts = np.linspace(0.0, t1, n)
    return ts, _arc_points(arc, ts).T


def _starting_regime(Z: FilippovSystem, p) -> str:
    hv = Z.h.h(p[0], p[1])
    if hv > CLASSIFY_TOL:
        return "Mplus"
    if hv < -CLASSIFY_TOL:
        return "Mminus"
    cls = classify_sigma_point(Z, p)
    if isinstance(cls, Crossing):
        return "Mplus" if cls.direction > 0 else "Mminus"
    if isinstance(cls, StableSliding):
        return "Sliding"
    if isinstance(cls, Tangency):
        if cls.visibility == "visible" or cls.visibility == "odd":
            return "Mplus" if cls.side == "plus" else "Mminus"
        return "Mplus" if cls.side == "minus" else "Mminus"
    if isinstance(cls, FoldFold):
        if cls.kind in ("VI", "VV"):
            return "Mplus"
        return "Mminus"
    raise NonDeterministicExit(f"cannot start a forward orbit at {tuple(p)}: {cls}")


def _slide(Z: FilippovSystem, p, t_budget):
    """Integrate the sliding field until a boundary tangency or time out.

    Returns the arc (the flight's dense pieces in time order), the exit time and
    the field ("X" or "Y") whose contact ends the slide, or None at time out.
    """
    Xh = lie_poly(Z.X, Z.h.h, 1)
    Yh = lie_poly(Z.Y, Z.h.h, 1)
    hx, hy = Z.h.h.dx(), Z.h.h.dy()

    def rhs(t, s):
        v = sliding_raw(s)
        # mild projection keeps the arc pinned to Sigma
        hval = Z.h.h(s[0], s[1])
        g = np.array([hx(s[0], s[1]), hy(s[0], s[1])])
        return v - 10.0 * hval * g

    def sliding_raw(s):
        xh, yh = Xh(s[0], s[1]), Yh(s[0], s[1])
        X = Z.X(s)
        Y = Z.Y(s)
        return (yh * X - xh * Y) / (yh - xh)

    arc = []
    for sol, ts, vals in _flight(rhs, p, t_budget, [Xh, Yh]):
        arc.append(sol)
        # include t = 0: a slide entering within a hair of the boundary must
        # exit immediately (exact-zero starts are skipped by _sign_changes)
        exits = []
        for name, f, (v,) in zip("XY", (Xh, Yh), vals):
            r = next(_sign_changes(_along(sol, f), ts, v), None)
            if r is not None:
                exits.append((r, name))
        if exits:
            troot, which = min(exits)
            return arc, troot, which
    return arc, t_budget, None


def filippov_trajectory(
    Z: FilippovSystem,
    p,
    tmax: float,
    dt_out: float = 0.01,
) -> Trajectory:
    """Forward Filippov orbit: smooth arcs alternating with sliding arcs.

    Crossing points switch fields, stable sliding follows the sliding
    field until a visible fold lets the orbit escape, grazing touches are
    recorded as events with integration continuing in the same region.
    """
    traj = Trajectory()
    t = 0.0
    point = np.asarray(p, dtype=float)
    regime = _starting_regime(Z, point)
    entry = "start"

    while t < tmax - 1e-12:
        budget = tmax - t
        if regime in ("Mplus", "Mminus"):
            F = Z.X if regime == "Mplus" else Z.Y
            arc, hit = [], None
            for sol, hit in _sigma_flight(F, point, Z.h, "forward", budget, include_touch=True, section=None):
                arc.append(sol)
            if hit is None:
                ts, pts = _sample_arc(arc, budget, dt_out)
                traj.arcs.append(
                    Arc(regime, ts + t, pts, t, t + budget, entry, "time-out")
                )
                return traj
            ts, pts = _sample_arc(arc, hit.time, dt_out)
            if hit.kind == "touch":
                traj.arcs.append(
                    Arc(regime, ts + t, pts, t, t + hit.time, entry, "tangency-touch")
                )
                t += hit.time
                point = hit.point
                entry = "tangency-touch"
                # nudge along the flow so the touch is not re-found
                point = flow_smooth(F, point, 1e-8)
                t += 1e-8
                continue
            traj.arcs.append(Arc(regime, ts + t, pts, t, t + hit.time, entry, "cross"))
            t += hit.time
            point = hit.point
            cls = classify_sigma_point(Z, point)
            if isinstance(cls, Crossing):
                regime = "Mminus" if regime == "Mplus" else "Mplus"
                entry = "cross"
            elif isinstance(cls, StableSliding):
                regime = "Sliding"
                entry = "sliding-entry"
            elif isinstance(cls, Tangency):
                regime = "Mminus" if cls.side == "minus" else "Mplus"
                entry = "tangency"
            else:
                raise NonDeterministicExit(
                    f"orbit reached {type(cls).__name__} at {tuple(point)}"
                )
        else:  # Sliding
            arc, tslide, which = _slide(Z, point, budget)
            ts, pts = _sample_arc(arc, tslide, dt_out)
            exit_event = "time-out" if which is None else f"fold-exit-{which}"
            traj.arcs.append(
                Arc("Sliding", ts + t, pts, t, t + tslide, entry, exit_event)
            )
            t += tslide
            point = _arc_points(arc, [tslide])[:, 0]
            if which is None:
                return traj
            cls = classify_sigma_point(Z, point)
            if isinstance(cls, Tangency) and cls.visibility == "visible":
                regime = "Mplus" if cls.side == "plus" else "Mminus"
                entry = exit_event
                F = Z.X if regime == "Mplus" else Z.Y
                point = flow_smooth(F, point, 1e-8)
                t += 1e-8
            elif isinstance(cls, FoldFold) and cls.kind == "VV":
                raise NonDeterministicExit(
                    f"sliding reached a VV fold-fold at {tuple(point)}"
                )
            elif isinstance(cls, FoldFold) and cls.kind == "VI":
                regime = "Mplus"
                entry = exit_event
                point = flow_smooth(Z.X, point, 1e-8)
                t += 1e-8
            else:
                raise NonDeterministicExit(
                    f"sliding exit at {tuple(point)} is not a visible fold ({cls})"
                )
    return traj
