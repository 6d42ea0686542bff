"""Per-layer counters and spans, recorded from outside the program.

``Tracer.install`` wraps every public function of the traced sigmapoly
modules in a span and rebinds each wrapped name in every sigmapoly module
that imported it (and in the ``SCENARIOS`` table).  Hot methods get a
bare counter instead of a span.  The ``solve_ivp`` that ``sigmapoly.flow``
calls is wrapped too, and so is the dense solution it returns, so
integrations, right-hand-side evaluations and dense-output points are
counted where the work happens.  Spans are aggregated in memory per name:
calls, total time, self time (total minus traced children) and raised
exception types.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("poly2", "core", "flow", "maps", "polycycle", "bifurcation", "io", "cli")
NEWTON_FAILURES = ("NoConvergence", "SingularJacobian", "EscapedAnnulus")

# name -> (unit, better); reported in this order
PER_LAYER = {
    "poly2.evals": ("count", "lower"),
    "core.lie_poly_calls": ("count", "lower"),
    "core.classify_calls": ("count", "lower"),
    "flow.integrations": ("count", "lower"),
    "flow.integrations_failed": ("count", "lower"),
    "flow.rhs_evals": ("count", "lower"),
    "flow.integrate_s": ("s", "lower"),
    "flow.integrated_time": ("time", "lower"),
    "flow.useful_time_ratio": ("ratio", "higher"),
    "flow.dense_evals": ("count", "lower"),
    "flow.event_roots": ("count", "lower"),
    "flow.hit_section_self_s": ("s", "lower"),
    "flow.sigma_hit_self_s": ("s", "lower"),
    "maps.transition_calls": ("count", "lower"),
    "maps.transition_s": ("s", "lower"),
    "maps.mirror_calls": ("count", "lower"),
    "maps.mirror_s": ("s", "lower"),
    "maps.fit_germ_calls": ("count", "lower"),
    "maps.fit_germ_s": ("s", "lower"),
    "maps.place_section_s": ("s", "lower"),
    "maps.sigma_domain_s": ("s", "lower"),
    "polycycle.newton_starts": ("count", "lower"),
    "polycycle.newton_iters": ("count", "lower"),
    **{f"polycycle.newton_failed.{r}": ("count", "lower") for r in NEWTON_FAILURES},
    "polycycle.solutions_per_start": ("ratio", "higher"),
    "polycycle.germ_evals": ("count", "lower"),
    "polycycle.newton_s": ("s", "lower"),
    "bifurcation.cells": ("count", "higher"),
    "bifurcation.classify_self_s": ("s", "lower"),
    "bifurcation.circle_fit_s": ("s", "lower"),
    "io.csv_bytes": ("bytes", "lower"),
    "io.write_s": ("s", "lower"),
    "cli.run_self_s": ("s", "lower"),
}


class _CountingDense:
    """Stands in for an OdeSolution and counts the points evaluated."""

    __slots__ = ("_sol", "_tracer")

    def __init__(self, sol, tracer):
        self._sol = sol
        self._tracer = tracer

    def __call__(self, t):
        self._tracer.counters["dense_evals"] += 1 if isinstance(t, float) else np.size(t)
        return self._sol(t)

    def __getattr__(self, name):
        return getattr(self._sol, name)


class Tracer:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.raised: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        """Zero every aggregate; the installed wrappers keep recording."""
        for d in (self.calls, self.total, self.self_s, self.raised, self.counters):
            d.clear()

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, observe=None):
        """fn timed as a span; observe(args, kwargs, result) sees each return."""
        stack, calls, total, self_s, raised = (
            self._stack, self.calls, self.total, self.self_s, self.raised,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                raised[(name, type(e).__name__)] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                calls[name] += 1
                total[name] += dt
                self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return wrapper

    def counter(self, key: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _solve_ivp(self, fn):
        counters = self.counters

        def observe(args, kwargs, sol):  # flow calls solve_ivp(fun, t_span, y0, ...)
            counters["integrations"] += 1
            counters["rhs_evals"] += sol.nfev
            if not sol.success:
                counters["integrations_failed"] += 1
            if len(sol.t):
                counters["integrated_time"] += abs(float(sol.t[-1]) - float(args[1][0]))
            if sol.sol is not None:
                sol.sol = _CountingDense(sol.sol, self)

        return self.span("flow.solve_ivp", fn, observe)

    def _useful(self, kind: str):
        """Flight time a flow caller hands back, for flow.useful_time_ratio."""
        counters = self.counters

        def observe(args, kwargs, out):
            if kind == "hit_section":
                counters["useful_time"] += abs(float(out[1]))
            elif kind == "next_sigma_hit":
                counters["useful_time"] += abs(float(out.time))
            else:  # flow_smooth(F, p, t)
                counters["useful_time"] += abs(float(kwargs["t"] if "t" in kwargs else args[2]))

        return observe

    def _csv_bytes(self, args, kwargs, out):
        self.counters["csv_bytes"] += len(out)

    def _solutions(self, args, kwargs, out):
        self.counters["solutions"] += len(out)

    # -- installation -------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Patch the loaded sigmapoly package; ``uninstall`` restores it."""
        mods = {m: importlib.import_module(f"sigmapoly.{m}") for m in LAYERS}
        observers = {
            "flow.hit_section": self._useful("hit_section"),
            "flow.next_sigma_hit": self._useful("next_sigma_hit"),
            "flow.flow_smooth": self._useful("flow_smooth"),
            "io.diagram_csv": self._csv_bytes,
            "io.curves_csv": self._csv_bytes,
            "io.trajectory_csv": self._csv_bytes,
            "polycycle.find_cycles": self._solutions,
        }
        replace: dict[int, object] = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    key = f"{layer}.{name}"
                    replace[id(obj)] = self.span(key, obj, observers.get(key))
        flow = mods["flow"]
        replace[id(flow.solve_ivp)] = self._solve_ivp(flow.solve_ivp)
        # the same brentq is bound in maps and bifurcation; only the flow
        # module's event location is counted
        event_brentq = self.counter("event_roots", flow.brentq)

        pkg_mods = [m for n, m in sorted(sys.modules.items()) if n == "sigmapoly" or n.startswith("sigmapoly.")]
        for mod in pkg_mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._set(mod, name, replace[id(obj)])
        self._set(flow, "brentq", event_brentq)
        scenarios = mods["bifurcation"].SCENARIOS
        for name, fn in list(scenarios.items()):
            if id(fn) in replace:
                self._undo.append((scenarios, name, fn))
                scenarios[name] = replace[id(fn)]

        Poly2 = mods["poly2"].Poly2
        Germ = mods["maps"].Germ
        Model = mods["polycycle"].SyntheticModel
        self._set(Poly2, "__call__", self.counter("poly2_evals", Poly2.__call__))
        self._set(Germ, "__call__", self.counter("germ_evals", Germ.__call__))
        self._set(Germ, "deriv", self.counter("germ_evals", Germ.deriv))
        self._set(Model, "jacobian", self.counter("jacobians", Model.jacobian))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    # -- reporting ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics accumulated since the last reset."""
        c, calls, total, self_s = self.counters, self.calls, self.total, self.self_s
        integrated = c["integrated_time"]
        starts = calls["polycycle.newton_solve"]
        out = {
            "poly2.evals": c["poly2_evals"],
            "core.lie_poly_calls": calls["core.lie_poly"],
            "core.classify_calls": calls["core.classify_sigma_point"],
            "flow.integrations": c["integrations"],
            "flow.integrations_failed": c["integrations_failed"],
            "flow.rhs_evals": c["rhs_evals"],
            "flow.integrate_s": total["flow.solve_ivp"],
            "flow.integrated_time": integrated,
            "flow.useful_time_ratio": c["useful_time"] / integrated if integrated else 0.0,
            "flow.dense_evals": c["dense_evals"],
            "flow.event_roots": c["event_roots"],
            "flow.hit_section_self_s": self_s["flow.hit_section"],
            "flow.sigma_hit_self_s": self_s["flow.next_sigma_hit"],
            "maps.transition_calls": calls["maps.transition_map"],
            "maps.transition_s": total["maps.transition_map"],
            "maps.mirror_calls": calls["maps.mirror_map"],
            "maps.mirror_s": total["maps.mirror_map"],
            "maps.fit_germ_calls": calls["maps.fit_germ"],
            "maps.fit_germ_s": total["maps.fit_germ"],
            "maps.place_section_s": total["maps.place_section"],
            "maps.sigma_domain_s": total["maps.sigma_domain"],
            "polycycle.newton_starts": starts,
            "polycycle.newton_iters": c["jacobians"],
            **{
                f"polycycle.newton_failed.{r}": self.raised[("polycycle.newton_solve", r)]
                for r in NEWTON_FAILURES
            },
            "polycycle.solutions_per_start": c["solutions"] / starts if starts else 0.0,
            "polycycle.germ_evals": c["germ_evals"],
            "polycycle.newton_s": total["polycycle.newton_solve"],
            "bifurcation.cells": calls["bifurcation.classify_parameter_point"],
            "bifurcation.classify_self_s": self_s["bifurcation.classify_parameter_point"],
            "bifurcation.circle_fit_s": total["bifurcation.circle_unfolding_fit"],
            "io.csv_bytes": c["csv_bytes"],
            "io.write_s": total["io.write_text"] + total["io.write_json"],
            "cli.run_self_s": self_s["cli.run"],
        }
        return {k: float(v) for k, v in out.items()}

    def dump(self) -> dict:
        """Every span aggregate, for the trace file."""
        return {
            "spans": {
                k: {"calls": self.calls[k], "total_s": self.total[k], "self_s": self.self_s[k]}
                for k in sorted(self.calls)
            },
            "raised": {f"{k[0]}:{k[1]}": v for k, v in sorted(self.raised.items())},
            "counters": dict(sorted(self.counters.items())),
        }
