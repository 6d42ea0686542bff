"""The benchmark's three workloads.

Each workload draws its inputs from the seed once, then runs identical
rounds of operations against the public sigmapoly API.  A round records
per-kind operation counts and times; ``check`` compares the outputs of the
rounds with the closed forms in ``oracles`` and returns the failures.

Inputs are stratified: every round has one input in each stratum, jittered
by the seed, so the work per round barely depends on the seed.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import oracles
import speed

TOL = 1e-8


@dataclass
class Round:
    wall: float = 0.0
    ref: float = 0.0
    cpu: float = 0.0
    kinds: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0.0]))
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    out: dict = field(default_factory=dict)

    @contextmanager
    def timed(self):
        """Wall, reference-speed and CPU time of the block: the round's measured part."""
        c0 = time.process_time()
        with speed.Timer() as t:
            yield
        self.cpu = time.process_time() - c0
        self.wall, self.ref = t.wall, t.ref

    def op(self, kind: str, key, fn, *args, **kwargs):
        """Run one timed operation; a raised error counts it as failed."""
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:  # the benchmark reports failures, it does not stop
            result = None
            self.failed += 1
            self.errors.append(f"{kind} {key}: {type(e).__name__}: {e}")
        dt = time.perf_counter() - t0
        self.attempted += 1
        k = self.kinds[kind]
        k[0] += 1
        k[1] += dt
        self.out[key] = result
        return result


def _strata(rng, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal slices of [lo, hi)."""
    w = (hi - lo) / n
    return [float(lo + (k + rng.uniform()) * w) for k in range(n)]


def _rate(rounds: list[Round], kind: str) -> float:
    """Median over rounds of operations of one kind per second."""
    return float(np.median([r.kinds[kind][0] / r.kinds[kind][1] for r in rounds]))


# -- synthetic diagrams ---------------------------------------------------------


def _parse_diagram(text: str) -> list[dict]:
    rows = []
    for line in text.splitlines()[1:]:
        p1, p2, rest = line.split(",", 2)
        label, nc, npoly, nslide, flags = rest.rsplit(",", 4)
        letters: list[str] = []
        if not label.startswith("error:"):
            xpart = label.split("|")[1]
            if "[" in xpart:
                letters = xpart[xpart.index("[") + 1 : -1].split(",")
        rows.append(
            {
                "p": (float(p1), float(p2)),
                "label": label,
                "crossing": int(nc),
                "poly": int(npoly),
                "letters": letters,
            }
        )
    return rows


def _expected_cell(scenario: str, a: float, b: float) -> tuple[int, int, list]:
    """(crossing cycles, polycycles, expected letters) from the oracles."""
    if scenario == "twofold-synthetic":
        cycles, poly = oracles.twofold_cell(a, b)
        dps = [oracles.twofold_dP(x1, x2) for x1, x2 in cycles]
    elif scenario == "cusp-synthetic":
        cycles, poly = oracles.cusp_cell(a, b)
        dps = [oracles.cusp_dP(a, x) for x in cycles]
    else:
        cycles, poly = oracles.foldfold_cell(a, b)
        dps = [oracles.foldfold_dP(a, x) for x in cycles]
    return len(cycles), poly, [oracles.stability_letter(d) for d in dps]


def _expected_curve(scenario: str, name: str, param: float) -> tuple[int, float]:
    """(index of the curve coordinate in the row's (p1, p2), closed-form value)."""
    if scenario == "twofold-synthetic":
        return (0 if name == "gamma1" else 1), oracles.twofold_curves(param)[name]
    if scenario == "cusp-synthetic":
        return 1, oracles.cusp_curves(param)[name]
    return 1, oracles.foldfold_curves(param)[name]


class SyntheticDiagrams:
    """``sigmapoly diagram`` through ``cli.run`` for the three closed-form scenarios.

    Two-fold sweeps run the multistart Newton lattice of ``polycycle``
    (81 starts per cell); cusp and fold-fold sweeps use the closed-form
    classifiers and write larger CSVs.  No flow integration happens here.
    """

    name = "synthetic-diagrams"
    # scenario -> (grid, nominal ranges)
    GRIDS = {
        "twofold-synthetic": ((5, 5), ((-0.2, 0.2), (-0.2, 0.2))),
        "cusp-synthetic": ((51, 51), ((-0.05, 0.05), (-0.25, 0.25))),
        "vi-foldfold-synthetic": ((51, 51), ((-0.15, 0.15), (-0.12, 0.12))),
    }
    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        self.csvs: dict[str, tuple[bytes, bytes]] = {}  # first round's CSVs
        self.jobs = []
        for scenario, ((n1, n2), ranges) in self.GRIDS.items():
            # each range end shrinks by a seeded 0-15%, so grids differ per seed
            # but never sit exactly on the codimension-two point
            r = [tuple(float(v * (1.0 - 0.15 * rng.uniform())) for v in pair) for pair in ranges]
            spec = f"{r[0][0]!r}:{r[0][1]!r},{r[1][0]!r}:{r[1][1]!r}"
            self.jobs.append((scenario, n1, n2, spec))

    def prepare(self) -> None:
        pass

    def run_round(self) -> Round:
        from sigmapoly import cli

        rnd = Round()
        with rnd.timed():
            codes = {}
            for scenario, n1, n2, spec in self.jobs:
                kind = "twofold" if scenario.startswith("twofold") else "closed_form"
                path = os.path.join(self.out_dir, scenario)
                argv = ["diagram", "--scenario", scenario, "--grid", f"{n1}x{n2}",
                        f"--ranges={spec}", "--out", path]
                t1 = time.perf_counter()
                codes[scenario] = cli.run(argv)
                rnd.kinds[kind][0] += n1 * n2
                rnd.kinds[kind][1] += time.perf_counter() - t1
        for scenario, n1, n2, _ in self.jobs:
            rnd.attempted += n1 * n2
            path = os.path.join(self.out_dir, scenario)
            if codes[scenario] != 0:
                rnd.failed += n1 * n2
                rnd.errors.append(f"{scenario}: exit code {codes[scenario]}")
                continue
            with open(os.path.join(path, "diagram.csv"), "rb") as f:
                diagram = f.read()
            with open(os.path.join(path, "curves.csv"), "rb") as f:
                curves = f.read()
            errors = diagram.count(b",error:")
            if errors:
                rnd.failed += errors
                rnd.errors.append(f"{scenario}: {errors} error cells")
            # later rounds keep a digest only, so memory does not grow with
            # the number of rounds
            self.csvs.setdefault(scenario, (diagram, curves))
            rnd.out[scenario] = hashlib.sha256(diagram + b"\0" + curves).digest()
        return rnd

    def rates(self, rounds: list[Round]) -> dict:
        return {
            "twofold_cells_per_s": (_rate(rounds, "twofold"), "cells/s"),
            "closed_form_cells_per_s": (_rate(rounds, "closed_form"), "cells/s"),
        }

    def check(self, rounds: list[Round]) -> list[str]:
        bad: list[str] = []
        for scenario, n1, n2, _ in self.jobs:
            if scenario not in self.csvs:
                continue
            if len({r.out.get(scenario) for r in rounds}) != 1:
                bad.append(f"{scenario}: rerun CSVs differ")
            diagram, curves = self.csvs[scenario]
            rows = _parse_diagram(diagram.decode())
            if len(rows) != n1 * n2:
                bad.append(f"{scenario}: {len(rows)} cells, expected {n1 * n2}")
            for row in rows:
                if row["label"].startswith("error:"):
                    continue
                nc, npoly, letters = _expected_cell(scenario, *row["p"])
                if (row["crossing"], row["poly"]) != (nc, npoly) or len(row["letters"]) != nc:
                    bad.append(f"{scenario} {row['p']}: {row['label']} vs {nc} cycles, {npoly} polycycles")
                    continue
                for got, want in zip(row["letters"], letters):
                    if want is not None and got != want:
                        bad.append(f"{scenario} {row['p']}: stability {row['letters']} vs {letters}")
            for line in curves.decode().splitlines()[1:]:
                name, param, p1, p2 = line.split(",")
                idx, want = _expected_curve(scenario, name, float(param))
                got = (float(p1), float(p2))[idx]
                if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                    bad.append(f"{scenario} curve {name}({param}) = {got} vs {want}")
        return bad[:20]


# -- closed-form germs -------------------------------------------------------


class ClosedFormGerms:
    """Transition, mirror and transfer germs on fields with closed-form orbits.

    Every map is one short flight through ``flow``'s chunked event location:
    sample scanning, brentq polishing and restarts from t = 0.  ``polycycle``
    is not used.
    """

    name = "closed-form-germs"

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        self.xs_T = _strata(rng, -0.7, 0.7, 12)
        # Y = (1, x - c): start d to the left or right of the fold at c
        self.lin = [
            (c, c + s * d)
            for c, d, s in zip(
                _strata(rng, -0.4, 0.4, 6), _strata(rng, 0.1, 0.8, 6), (1, -1, 1, -1, 1, -1)
            )
        ]
        # X = (1, x^3 - x): one start between each pair of contacts -1, 0, 1
        # and beyond them, kept 0.1 away from the contacts
        self.xs_cubic = [
            x for lo, hi in ((-1.4, -1.1), (-0.9, -0.1), (0.1, 0.9), (1.1, 1.4))
            for x in _strata(rng, lo, hi, 2 if hi - lo > 0.5 else 1)
        ]
        # larger slopes send the backward Y orbits past the end of tau_s
        self.b_regular = float(rng.uniform(0.5, 1.5))
        self.xs_eii = _strata(rng, -0.045, -0.005, 5)
        self.sd_distance = float(rng.uniform(0.25, 0.35))
        self.sd_window = float(rng.uniform(0.15, 0.25))
        self.excl_half = float(rng.uniform(1.5, 2.5))

    def prepare(self) -> None:
        from sigmapoly.core import FilippovSystem, PolyField, SwitchingFunction
        from sigmapoly.flow import Section
        from sigmapoly.maps import place_section
        from sigmapoly.poly2 import poly_const, poly_x, poly_y

        x, one = poly_x(), poly_const(1.0)
        self.h = SwitchingFunction(poly_y())
        self.fold = PolyField(one, x)
        self.pitchfork = PolyField(one, x * x * x - x)
        self.tau_x1 = Section(anchor=(1.0, 0.0), direction=(0.0, 1.0), halfwidth=2.0)
        self.mirror_fields = [PolyField(one, x - poly_const(c)) for c, _ in self.lin]
        self.Z_regular = FilippovSystem(self.fold, PolyField(one, poly_const(self.b_regular)), self.h)
        self.Z_vi = FilippovSystem(self.fold, PolyField(one, x), self.h)
        self.tau_u = place_section(self.fold, (0.0, 0.0), distance=0.1, direction="forward")
        self.tau_s = place_section(self.fold, (0.0, 0.0), distance=0.1, direction="backward")

    def run_round(self) -> Round:
        from sigmapoly.maps import (
            SectionConfig, exclusion_set, mirror_map, place_section, sigma_domain,
            transfer_pair, transition_map,
        )

        rnd = Round()
        h, fold = self.h, self.fold
        with rnd.timed():
            for x in self.xs_T:
                rnd.op("transition", ("T", x), transition_map, fold, h, self.tau_x1, x)
            for F, (c, x) in zip(self.mirror_fields, self.lin):
                r = rnd.op("mirror", ("rho", c, x), mirror_map, F, h, x, side=-1)
                rnd.op("mirror", ("rho2", c, x), mirror_map, F, h, x if r is None else r, side=-1)
            for x in self.xs_cubic:
                rnd.op("mirror", ("cubic", x), mirror_map, self.pitchfork, h, x, side=-1)
            rnd.op("transfer", "O", transfer_pair, self.Z_regular, (0.0, 0.0), SectionConfig(halfwidth=0.3))
            rnd.op("transfer", "EI", transfer_pair, self.Z_regular, (0.0, 0.0), SectionConfig(same_side=True))
            rnd.op("transfer", "EII", transfer_pair, self.Z_vi, (0.0, 0.0),
                   SectionConfig(tau_u=self.tau_u, tau_s=self.tau_s))
            for x in self.xs_eii:
                rho = rnd.op("mirror", ("eii-rho", x), mirror_map, self.Z_vi.Y, h, x, side=-1)
                rnd.op("transition", ("eii-T", x), transition_map, fold, h, self.tau_u,
                       0.0 if rho is None else rho)
            tau = rnd.op("sigma_domain", "section", place_section, fold, (0.0, 0.0),
                         distance=self.sd_distance, direction="forward")
            if tau is not None:
                rnd.op("sigma_domain", "domain", sigma_domain, fold, h, (0.0, 0.0), tau,
                       self.sd_window, side=1)
            rnd.op("exclusion", "fold", exclusion_set, fold, h,
                   (-self.excl_half, self.excl_half), side=-1)
        return rnd

    def rates(self, rounds: list[Round]) -> dict:
        return {
            "transition_evals_per_s": (_rate(rounds, "transition"), "1/s"),
            "mirror_evals_per_s": (_rate(rounds, "mirror"), "1/s"),
            "transfer_pairs_per_s": (_rate(rounds, "transfer"), "1/s"),
        }

    def check(self, rounds: list[Round]) -> list[str]:
        bad: list[str] = []
        out = rounds[0].out

        def close(key, got, want, tol=TOL):
            if got is None or not abs(got - want) <= tol:
                bad.append(f"{key}: {got} vs {want}")

        for x in self.xs_T:
            close(("T", x), out[("T", x)], oracles.fold_transition(x))
        for c, x in self.lin:
            close(("rho", c, x), out[("rho", c, x)], oracles.linear_mirror(x, c))
            close(("rho2", c, x), out[("rho2", c, x)], x)
        for x in self.xs_cubic:
            r = out[("cubic", x)]
            close(("cubic", x), r, oracles.pitchfork_mirror(x))
            if r is not None:
                close(("cubic level", x), oracles.pitchfork_level(r), oracles.pitchfork_level(x))
        o, ei, eii = out["O"], out["EI"], out["EII"]
        if o is None or o.case_tag != "O" or not abs(o.Tu.kappa + 0.5) <= 0.01:
            bad.append(f"case O: kappa {None if o is None else o.Tu.kappa} not within 2% of -1/2")
        if ei is None or ei.case_tag != "EI" or ei.Tu.degree != 1 or ei.Ts.degree != 1 \
                or ei.Tu.coeffs[1] == 0.0 or ei.Ts.coeffs[1] == 0.0:
            bad.append("case E-I: expected two linear germs with nonzero slopes")
        if eii is None or eii.case_tag != "EII":
            bad.append("case E-II: no pair")
        else:
            sgn = -1.0 if eii.Tu.chart.get("flipped") else 1.0
            for x in self.xs_eii:
                close(("eii-rho", x), out[("eii-rho", x)], -x)
                close(("Tu = T+ o rho", x), sgn * eii.Tu(x), out[("eii-T", x)])
        dom, tau = out.get("domain"), out["section"]
        if dom is None or len(dom) != 1:
            bad.append(f"sigma_domain: {dom}, expected one interval")
        else:
            close("sigma_domain lo", dom[0][0], 0.0, 1e-6)
            close("sigma_domain hi", dom[0][1], _fold_domain_end(tau, self.sd_window), 1e-6)
        # the fold at 0 is visible from below, and its orbit meets Sigma nowhere else
        ex = out["fold"]
        if ex is None or len(ex) != 1 or abs(ex[0]) > 1e-9:
            bad.append(f"exclusion set {ex}, expected [0]")
        return bad[:20]


def _fold_hits(tau, x: float) -> bool:
    """Does the X = (1, x) orbit from (x, 0) reach the section segment?

    Orbits are y = (s^2 - x^2)/2; meeting the section line is a quadratic
    in s, and the first forward meeting inside the segment is the hit.
    """
    (ax, ay), (dx, dy) = tau.anchor, tau.direction
    nx, ny = -dy, dx
    roots = oracles.real_roots(
        [-ax * nx - (0.5 * x * x + ay) * ny, nx, 0.5 * ny], x + 1e-12, x + 100.0
    )
    for s in roots:
        coord = (s - ax) * dx + (0.5 * (s * s - x * x) - ay) * dy
        if abs(coord) <= tau.halfwidth:
            return True
    return False


def _fold_domain_end(tau, window: float) -> float:
    """Right end of the fold field's Sigma domain on [0, window]."""
    xs = np.linspace(0.0, window, 2001)
    ok = [_fold_hits(tau, float(x)) for x in xs]
    if all(ok):
        return window
    k = ok.index(False)
    good, bad = float(xs[k - 1]), float(xs[k])
    while bad - good > 1e-13:
        mid = 0.5 * (good + bad)
        if _fold_hits(tau, mid):
            good = mid
        else:
            bad = mid
    return good


# -- circle ODE ---------------------------------------------------------------


class CircleODE:
    """The VI fold-fold circle field: a cell, laps, a mirror and a saddle-node.

    Cells fit germs from full forward laps and short backward flights that
    approach the finite-time blow-up outside the circle.  Points stay in
    alpha_p in (0, 0.1], beta_p in [-0.025, 0.025]: for alpha_p < 0 the fitted
    unfolding is wrong and at beta_p = +-0.05 or near (-0.1, -0.025) cells
    fail (see CHANGES.md).
    """

    name = "circle-ode"

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        # one cell below the tangency at beta_p = 0, where the flow has one
        # attracting crossing cycle.  A cell above it costs about twice as
        # much (its backward flights retry once more per sample towards the
        # blow-up) and would make the round's cost depend on the seed's side.
        self.cell = (float(rng.uniform(0.03, 0.07)), float(rng.uniform(-0.02, -0.005)))
        self.lap = float(rng.uniform(0.7, 1.3))
        self.back = float(rng.uniform(1.004, 1.011))
        self.mirror_x = float(self.cell[0] - rng.uniform(0.05, 0.3))
        # the saddle-node is located by brentq, whose 5 to 8 iterations change
        # with alpha_p; a fixed alpha_p keeps the round's cost independent of
        # the seed
        self.sn_alpha = 0.05

    def prepare(self) -> None:
        from sigmapoly.bifurcation import SCENARIOS

        self.family = SCENARIOS["vi-foldfold-circle"]()

    def _sections(self, beta_p: float):
        from sigmapoly.flow import Section

        c = 1.0 + beta_p
        top = Section(anchor=(0.0, c + 1.0), direction=(0.0, 1.0), halfwidth=0.5)
        right = Section(anchor=(1.0, c), direction=(1.0, 0.0), halfwidth=0.9)
        return top, right

    def run_round(self) -> Round:
        from sigmapoly.bifurcation import circle_saddle_node, circle_system, classify_parameter_point
        from sigmapoly.flow import hit_section
        from sigmapoly.maps import mirror_map

        a, b = self.cell
        c = 1.0 + b
        rnd = Round()
        with rnd.timed():
            rnd.op("cell", "cell", classify_parameter_point, self.family, self.cell)
            Z = circle_system(a, b)
            top, right = self._sections(b)
            rnd.op("lap", "lap", hit_section, Z.X, (0.0, c + self.lap), top, "forward")
            rnd.op("lap", "back", hit_section, Z.X, (0.0, c + self.back), right, "backward")
            rnd.op("mirror", "rho", mirror_map, Z.Y, Z.h, self.mirror_x, side=-1)
            rnd.op("saddle_node", "sn", circle_saddle_node, self.sn_alpha)
        cell = rnd.out["cell"]
        if cell is not None and cell.error:
            rnd.failed += 1
            rnd.errors.append(f"cell {self.cell}: {cell.error}")
        return rnd

    def rates(self, rounds: list[Round]) -> dict:
        return {
            "circle_cells_per_s": (_rate(rounds, "cell"), "cells/s"),
            "saddle_node_s": (float(np.median([r.kinds["saddle_node"][1] for r in rounds])), "s"),
        }

    def check(self, rounds: list[Round]) -> list[str]:
        bad: list[str] = []
        out = rounds[0].out
        a, b = self.cell
        flow = oracles.CircleFlow(b)
        lap = out["lap"]
        want = flow.radius_after(self.lap, 2.0 * math.pi) - 1.0
        if lap is None or abs(lap[0][1] - (1.0 + b) - 1.0 - want) > 1e-10:
            bad.append(f"lap from r0 = {self.lap} at beta_p = {b}: {lap} vs {want}")
        back = out["back"]
        want = flow.radius_after(self.back, -0.5 * math.pi) - 1.0
        if back is None or abs(back[0][0] - 1.0 - want) > 1e-10:
            bad.append(f"backward flight from r0 = {self.back}: {back} vs {want}")
        rho = out["rho"]
        if rho is None or abs(rho - oracles.linear_mirror(self.mirror_x, a)) > TOL:
            bad.append(f"circle mirror at {self.mirror_x}: {rho}")
        cell = out["cell"]
        want = oracles.circle_crossing_cycles(a, b)
        if cell is not None and not cell.error and len(cell.crossing_cycles) != want:
            bad.append(f"cell ({a}, {b}): {cell.label} vs {want} crossing cycles")
        sn = out["sn"]
        if sn is None:
            bad.append("no saddle-node")
        else:
            ratio = sn["beta"] / sn["alpha"] ** 2
            want = oracles.saddle_node_ratio(sn["kappa"], sn["dtilde"])
            if not abs(ratio - want) <= 0.1 * abs(want):
                bad.append(f"saddle-node beta1/alpha^2 = {ratio} vs {want}")
        return bad[:20]


WORKLOADS = {w.name: w for w in (SyntheticDiagrams, ClosedFormGerms, CircleODE)}

