#!/usr/bin/env python3
"""Print the sha256 of every artifact that a refactor must leave byte-identical.

The artifacts are:
- diagram.csv and curves.csv of `sigmapoly diagram` for the three synthetic
  scenarios at 11x11, the two-fold scenario at 41x41 and the cusp and
  fold-fold scenarios at 51x51, and of the non-square grids cusp 7x13,
  two-fold 9x5 and fold-fold 13x7, where a swapped n1 and n2 or a slip in
  the row order of the sweep would show;
- diagram.csv and curves.csv of `diagram --scenario vi-foldfold-circle --grid 5x5`;
- the `sigmapoly flow --tmax 6 --dt-out 0.01` CSVs of the two systems of
  tests/test_cli.py (X = (1, x), h = y, Y = (1, -1) or (1, 1)) from
  (-1, 0.48), whose orbit lands on Sigma at x = -0.2, and of the crossing
  of two straight lines (X = (1, -1), Y = (1, -0.9), h = y) from (-1, 0.5);
- the stdout of scripts/circle_experiment.py;
- repr(circle_saddle_node(0.05)) and repr(circle_saddle_node(0.1)), where a
  change to the saddle-node search's starts or stop rule would show;
- repr of the sections place_section(X, (0, 0), 0.1) puts forward and
  backward on the fold field X = (1, x);
- repr of the O (halfwidth 0.3), E-I (same_side) and E-II (the two
  sections above) transfer pairs at the origin of X = (1, x), h = y, with
  Y = (1, 1) for O and E-I and Y = (1, x) for E-II, as the closed-form-germs
  benchmark workload builds them;
- the labels of the synthetic cells on each closed-form curve and at
  +-CURVE_TOL/2 and +-2 CURVE_TOL from it, at five parameter values per
  scenario (the grid diagrams never land on a curve's band edges);
- the stdout of `sigmapoly classify` at the origin for one system of each
  Sigma class (h = y; crossing X = Y = (1, 1), stable sliding X = (1, -1),
  Y = (1, 1), unstable sliding the two swapped, tangency X = (1, x),
  Y = (1, 1), fold-fold VI X = Y = (1, x), equilibrium on Sigma X = (x, x),
  Y = (1, 1));
- the stdout of `sigmapoly germ --section 1,0,0,1,2 --degree 2` on the
  tests/test_cli.py system (X = (1, x), Y = (1, -1), h = y);
- the stdout of `sigmapoly polycycle-solve` on
  normal_form_model(1.0, -0.25, 2, lam=(0.01,));
- repr of the params and the full crossing-cycle reports (point, residual,
  dP, stability, saddle_node) of every cell of the cusp and fold-fold 51x51
  and two-fold 41x41 sweeps, which the diagram CSVs print only in part, and
  on a line of their own those of the three non-square sweeps;
- repr of every RegionReport of the circle 5x5 sweep (params, item, full
  crossing-cycle reports, flags, error), which its diagram CSV prints
  only as labels;
- repr of (kind, time, point) of every event of three scans: the five
  starts of tests/test_flow.py::test_batched_sigma_scan_matches_lone_flights
  (X = (1, x), h = y, a Sigma crossing, a turn-found dip, a start on Sigma
  and the section x = 0.7), the 16 starts of the circle's Sigma return at
  (alpha_p, beta_p) = (0.05, -0.01), and the touch of X = (1, x) from
  (-1, 1/2) at the visible fold; a start that meets nothing is its error;
- repr of (row, x, m) of one `root_cluster_rows` batch that reaches the
  cluster rule (the sweeps reach it on only a few fold-fold rows): the hand
  rows and split rows of tests/test_polycycle.py and 300 seeded rows with a
  perturbed double, triple or quadruple root.

It runs against the src/ of its own checkout, so comparing two trees means
running each tree's copy and diffing the outputs.  The whole set takes about
ten seconds on two cores.

Usage: python3 scripts/artifact_digests.py [--text]

With --text it prints each artifact's text, under a line "== <name>",
instead of its sha256, so that two trees' outputs can be diffed number by
number.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from sigmapoly.bifurcation import (  # noqa: E402
    CURVE_TOL,
    SCENARIOS,
    circle_saddle_node,
    circle_system,
    circle_visible_fold,
    classify_parameter_point,
    scenario_curves,
    sweep_diagram,
)
from sigmapoly.cli import run  # noqa: E402
from sigmapoly.core import FilippovSystem, PolyField, SwitchingFunction  # noqa: E402
from sigmapoly.flow import SigmaHit, next_sigma_hits, vertical_section  # noqa: E402
from sigmapoly.io import dumps, model_to_dict  # noqa: E402
from sigmapoly.maps import SectionConfig, place_section, root_cluster_rows, transfer_pair  # noqa: E402
from sigmapoly.poly2 import poly_const, poly_x, poly_y  # noqa: E402
from sigmapoly.polycycle import normal_form_model  # noqa: E402

# (scenario, n1, n2) of the sweeps whose crossing-cycle reports are hashed in full
REPORT_SWEEPS = [("cusp-synthetic", 51, 51), ("vi-foldfold-synthetic", 51, 51), ("twofold-synthetic", 41, 41)]
NON_SQUARE_SWEEPS = [("cusp-synthetic", 7, 13), ("twofold-synthetic", 9, 5), ("vi-foldfold-synthetic", 13, 7)]
CIRCLE_SWEEP = ("vi-foldfold-circle", 5, 5)

DIAGRAMS = [
    ("twofold-synthetic", "11x11"),
    ("cusp-synthetic", "11x11"),
    ("vi-foldfold-synthetic", "11x11"),
    ("twofold-synthetic", "41x41"),
    ("cusp-synthetic", "51x51"),
    ("vi-foldfold-synthetic", "51x51"),
    ("vi-foldfold-circle", "5x5"),
    *((scenario, f"{n1}x{n2}") for scenario, n1, n2 in NON_SQUARE_SWEEPS),
]
FOLD_X = {"fx": [[0, 0, 1.0]], "fy": [[1, 0, 1.0]]}


def _line(c: float) -> dict:
    """The constant field (1, c)."""
    return {"fx": [[0, 0, 1.0]], "fy": [[0, 0, c]]}


# (name, X, Y, start) of the `sigmapoly flow` systems, all with h = y
FLOWS = [
    ("Y=(1,-1)", FOLD_X, _line(-1.0), "-1,0.48"),
    ("Y=(1,1)", FOLD_X, _line(1.0), "-1,0.48"),
    ("X=(1,-1) Y=(1,-0.9)", _line(-1.0), _line(-0.9), "-1,0.5"),
]

# (class, X, Y) of the `sigmapoly classify` systems, all with h = y, classified at the origin
CLASSIFY = [
    ("crossing", _line(1.0), _line(1.0)),
    ("stable-sliding", _line(-1.0), _line(1.0)),
    ("unstable-sliding", _line(1.0), _line(-1.0)),
    ("tangency", FOLD_X, _line(1.0)),
    ("fold-fold", FOLD_X, FOLD_X),
    ("equilibrium-on-sigma", {"fx": [[1, 0, 1.0]], "fy": [[1, 0, 1.0]]}, _line(1.0)),
]

# rows of the root-pass batch: the return polynomials of the hand models of
# tests/test_polycycle.py (a double root, a triple root, a complex pair, a
# degree drop, a linear row, two legs, two simple roots), the rows of its
# all-zero-row test, and its rows whose clusters split
HAND_ROWS = [
    [0.01, 0.2, 1.0],
    [0.001, 0.03, 0.3, 1.0],
    [1.0, -1.0, 1.0],
    [0.01, -1.5, 1.0, 0.0],
    [0.01, 0.25],
    [0.3125, -1.0, 0.5, 0.0, 1.0],
    [0.01, 0.25, 1.0],
    [2.0, -3.0, 1.0],
    [0.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 1.0],
    [0.0],
    [0.011044135782126568, 0.13627267917447117, 0.6305464995992149, 1.296710195943397, 0.9999999999987916],
    [0.9881324837389505, 3.964344374076687, 5.964291191303342, 3.988079300890995, 0.9999999999997303],
    [-28.00061872753324, 51.04429422244836, -31.017409508238796, 6.2826459989767285],
    [-1.4595962911022347, 7.911111719825988, -14.292922187934922, 8.607623972679692],
]

TEXT = "--text" in sys.argv[1:]


def _emit(data: bytes, name: str) -> None:
    """Print the sha256 of an artifact and its name, or with --text its name and text."""
    if TEXT:
        print(f"== {name}\n{data.decode()}")
    else:
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")


def _emit_file(path: str, name: str) -> None:
    with open(path, "rb") as f:
        _emit(f.read(), name)


def _write_system(path: str, X: dict, Y: dict) -> str:
    """Write the system (X, Y, h = y) to path as JSON and return path."""
    with open(path, "w") as f:
        json.dump({"X": X, "Y": Y, "h": [[0, 1, 1.0]]}, f)
    return path


def _stdout(argv) -> bytes:
    """What `sigmapoly argv` writes to stdout; the command must succeed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} failed")
    return buf.getvalue().encode()


# (scenario, curve parameters); a cell moves off its curve along the curve's value:
# cusp, lambda1 -> Vbar, Ibar, Abar in beta; two-fold, b -> gamma1 in beta1 at beta2 = b
# and gamma2 in beta2 at beta1 = -b; fold-fold, alpha -> beta1..beta5 in beta
BAND_PARAMS = [
    ("cusp-synthetic", (2e-9, 1e-5, 0.01, 0.03, 0.05)),
    ("twofold-synthetic", (2e-9, 1e-5, 0.01, 0.1, 0.2)),
    ("vi-foldfold-synthetic", (-0.1, -1e-5, 0.0, 1e-5, 0.1)),
]
BAND_OFFSETS = (0.0, 0.5 * CURVE_TOL, -0.5 * CURVE_TOL, 2.0 * CURVE_TOL, -2.0 * CURVE_TOL)


def _band_cells():
    """(scenario, (p1, p2)) of every cell on and near each synthetic curve."""
    for scenario, params in BAND_PARAMS:
        fam = SCENARIOS[scenario]()
        for p in params:
            if scenario == "twofold-synthetic":
                on = [(scenario_curves(fam, p)["gamma1"], p, 0), (-p, scenario_curves(fam, -p)["gamma2"], 1)]
            else:
                on = [(p, v, 1) for _, v in sorted(scenario_curves(fam, p).values.items())]
            for *point, axis in on:
                for off in BAND_OFFSETS:
                    cell = list(point)
                    cell[axis] += off
                    yield scenario, tuple(cell)


def _germs():
    """(name, object) of the fold field's sections and its O, E-I and E-II transfer pairs."""
    x, one, h = poly_x(), poly_const(1.0), SwitchingFunction(poly_y())
    fold = PolyField(one, x)
    tau = {d: place_section(fold, (0.0, 0.0), 0.1, d) for d in ("forward", "backward")}
    regular = FilippovSystem(fold, PolyField(one, one), h)
    yield from ((f"place_section {d}", sec) for d, sec in tau.items())
    yield "transfer_pair O", transfer_pair(regular, (0.0, 0.0), SectionConfig(halfwidth=0.3))
    yield "transfer_pair E-I", transfer_pair(regular, (0.0, 0.0), SectionConfig(same_side=True))
    cfg = SectionConfig(tau_u=tau["forward"], tau_s=tau["backward"])
    yield "transfer_pair E-II", transfer_pair(FilippovSystem(fold, fold, h), (0.0, 0.0), cfg)


def _events():
    """(kind, time, point) of every event of the fixed scans, or the error of a start that meets nothing."""
    fold, h = PolyField(poly_const(1.0), poly_x()), SwitchingFunction(poly_y())
    x0 = -74.5 * 4 / 599
    batch = [(x0, x0 * x0 / 2 - 1e-6), (-0.3, 0.0), (0.2, 0.1), (-1.0, 0.2), (0.3, 0.0)]
    alpha_p, beta_p = 0.05, -0.01
    Z = circle_system(alpha_p, beta_p)
    f = circle_visible_fold(Z)
    xs = min(f, 2.0 * alpha_p - f) - 0.5 * 10.0 ** (-6.0 * np.arange(16) / 15.0)
    scans = [
        next_sigma_hits(fold, batch, h, "forward", include_touch=True, section=vertical_section(0.7)),
        next_sigma_hits(Z.X, [(2.0 * alpha_p - x, 0.0) for x in xs], Z.h, tmax=2.0 * np.pi + 0.5),
        next_sigma_hits(fold, [(-1.0, 0.5)], h, "forward", tmax=2.0, include_touch=True),
    ]
    for hits in scans:
        for hit in hits:
            yield (hit.kind, hit.time, tuple(hit.point.tolist())) if isinstance(hit, SigmaHit) else repr(hit)


def _reports(sweeps) -> bytes:
    """repr of the params and full crossing-cycle reports of every cell of the sweeps, a line each."""
    return "\n".join(
        repr((cell.params, [(c.point, c.residual, c.dP, c.stability, c.saddle_node) for c in cell.crossing_cycles]))
        for scenario, n1, n2 in sweeps
        for cell in sweep_diagram(SCENARIOS[scenario](), n1, n2).cells
    ).encode()


def _root_rows() -> list[list[float]]:
    """HAND_ROWS and 300 seeded rows with an m-fold root, m = 2, 3, 4, and one simple root
    or none, each coefficient perturbed by a relative 1e-15 to 1e-10; every row is
    zero-padded to the widest one's width, as root_cluster_rows takes them."""
    rng = np.random.default_rng(28)
    rows = [list(r) for r in HAND_ROWS]
    for k in range(300):
        roots = [rng.uniform(-1.0, 1.0)] * (2 + k % 3) + list(rng.uniform(-2.0, 2.0, k % 2))
        c = np.polynomial.polynomial.polyfromroots(roots)
        rows.append((c * (1.0 + rng.normal(size=len(c)) * 10.0 ** rng.uniform(-15.0, -10.0))).tolist())
    width = max(map(len, rows))
    return [r + [0.0] * (width - len(r)) for r in rows]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for scenario, grid in DIAGRAMS:
            out = os.path.join(tmp, f"{scenario}-{grid}")
            if run(["diagram", "--scenario", scenario, "--grid", grid, "--out", out]) != 0:
                raise SystemExit(f"diagram {scenario} {grid} failed")
            for name in ("diagram.csv", "curves.csv"):
                _emit_file(os.path.join(out, name), f"diagram {scenario} {grid} {name}")
        for k, (name, X, Y, start) in enumerate(FLOWS):
            system = _write_system(os.path.join(tmp, f"sys{k}.json"), X, Y)
            out = os.path.join(tmp, f"traj{k}.csv")
            argv = ["flow", "--system", system, f"--point={start}", "--tmax", "6", "--dt-out", "0.01"]
            if run(argv + ["--out", out]) != 0:
                raise SystemExit(f"flow with {name} failed")
            _emit_file(out, f"flow {name} trajectory.csv")
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "circle_experiment.py")],
        capture_output=True, check=True,
    )
    _emit(res.stdout, "scripts/circle_experiment.py stdout")
    for alpha_p in (0.05, 0.1):
        _emit(repr(circle_saddle_node(alpha_p)).encode(), f"repr(circle_saddle_node({alpha_p}))")
    for name, obj in _germs():
        _emit(repr(obj).encode(), f"repr({name})")
    labels = [classify_parameter_point(SCENARIOS[sc](), cell).label for sc, cell in _band_cells()]
    joined = "\n".join(labels).encode()
    _emit(joined, f"labels of {len(labels)} synthetic cells on and near the curves")
    with tempfile.TemporaryDirectory() as tmp:
        for name, X, Y in CLASSIFY:
            system = _write_system(os.path.join(tmp, f"{name}.json"), X, Y)
            _emit(_stdout(["classify", "--system", system, "--point", "0,0"]), f"classify {name} stdout")
        system = _write_system(os.path.join(tmp, "fold.json"), FOLD_X, _line(-1.0))
        argv = ["germ", "--system", system, "--section", "1,0,0,1,2", "--degree", "2"]
        _emit(_stdout(argv), "germ X=(1,x) section 1,0,0,1,2 degree 2 stdout")
        model = os.path.join(tmp, "model.json")
        with open(model, "w") as f:
            f.write(dumps(model_to_dict(normal_form_model(1.0, -0.25, 2, lam=(0.01,)))))
        _emit(_stdout(["polycycle-solve", "--model", model]), "polycycle-solve normal_form_model stdout")
    _emit(_reports(REPORT_SWEEPS), "crossing-cycle reports of the cusp, fold-fold and two-fold sweeps")
    _emit(_reports(NON_SQUARE_SWEEPS), "crossing-cycle reports of the non-square cusp, two-fold and fold-fold sweeps")
    scenario, n1, n2 = CIRCLE_SWEEP
    circle = "\n".join(repr(cell) for cell in sweep_diagram(SCENARIOS[scenario](), n1, n2).cells).encode()
    _emit(circle, f"reports of the circle {n1}x{n2} sweep")
    events = "\n".join(repr(e) for e in _events()).encode()
    _emit(events, "events of the batched Sigma scan, the circle return at (0.05, -0.01) and the fold touch")
    rows = _root_rows()
    roots = repr(list(zip(*(a.tolist() for a in root_cluster_rows(rows))))).encode()
    _emit(roots, f"root_cluster_rows of {len(rows)} hand, split and perturbed multiple-root rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
