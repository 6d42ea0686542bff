#!/usr/bin/env python3
"""Print the sha256 of every artifact that a refactor must leave byte-identical.

The artifacts are:
- diagram.csv and curves.csv of `sigmapoly diagram` for the three synthetic
  scenarios at 11x11, the two-fold scenario at 41x41 and the cusp and
  fold-fold scenarios at 51x51;
- diagram.csv and curves.csv of `diagram --scenario vi-foldfold-circle --grid 5x5`;
- the `sigmapoly flow --point=-1,0.5 --tmax 6 --dt-out 0.01` CSVs of the two
  systems of tests/test_cli.py (X = (1, x), h = y, Y = (1, -1) or (1, 1))
  and of the crossing of two straight lines (X = (1, -1), Y = (1, -0.9),
  h = y);
- the stdout of scripts/circle_experiment.py;
- repr(circle_saddle_node(0.05));
- repr of the sections place_section(X, (0, 0), 0.1) puts forward and
  backward on the fold field X = (1, x);
- repr of the O (halfwidth 0.3), E-I (same_side) and E-II (the two
  sections above) transfer pairs at the origin of X = (1, x), h = y, with
  Y = (1, 1) for O and E-I and Y = (1, x) for E-II, as the closed-form-germs
  benchmark workload builds them.

It runs against the src/ of its own checkout, so comparing two trees means
running each tree's copy and diffing the outputs.  The whole set takes about
ten seconds on two cores.

Usage: python3 scripts/artifact_digests.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from sigmapoly.bifurcation import circle_saddle_node  # noqa: E402
from sigmapoly.cli import run  # noqa: E402
from sigmapoly.core import FilippovSystem, PolyField, SwitchingFunction  # noqa: E402
from sigmapoly.maps import SectionConfig, place_section, transfer_pair  # noqa: E402
from sigmapoly.poly2 import poly_const, poly_x, poly_y  # noqa: E402

DIAGRAMS = [
    ("twofold-synthetic", "11x11"),
    ("cusp-synthetic", "11x11"),
    ("vi-foldfold-synthetic", "11x11"),
    ("twofold-synthetic", "41x41"),
    ("cusp-synthetic", "51x51"),
    ("vi-foldfold-synthetic", "51x51"),
    ("vi-foldfold-circle", "5x5"),
]
FOLD_X = {"fx": [[0, 0, 1.0]], "fy": [[1, 0, 1.0]]}


def _line(c: float) -> dict:
    """The constant field (1, c)."""
    return {"fx": [[0, 0, 1.0]], "fy": [[0, 0, c]]}


# (name, X, Y) of the `sigmapoly flow` systems, all with h = y
FLOWS = [
    ("Y=(1,-1)", FOLD_X, _line(-1.0)),
    ("Y=(1,1)", FOLD_X, _line(1.0)),
    ("X=(1,-1) Y=(1,-0.9)", _line(-1.0), _line(-0.9)),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as f:
        return _sha(f.read())


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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for scenario, grid in DIAGRAMS:
            out = os.path.join(tmp, f"{scenario}-{grid}")
            if run(["diagram", "--scenario", scenario, "--grid", grid, "--out", out]) != 0:
                raise SystemExit(f"diagram {scenario} {grid} failed")
            for name in ("diagram.csv", "curves.csv"):
                print(f"{_file_sha(os.path.join(out, name))}  diagram {scenario} {grid} {name}")
        for k, (name, X, Y) in enumerate(FLOWS):
            system = os.path.join(tmp, f"sys{k}.json")
            with open(system, "w") as f:
                json.dump({"X": X, "Y": Y, "h": [[0, 1, 1.0]]}, f)
            out = os.path.join(tmp, f"traj{k}.csv")
            argv = ["flow", "--system", system, "--point=-1,0.5", "--tmax", "6", "--dt-out", "0.01", "--out", out]
            if run(argv) != 0:
                raise SystemExit(f"flow with {name} failed")
            print(f"{_file_sha(out)}  flow {name} trajectory.csv")
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "circle_experiment.py")],
        capture_output=True, check=True,
    )
    print(f"{_sha(res.stdout)}  scripts/circle_experiment.py stdout")
    print(f"{_sha(repr(circle_saddle_node(0.05)).encode())}  repr(circle_saddle_node(0.05))")
    for name, obj in _germs():
        print(f"{_sha(repr(obj).encode())}  repr({name})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
