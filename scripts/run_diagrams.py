#!/usr/bin/env python3
"""Generate the three bifurcation diagrams (diagram.csv + curves.csv each).

For each scenario it prints the cell count, the number of distinct labels
and the sweep's wall time (``sweep_diagram`` alone, without the CSV
writing), then its most frequent labels.

Usage: python3 scripts/run_diagrams.py [--grid 41x41] [--out out/diagrams]
"""

import argparse
import os
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sigmapoly import io  # noqa: E402
from sigmapoly.bifurcation import SCENARIOS, sweep_diagram  # noqa: E402

SYNTHETIC = ("cusp-synthetic", "twofold-synthetic", "vi-foldfold-synthetic")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--grid", default="41x41")
    ap.add_argument("--out", default="out/diagrams")
    ap.add_argument("--scenarios", nargs="*", default=list(SYNTHETIC))
    args = ap.parse_args()
    n1, n2 = (int(v) for v in args.grid.lower().split("x"))
    for name in args.scenarios:
        fam = SCENARIOS[name]()
        t0 = time.perf_counter()
        grid = sweep_diagram(fam, n1, n2)
        wall = time.perf_counter() - t0
        outdir = os.path.join(args.out, name)
        os.makedirs(outdir, exist_ok=True)
        io.write_text(os.path.join(outdir, "diagram.csv"), io.diagram_csv(grid))
        io.write_text(os.path.join(outdir, "curves.csv"), io.curves_csv(grid.curves))
        labels = Counter(grid.labels)
        print(f"{name}: {len(grid.labels)} cells, {len(labels)} distinct labels, {wall * 1e3:.1f} ms")
        for label in sorted(labels, key=labels.get, reverse=True)[:8]:
            print(f"  {labels[label]:5d}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
