"""Time a fresh process's set-up: import sigmapoly and build every scenario family.

Usage: python3 bench/setup_probe.py <src-dir>
Prints the wall seconds taken and the seconds at the reference speed
(``speed.Timer``).  Run by bench/run.py in a child process.
"""

import os
import sys

import speed

src = os.path.abspath(sys.argv[1])
sys.path.insert(0, src)

with speed.Timer() as t:
    import sigmapoly
    from sigmapoly.bifurcation import SCENARIOS

    for build in SCENARIOS.values():
        build()
if not os.path.abspath(sigmapoly.__file__).startswith(src + os.sep):
    sys.exit(f"imported sigmapoly from {sigmapoly.__file__}, not from {src}")
print(repr(t.wall), repr(t.ref))
