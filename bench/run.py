#!/usr/bin/env python3
"""sigmapoly benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload synthetic-diagrams --seed 1 --seconds 30 --trace 0

Runs single-threaded in this process against ``src/sigmapoly`` of the same
checkout.  With ``--trace 0`` the final stdout line carries the end-to-end
metrics (setup_s, wall_s, peak_rss_mb; the two times at the reference speed
of ``speed.Timer``); with ``--trace 1`` it carries the per-layer metrics
from ``tracing``.  Lines before it, prefixed with ``#``, give the machine,
the wall and reference-speed round times, the per-kind throughputs and any
failed check.  Outputs
land in ``bench/out/``.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported (the set-up
# probes inherit it)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
# wall_s is a median over rounds, so three rounds are run even when one
# round is longer than a third of --seconds
MIN_ROUNDS = 3


def git_sha(root: str) -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(ROOT),
    }


def measure_setup() -> tuple[float, float]:
    """Medians over fresh processes of the wall and reference-speed time of
    importing sigmapoly and building all scenario families."""
    times = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append([float(v) for v in res.stdout.split()])
    return tuple(statistics.median(t[k] for t in times) for k in (0, 1))


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sigmapoly", "__init__.py")):
        print(f"no sigmapoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import sigmapoly

    if not os.path.abspath(sigmapoly.__file__).startswith(SRC + os.sep):
        print(f"imported sigmapoly from {sigmapoly.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    setup_wall_s, setup_s = measure_setup()

    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    wl.prepare()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    rounds, layer_rounds = [], []
    t0 = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        rounds.append(wl.run_round())
        if tracer:
            layer_rounds.append(tracer.metrics())
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - t0 >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        trace_dump = tracer.dump()
        tracer.uninstall()
    # a failed operation fails the run too, so a regression that turns
    # results into errors cannot pass as correct
    failures = [f"operation failed: {e}" for r in rounds for e in r.errors]
    failures += wl.check(rounds)

    print("# machine " + json.dumps(machine(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"cpu_s {[round(r.cpu, 4) for r in rounds]} round_s {[round(r.wall, 4) for r in rounds]}")
    print(f"# ref_s {[round(r.ref, 4) for r in rounds]}")
    print(f"# setup_wall_s {setup_wall_s:.4f}")
    for name, (value, unit) in wl.rates(rounds).items():
        print(f"# rate {name} {value:.6g} {unit}")
    for f in failures:
        print(f"# check FAILED {f}")

    if tracer:
        from tracing import PER_LAYER

        metrics = {
            name: {"value": statistics.median(m[name] for m in layer_rounds), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
        with open(os.path.join(out_dir, f"trace-seed{args.seed}.json"), "w") as f:
            json.dump({"per_round": layer_rounds, "last_round": trace_dump}, f, indent=1)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(r.ref for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    line = json.dumps(result)
    with open(os.path.join(out_dir, f"result-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        f.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
