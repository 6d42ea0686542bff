#!/usr/bin/env python3
"""Rebuild the stored reference figures in bench/reference.json.

Usage (from the repository root):

    python3 bench/reference.py

Runs bench/run.py on every workload of BENCHMARK.json for seeds 1-10,
untraced, in two sets one after the other, then traced for seeds 1-3.  For
every end-to-end metric and set it stores the median, the quartiles and the
spread (quartile distance over the median, as ``statistics.quantiles(values,
n=4)`` gives them), and the change of the second set's median against the
first's; for the traced runs, the median of every per-layer metric and the
tracing overhead on the rounds' reference-speed time.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
SETS = 2
TRACE_SEEDS = range(1, 4)


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[float], dict]:
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = res.stdout.strip().splitlines()
    rounds = next(json.loads(line[len("# ref_s "):]) for line in lines if line.startswith("# ref_s "))
    rates = {f[2]: float(f[3]) for f in (line.split() for line in lines) if f[:2] == ["#", "rate"]}
    return json.loads(lines[-1]), rounds, rates


def _stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    sets = []
    for k in range(SETS):
        sets.append({wl: [_run(wl, s, seconds, 0) for s in SEEDS] for wl in names})
        print(f"set {k + 1} done", flush=True)

    ref = {"run_seconds": seconds, "seeds": f"{SEEDS[0]}-{SEEDS[-1]}", "sets": SETS,
           "trace_seeds": f"{TRACE_SEEDS[0]}-{TRACE_SEEDS[-1]}", "workloads": {}}
    for wl in names:
        traced = [_run(wl, s, seconds, 1) for s in TRACE_SEEDS]
        runs = [run for runs in sets for run in runs[wl]]
        per_set = [
            {m["name"]: _stats([r["metrics"][m["name"]]["value"] for r, _, _ in runs[wl]])
             for m in spec["end_to_end"]}
            for runs in sets
        ]
        entry = {
            "correct": all(r["correct"] for r, _, _ in runs + traced),
            "failed_share": sorted({r["failed"] / r["attempted"] for r, _, _ in runs}),
            "rounds": sorted({len(rounds) for _, rounds, _ in runs}),
            "end_to_end": per_set,
            "median_change": {
                name: per_set[-1][name]["median"] / per_set[0][name]["median"] - 1.0
                for name in per_set[0]
            },
            "rates": {k: statistics.median(rt[k] for _, _, rt in runs) for k in runs[0][2]},
        }
        plain = statistics.median(x for _, rounds, _ in runs for x in rounds)
        with_trace = statistics.median(x for _, rounds, _ in traced for x in rounds)
        entry["tracing_overhead"] = with_trace / plain - 1.0
        entry["per_layer"] = {
            m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r, _, _ in traced)
            for m in spec["per_layer"]
        }
        ref["workloads"][wl] = entry
        spreads = [{k: round(v["spread"], 4) for k, v in s.items()} for s in per_set]
        change = {k: round(v, 4) for k, v in entry["median_change"].items()}
        print(f"{wl}: correct {entry['correct']}, spreads {spreads}, median change {change}", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
