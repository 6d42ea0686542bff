"""Tests of the benchmark's own oracles, and a smoke run of each workload.

Run from the repository root: python3 -m pytest bench
"""

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from types import SimpleNamespace

import pytest

import oracles
import speed
import tracing
from workloads import WORKLOADS, _fold_domain_end, _parse_diagram

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# -- root isolation ----------------------------------------------------------


def test_real_roots_cubic_quadratic_quartic():
    assert oracles.real_roots([0.0, -1.0, 0.0, 1.0], -2.0, 2.0) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-14)
    assert oracles.real_roots([1.0, -2.0, 1.0], -5.0, 5.0) == pytest.approx([1.0], abs=1e-7)
    assert oracles.real_roots([1.0, 0.0, 1.0], -5.0, 5.0) == []
    # (x^2 - 1)(x^2 - 4) = x^4 - 5x^2 + 4, and only the part inside [0, 1.5]
    quartic = [4.0, 0.0, -5.0, 0.0, 1.0]
    assert oracles.real_roots(quartic, -3.0, 3.0) == pytest.approx([-2.0, -1.0, 1.0, 2.0], abs=1e-14)
    assert oracles.real_roots(quartic, 0.0, 1.5) == pytest.approx([1.0], abs=1e-14)


@pytest.mark.parametrize(
    "lam1,beta,nc,npoly",
    [(-0.02, 0.0, 1, 0), (0.0, 0.0, 0, 1), (0.03, -0.05, 0, 0), (0.03, -0.2, 1, 0), (0.03, 0.3, 1, 0)],
)
def test_cusp_cell(lam1, beta, nc, npoly):
    cycles, poly = oracles.cusp_cell(lam1, beta)
    assert (len(cycles), poly) == (nc, npoly)


def test_cusp_curves_hand_values():
    cur = oracles.cusp_curves(0.03)
    assert cur["Vbar"] == pytest.approx(-0.102, abs=1e-12)
    assert cur["Ibar"] == pytest.approx(0.098, abs=1e-12)
    assert cur["Abar"] == pytest.approx(0.198, abs=1e-12)


# (b1, b2, crossing cycles, polycycles): the double regular fold inventory
@pytest.mark.parametrize(
    "b1,b2,nc,npoly",
    [(0.05, 0.1, 0, 0), (0.01, 0.1, 0, 1), (0.005, 0.1, 1, 0), (-0.05, 0.1, 1, 0),
     (0.0, 0.0, 0, 1), (-0.05, -0.001, 1, 0), (-0.05, -0.0025, 0, 1), (-0.05, -0.05, 0, 0)],
)
def test_twofold_quartic(b1, b2, nc, npoly):
    cycles, poly = oracles.twofold_cell(b1, b2)
    assert (len(cycles), poly) == (nc, npoly)


def test_twofold_cycle_is_attracting():
    (x1, x2), = oracles.twofold_cell(0.005, 0.1)[0]
    assert oracles.stability_letter(oracles.twofold_dP(x1, x2)) == "a"


def test_foldfold_quadratic_region_three():
    # alpha = 0.05 between beta1 = -8 alpha^2 and beta2 = -4 alpha^2: roots
    # -0.1 -+ sqrt(0.005), outer attracting and inner repelling
    cycles, poly = oracles.foldfold_cell(0.05, -0.015)
    assert cycles == pytest.approx([-0.1 - math.sqrt(0.005), -0.1 + math.sqrt(0.005)], abs=1e-14)
    assert poly == 0
    assert [oracles.stability_letter(oracles.foldfold_dP(0.05, x)) for x in cycles] == ["a", "r"]
    assert oracles.foldfold_curves(0.05) == pytest.approx({"beta1": -0.02, "beta2": -0.01, "beta4": -0.0025})


def test_stability_letter_leaves_unit_multiplier_open():
    assert oracles.stability_letter(1.0 + 1e-9) is None
    assert oracles.stability_letter(-0.5) == "a"
    assert oracles.stability_letter(-2.0) == "r"


# -- closed-form maps ----------------------------------------------------------


def test_fold_transition_and_linear_mirror():
    assert oracles.fold_transition(0.3) == pytest.approx(0.455, abs=1e-15)
    assert oracles.linear_mirror(0.5, 0.2) == pytest.approx(-0.1, abs=1e-15)


def test_pitchfork_level_set_mirror():
    assert oracles.pitchfork_mirror(-0.5) == pytest.approx(-math.sqrt(1.75), abs=1e-14)
    assert oracles.pitchfork_mirror(0.5) == pytest.approx(math.sqrt(1.75), abs=1e-14)
    assert oracles.pitchfork_mirror(2.0) == pytest.approx(-2.0, abs=1e-14)
    r = oracles.pitchfork_mirror(-1.3)
    assert oracles.pitchfork_level(r) == pytest.approx(oracles.pitchfork_level(-1.3), abs=1e-14)


def test_fold_domain_end():
    # vertical section over y in [0.3, 0.5] at x = 1: hit while (1 - x^2)/2 >= 0.3
    tau = SimpleNamespace(anchor=(1.0, 0.4), direction=(0.0, 1.0), halfwidth=0.1)
    assert _fold_domain_end(tau, 1.0) == pytest.approx(math.sqrt(0.4), abs=1e-12)


# -- the circle flow -------------------------------------------------------------


def test_circle_radius_closed_form():
    flow = oracles.CircleFlow(0.0)
    assert flow.radius_after(1.0, 5.0) == 1.0
    # r^2 = 1 / (1 + 3 e^(-2t)) from r0 = 1/2; at t = ln(3)/2 that is 1/2
    assert flow.radius_after(0.5, math.log(3.0) / 2.0) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    x, y = flow.state((0.0, 2.0), math.pi / 2.0)
    assert (float(x), float(y)) == pytest.approx((-1.0, 1.0), abs=1e-15)
    assert flow.visible_fold() == 0.0


def test_circle_crossing_cycles():
    # the circle dips 2e-3 below Sigma: one crossing cycle; lifted 1e-3: none
    assert oracles.circle_crossing_cycles(0.05, -0.002) == 1
    assert oracles.circle_crossing_cycles(0.05, 0.001) == 0


# -- the harness ----------------------------------------------------------------


def test_parse_diagram_label_with_commas():
    text = "p1,p2,label,crossing_cycles,polycycles,sliding_cycles,flags\n" \
           "0.05,-0.015,item3|x2[a,r]|p0|s0|X-cycle-in-Mplus,2,0,0,X-cycle-in-Mplus\n"
    (row,) = _parse_diagram(text)
    assert row["p"] == (0.05, -0.015)
    assert (row["crossing"], row["poly"], row["letters"]) == (2, 0, ["a", "r"])


def test_speed_timer_scales_the_block_by_the_sampled_speed():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Timer() as t:
        sum(i * i for i in range(2_000_000))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    # one sample before, one after and one per PERIOD of the block
    assert len(t.samples) >= 2 + int(t.wall / speed.PERIOD) - 1
    in_block = t.samples[1:-1]
    factor = statistics.fmean(speed.REF_S / s for s in t.samples)
    assert t.ref == pytest.approx((t.wall - sum(in_block)) * factor)
    assert sum(in_block) < 0.05 * t.wall


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in tracing.PER_LAYER.items()
    ]


def _run(*args, cwd=ROOT):
    res = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return res


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload):
    res = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert res.returncode == 0, res.stderr
    assert f"workload {workload} seed 3 rounds 3 " in res.stdout
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, res.stdout
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat():
    runs = []
    for _ in range(2):
        res = _run("--workload", "closed-form-germs", "--seed", "4", "--seconds", "1", "--trace", "1")
        assert res.returncode == 0, res.stderr
        runs.append(json.loads(res.stdout.strip().splitlines()[-1])["metrics"])
    assert list(runs[0]) == list(tracing.PER_LAYER)
    for name, (unit, _) in tracing.PER_LAYER.items():
        if unit != "s":
            assert runs[0][name] == runs[1][name], name
    assert runs[0]["flow.integrations"]["value"] > 0


def test_refuses_to_run_without_sources():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    res = _run("--workload", "circle-ode", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert res.returncode != 0
    assert res.stdout == ""
