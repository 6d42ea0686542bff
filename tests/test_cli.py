import hashlib
import json

import pytest

from sigmapoly import cli, io
from sigmapoly.cli import run
from sigmapoly.polycycle import normal_form_model

SYSTEM = {
    "X": {"fx": [[0, 0, 1.0]], "fy": [[1, 0, 1.0]]},
    "Y": {"fx": [[0, 0, 1.0]], "fy": [[0, 0, -1.0]]},
    "h": [[0, 1, 1.0]],
}


@pytest.fixture
def system_path(tmp_path):
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(SYSTEM))
    return str(p)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_classify(system_path, capsys):
    assert run(["classify", "--system", system_path, "--point=-0.5,0"]) == 0
    d = _json_out(capsys)
    assert d["class"] == "crossing"


def test_classify_tangency(system_path, capsys):
    assert run(["classify", "--system", system_path, "--point", "0,0"]) == 0
    d = _json_out(capsys)
    assert d["class"] == "tangency"
    assert d["order"] == 2


ONE, MINUS_ONE, X = [[0, 0, 1.0]], [[0, 0, -1.0]], [[1, 0, 1.0]]


@pytest.mark.parametrize(
    "X_fx,X_fy,Y_fy,expected",
    [
        (ONE, ONE, ONE, '{"class": "crossing", "direction": 1}'),
        (ONE, MINUS_ONE, ONE, '{"class": "stable-sliding"}'),
        (ONE, ONE, MINUS_ONE, '{"class": "unstable-sliding"}'),
        (ONE, X, ONE, '{"class": "tangency", "order": 2, "side": "plus", "visibility": "visible"}'),
        (ONE, X, X, '{"class": "fold-fold", "kind": "VI"}'),
        (X, X, ONE, '{"class": "equilibrium-on-sigma", "side": "plus"}'),
    ],
    ids=["crossing", "stable-sliding", "unstable-sliding", "tangency", "fold-fold", "equilibrium-on-sigma"],
)
def test_classify_json_of_each_class(tmp_path, capsys, X_fx, X_fy, Y_fy, expected):
    # h = y, Y = (1, Y_fy), at the origin
    sp = tmp_path / "sys.json"
    sp.write_text(json.dumps({"X": {"fx": X_fx, "fy": X_fy}, "Y": {"fx": ONE, "fy": Y_fy}, "h": [[0, 1, 1.0]]}))
    assert run(["classify", "--system", str(sp), "--point", "0,0"]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_classify_flags_a_near_degenerate_value_once(system_path, capsys):
    # Xh = x = 5e-10 lies in (NEAR_DEGENERATE_TOL, CLASSIFY_TOL]: a tangency, flagged once
    assert run(["classify", "--system", system_path, "--point=5e-10,0"]) == 0
    assert _json_out(capsys)["flags"] == ["near-degenerate Xh = 5.000e-10"]
    assert run(["--strict", "classify", "--system", system_path, "--point=5e-10,0"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "NearDegenerate", "message": "near-degenerate Xh = 5.000e-10"}


def test_transition_of_field_Y(system_path, capsys):
    # Y = (1, -1) from (0.3, 0) meets x = 1 at y = -0.7
    assert run(["transition", "--system", system_path, "--field", "Y", "--section", "1,0,0,1,2", "--x", "0.3"]) == 0
    assert _json_out(capsys) == {"T": -0.7}


def test_transition_oracle(system_path, capsys):
    rc = run([
        "transition", "--system", system_path,
        "--section", "1,0,0,1,2", "--x", "0.3",
    ])
    assert rc == 0
    assert _json_out(capsys)["T"] == pytest.approx((1 - 0.09) / 2, abs=1e-9)


def test_mirror_oracle(system_path, capsys):
    assert run(["mirror", "--system", system_path, "--x", "0.4"]) == 0
    assert _json_out(capsys)["rho"] == pytest.approx(-0.4, abs=1e-8)


def test_germ_roundtrip(system_path, tmp_path, capsys):
    out = tmp_path / "germ.json"
    rc = run([
        "germ", "--system", system_path, "--section", "1,0,0,1,2",
        "--degree", "2", "--window", "0.3", "--out", str(out),
    ])
    assert rc == 0
    g = io.germ_from_dict(json.loads(out.read_text()))
    assert g.kappa == pytest.approx(-0.5, rel=1e-6)
    # round-trip invariant: re-serializing gives identical bytes
    assert io.dumps(g.to_dict()) + "\n" == out.read_text()


def test_polycycle_solve(tmp_path, capsys):
    model = normal_form_model(1.0, -0.25, 2, lam=(0.01,))
    mp = tmp_path / "model.json"
    mp.write_text(io.dumps(io.model_to_dict(model)))
    assert run(["polycycle-solve", "--model", str(mp)]) == 0
    reports = _json_out(capsys)
    pts = sorted(r["point"][0] for r in reports if r["locus"] == "interior")
    assert pts == pytest.approx([-0.2, -0.05], abs=1e-9)


def test_scenario_curves_values(capsys):
    rc = run(["scenario-curves", "--scenario", "cusp-synthetic", "--param", "0.03"])
    assert rc == 0
    d = _json_out(capsys)
    assert d["Vbar"] == pytest.approx(-0.102, abs=1e-12)
    assert d["Ibar"] == pytest.approx(0.098, abs=1e-12)
    assert d["Abar"] == pytest.approx(0.198, abs=1e-12)


def test_exit_code_config_error(tmp_path, system_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run(["classify", "--system", str(bad), "--point", "0,0"]) == 2
    capsys.readouterr()
    systems = {
        "x9": dict(SYSTEM, X={"fx": [[0, 0, 1.0]], "fy": [[9, 0, 1.0]]}),  # past the degree cap
        "domain": dict(SYSTEM, domain=[1, 0, -1, 1]),  # degenerate rectangle
        "y2": dict(SYSTEM, h=[[0, 2, 1.0]]),  # grad h vanishes on Sigma
        # a power is a JSON integer and a coefficient or a domain end a JSON number:
        # neither is truncated, and no bool or string counts
        "power-fraction": dict(SYSTEM, X={"fx": [[0, 0, 1.0]], "fy": [[1.5, 0, 1.0]]}),
        "power-bool": dict(SYSTEM, X={"fx": [[0, 0, 1.0]], "fy": [[True, 0, 1.0]]}),
        "coefficient-string": dict(SYSTEM, X={"fx": [[0, 0, 1.0]], "fy": [[1, 0, "2"]]}),
        "domain-string": dict(SYSTEM, domain=["-1", 1, -1, 1]),
        "top-level-array": [SYSTEM],  # a system file holds an object
    }
    for name, d in systems.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(d))
    leg = {
        "Tu": {"base": 0.0, "coeffs": [0.01, 0.0, 1.0]},
        "DTs": {"base": 0.0, "coeffs": [0.0, -0.25]},
        "sigma": [[-0.3, 0.0]],
    }
    models = {  # json.dumps writes a non-finite float as NaN, Infinity or -Infinity
        **{f"tu-{v}": {"k": 1, "legs": [dict(leg, Tu={"base": 0.0, "coeffs": [v, 0.0, 1.0]})]}
           for v in (float("nan"), float("inf"), float("-inf"))},
        "no-coeffs": {"k": 1, "legs": [dict(leg, Tu={"base": 0.0, "coeffs": []})]},
        "no-legs": {"k": 0, "legs": []},
        "k-mismatch": {"k": 2, "legs": [leg]},
        "lo-above-hi": {"k": 1, "legs": [dict(leg, sigma=[[0.0, -0.3]])]},
        # neither a fraction nor a bool counts legs, a string is no coefficient list,
        # and an interval has two ends
        "k-fraction": {"k": 1.5, "legs": [leg]},
        "k-bool": {"k": True, "legs": [leg]},
        "coeffs-string": {"k": 1, "legs": [dict(leg, Tu={"base": 0.0, "coeffs": "103"})]},
        "sigma-three-ends": {"k": 1, "legs": [dict(leg, sigma=[[-0.3, 0.0, 5.0]])]},
        # every number of a model file is a JSON number, never a string or a bool
        "base-string": {"k": 1, "legs": [dict(leg, Tu={"base": "0.5", "coeffs": [0.01, 0.0, 1.0]})]},
        "coeff-bool": {"k": 1, "legs": [dict(leg, Tu={"base": 0.0, "coeffs": [True, 0.0, 1.0]})]},
        "window-string": {"k": 1, "legs": [dict(leg, DTs={"base": 0.0, "coeffs": [0.0, -0.25], "window": "1"})]},
        "a-bool": {"k": 1, "legs": [dict(leg, a=True)]},
        "sigma-strings": {"k": 1, "legs": [dict(leg, sigma=[["-0.3", "0"]])]},
    }
    for name, d in models.items():
        (tmp_path / f"model-{name}.json").write_text(json.dumps(d))
    cases = [
        *(["classify", "--system", str(tmp_path / f"{name}.json"), "--point", "0,0"] for name in systems),
        ["transition", "--system", system_path, "--section", "1,0,0,0", "--x", "0.3"],
        ["flow", "--system", system_path, "--point=-1,0.5", "--dt-out", "0"],
        ["flow", "--system", system_path, "--point=-1,0.5", "--dt-out=-0.1"],
        ["germ", "--system", system_path, "--section", "1,0,0,1,2", "--degree=-1"],
        ["scenario-curves", "--scenario", "cusp-synthetic", "--samples=-3"],
        ["mirror", "--system", system_path, "--x", "0.4", "--window=-1"],
        # a non-positive or non-finite number, in a flag or in a parsed list
        *(["flow", "--system", system_path, "--point=-1,0.5", f"--tmax={t}"]
          for t in ("-1", "0", "nan", "inf")),
        ["flow", "--system", system_path, "--point=-1,0.5", "--dt-out", "nan"],
        *(["germ", "--system", system_path, "--section", "1,0,0,1,2", "--window", w] for w in ("nan", "inf")),
        ["transition", "--system", system_path, "--section", "1,0,0,1,2", "--x", "nan"],
        ["diagram", "--scenario", "cusp-synthetic", "--grid", "3x3", "--ranges=nan:0.1,0:0.1",
         "--out", str(tmp_path / "d")],
        # lo > hi on either axis
        *(["diagram", "--scenario", "cusp-synthetic", "--grid", "2x2", f"--ranges={r}", "--out", str(tmp_path / "d")]
          for r in ("0.1:-0.1,0:0", "0:0,0.1:-0.1")),
        ["classify", "--system", system_path, "--point=nan,0"],
        *(["polycycle-solve", "--model", str(tmp_path / f"model-{name}.json")] for name in models),
        # a section of halfwidth <= 0
        *(["transition", "--system", system_path, "--section", sec, "--x", "0.3"]
          for sec in ("1,0,0,1,-1", "1,0,0,1,0")),
    ]
    for argv in cases:
        assert run(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "", argv
        assert json.loads(out.err)["error"] == "ConfigError", argv


def test_polycycle_solve_writes_strict_json(tmp_path, capsys):
    # Tu = x^2, DTs = 2 x^2: the boundary polycycle at the fold has DTs' = 0, so dP is infinite
    germ = {"base": 0.0, "coeffs": [0.0, 0.0, 1.0]}
    model = {"k": 1, "legs": [{"Tu": germ, "DTs": dict(germ, coeffs=[0.0, 0.0, 2.0]), "sigma": [[-0.3, 0.0]]}]}
    mp = tmp_path / "model.json"
    mp.write_text(json.dumps(model))
    assert run(["polycycle-solve", "--model", str(mp)]) == 0

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    (report,) = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert report["kind"] == "polycycle"
    assert report["dP"] is None


def test_one_parser_per_process_carries_nothing_from_run_to_run(tmp_path, system_path, capsys, fresh_python):
    # the parser is built on the first run and kept, and each run parses into a fresh namespace
    assert cli.build_parser() is cli.build_parser()
    point = ["classify", "--system", system_path, "--point=5e-10,0"]
    assert run(["--strict", *point]) == 3
    capsys.readouterr()
    assert run(point) == 0  # --strict does not carry over
    assert _json_out(capsys)["flags"] == ["near-degenerate Xh = 5.000e-10"]
    # a diagram run, then a polycycle-solve run, write what each writes in a new process
    model = tmp_path / "model.json"
    model.write_text(io.dumps(io.model_to_dict(normal_form_model(1.0, -0.25, 2, lam=(0.01,)))))
    solve = ["polycycle-solve", "--model", str(model)]
    assert run(["diagram", "--scenario", "vi-foldfold-synthetic", "--grid", "7x5", "--out", str(tmp_path / "a")]) == 0
    assert run(solve) == 0
    solved = capsys.readouterr().out
    fresh_diagram = ["diagram", "--scenario", "vi-foldfold-synthetic", "--grid", "7x5", "--out", str(tmp_path / "b")]
    for argv in (fresh_diagram, solve):
        fresh = fresh_python(
            "import contextlib, io, json\nfrom sigmapoly.cli import run\nbuf = io.StringIO()\n"
            f"with contextlib.redirect_stdout(buf):\n    rc = run({argv!r})\nprint(json.dumps([rc, buf.getvalue()]))"
        )
        assert fresh == [0, solved if argv is solve else ""]
    for name in ("diagram.csv", "curves.csv"):
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


def test_exit_code_numeric_error(system_path, capsys):
    # tiny section far from the orbit: NoHit
    rc = run([
        "transition", "--system", system_path,
        "--section=-5,-5,0,1,0.01", "--x", "0.3",
    ])
    assert rc == 3


def test_exit_code_io_failure(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run(["classify", "--system", missing, "--point", "0,0"]) == 4


def test_unknown_scenario(capsys):
    assert run(["scenario-curves", "--scenario", "nope", "--param", "0.1"]) == 2


@pytest.mark.parametrize("extra", [["--param", "0.03"], []], ids=["param", "trace"])
def test_scenario_curves_circle_has_none_yet(extra, capsys):
    # the circle's curves are not known in closed form: a usage error, not
    # a KeyError traceback or the synthetic family's curves
    assert run(["scenario-curves", "--scenario", "vi-foldfold-circle", *extra]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == "ConfigError"


def test_diagram_deterministic(tmp_path, capsys):
    for d in ("d1", "d2"):
        rc = run([
            "diagram", "--scenario", "vi-foldfold-synthetic",
            "--grid", "5x5", "--out", str(tmp_path / d),
        ])
        assert rc == 0
    for name in ("diagram.csv", "curves.csv"):
        b1 = (tmp_path / "d1" / name).read_bytes()
        b2 = (tmp_path / "d2" / name).read_bytes()
        assert b1 == b2 and len(b1) > 0


@pytest.mark.parametrize(
    "scenario,digests",
    [
        (
            "twofold-synthetic",
            {
                "diagram.csv": "1696101c5cddbcc77fb19e9bf7d9dc79d9582fad0f468581c7bcef1d7546f534",
                "curves.csv": "22cc34abf1907269f97a569d67c55b66733c763307ef28d2788cd65416c82d92",
            },
        ),
        (
            "cusp-synthetic",
            {"diagram.csv": "f0b8e48d94114faed8f6eff47b5a4241c72a675fee8c72a3fa8dd70de64594f1"},
        ),
        (
            "vi-foldfold-synthetic",
            {"diagram.csv": "0fe5ea2137f639758805779054292e8d462e7f4878b47658a8d2c34b01f42c3f"},
        ),
    ],
    ids=["twofold-synthetic", "cusp-synthetic", "vi-foldfold-synthetic"],
)
def test_diagram_twofold_artifacts_pinned(tmp_path, scenario, digests):
    # the 11x11 synthetic artifacts, pinned byte for byte
    rc = run([
        "diagram", "--scenario", scenario, "--grid", "11x11",
        "--out", str(tmp_path / "d"),
    ])
    assert rc == 0
    got = {
        name: hashlib.sha256((tmp_path / "d" / name).read_bytes()).hexdigest()
        for name in digests
    }
    assert got == digests


def test_diagram_ranges_override(tmp_path):
    rc = run([
        "diagram", "--scenario", "cusp-synthetic", "--grid", "3x3",
        "--ranges", "0:0.04,-0.1:0.1", "--out", str(tmp_path / "d"),
    ])
    assert rc == 0
    lines = (tmp_path / "d" / "diagram.csv").read_text().strip().split("\n")
    assert len(lines) == 10
    p1s = sorted({float(l.split(",")[0]) for l in lines[1:]})
    assert p1s == pytest.approx([0.0, 0.02, 0.04])


def test_diagram_ranges_lo_equal_hi_is_a_slice(tmp_path):
    rc = run([
        "diagram", "--scenario", "cusp-synthetic", "--grid", "1x3",
        "--ranges=0.02:0.02,-0.1:0.1", "--out", str(tmp_path / "d"),
    ])
    assert rc == 0
    rows = [line.split(",") for line in (tmp_path / "d" / "diagram.csv").read_text().splitlines()[1:]]
    assert [(float(p1), float(p2)) for p1, p2, *_ in rows] == [(0.02, -0.1), (0.02, 0.0), (0.02, 0.1)]


def test_diagram_cusp_negative_lambda_traces_no_curve(tmp_path):
    # the cusp curves exist only for lambda1 > 0; the cells left of it still classify
    out = tmp_path / "d"
    rc = run([
        "diagram", "--scenario", "cusp-synthetic", "--grid", "3x3",
        "--ranges=-0.05:-0.01,-0.1:0.1", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "curves.csv").read_text() == "curve,param,p1,p2\n"
    assert len((out / "diagram.csv").read_text().splitlines()) == 10


def test_diagram_twofold_curves_stay_in_their_ranges(tmp_path):
    # gamma1 is a curve in beta2 and gamma2 one in beta1: each samples its own parameter's range
    out = tmp_path / "d"
    rc = run([
        "diagram", "--scenario", "twofold-synthetic", "--grid", "3x3",
        "--ranges=-0.2:0.2,0:0.1", "--out", str(out),
    ])
    assert rc == 0
    rows = [line.split(",") for line in (out / "curves.csv").read_text().splitlines()[1:]]
    gamma1 = [float(p2) for name, _, _, p2 in rows if name == "gamma1"]
    gamma2 = [float(p1) for name, _, p1, _ in rows if name == "gamma2"]
    assert gamma1 and gamma2
    assert all(0.0 <= b2 <= 0.1 for b2 in gamma1)
    assert all(b1 <= 0.0 for b1 in gamma2)


def test_diagram_bad_ranges(tmp_path, capsys):
    rc = run([
        "diagram", "--scenario", "cusp-synthetic", "--grid", "3x3",
        "--ranges", "oops", "--out", str(tmp_path / "d"),
    ])
    assert rc == 2


def test_unknown_command_returns_usage_error(capsys):
    assert run(["nosuchcmd"]) == 2


def test_diagram_negative_ranges_need_equals(tmp_path, capsys):
    # argparse reads a separate value starting with '-' as an option
    rc = run([
        "diagram", "--scenario", "cusp-synthetic", "--grid", "3x3",
        "--ranges", "-0.17:0.19,-0.2:0.2", "--out", str(tmp_path / "d"),
    ])
    assert rc == 2


def test_numeric_error_exit_code_and_stderr(system_path, capsys):
    # the visible fold of X = (1, x) at 0 has no arc below Sigma
    assert run(["mirror", "--system", system_path, "--x", "0.0"]) == 3
    msg = "x = 0.0 is a contact of order 2 with no arc on side -1"
    assert capsys.readouterr().err == io.dumps({"error": "InExclusionSet", "message": msg}) + "\n"


@pytest.mark.parametrize("gy", [-1.0, 1.0], ids=["Y=(1,-1)", "Y=(1,1)"])
def test_flow_csv_matches_closed_form(gy, tmp_path):
    # X = (1, x), Y = (1, gy), h = y from (-1, 0.48): x = -1 + t on every arc.
    # The start lies on the parabola y = (x^2 - 0.04)/2, just below the one
    # through the visible fold; the orbit meets Sigma at x = -0.2, next to the
    # fold.  For gy = -1 it crosses and runs down the line y = -(x - x_cross);
    # for gy = 1 it slides along y = 0 to the fold and lifts off on the
    # parabola y = x^2/2 through it.
    sp = tmp_path / "sys.json"
    sp.write_text(json.dumps(dict(SYSTEM, Y={"fx": [[0, 0, 1.0]], "fy": [[0, 0, gy]]})))
    out = tmp_path / "traj.csv"
    rc = run([
        "flow", "--system", str(sp), "--point=-1,0.48",
        "--tmax", "6", "--dt-out", "0.01", "--out", str(out),
    ])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    cross = [r for r in rows if r[4] == "cross"]
    assert len(cross) == 1
    assert float(cross[0][2]) == 0.0  # the event row lies on Sigma exactly
    x_cross = float(cross[0][1])
    assert abs(x_cross + 0.2) <= 1e-12
    closed = {
        "P": lambda x: x * x / 2 - (0.02 if x <= x_cross else 0.0),
        "M": lambda x: gy * (x - x_cross),
        "S": lambda x: 0.0,
    }
    for t, x, y, regime, _ in rows:
        t, x, y = float(t), float(x), float(y)
        assert abs(x - (-1.0 + t)) <= 1e-12
        assert abs(y - closed[regime](x)) <= 1e-12
    assert {r[3] for r in rows} == ({"P", "M"} if gy < 0 else {"P", "S"})


def test_flow_crossing_straight_lines(tmp_path):
    # X = (1, -1), Y = (1, -0.9), h = y from (-1, 0.5): one crossing at
    # x = -0.5, and Y's flight from the crossing point runs on to the time-out
    sp = tmp_path / "sys.json"
    sp.write_text(json.dumps({
        "X": {"fx": [[0, 0, 1.0]], "fy": [[0, 0, -1.0]]},
        "Y": {"fx": [[0, 0, 1.0]], "fy": [[0, 0, -0.9]]},
        "h": [[0, 1, 1.0]],
    }))
    out = tmp_path / "traj.csv"
    assert run(["flow", "--system", str(sp), "--point=-1,0.5", "--tmax", "3", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    cross = [r for r in rows if r[4] == "cross"]
    assert len(cross) == 1
    assert float(cross[0][1]) == pytest.approx(-0.5, abs=1e-12)
    assert rows[-1][3:] == ["M", "time-out"]


def test_error_message_prints_plain_floats(tmp_path, capsys):
    # X vanishes at the start on Sigma: the message names the point in plain floats
    sp = tmp_path / "sys.json"
    sp.write_text(json.dumps({
        "X": {"fx": [], "fy": []},
        "Y": {"fx": [[0, 0, 1.0]], "fy": [[0, 0, -1.0]]},
        "h": [[0, 1, 1.0]],
    }))
    assert run(["flow", "--system", str(sp), "--point=0,0"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "EquilibriumOnSigmaError", "message": "field vanishes at (0.0, 0.0)"}
