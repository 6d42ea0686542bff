"""scipy loads on the first flight or root polish: the closed-form paths run on numpy alone."""

import textwrap

import pytest

CLOSED_FORM = textwrap.dedent("""
    import json, sys

    import sigmapoly
    from sigmapoly import cli, io
    from sigmapoly.bifurcation import SCENARIOS
    from sigmapoly.polycycle import normal_form_model

    for build in SCENARIOS.values():
        build()
    with open("sys.json", "w") as f:
        json.dump({
            "X": {"fx": [[0, 0, 1.0]], "fy": [[1, 0, 1.0]]},
            "Y": {"fx": [[0, 0, 1.0]], "fy": [[0, 0, -1.0]]},
            "h": [[0, 1, 1.0]],
        }, f)
    io.write_text("model.json", io.dumps(io.model_to_dict(normal_form_model(1.0, -0.25, 2, lam=(0.01,)))))
    argvs = [
        ["classify", "--system", "sys.json", "--point=-0.5,0"],
        ["classify", "--system", "sys.json", "--point", "0,0"],
        ["scenario-curves", "--scenario", "cusp-synthetic", "--param", "0.01"],
        ["polycycle-solve", "--model", "model.json"],
    ] + [
        ["diagram", "--scenario", s, "--grid", "5x5", "--out", s]
        for s in ("cusp-synthetic", "twofold-synthetic", "vi-foldfold-synthetic")
    ]
    codes = [cli.run(argv) for argv in argvs]
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    from sigmapoly.core import PolyField, SwitchingFunction
    from sigmapoly.flow import next_sigma_hit
    from sigmapoly.poly2 import poly_const, poly_x, poly_y

    hit = next_sigma_hit(PolyField(poly_const(1.0), poly_x()), (-0.3, 0.0), SwitchingFunction(poly_y()))
    print(json.dumps({"codes": codes, "loaded": loaded, "after_flight": "scipy" in sys.modules, "t": hit.time}))
""")


def test_closed_form_paths_leave_scipy_unloaded(fresh_python):
    out = fresh_python(CLOSED_FORM)
    assert out["codes"] == [0] * 7
    assert out["loaded"] == []
    # the first flight loads it, and flies X = (1, x) from (-0.3, 0) back to y = 0
    assert out["after_flight"]
    assert out["t"] == pytest.approx(0.6, abs=1e-12)
