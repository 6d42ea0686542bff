"""The program runs on numpy alone: no path of it loads scipy, not even a flight or a root polish."""

import textwrap

import pytest

PROGRAM = textwrap.dedent("""
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

    from sigmapoly.bifurcation import circle_family, circle_saddle_node, classify_parameter_point
    from sigmapoly.core import PolyField, SwitchingFunction
    from sigmapoly.flow import hit_section, next_sigma_hit, vertical_section
    from sigmapoly.maps import sigma_contacts
    from sigmapoly.poly2 import poly_const, poly_x, poly_y

    X = PolyField(poly_const(1.0), poly_x())
    hit = next_sigma_hit(X, (-0.3, 0.0), SwitchingFunction(poly_y()))
    q, tq = hit_section(X, (-0.3, 0.0), vertical_section(0.2))
    # Fh = (x - 0.3)^2 - 0.04 on the tilted Sigma y = 0.1 x: the dg scan's
    # sign change at 0.3 and the roots 0.1 and 0.5 are each polished
    s = poly_x() + poly_const(-0.3)
    contacts = sigma_contacts(
        PolyField(poly_const(1.0), s * s + poly_const(0.06)),
        SwitchingFunction(poly_y() + poly_x().scale(-0.1)),
        (-1.0, 1.0),
    )
    cell = classify_parameter_point(circle_family(), (0.1, 0.0))
    saddle_node = circle_saddle_node(0.05)
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(json.dumps({
        "codes": codes, "loaded": loaded, "t": hit.time, "tq": tq, "contacts": [x for x, _, _ in contacts],
        "label": cell.label, "beta": saddle_node["beta_p"],
    }))
""")


def test_program_paths_leave_scipy_unloaded(fresh_python):
    out = fresh_python(PROGRAM)
    assert out["codes"] == [0] * 7
    assert out["loaded"] == []
    # X = (1, x) from (-0.3, 0) is back on y = 0 at t = 0.6 and on x = 0.2 at t = 0.5
    assert out["t"] == pytest.approx(0.6, abs=1e-12)
    assert out["tq"] == pytest.approx(0.5, abs=1e-12)
    assert out["contacts"] == pytest.approx([0.1, 0.5], abs=1e-12)
    assert out["label"].startswith("item5|x1[a]")
    assert 2.10e-8 < out["beta"] < 2.15e-8
