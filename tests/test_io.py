import json

import numpy as np
import pytest

from sigmapoly import io
from sigmapoly.bifurcation import cusp_family, sweep_diagram
from sigmapoly.errors import ConfigError, IOFailure
from sigmapoly.flow import filippov_trajectory
from sigmapoly.poly2 import DuplicateMonomial
from sigmapoly.polycycle import normal_form_model

from conftest import make_system
from sigmapoly.poly2 import poly_const, poly_x


SYSTEM_DICT = {
    "X": {"fx": [[0, 0, 1.0]], "fy": [[1, 0, 1.0]]},
    "Y": {"fx": [[0, 0, 1.0]], "fy": [[0, 0, -1.0]]},
    "h": [[0, 1, 1.0]],
}


def test_duplicate_triple_rejected():
    with pytest.raises((ConfigError, DuplicateMonomial)):
        io.poly_from_triples([[0, 0, 1.0], [0, 0, 2.0]])


@pytest.mark.parametrize(
    "triple", [[1.5, 0, 1.0], [True, 0, "2"], [0, 1, True], [0, "1", 1.0], [1, 0, "2.0"], [1, 0, None]]
)
def test_poly_from_triples_refuses_what_is_no_json_power_or_number(triple):
    # a fractional power is refused, not truncated, and a bool or a string is no number
    with pytest.raises(ConfigError):
        io.poly_from_triples([triple])
    assert io.poly_from_triples([[1, 0, 2], [0, 1, 0.5]]) == io.poly_from_triples([[1, 0, 2.0], [0, 1, 0.5]])


def test_system_from_dict_refuses_a_string_domain():
    with pytest.raises(ConfigError):
        io.system_from_dict(dict(SYSTEM_DICT, domain=["-1", 1, -1, 1]))
    assert io.system_from_dict(dict(SYSTEM_DICT, domain=[-1, 1, -1, 1.5])).h.domain == (-1.0, 1.0, -1.0, 1.5)


@pytest.mark.parametrize(
    "d",
    [[SYSTEM_DICT], dict(SYSTEM_DICT, X=[1, 2]), dict(SYSTEM_DICT, Y=3), dict(SYSTEM_DICT, domain=5)],
    ids=["top-level-array", "X-list", "Y-number", "domain-number"],
)
def test_system_from_dict_refuses_values_of_the_wrong_shape(d):
    # an array where an object belongs, or a number where an object or a list belongs
    with pytest.raises(ConfigError, match="bad system: "):
        io.system_from_dict(d)


def test_system_missing_key():
    with pytest.raises(ConfigError):
        io.system_from_dict({"X": SYSTEM_DICT["X"], "h": SYSTEM_DICT["h"]})


def test_read_system_errors(tmp_path):
    with pytest.raises(IOFailure):
        io.read_system(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        io.read_system(str(bad))


def test_germ_file_roundtrip(tmp_path):
    from sigmapoly.maps import Germ

    g = Germ(base=0.1, coeffs=(0.5, 0.0, -0.5), residual=1e-12, window=0.3,
             chart={"anchor": [1.0, 0.0]})
    path = tmp_path / "germ.json"
    io.write_text(str(path), io.dumps(g.to_dict()) + "\n")
    assert io.germ_from_dict(json.loads(path.read_text())) == g


def test_model_roundtrip():
    m = normal_form_model(1.0, 2.0, 2, lam=(-0.01,), a=0.05)
    m2 = io.model_from_dict(model := io.model_to_dict(m))
    assert m2 == m
    # serialization is stable: dump -> load -> dump is the identity
    assert io.dumps(io.model_to_dict(m2)) == io.dumps(model)


def test_model_from_dict_rejects_bad_sigma():
    d = io.model_to_dict(normal_form_model(1.0, 2.0, 2))
    d["legs"][0]["sigma"] = [[-0.3, 0.0], [0.0, 0.3]]
    with pytest.raises(ConfigError):
        io.model_from_dict(d)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(k=1.5),
        lambda d: d.update(k=True),
        lambda d: d["legs"][0]["Tu"].update(coeffs="103"),  # not (1.0, 0.0, 3.0)
        lambda d: d["legs"][0].update(sigma=[[-0.3, 0.0, 5.0]]),  # not (-0.3, 0.0)
        # a JSON string or bool is no number: none is read as float() would read it
        lambda d: d["legs"][0]["Tu"].update(base="0.5"),
        lambda d: d["legs"][0].update(a=True),
        lambda d: d["legs"][0]["Tu"].update(coeffs=[True, 0.0, 1.0]),
        lambda d: d["legs"][0]["DTs"].update(residual="0"),
        lambda d: d["legs"][0].update(sigma=[["-0.3", "0"]]),
    ],
    ids=["k-fraction", "k-bool", "coeffs-string", "sigma-three-ends", "base-string", "a-bool", "coeff-bool",
         "residual-string", "sigma-strings"],
)
def test_model_from_dict_refuses_malformed_values(edit):
    d = io.model_to_dict(normal_form_model(1.0, 2.0, 2))
    edit(d)
    with pytest.raises(ConfigError):
        io.model_from_dict(d)


def test_dumps_is_key_order_independent():
    assert io.dumps({"b": 1, "a": 2}) == io.dumps({"a": 2, "b": 1})


def test_dumps_refuses_non_finite_numbers():
    # strict JSON has no NaN or Infinity token
    for v in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            io.dumps({"x": v})


def test_read_germ_refuses_empty_and_non_finite(tmp_path):
    path = tmp_path / "germ.json"
    for d in ({"base": 0.0, "coeffs": []}, {"base": float("nan"), "coeffs": [1.0]},
              {"base": 0.0, "coeffs": [1.0], "window": float("inf")}):
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError):
            io.germ_from_dict(json.loads(path.read_text()))


def test_trajectory_csv_format():
    Z = make_system(poly_x(), poly_const(1.0))
    arcs = filippov_trajectory(Z, (-2.0, 0.5), tmax=1.0, dt_out=0.1)
    text = io.trajectory_csv(arcs)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x,y,regime,event"
    assert all(line.split(",")[3] in ("P", "M", "S") for line in lines[1:])
    # floats use repr: exact round-trip
    t0, x0, y0 = lines[1].split(",")[:3]
    assert float(t0) == 0.0 and float(x0) == -2.0 and float(y0) == 0.5


def test_diagram_and_curves_csv():
    fam = cusp_family()
    grid = sweep_diagram(fam, 3, 3)
    text = io.diagram_csv(grid)
    lines = text.strip().split("\n")
    assert lines[0] == "p1,p2,label,crossing_cycles,polycycles,sliding_cycles,flags"
    assert len(lines) == 1 + 9
    ctext = io.curves_csv(grid.curves)
    clines = ctext.strip().split("\n")
    assert clines[0] == "curve,param,p1,p2"
    names = [line.split(",")[0] for line in clines[1:]]
    assert names == sorted(names)
    assert set(names) == {"Abar", "Vbar", "Ibar"}
