import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sigmapoly.core import FilippovSystem, PolyField, SwitchingFunction
from sigmapoly.poly2 import Poly2, poly_const, poly_x, poly_y


@pytest.fixture
def h_y():
    return SwitchingFunction(poly_y())


@pytest.fixture
def fold_field():
    # X = (1, x): visible fold at the origin, exact transition map
    # T(x) = (1 - x^2)/2 onto {x = 1}
    return PolyField(poly_const(1.0), poly_x())


@pytest.fixture
def cusp_field():
    # X = (1, x^2): cusp (3rd order contact) at the origin
    return PolyField(poly_const(1.0), poly_x() * poly_x())


@pytest.fixture
def pitchfork_field():
    # X = (1, x^3 - x): the lambda = 1 member of X_lam = (1, x^3 - lam x)
    return PolyField(poly_const(1.0), poly_x() * poly_x() * poly_x() - poly_x())


def make_system(fy_x, gy_x, h=None):
    """Z with X = (1, fy(x)), Y = (1, gy(x)) and h = y."""
    one = poly_const(1.0)
    return FilippovSystem(
        PolyField(one, fy_x),
        PolyField(one, gy_x),
        h or SwitchingFunction(poly_y()),
    )


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fresh_python(tmp_path):
    """Run a script in a new interpreter with src/ on its path, in tmp_path; the JSON of its last stdout line."""

    def run(code: str):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        res = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert res.returncode == 0, res.stderr
        return json.loads(res.stdout.splitlines()[-1])

    return run
