"""Readers/writers for the JSON and CSV interchange formats.

All floats are serialized as shortest round-trip decimals (Python repr),
so identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import json

import numpy as np

from .core import FilippovSystem, PolyField, SwitchingFunction
from .errors import ConfigError, IOFailure
from .maps import Germ
from .poly2 import Poly2
from .polycycle import SyntheticLeg, SyntheticModel


def finite(vals, what: str):
    """vals (a number or nested tuples of numbers) unchanged; a ConfigError unless all are finite."""
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"{what} must be finite")
    return vals


def _number(v, what: str, integer: bool = False):
    """v as a float (an int if integer); a ConfigError unless a JSON number (integer), not a bool or a string."""
    if isinstance(v, bool) or not isinstance(v, int if integer else (int, float)):
        raise ConfigError(f"{what} must be a JSON {'integer' if integer else 'number'}, got {v!r}")
    return v if integer else float(v)


# -- system JSON --------------------------------------------------------------


def poly_from_triples(triples) -> Poly2:
    try:
        return Poly2.from_triples([
            (_number(i, "a power", True), _number(j, "a power", True), _number(c, "a coefficient"))
            for i, j, c in triples
        ])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad coefficient triples: {e}") from e


def system_from_dict(d: dict) -> FilippovSystem:
    try:
        X = PolyField(
            poly_from_triples(d["X"]["fx"]), poly_from_triples(d["X"]["fy"])
        )
        Y = PolyField(
            poly_from_triples(d["Y"]["fx"]), poly_from_triples(d["Y"]["fy"])
        )
        if "domain" in d:
            h = SwitchingFunction(
                poly_from_triples(d["h"]), domain=tuple(_number(v, "domain") for v in d["domain"])
            )
        else:
            h = SwitchingFunction(poly_from_triples(d["h"]))
    except KeyError as e:
        raise ConfigError(f"system file missing key {e}") from e
    except (TypeError, ValueError) as e:  # a wrong JSON shape, degree cap, degenerate domain, grad h = 0 on Sigma
        raise ConfigError(f"bad system: {e}") from e
    return FilippovSystem(X=X, Y=Y, h=h)


def _read_json(path: str, what: str):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise IOFailure(f"cannot read {what} file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} file {path} is not valid JSON: {e}") from e


def read_system(path: str) -> FilippovSystem:
    return system_from_dict(_read_json(path, "system"))


# -- germ / model JSON --------------------------------------------------------


def germ_from_dict(d: dict) -> Germ:
    """Germ.from_dict, refusing a germ whose coeffs are not a non-empty list, or with a number
    that is not a finite JSON number."""
    if not isinstance(d["coeffs"], list) or not d["coeffs"]:
        raise ConfigError(f"a germ needs a list of at least one coefficient, got {d['coeffs']!r}")
    for v in (d["base"], *d["coeffs"], *(d[k] for k in ("residual", "window") if k in d)):
        _number(v, "every germ number")
    g = Germ.from_dict(d)
    finite((g.base, *g.coeffs, g.residual, g.window), "every germ number")
    return g


def dumps(obj) -> str:
    # strict JSON: a NaN or an infinity is a ValueError, never a bare NaN/Infinity token
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "), allow_nan=False)


def model_to_dict(m: SyntheticModel) -> dict:
    return {
        "k": m.k,
        "legs": [
            {
                "Tu": leg.Tu.to_dict(),
                "DTs": leg.DTs.to_dict(),
                "sigma": [list(leg.sigma)],
                "a": leg.a,
            }
            for leg in m.legs
        ],
    }


def model_from_dict(d: dict) -> SyntheticModel:
    try:
        legs = []
        for leg in d["legs"]:
            sigma = leg["sigma"]
            if len(sigma) != 1 or len(sigma[0]) != 2:
                raise ConfigError(f"a leg needs exactly one sigma interval [lo, hi], got {sigma!r}")
            lo, hi = finite(tuple(_number(v, "sigma") for v in sigma[0]), "sigma")
            if not lo < hi:
                raise ConfigError(f"sigma window [{lo}, {hi}] needs lo < hi")
            legs.append(
                SyntheticLeg(
                    Tu=germ_from_dict(leg["Tu"]),
                    DTs=germ_from_dict(leg["DTs"]),
                    sigma=(lo, hi),
                    a=finite(_number(leg.get("a", 0.0), "a"), "a"),
                )
            )
        k = _number(d["k"], "k", integer=True)  # a JSON true is a bool, and 1.5 is no count of legs
        if k < 1:
            raise ConfigError(f"a model needs k >= 1 legs, got k = {k}")
        if k != len(legs):
            raise ConfigError(f"k = {k} but {len(legs)} legs given")
        return SyntheticModel(legs=tuple(legs))
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad model JSON: {e}") from e


def read_model(path: str) -> SyntheticModel:
    return model_from_dict(_read_json(path, "model"))


# -- CSV ----------------------------------------------------------------------


def trajectory_csv(arcs) -> str:
    """Trajectory CSV of filippov_trajectory's arcs: t,x,y,regime,event with regime in {P,M,S}."""
    regime_code = {"Mplus": "P", "Mminus": "M", "Sliding": "S"}
    lines = ["t,x,y,regime,event"]
    for arc in arcs:
        code = regime_code[arc.regime]
        for k, t in enumerate(arc.ts):
            x, y = arc.points[k]
            event = ""
            if k == len(arc.ts) - 1 and arc.exit_event:
                event = arc.exit_event
            lines.append(f"{float(t)!r},{float(x)!r},{float(y)!r},{code},{event}")
    return "\n".join(lines) + "\n"


def diagram_csv(grid) -> str:
    """diagram.csv of a DiagramGrid: each cell's p1,p2, its label and its pre-built tail."""
    rows = (f"{p1!r},{p2!r},{label},{tail}" for (p1, p2), label, tail in zip(grid.params, grid.labels, grid.tails))
    return "\n".join(["p1,p2,label,crossing_cycles,polycycles,sliding_cycles,flags", *rows]) + "\n"


def curves_csv(curves: dict) -> str:
    lines = ["curve,param,p1,p2"]
    for name in sorted(curves):
        for param, p1, p2 in curves[name]:
            lines.append(f"{name},{param!r},{p1!r},{p2!r}")
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise IOFailure(f"cannot write {path}: {e}") from e
