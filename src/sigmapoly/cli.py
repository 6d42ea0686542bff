"""Command-line front end.

One binary, subcommand style: classify | flow | transition | mirror |
germ | polycycle-solve | scenario-curves | diagram.  Exit codes: 0 ok,
2 configuration error, 3 numeric failure, 4 I/O failure; errors are
emitted as a JSON object on stderr.  All artifacts are byte-stable across
reruns (shortest round-trip float formatting, deterministic ordering).
"""

from __future__ import annotations

import argparse
import dataclasses
from functools import cache
import os
import re
import sys

import numpy as np

from . import bifurcation, io
from .core import classify_sigma_point
from .errors import ConfigError, IOFailure, SigmapolyError
from .flow import Section, filippov_trajectory
from .maps import exclusion_set, mirror_map, transition_germ, transition_map
from .polycycle import find_cycles


def _parse_point(s: str) -> tuple[float, float]:
    parts = s.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected 'x,y', got {s!r}")
    try:
        return io.finite((float(parts[0]), float(parts[1])), f"point {s!r}")
    except ValueError as e:
        raise ConfigError(f"bad point {s!r}: {e}") from e


def _parse_section(s: str) -> Section:
    parts = s.split(",")
    if len(parts) not in (4, 5):
        raise ConfigError(f"expected 'ax,ay,dx,dy[,halfwidth]', got {s!r}")
    try:
        vals = io.finite(tuple(float(v) for v in parts), f"section {s!r}")
    except ValueError as e:
        raise ConfigError(f"bad section {s!r}: {e}") from e
    hw = vals[4] if len(vals) == 5 else 0.05
    try:
        return Section(anchor=(vals[0], vals[1]), direction=(vals[2], vals[3]), halfwidth=hw)
    except ValueError as e:
        raise ConfigError(f"bad section {s!r}: {e}") from e


def _parse_grid(s: str) -> tuple[int, int]:
    try:
        n1, n2 = s.lower().split("x")
        n1, n2 = int(n1), int(n2)
    except ValueError as e:
        raise ConfigError(f"bad grid spec {s!r}, expected like '41x41'") from e
    if n1 < 1 or n2 < 1:
        raise ConfigError("grid resolutions must be positive")
    return n1, n2


def _emit(obj) -> None:
    sys.stdout.write(io.dumps(obj) + "\n")


def _output(path: str | None, text: str) -> int:
    """Write text to the file at path, or to stdout without one."""
    if path:
        io.write_text(path, text)
    else:
        sys.stdout.write(text)
    return 0


# -- subcommands --------------------------------------------------------------


def _cmd_classify(args) -> int:
    Z = io.read_system(args.system)
    p = _parse_point(args.point)
    cls = classify_sigma_point(Z, np.array(p), strict=args.strict)
    # the kebab-case class name, its fields, and its sorted flags when there are any
    d = dataclasses.asdict(cls)
    flags = sorted(d.pop("flags"))
    d["class"] = re.sub(r"(?<!^)(?=[A-Z])", "-", type(cls).__name__).lower()
    if flags:
        d["flags"] = flags
    _emit(d)
    return 0


def _cmd_flow(args) -> int:
    if args.dt_out <= 0:
        raise ConfigError("--dt-out must be positive")
    if args.tmax <= 0:
        raise ConfigError("--tmax must be positive")
    Z = io.read_system(args.system)
    p = _parse_point(args.point)
    arcs = filippov_trajectory(Z, np.array(p), tmax=args.tmax, dt_out=args.dt_out)
    return _output(args.out, io.trajectory_csv(arcs))


def _cmd_transition(args) -> int:
    Z = io.read_system(args.system)
    F = getattr(Z, args.field)
    tau = _parse_section(args.section)
    val = transition_map(F, Z.h, tau, args.x, direction=args.direction)
    _emit({"T": val})
    return 0


def _cmd_mirror(args) -> int:
    Z = io.read_system(args.system)
    F = getattr(Z, args.field)
    side = -1 if args.side == "minus" else 1
    exclusions = None
    if args.window is not None:
        if args.window <= 0:
            raise ConfigError("--window must be positive")
        exclusions = exclusion_set(F, Z.h, (-args.window, args.window), side=side)
    val = mirror_map(F, Z.h, args.x, side=side, exclusions=exclusions)
    _emit({"rho": val})
    return 0


def _cmd_germ(args) -> int:
    Z = io.read_system(args.system)
    F = getattr(Z, args.field)
    tau = _parse_section(args.section)
    if args.window <= 0:
        raise ConfigError("--window must be positive")
    if args.degree < 0:
        raise ConfigError("--degree must be non-negative")
    g = transition_germ(F, Z.h, tau, args.base, args.degree, args.window, direction=args.direction)
    return _output(args.out, io.dumps(g.to_dict()) + "\n")


def _cmd_polycycle_solve(args) -> int:
    model = io.read_model(args.model)
    reports = find_cycles(model)
    # dP = inf where DTs' = 0, which is no JSON number
    out = [{**dataclasses.asdict(r), "dP": r.dP if np.isfinite(r.dP) else None} for r in reports]
    return _output(args.out, io.dumps(out) + "\n")


def _scenario(name: str) -> bifurcation.ScenarioFamily:
    try:
        return bifurcation.SCENARIOS[name]()
    except KeyError as e:
        known = ", ".join(sorted(bifurcation.SCENARIOS))
        raise ConfigError(f"unknown scenario {name!r}; known: {known}") from e


def _cmd_scenario_curves(args) -> int:
    fam = _scenario(args.scenario)
    if args.param is not None:
        cur = bifurcation.scenario_curves(fam, args.param)
        d = dict(sorted(cur.values.items()))
        if cur.degenerate:
            d["degenerate"] = True
        _emit(d)
        return 0
    bifurcation._curves_of(fam)  # refuses the circle, whose curves are not known in closed form
    if args.samples < 1:
        raise ConfigError("--samples must be positive")
    return _output(args.out, io.curves_csv(bifurcation._trace_curves(fam, args.samples)))


def _cmd_diagram(args) -> int:
    fam = _scenario(args.scenario)
    n1, n2 = _parse_grid(args.grid)
    ranges = None
    if args.ranges:
        try:
            r1, r2 = args.ranges.split(",")
            lo1, hi1 = (float(v) for v in r1.split(":"))
            lo2, hi2 = (float(v) for v in r2.split(":"))
            ranges = io.finite(((lo1, hi1), (lo2, hi2)), f"--ranges {args.ranges!r}")
        except ValueError as e:
            raise ConfigError(
                f"bad --ranges {args.ranges!r}, expected 'lo:hi,lo:hi'"
            ) from e
        if lo1 > hi1 or lo2 > hi2:
            raise ConfigError(f"--ranges {args.ranges!r} needs lo <= hi on each axis")
    grid = bifurcation.sweep_diagram(fam, n1, n2, ranges=ranges)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        raise IOFailure(f"cannot create output directory {args.out}: {e}") from e
    io.write_text(os.path.join(args.out, "diagram.csv"), io.diagram_csv(grid))
    io.write_text(os.path.join(args.out, "curves.csv"), io.curves_csv(grid.curves))
    return 0


# -- parser -------------------------------------------------------------------


@cache  # built on the first run, once per process
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sigmapoly",
        description="Switching-manifold classification, transfer-map germs, "
        "polycycle crossing systems, and bifurcation diagrams for planar "
        "piecewise-smooth systems.",
    )
    p.add_argument("--strict", action="store_true", help="escalate near-degenerate flags to errors")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("classify", help="classify a point of the switching line")
    c.add_argument("--system", required=True)
    c.add_argument("--point", required=True)
    c.set_defaults(fn=_cmd_classify)

    c = sub.add_parser("flow", help="integrate the piecewise trajectory, CSV output")
    c.add_argument("--system", required=True)
    c.add_argument("--point", required=True)
    c.add_argument("--tmax", type=float, default=10.0)
    c.add_argument("--dt-out", type=float, default=0.01)
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_flow)

    c = sub.add_parser("transition", help="transition-map value onto a section")
    c.add_argument("--system", required=True)
    c.add_argument("--field", default="X", choices=("X", "Y"))
    c.add_argument("--section", required=True, help="ax,ay,dx,dy[,halfwidth]")
    c.add_argument("--x", type=float, required=True)
    c.add_argument("--direction", default="forward", choices=("forward", "backward"))
    c.set_defaults(fn=_cmd_transition)

    c = sub.add_parser("mirror", help="mirror-map value on the switching line")
    c.add_argument("--system", required=True)
    c.add_argument("--field", default="X", choices=("X", "Y"))
    c.add_argument("--x", type=float, required=True)
    c.add_argument("--side", default="minus", choices=("minus", "plus"))
    c.add_argument("--window", type=float, default=None, help="scan width for exclusions")
    c.set_defaults(fn=_cmd_mirror)

    c = sub.add_parser("germ", help="fit a transition-map germ")
    c.add_argument("--system", required=True)
    c.add_argument("--field", default="X", choices=("X", "Y"))
    c.add_argument("--section", required=True)
    c.add_argument("--base", type=float, default=0.0)
    c.add_argument("--degree", type=int, default=2)
    c.add_argument("--window", type=float, default=0.05)
    c.add_argument("--direction", default="forward", choices=("forward", "backward"))
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_germ)

    c = sub.add_parser("polycycle-solve", help="solve a crossing system from model JSON")
    c.add_argument("--model", required=True)
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_polycycle_solve)

    c = sub.add_parser("scenario-curves", help="bifurcation-curve values or CSV")
    c.add_argument("--scenario", required=True)
    c.add_argument("--param", type=float, default=None)
    c.add_argument("--samples", type=int, default=201)
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_scenario_curves)

    c = sub.add_parser("diagram", help="parameter-plane sweep: diagram.csv + curves.csv")
    c.add_argument("--scenario", required=True)
    c.add_argument("--grid", required=True, help="e.g. 41x41")
    c.add_argument(
        "--ranges",
        default=None,
        help="lo:hi,lo:hi; a range starting with '-' must be passed as --ranges=lo:hi,lo:hi",
    )
    c.add_argument("--out", required=True, help="output directory")
    c.set_defaults(fn=_cmd_diagram)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse has written its message to stderr
        return e.code
    try:
        for name, v in vars(args).items():  # every numeric flag
            if isinstance(v, float):
                io.finite(v, "--" + name.replace("_", "-"))
        return args.fn(args)
    except SigmapolyError as e:
        sys.stderr.write(io.dumps({"error": type(e).__name__, "message": str(e)}) + "\n")
        return 2 if isinstance(e, ConfigError) else 4 if isinstance(e, IOFailure) else 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
