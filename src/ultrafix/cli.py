"""JSON-in/JSON-out command line surface.

One request per invocation, no interactive mode: callers are scripts and test
harnesses.  Exit codes: 0 success, 1 solver error (structured JSON on
stdout), 2 malformed request.  Output is byte-identical for identical
(request, seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import jsonio
from .calculus import check_identities
from .contraction import ContractionProblem, iterate_fixed_point, lipschitz_theta
from .errors import SchemaError, UltrafixError
from .implicit import build_window, solve_implicit
from .inverse import certify, local_invert
from .jsonio import SCHEMA_VERSION, parse_ball, parse_field, parse_flag, parse_map, parse_rational

def _load_json(text_or_path: str, what: str):
    if text_or_path.lstrip().startswith(("{", "[")):
        payload = text_or_path
    else:
        path = Path(text_or_path)
        try:
            if not path.exists():
                raise SchemaError(f"{what} file not found: {text_or_path}")
            payload = path.read_text()
        except (OSError, ValueError) as exc:  # a directory, a bad name, unreadable bytes
            raise SchemaError(f"cannot read {what} file {text_or_path}: {exc}") from exc
    try:
        return json.loads(payload)
    except (ValueError, RecursionError) as exc:  # a huge integer literal, deep nesting
        raise SchemaError(f"invalid JSON for {what}: {exc}") from exc


def _emit(payload, stream=None) -> None:
    stream = stream or sys.stdout
    stream.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_request(args):
    """(field, map, geometry) of a request.

    The field and the geometry are optional for `check` alone, whose map is
    read without a domain; the other commands need all three.
    """
    check = args.command == "check"
    field = None if args.field is None else parse_field(_load_json(args.field, "field"))
    fmap = parse_map(_load_json(args.map, "map"), None if check else field)
    if args.geometry is None:
        if not check:
            raise SchemaError("this command needs --geometry")
        return field, fmap, {}
    geo = _load_json(args.geometry, "geometry")
    if not isinstance(geo, dict):
        raise SchemaError("geometry must be a JSON object")
    return field, fmap, geo


def _rational_list(data, what: str):
    if not isinstance(data, list):
        raise SchemaError(f"{what} must be a list of rationals")
    return tuple(parse_rational(v) for v in data)


def _rational_rows(data, what: str):
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise SchemaError(f"{what} must be a list of rows")
    return tuple(tuple(parse_rational(v) for v in row) for row in data)


def _target_precision(args):
    if args.tol is None:
        return None
    tol = parse_rational(args.tol)
    if tol <= 0:
        raise SchemaError(f"--tol must be positive, got {args.tol}")
    return tol


def _anchor(geo):
    """The optional anchor operator A of certify and invert."""
    return _rational_rows(geo["A"], "A") if geo.get("A") is not None else None


def _cmd_certify(args, field, fmap, geo):
    ball = parse_ball(geo.get("ball"), field)
    cert = certify(fmap, ball, _anchor(geo))
    return {"certificate": jsonio.encode_certificate(cert)}


def _cmd_invert(args, field, fmap, geo):
    ball = parse_ball(geo.get("ball"), field)
    A = _anchor(geo)
    if "target" not in geo:
        raise SchemaError("invert needs a 'target' in the geometry")
    target = _rational_list(geo["target"], "target")
    base = (
        _rational_list(geo["base"], "base") if geo.get("base") is not None else None
    )
    radius = parse_rational(geo["radius"]) if geo.get("radius") is not None else None
    cert = certify(fmap, ball, A)
    solution = local_invert(
        cert, fmap, target, base=base, radius=radius,
        target_precision=_target_precision(args),
    )
    return {
        "solution": jsonio.encode_vector(solution),
        "certificate": jsonio.encode_certificate(cert),
    }


def _cmd_fixpoint(args, field, fmap, geo):
    domain = parse_ball(geo.get("domain"), field)
    if "x0" not in geo:
        raise SchemaError("fixpoint needs 'x0' in the geometry")
    x0 = _rational_list(geo["x0"], "x0")
    supplied = parse_rational(geo["theta"]) if geo.get("theta") is not None else None
    theta = lipschitz_theta(fmap, domain, supplied)
    problem = ContractionProblem(fmap, domain, theta, x0)
    target = _target_precision(args)
    # the report budget is checked on the solve's own plan, before its first step
    report = iterate_fixed_point(problem, target, functools.partial(jsonio.check_report_budget, problem))
    return {"report": jsonio.encode_fixed_point_report(report, field)}


def _cmd_implicit(args, field, fmap, geo):
    for key in ("p0", "x0", "p"):
        if key not in geo:
            raise SchemaError(f"implicit needs '{key}' in the geometry")
    p0 = _rational_list(geo["p0"], "p0")
    x0 = _rational_list(geo["x0"], "x0")
    p = _rational_list(geo["p"], "p")
    z0 = _rational_list(geo["z0"], "z0") if geo.get("z0") is not None else None
    window = build_window(
        fmap, p0, x0, descriptor=field,
        exact_image=parse_flag(geo, "exact_image", False),
    )
    solution = solve_implicit(
        window, fmap, p, z0, target_precision=_target_precision(args)
    )
    return {
        "window": jsonio.encode_window(window),
        "solution": jsonio.encode_implicit_solution(solution, field),
    }


def _cmd_check(args, field, fmap, geo):
    mutation = geo.get("mutation")
    reports = {
        "exact": jsonio.encode_identity_report(
            check_identities(fmap, args.samples, args.seed, None, mutation)
        )
    }
    if field is not None:
        reports["field"] = jsonio.encode_identity_report(
            check_identities(fmap, args.samples, args.seed, field, mutation)
        )
    if not all(r["passed"] for r in reports.values()):
        witness = next(e for r in reports.values() for e in r["identities"] if not e["passed"])
        raise UltrafixError("identity suite failed", reports=reports, witness=witness)
    return {"reports": reports}


_COMMAND_TABLE = {
    "invert": (_cmd_invert, "solve f(v) = target inside a certified ball"),
    "implicit": (_cmd_implicit, "build a parameter window and solve f(p, x) = z0"),
    "fixpoint": (_cmd_fixpoint, "iterate a contraction to its fixed point with bounds"),
    "certify": (_cmd_certify, "compute an inversion certificate for a map on a ball"),
    "check": (_cmd_check, "run the difference-quotient identity suites"),
}
"""Each command's handler and help line, in the order `--help` lists them."""


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every run."""
    parser = argparse.ArgumentParser(
        prog="ultrafix",
        description="Certified inversion, implicit-function and fixed-point "
        "solving over valued fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in _COMMAND_TABLE.items():
        cmd = sub.add_parser(name, help=help_line)
        cmd.add_argument("--map", required=True, help="map JSON (file or inline)")
        cmd.add_argument(
            "--field",
            required=(name != "check"),
            help="field JSON (file or inline)",
        )
        cmd.add_argument("--geometry", help="geometry JSON (file or inline)")
        if name == "check":
            cmd.add_argument("--seed", type=int, default=0)
            cmd.add_argument("--samples", type=int, default=1000)
        if name in ("invert", "implicit", "fixpoint"):
            cmd.add_argument("--tol", help="target precision (rational string)")
    return parser


def run(argv=None, stream=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        result = _COMMAND_TABLE[args.command][0](args, *_load_request(args))
    except UltrafixError as exc:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "error": {"kind": exc.kind, "message": str(exc), **exc.details},
            },
            stream,
        )
        return 2 if isinstance(exc, SchemaError) else 1
    _emit(
        {"schema_version": SCHEMA_VERSION, "command": args.command, "result": result},
        stream,
    )
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
