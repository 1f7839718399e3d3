"""Command-line surface.

Subcommands: gen (point clouds), radii, build, color (auxiliary-graph greedy
coloring), verify (randomized suites), theta (packing bounds), export (graph
format conversion).  Exit codes: 0 all checks passed, 1 a verification bound
was violated, 2 usage or input error, or a subcommand that ran out of memory.
SIGLAB_SEED provides the default seed when --seed is absent.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .generators import DISTRIBUTIONS, generate_points
from .io import export_graph, parse_points, read_graph_json, write_points
from .norms import parse_norm
from .packing import packing_bounds, validate_packing
from .sig import build_aux_graph, greedy_color, ksig_pipeline, kth_radii, sort_by_radius
from .suites import run_verify_suite

__all__ = ["main", "build_parser"]


def _seed_default() -> int:
    raw = os.environ.get("SIGLAB_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SIGLAB_SEED must be an integer, got {raw!r}") from None


class _Parser(argparse.ArgumentParser):
    """Raises argument errors as ValueError, so main reports them in one line;
    subparsers are made of the same class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    """The siglab argument parser.  Its ``parse_args`` raises ValueError on a
    malformed argument (not argparse's usage message and SystemExit(2));
    ``--help`` still prints the usage and exits 0."""
    parser = _Parser(
        prog="siglab",
        description="k-th closed sphere-of-influence graphs over arbitrary norms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded random point cloud")
    gen.add_argument("--n", type=int, required=True, help="number of points")
    gen.add_argument("--dim", type=int, required=True, help="ambient dimension")
    gen.add_argument("--dist", choices=DISTRIBUTIONS, default="uniform-box")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True, help="output path (.csv or .json)")
    gen.add_argument("--format", choices=("csv", "json"), default=None)

    def add_input_args(p):
        p.add_argument("--in", dest="infile", required=True, help="point file (.csv or .json)")
        p.add_argument("--format", choices=("csv", "json"), default=None, help="input format")
        p.add_argument("--dim", type=int, default=None, help="expected dimension (checked)")
        p.add_argument("--norm", default="l2", help="l1|l2|linf|lp:<p>|wlp:<p>:<w,..>|poly:<path>")
        p.add_argument("--k", type=int, default=1)

    radii = sub.add_parser("radii", help="print the influence radius of every point")
    add_input_args(radii)

    build = sub.add_parser("build", help="build the graph and verify its bounds")
    add_input_args(build)
    build.add_argument("--out", required=True, help="output path (.json or .dot)")
    build.add_argument("--out-format", choices=("json", "dot"), default=None)

    color = sub.add_parser("color", help="greedy-color the auxiliary graph in radius order")
    add_input_args(color)

    verify = sub.add_parser("verify", help="run the randomized verification suites")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--instances", type=int, default=40)
    verify.add_argument("--max-points", type=int, default=60)
    verify.add_argument("--lemmas", action="store_true", help="also sweep the geometric inequalities")
    verify.add_argument("--json", dest="json_out", default=None, help="write the report as JSON")
    verify.add_argument(
        "--inject-fault",
        action="store_true",
        help="self-test: build graphs with a deliberately broken edge rule",
    )

    theta = sub.add_parser("theta", help="packing bounds for a norm ball")
    theta.add_argument("--norm", default="l2")
    theta.add_argument("--dim", type=int, required=True)
    theta.add_argument("--seed", type=int, default=None)
    theta.add_argument("--restarts", type=int, default=20)
    theta.add_argument("--candidates", type=int, default=100_000)
    theta.add_argument("--witness", default="theta_witness.json", help="witness output path")

    export = sub.add_parser("export", help="convert a built graph between json and dot")
    export.add_argument("--in", dest="infile", required=True, help="graph .json file")
    export.add_argument("--out", required=True)
    export.add_argument("--out-format", choices=("json", "dot"), default=None)

    return parser


# main reads one parser per process: building it takes about 2 ms
_parser = functools.cache(build_parser)


def _resolve_seed(value: int | None) -> int:
    return _seed_default() if value is None else value


def _load_points(args):
    points = parse_points(args.infile, fmt=args.format, dim=args.dim)
    norm = parse_norm(args.norm, points.dim)
    return points, norm


def _cmd_gen(args) -> int:
    points = generate_points(args.n, args.dim, args.dist, seed=_resolve_seed(args.seed))
    write_points(points, args.out, fmt=args.format)
    print(f"wrote {len(points)} points in dimension {points.dim} to {args.out}")
    return 0


def _cmd_radii(args) -> int:
    points, norm = _load_points(args)
    assignment = kth_radii(points, args.k, norm)
    for value in assignment.radii.tolist():
        print(repr(value))
    return 0


def _cmd_build(args) -> int:
    points, norm = _load_points(args)
    result = ksig_pipeline(points, args.k, norm)
    export_graph(result.graph, result.radii, args.out, fmt=args.out_format)
    report = result.report
    print(
        f"n={len(points)} k={args.k} norm={norm.label()} edges={report.edge_count} "
        f"wrote {args.out}"
    )
    degrees = tuple(report.degree_sequence[list(report.witness_vertices)].tolist())
    print(
        f"degree bound {report.bound}: witnesses {report.witness_vertices} "
        f"degrees {degrees} -> {'ok' if report.passed else 'VIOLATED'}; "
        f"edge bound {report.edge_bound}: {report.edge_count} "
        f"-> {'ok' if report.edge_bound_ok else 'VIOLATED'}"
    )
    return 0 if report.passed and report.edge_bound_ok else 1


def _cmd_color(args) -> int:
    points, norm = _load_points(args)
    assignment = kth_radii(points, args.k, norm)
    aux = build_aux_graph(points, assignment, norm)
    coloring = greedy_color(aux, sort_by_radius(assignment))
    print(" ".join(map(str, coloring.colors.tolist())))
    ok = coloring.num_colors <= args.k
    print(
        f"auxiliary graph: {len(aux.pairs)} edges, {coloring.num_colors} colors "
        f"(k={args.k}) -> {'ok' if ok else 'VIOLATED'}"
    )
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    report = run_verify_suite(
        seed=_resolve_seed(args.seed),
        instances=args.instances,
        max_points=args.max_points,
        include_lemmas=args.lemmas,
        inject_fault=args.inject_fault,
    )
    for line in report.lines():
        print(line)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return 0 if report.passed else 1


def _cmd_theta(args) -> int:
    norm = parse_norm(args.norm, args.dim)
    bounds = packing_bounds(
        norm,
        seed=_resolve_seed(args.seed),
        restarts=args.restarts,
        candidates=args.candidates,
    )
    validity = validate_packing(bounds.witness)
    Path(args.witness).write_text(
        json.dumps({"points": bounds.witness.points.tolist()}) + "\n"
    )
    print(f"lower={bounds.lower} upper={bounds.upper} witness={args.witness}")
    if not validity.ok:
        print(f"witness INVALID: {validity.violations[0]}", file=sys.stderr)
        return 1
    return 0


def _cmd_export(args) -> int:
    graph, radii = read_graph_json(args.infile)
    export_graph(graph, radii, args.out, fmt=args.out_format)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "radii": _cmd_radii,
    "build": _cmd_build,
    "color": _cmd_color,
    "verify": _cmd_verify,
    "theta": _cmd_theta,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    command = "siglab"
    try:
        args = _parser().parse_args(argv)
        command = args.command
        return _COMMANDS[command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass  # reported below, once the handler has let go of the failed frames' arrays
    print(f"error: {command} ran out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
