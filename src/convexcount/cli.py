"""Command-line interface: gen, count, verify, bound and minimize.

Exit codes are uniform across subcommands: 0 success, 1 verification or
consistency failure, 2 invalid input data, 3 usage error.  JSON reports are
schema-stable with top-level keys {n, engine, counts4, counts5, stats,
identities, bound, timings}; integer counts are serialized as decimal
strings because they can exceed 64 bits, and every exact rational carries
its float value alongside.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Optional

from .counting import (
    InconsistentCountsError,
    aggregate_regions,
    count4_from_regions,
    count4_naive,
    count5_from_regions,
    count5_naive,
)
from .geometry import (
    COORD_BOUND,
    InvalidPlacementError,
    ParseError,
    ValidationError,
    load_placement,
    save_placement,
)
from .identities import bound_report, stats, verify_identities
from .search import (
    CONSISTENCY_VIOLATION,
    AnnealConfig,
    GenerationError,
    GeneratorSpec,
    generate,
    minimize_pentagons,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_USAGE = 3

_GEN_KINDS = {
    "parabola": "parabola",
    "random": "random_disc",
    "convex": "convex",
    "grid": "grid_perturbed",
}

NAIVE_CHECK_MAX_N = 11

# Largest n for --engine naive.  It classifies all C(n,5) subsets in pure
# Python: 0.8 s at n=50 and 2.1 s at n=60 on a 2-vCPU machine, so about
# 27 s at n=100 by n**5 scaling, and its tridot flags take C(n,4) bytes
# (3.9 MB at n=100).  Above it the request exits 2 before counting.
NAIVE_ENGINE_MAX_N = 100


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 3 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_in(low: int, high: Optional[int] = None):
    """An argparse type: an int at least low, and at most high if given."""
    limit = f"be at least {low}" if high is None else f"lie in [{low}, {high}]"

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"must {limit}, got {value}")
        return value

    return convert


def _json(value):
    """A result value as JSON, a dataclass field by field: ints (not bools)
    become decimal strings, Fractions {"exact", "float"}; bools, floats and
    None stay as they are."""
    if is_dataclass(value):
        return {f.name: _json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Fraction):
        return {"exact": str(value), "float": float(value)}
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return value


def _identities_json(report) -> dict:
    return {
        "all_pass": report.all_pass,
        "checks": [
            {
                "id": c.id,
                "description": c.description,
                "lhs": str(c.lhs),
                "rhs": str(c.rhs),
                "relation": c.relation,
                "pass": c.passed,
            }
            for c in report.checks
        ],
    }


def _render_text(report: dict) -> str:
    lines = [f"n: {report['n']}", f"engine: {report['engine']}"]
    for section in ("counts4", "counts5"):
        counts = " ".join(f"{k}={v}" for k, v in report[section].items())
        lines.append(f"{section}: {counts}")

    def walk(section):
        lines.append(f"{section}:")
        for key, value in report[section].items():
            if isinstance(value, dict):  # an exact rational
                value = f"{value['exact']} ({value['float']:.6g})"
            lines.append(f"  {key}: {value}")

    walk("stats")
    ident = report["identities"]
    if ident is not None:
        lines.append(f"identities: all_pass={'yes' if ident['all_pass'] else 'NO'}")
        for c in ident["checks"]:
            status = "pass" if c["pass"] else "FAIL"
            lines.append(
                f"  {c['id']:<4} {status}  {c['lhs']} {c['relation']} {c['rhs']}"
                f"  [{c['description']}]"
            )
    if report["bound"] is not None:
        walk("bound")
    parts = " ".join(f"{k}={v:.4f}s" for k, v in report["timings"].items())
    lines.append(f"timings: {parts}")
    return "\n".join(lines) + "\n"


def _write(placement, output: Optional[str], comment: Optional[str] = None) -> None:
    """Save a placement, under comment as '#' lines, to the file output or
    to stdout."""
    if output:
        with open(output, "w", encoding="ascii") as fh:
            save_placement(placement, fh, comment)
    else:
        save_placement(placement, sys.stdout, comment)


def cmd_gen(args) -> int:
    spec = GeneratorSpec(
        _GEN_KINDS[args.kind], args.n, seed=args.seed, coord_bound=args.bound
    )
    _write(generate(spec), args.output)
    return EXIT_OK


def cmd_request(args) -> int:
    """count, verify and bound: load and count the file, replay the naive
    engines (every n >= 3) for --engine naive and for auto at n <=
    NAIVE_CHECK_MAX_N, add the command's own section and emit the report with
    each phase's seconds.  A disagreement or a failed equation raises
    InconsistentCountsError before the report, so an emitted report exits 0."""
    timings = {}

    def timed(phase, work):
        t0 = time.perf_counter()
        result = work()
        timings[phase] = time.perf_counter() - t0
        return result

    def load():
        with open(args.file, "rb") as fh:
            return load_placement(fh)

    placement = timed("parse", load)
    n, engine = placement.n, args.engine
    if engine == "naive" and n > NAIVE_ENGINE_MAX_N:
        raise ValueError(
            f"--engine naive needs n <= {NAIVE_ENGINE_MAX_N}, got {n}; "
            "use --engine regions"
        )
    agg = timed("aggregate", lambda: aggregate_regions(placement))
    counts = timed("derive", lambda: (count4_from_regions(agg), count5_from_regions(agg)))
    if engine == "naive" or (engine == "auto" and n <= NAIVE_CHECK_MAX_N):
        naive = timed("naive", lambda: (count4_naive(placement), count5_naive(placement)))
        if naive != counts:
            raise InconsistentCountsError(f"engine mismatch: naive {naive} vs regions {counts}")
    t4, t5 = counts
    report = {
        "n": n,
        "engine": engine,
        "counts4": _json(t4),
        "counts5": _json(t5),
        "stats": _json(stats(agg, t5)),
        "identities": None,
        "bound": None,
        "timings": timings,
    }
    if args.command == "verify":
        report["identities"] = _identities_json(
            timed("verify", lambda: verify_identities(agg, t4, t5)))
    elif args.command == "bound":
        report["bound"] = _json(timed("bound", lambda: bound_report(agg)))
        del report["bound"]["n"]  # already at the top level
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        sys.stdout.write(_render_text(report))
    return EXIT_OK


def cmd_minimize(args) -> int:
    cfg = AnnealConfig(
        n=args.n,
        iterations=args.iters,
        restarts=args.restarts,
        seed=args.seed,
        coord_bound=args.bound,
        target=args.target,
    )
    result = minimize_pentagons(cfg)
    report = [
        f"n: {cfg.n}",
        f"best_pentagons: {result.best_pentagons}",
        f"iterations_used: {result.iterations_used}",
        f"restart_bests: {', '.join(str(b) for b in result.restart_bests)}",
        f"consistency: {result.consistency}",
        "trace_tail: " + "; ".join(
            f"restart {r} step {i}: {b}" for r, i, b in result.trace[-5:]),
    ]
    _write(result.best_placement, args.output, "\n".join(report))
    return EXIT_FAIL if result.consistency == CONSISTENCY_VIOLATION else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="convexcount",
        description=(
            "Exact counting of convex 4- and 5-point subsets of integer point "
            "placements, identity verification, lower-bound reports, and a "
            "pentagon minimizer."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate a placement file")
    p_gen.add_argument("--kind", choices=sorted(_GEN_KINDS), default="random")
    p_gen.add_argument("--n", type=_int_in(3), required=True)
    p_gen.add_argument("--seed", type=_int_in(0), default=0)
    p_gen.add_argument("--bound", type=_int_in(3, COORD_BOUND), default=COORD_BOUND)
    p_gen.add_argument("-o", "--output", metavar="FILE")
    p_gen.set_defaults(func=cmd_gen)

    # count alone chooses its engine; verify and bound run the region engine
    for name, help_text, engine in (
        ("count", "count subset types in a placement file", "auto"),
        ("verify", "verify all exact counting identities", "regions"),
        ("bound", "evaluate the pentagon lower-bound chain", "regions"),
    ):
        p_request = sub.add_parser(name, help=help_text)
        p_request.add_argument("file")
        if name == "count":
            p_request.add_argument(
                "--engine", choices=("naive", "regions", "auto"), default=engine)
        p_request.add_argument("--format", choices=("json", "text"), default="text")
        p_request.set_defaults(func=cmd_request, engine=engine)

    p_min = sub.add_parser("minimize", help="search for a low-pentagon placement")
    p_min.add_argument("--n", type=_int_in(5), required=True)
    p_min.add_argument("--iters", type=_int_in(1), default=60_000)
    p_min.add_argument("--restarts", type=_int_in(1), default=4)
    p_min.add_argument("--seed", type=_int_in(0), default=0)
    p_min.add_argument("--bound", type=_int_in(3, COORD_BOUND), default=10_000)
    p_min.add_argument("--target", type=_int_in(0))
    p_min.add_argument("-o", "--output", metavar="FILE")
    p_min.set_defaults(func=cmd_minimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except InconsistentCountsError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ParseError, ValidationError, InvalidPlacementError, GenerationError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
