"""Command-line interface.

Reads a system from a file (or standard input), finds an optimal monomial
quadratization, and prints it as text or as the structured JSON document.
Exit codes: 0 success, 1 unreadable or unparseable input, 2 invalid options,
3 no quadratization within --max-order.
"""

from __future__ import annotations

import argparse
import sys

from .output import render_result
from .parsing import ParseError, parse_system
from .solver import (
    NoQuadratizationWithinCap,
    SolveOptions,
    benchmark_system,
    bnb_search,
    laurent_quadratize,
)

_BENCHMARKS_WITH_SIZE = ("scalar_power", "cubic_cycle", "cubic_bicycle")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadratize",
        description="Compute an optimal monomial quadratization of a polynomial "
                    "ODE system (equations like \"x' = x^5\", one per line).",
    )
    parser.add_argument("input", nargs="?",
                        help="path of the system file; '-' or omitted reads stdin")
    parser.add_argument("--benchmark", metavar="NAME[:N]",
                        help="solve a built-in system instead of reading input: "
                             "scalar_power:N, cubic_cycle:N, cubic_bicycle:N, rf")
    parser.add_argument("--laurent", action="store_true",
                        help="emit the linear-size Laurent-monomial lifting "
                             "instead of searching for an optimum")
    parser.add_argument("--no-prune-quadratic", action="store_true",
                        help="disable the pair-count pruning rule")
    parser.add_argument("--no-prune-c4", action="store_true",
                        help="disable the graph-capacity pruning rule")
    parser.add_argument("--format", choices=("text", "structured"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--stats", action="store_true",
                        help="also print search statistics (text format)")
    parser.add_argument("--max-order", type=int, metavar="N", default=None,
                        help="search only for quadratizations with at most N new "
                             "variables; exit 3 if there is none")
    return parser


def _load_system(args, parser):
    if args.benchmark is not None:
        if args.input is not None:
            parser.error("give either an input file or --benchmark, not both")
        name, sep, size = args.benchmark.partition(":")
        try:
            if name in _BENCHMARKS_WITH_SIZE:
                if not sep:
                    parser.error(f"benchmark {name} needs a size, e.g. {name}:4")
                return benchmark_system(name, int(size))
            if sep:
                parser.error(f"benchmark {name} does not take a size")
            return benchmark_system(name)
        except ValueError as exc:
            parser.error(str(exc))
    if args.input is None or args.input == "-":
        return parse_system(sys.stdin.read())
    with open(args.input, "r", encoding="utf-8") as handle:
        return parse_system(handle.read())


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if args.max_order is not None and args.max_order < 0:
        parser.print_usage(sys.stderr)
        sys.stderr.write("quadratize: error: --max-order must be nonnegative\n")
        return 2

    try:
        try:
            system = _load_system(args, parser)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"quadratize: error: {exc}\n")
        return 1

    if args.laurent:
        document = laurent_quadratize(system).document
        sys.stdout.write(render_result(document, args.format))
        return 0

    options = SolveOptions(
        enable_rule_quadratic=not args.no_prune_quadratic,
        enable_rule_c4=not args.no_prune_c4,
        max_order_cap=args.max_order,
    )
    try:
        result, stats = bnb_search(system, options)
    except NoQuadratizationWithinCap as exc:
        sys.stderr.write(f"quadratize: error: {exc}\n")
        return 3
    sys.stdout.write(render_result(result.document, args.format))
    if args.stats and args.format == "text":
        sys.stdout.write("Search statistics:\n")
        for key, value in stats.as_dict().items():
            sys.stdout.write(f"  {key}: {value}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
