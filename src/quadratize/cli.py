"""Command-line interface.

Reads a system from a file (or standard input), finds an optimal monomial
quadratization, and prints it as text or as the structured JSON document.
The search always runs with both pruning rules and its root lower bound;
they change how many subproblems it visits, never the answer, and
demos/02_pruning_rules.py measures what each rule buys.  Exit codes: 0
success, 1 unreadable or unparseable input, 2 invalid options (an unknown
benchmark or a bad benchmark size, or --max-order or --stats given with
--laurent), 3 no quadratization within --max-order, 141 standard output
closed before the whole answer was written (as under `| head -1`; the
shell gives a process that SIGPIPE ends the same 128 + 13), with nothing
on standard error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .output import render_result
from .parsing import ParseError, parse_system
from .solver import (
    NoQuadratizationWithinCap,
    benchmark_system,
    bnb_search,
    laurent_quadratize,
)


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
    parser.add_argument("--format", choices=("text", "structured"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--stats", action="store_true",
                        help="also print search statistics (text format)")
    parser.add_argument("--max-order", type=int, metavar="N", default=None,
                        help="search only for quadratizations with at most N new "
                             "variables; exit 3 if there is none")
    return parser


def _read_system(path):
    if path is None or path == "-":
        return parse_system(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_system(handle.read())


def _usage_error(parser, message: str) -> int:
    parser.print_usage(sys.stderr)
    sys.stderr.write(f"quadratize: error: {message}\n")
    return 2


def _print(text: str) -> int:
    """Write text to standard output and flush it: 0, or 141 when the
    reader has closed the pipe.  Standard output then points at the null
    device, so the flush at exit does not fail again over what is left."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if args.max_order is not None and args.max_order < 0:
        return _usage_error(parser, "--max-order must be nonnegative")
    if args.laurent and (args.max_order is not None or args.stats):
        return _usage_error(parser, "--laurent takes none of the search options "
                                    "--max-order, --stats")

    if args.benchmark is not None:
        if args.input is not None:
            return _usage_error(parser, "give either an input file or --benchmark, not both")
        # benchmark_system alone decides which families take a size.
        name, sep, size = args.benchmark.partition(":")
        try:
            n = int(size) if sep else None
        except ValueError:
            return _usage_error(parser, f"benchmark size must be an integer, not {size!r}")
        try:
            system = benchmark_system(name, n)
        except ValueError as exc:
            return _usage_error(parser, str(exc))
    else:
        try:
            system = _read_system(args.input)
        except (ParseError, OSError, UnicodeDecodeError) as exc:
            sys.stderr.write(f"quadratize: error: {exc}\n")
            return 1

    if args.laurent:
        document = laurent_quadratize(system).document
        return _print(render_result(document, args.format))

    try:
        result, stats = bnb_search(system, max_order_cap=args.max_order)
    except NoQuadratizationWithinCap as exc:
        sys.stderr.write(f"quadratize: error: {exc}\n")
        return 3
    text = render_result(result.document, args.format)
    if args.stats and args.format == "text":
        text += "Search statistics:\n" + "".join(
            f"  {key}: {value}\n" for key, value in stats.as_dict().items())
    return _print(text)


if __name__ == "__main__":
    sys.exit(main())
