"""Command-line interface.

Input arguments accept a path to an ".sgt" file, "-" for standard
input, or a built-in example id such as ex3.4 or powerset:3. Exit code
0 means success, 1 a domain error (bad table, unknown id), 2 a usage
error. All output is deterministic: running a command twice produces
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import __version__
from .catalog import MAX_BUILTIN_ORDER, builtin_example
from .enumeration import (
    EnumerationOptions,
    audit,
    available_predicates,
    enumerate_semigroups,
    search,
)
from .errors import OrderTooLargeError, SgtFormatError, ValidationError, ZdgError
from .graph import DEFAULT_CUTSET_CAP, adjacency_listing, gamma, gamma_bar, to_dot
from .report import (
    audit_block,
    graph_block,
    invariants_block,
    invariants_text,
    render,
    table_block,
    verdict_block,
    verdict_rows,
)
from .semigroup import Semigroup, validate
from .sgt import dumps, loads
from .theorems import matches_selector, run_all

# Both cutset searches grow with the cap: the vertex search with the
# connected sets whose neighbourhoods fit within it, and the bond search
# on the K15,16 of ortho:zg16+zg17 takes about 70 ms at cap 4 and 300 ms
# at cap 6 on a 2-core host, so the bond search sets this bound.
MAX_CUTSET_CAP = 6


def _read_semigroup(source: str) -> Semigroup:
    """Resolve an input argument to a Semigroup. A file or standard input
    is read as UTF-8 .sgt text, its order bounded like a builtin's, and
    validated here; a builtin id comes validated from its builder."""
    if source == "-":
        name, read = "standard input", sys.stdin.read
    elif (source.endswith(".sgt") or os.sep in source or source.startswith(".")
          or os.path.exists(source)):
        name, read = source, lambda: Path(source).read_text(encoding="utf-8")
    else:
        return builtin_example(source)
    try:
        table = loads(read())
    except UnicodeDecodeError as err:
        raise SgtFormatError("%s is not UTF-8 text: %s" % (name, err)) from None
    if table.order > MAX_BUILTIN_ORDER:
        raise OrderTooLargeError("%s: order above %d, the largest an input may have"
                                 % (name, MAX_BUILTIN_ORDER))
    return validate(table)


def _int_at_least(low: int, high: int | None = None):
    """An argparse type: an integer no smaller than low and, if high is
    given, no larger than high."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
        if value < low:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (low, value)
            )
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(
                "must be at most %d, got %d" % (high, value)
            )
        return value

    return parse


# -- subcommands ---------------------------------------------------------------


def _cmd_validate(args) -> int:
    try:
        s = _read_semigroup(args.input)
    except ValidationError as err:
        for kind, members, text in err.violations:
            print("%s%r: %s" % (kind, tuple(members), text))
        if err.truncated:
            print("... more violations not shown")
        print("invalid: %s" % err)
        return 1
    print("valid: commutative semigroup with zero, order %d" % s.n)
    return 0


def _cmd_graph(args) -> int:
    s = _read_semigroup(args.input)
    g = gamma_bar(s) if args.bar else gamma(s)
    name = "gamma_bar" if args.bar else "gamma"
    if args.format == "dot":
        sys.stdout.write(to_dot(g, name=name))
    elif args.format == "report":
        sys.stdout.write(render(graph_block(g)))
    else:
        sys.stdout.write(adjacency_listing(g))
    return 0


def _cmd_invariants(args) -> int:
    s = _read_semigroup(args.input)
    if args.format == "report":
        sys.stdout.write(render(invariants_block(s)))
    else:
        sys.stdout.write(invariants_text(s))
    return 0


def _cmd_check(args) -> int:
    s = _read_semigroup(args.input)
    picked = [
        c
        for name, clauses in run_all(s, size_cap=args.cutset_cap).items()
        for c in clauses
        if matches_selector(name, args.theorem) or matches_selector(c.theorem_id, args.theorem)
    ]
    if args.format == "report":
        block = {
            "selector": args.theorem,
            "clauses": [verdict_block(c) for c in picked],
        }
        sys.stdout.write(render(block))
    else:
        sys.stdout.write(verdict_rows(picked))
    return 0


def _write_corpus(stream) -> int:
    first = True
    for s in stream:
        if not first:
            sys.stdout.write("\n")
        sys.stdout.write(dumps(s.table))
        first = False
    return 0


def _corpus_options(args) -> EnumerationOptions:
    """The enumeration options the corpus flags ask for."""
    return EnumerationOptions(
        order=args.order,
        up_to_iso=args.up_to_iso,
        require_reduced=args.reduced,
        limit=args.limit,
    )


def _cmd_enumerate(args) -> int:
    opts = _corpus_options(args)
    return _write_corpus(enumerate_semigroups(opts))


def _cmd_search(args) -> int:
    opts = _corpus_options(args)
    return _write_corpus(search(opts, args.predicate))


def _cmd_audit(args) -> int:
    opts = _corpus_options(args)
    sys.stdout.write(render(audit_block(audit(opts))))
    return 0


def _cmd_example(args) -> int:
    s = builtin_example(args.id)
    if args.format == "report":
        sys.stdout.write(render(table_block(s.table)))
    else:
        sys.stdout.write(dumps(s.table))
    return 0


# -- parser --------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of a process; it holds no per-call state."""
    p = argparse.ArgumentParser(
        prog="zdg",
        description="Zero-divisor graphs of finite commutative semigroups "
        "with zero: validation, graphs, invariants, structure checks, "
        "enumeration and search.",
    )
    p.add_argument("--version", action="version", version="zdg " + __version__)
    sub = p.add_subparsers(dest="verb", required=True)

    def add_input(sp):
        sp.add_argument(
            "input",
            help="path to an .sgt file, '-' for standard input, or a "
            "built-in example id",
        )

    sp = sub.add_parser("validate", help="check the semigroup laws")
    add_input(sp)
    sp.set_defaults(fn=_cmd_validate)

    sp = sub.add_parser("graph", help="print the zero-divisor graph")
    add_input(sp)
    sp.add_argument("--bar", action="store_true", help="use the xSy=0 variant")
    sp.add_argument(
        "--format", choices=("text", "report", "dot"), default="text"
    )
    sp.set_defaults(fn=_cmd_graph)

    sp = sub.add_parser("invariants", help="print graph and ideal invariants")
    add_input(sp)
    sp.add_argument("--format", choices=("text", "report"), default="text")
    sp.set_defaults(fn=_cmd_invariants)

    sp = sub.add_parser("check", help="run the structure checks")
    add_input(sp)
    sp.add_argument(
        "--theorem",
        default="all",
        help="clause selector: a number like 2.2, a check name like "
        "chromatic, a full clause id, or all",
    )
    sp.add_argument(
        "--cutset-cap",
        type=_int_at_least(1, MAX_CUTSET_CAP),
        default=DEFAULT_CUTSET_CAP,
        metavar="K",
        help="largest cutset size searched, 1 to %d (default %d)"
        % (MAX_CUTSET_CAP, DEFAULT_CUTSET_CAP),
    )
    sp.add_argument("--format", choices=("text", "report"), default="text")
    sp.set_defaults(fn=_cmd_check)

    def add_corpus_flags(sp, limit=True):
        sp.add_argument("--order", type=int, required=True, metavar="N")
        sp.add_argument("--up-to-iso", action="store_true")
        sp.add_argument("--reduced", action="store_true")
        if limit:
            sp.add_argument(
                "--limit", type=_int_at_least(0), default=None, metavar="M"
            )

    sp = sub.add_parser(
        "enumerate", help="generate all semigroups of one order as .sgt records"
    )
    add_corpus_flags(sp)
    sp.set_defaults(fn=_cmd_enumerate)

    sp = sub.add_parser(
        "search", help="filter enumerated semigroups by a graph predicate"
    )
    add_corpus_flags(sp)
    sp.add_argument(
        "--predicate",
        required=True,
        metavar="P",
        help="one of %s; girth and complete-rpartite take a colon "
        "argument, e.g. girth:4" % ", ".join(available_predicates()),
    )
    sp.set_defaults(fn=_cmd_search)

    sp = sub.add_parser(
        "audit", help="tally every structure check over all semigroups of one order"
    )
    add_corpus_flags(sp, limit=False)
    sp.add_argument("--format", choices=("report",), default="report")
    sp.set_defaults(fn=_cmd_audit, limit=None)

    sp = sub.add_parser("example", help="emit a built-in example table")
    sp.add_argument("id", help="example id, e.g. ex3.4 or powerset:3")
    sp.add_argument("--format", choices=("sgt", "report"), default="sgt")
    sp.set_defaults(fn=_cmd_example)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except (ZdgError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
