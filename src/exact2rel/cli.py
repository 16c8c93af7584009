"""Command-line interface.

Exit codes: 0 for success or a yes-decision, 1 for a recognized
negative (not realizable, verification mismatch, characterization
discrepancy), 2 for malformed input or usage errors, 3 for an internal
error (a bug: any other exception, such as a failed self-check).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from . import dot, oracle
from .construct import recognize, verify
from .graphs import (collector_paused, directed_quotient, format_graph,
                     format_oriented, parse_graph, parse_oriented, quotient)
from .newick import format_newick, parse_newick, parse_rooted_newick
from .rooted import (directed_explain, enumerate_rooted,
                     format_rooted_newick, recognize_oriented)
from .trees import canonicalize, explain


def _read(path: str) -> str:
    return Path(path).read_text()


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _leaf_comment(names: list[str]) -> str:
    return "".join(f"# {i} = {s}\n" for i, s in enumerate(names))


def cmd_explain(args: argparse.Namespace) -> int:
    text = _read(args.tree)
    if args.rooted:
        t = parse_rooted_newick(text)
        d = directed_explain(t, args.k)
        body = dot.oriented_to_dot(d) if args.dot else \
            _leaf_comment(t.leaf_names) + format_oriented(d)
    else:
        t = parse_newick(text)
        g = explain(t, args.k)
        body = dot.graph_to_dot(g) if args.dot else \
            _leaf_comment(t.leaf_names) + format_graph(g)
    _emit(body, args.out)
    return 0


def cmd_recognize(args: argparse.Namespace) -> int:
    text = _read(args.graph)
    if args.oriented:
        outcome = recognize_oriented(parse_oriented(text))
        write, no = format_rooted_newick, f"no ({outcome.reason})"
    else:
        outcome = recognize(parse_graph(text))
        write, no = format_newick, "no"
    if outcome.decision:
        _emit(write(outcome.witness) + "\n", args.out)
        return 0
    certificate = " ".join(map(str, outcome.certificate))
    _emit(f"{no}\ncertificate: {certificate}\n", args.out)
    return 1


def cmd_canonicalize(args: argparse.Namespace) -> int:
    t = canonicalize(parse_newick(_read(args.tree)))
    body = dot.tree_to_dot(t) if args.dot else format_newick(t) + "\n"
    _emit(body, args.out)
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    text = _read(args.graph)
    if args.oriented:
        res = directed_quotient(parse_oriented(text))
        body_graph = format_oriented(res.graph)
    else:
        res = quotient(parse_graph(text))
        body_graph = format_graph(res.graph)
    header = "".join(
        f"# class {i}: {' '.join(map(str, cls))}\n"
        for i, cls in enumerate(res.partition.classes))
    _emit(header + body_graph, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    t = parse_newick(_read(args.tree))
    g = parse_graph(_read(args.graph))
    result = verify(t, g, args.k)
    if result.ok:
        _emit("OK\n", args.out)
        return 0
    lines = ["FAIL"]
    if result.name_mismatch:
        lines.append("leaf/vertex name mismatch: "
                     + " ".join(result.name_mismatch))
    for u, v in result.missing:
        lines.append(f"missing edge: {u} {v}")
    for u, v in result.extra:
        lines.append(f"extra pair: {u} {v}")
    _emit("\n".join(lines) + "\n", args.out)
    return 1


def cmd_roots(args: argparse.Namespace) -> int:
    t = parse_newick(_read(args.tree))
    rooted = sorted(format_rooted_newick(rt) for rt in enumerate_rooted(t))
    _emit("".join(line + "\n" for line in rooted), args.out)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    budget = oracle.EnumerationBudget(
        max_leaves=args.n,
        max_weight=args.max_weight,
        canonical_only=args.canonical_only,
        zero_discrete_only=args.zero_discrete,
    )
    report = oracle.check_characterization(budget, args.k)
    _emit(oracle.format_report(report), args.out)
    return 0 if report.ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="exact2rel",
        description="Graphs as the exact-path-weight-2 relation on the "
                    "leaves of integer-weighted trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explain", help="graph realized by a tree")
    p.add_argument("tree", help="tree file (Newick-like, integer weights)")
    p.add_argument("--k", type=int, default=2, help="relation level")
    p.add_argument("--rooted", action="store_true",
                   help="read the tree as rooted; emit an oriented graph")
    p.add_argument("--dot", action="store_true", help="emit DOT instead")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("recognize", help="decide realizability, emit witness")
    p.add_argument("graph", help="graph file")
    p.add_argument("--oriented", action="store_true",
                   help="read as an oriented graph (arc list)")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("canonicalize", help="reduce a tree to canonical shape")
    p.add_argument("tree")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser("quotient", help="collapse twin classes")
    p.add_argument("graph")
    p.add_argument("--oriented", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("verify", help="check a tree against a graph")
    p.add_argument("tree")
    p.add_argument("graph")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("roots", help="all rooted forms of a canonical tree")
    p.add_argument("tree")
    p.add_argument("--out")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("oracle", help="brute-force characterization check")
    p.add_argument("--n", type=int, default=5, help="max leaf count")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--zero-discrete", action="store_true")
    p.add_argument("--canonical-only", action=argparse.BooleanOptionalAction,
                   default=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with collector_paused():
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:  # format errors are ValueErrors
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:
            print(f"internal error: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
