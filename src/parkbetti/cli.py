"""Command-line interface.

Subcommands mirror the library: parse/echo a graph, print an ideal, export a
lattice, list maximal parking functions, compute a Betti vector by any of the
four methods, verify one graph or a whole corpus, and export the annotated
lattice figure. ``verify`` exits nonzero iff any check fails, for CI use.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .chips import maximal_parking_functions
from .graphs import (
    Multigraph,
    graph_from_json,
    graph_to_json,
    graph_to_text,
    parse_graph,
)
from .homology import DEFAULT_CHARS, betti_gpw, betti_koszul, betti_mobius, betti_wilmes
from .ideals import cutset_ideal, oriented_cutset_ideal, parking_ideal, variable_symmetries
from .posets import (
    connected_partition_lattice,
    dual_connected_partition_lattice,
    lattice_to_dot,
    lattice_to_json,
)
from .verify import export_figure, verification_corpus, verify_corpus

IDEAL_BUILDERS = {"I": parking_ideal, "J": cutset_ideal, "K": oriented_cutset_ideal}
VARIABLE_KINDS = {"I": "x", "J": "y", "K": "z"}


def _load_graph(path: str, sink: int | None) -> Multigraph:
    text = Path(path).read_text()
    G = graph_from_json(text) if text.lstrip().startswith("{") else parse_graph(text)
    if sink is not None:
        G = G.with_sink(sink - 1)
    return G


def _chars(value: int | None):
    return DEFAULT_CHARS if value is None else (value,)


def cmd_parse(args) -> int:
    G = _load_graph(args.file, args.sink)
    if args.json:
        print(json.dumps(graph_to_json(G), sort_keys=True))
    else:
        print(graph_to_text(G))
    return 0


def cmd_ideal(args) -> int:
    G = _load_graph(args.file, args.sink)
    ideal = IDEAL_BUILDERS[args.which](G)
    if args.json:
        print(json.dumps(ideal.to_json_dict(), sort_keys=True))
    else:
        for line in ideal.generator_strings():
            print(line)
    return 0


def cmd_lattice(args) -> int:
    G = _load_graph(args.file, args.sink)
    lat = dual_connected_partition_lattice(G) if args.dual else connected_partition_lattice(G)
    if args.format == "dot":
        print(lattice_to_dot(lat))
    elif args.format == "json":
        print(json.dumps(lattice_to_json(lat), sort_keys=True))
    else:
        mu = lat.mobius() if args.mobius else None
        for x in lat.elements:
            line = f"rank {lat.rank(x)}  {x}"
            if mu is not None:
                line += f"  mu={mu[x]}"
            print(line)
    return 0


def cmd_mpf(args) -> int:
    G = _load_graph(args.file, args.sink)
    configs = sorted(maximal_parking_functions(G))
    for c in configs:
        print(json.dumps(list(c)))
    print(f"count: {len(configs)}")
    return 0


def cmd_betti(args) -> int:
    G = _load_graph(args.file, args.sink)
    chars = _chars(args.char)
    if args.method == "wilmes":
        vec = betti_wilmes(G)
    elif args.method == "mobius":
        vec = betti_mobius(dual_connected_partition_lattice(G))
    else:
        ideal = IDEAL_BUILDERS[args.ideal](G)
        symmetries = variable_symmetries(G, VARIABLE_KINDS[args.ideal])
        method = betti_gpw if args.method == "gpw" else betti_koszul
        vec = method(ideal, chars, symmetries=symmetries)
    print(json.dumps(list(vec)))
    return 0


def cmd_verify(args) -> int:
    chars = _chars(args.char)
    if args.corpus is not None:
        graphs = verification_corpus(args.corpus, args.max_edges, include_multi=not args.no_multi)
    else:
        graphs = [_load_graph(args.file, args.sink)]
    reports = verify_corpus(graphs, chars=chars, jobs=args.jobs)
    ok = all(r.passed for r in reports)
    if args.pretty:
        for r in reports:
            print(("PASS" if r.passed else "FAIL") + f"  {r.graph}")
            for c in r.checks:
                if args.verbose or not c.passed:
                    status = "ok" if c.passed else f"FAIL ({c.witness})"
                    print(f"    {c.name}: {status}")
        print(f"{sum(r.passed for r in reports)}/{len(reports)} graphs passed")
    else:
        print(verify_json(reports, timings=args.timings, audit=args.audit))
    return 0 if ok else 1


def verify_json(reports, timings: bool = False, audit: bool = False) -> str:
    """The JSON document ``verify`` prints for ``reports``, without its
    trailing newline."""
    doc = {
        "graphs": len(reports),
        "all_passed": all(r.passed for r in reports),
        "reports": [r.to_json_dict(include_timings=timings, include_audit=audit) for r in reports],
    }
    return json.dumps(doc, sort_keys=True)


def cmd_figure(args) -> int:
    G = _load_graph(args.file, args.sink)
    print(export_figure(G, format=args.format))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkbetti",
        description="Exact Betti numbers of graph cut ideals, verified four ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--sink", type=int, default=None, metavar="I",
                       help="override the sink vertex (1-based)")

    p = sub.add_parser("parse", help="validate a graph file and echo its canonical form")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("ideal", help="print the generators of one of the three ideals")
    p.add_argument("file")
    p.add_argument("--which", choices=("I", "J", "K"), required=True)
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_ideal)

    p = sub.add_parser("lattice", help="print or export the connected-partition lattice")
    p.add_argument("file")
    p.add_argument("--dual", action="store_true", help="use the order dual")
    p.add_argument("--mobius", action="store_true", help="annotate with Mobius values")
    p.add_argument("--format", choices=("text", "dot", "json"), default="text")
    common(p)
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("mpf", help="maximal parking functions and their count")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_mpf)

    p = sub.add_parser("betti", help="Betti vector by one of the four methods")
    p.add_argument("file")
    p.add_argument("--method", choices=("wilmes", "gpw", "koszul", "mobius"), required=True)
    p.add_argument("--ideal", choices=("I", "J", "K"), default="I")
    p.add_argument("--char", type=int, default=None, metavar="P",
                   help="coefficient characteristic (prime or 0); default checks 32003 and 2")
    common(p)
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("verify", help="run every check on a graph or a corpus")
    p.add_argument("file", nargs="?")
    p.add_argument("--corpus", type=int, default=None, metavar="N",
                   help="verify all corpus graphs up to N vertices instead of a file")
    p.add_argument("--max-edges", type=int, default=8,
                   help="edge budget for corpus generation (default 8)")
    p.add_argument("--no-multi", action="store_true",
                   help="skip parallel-edge variants in the corpus")
    p.add_argument("--jobs", type=int, default=1, metavar="K",
                   help="worker processes for a corpus (at least 1, default 1)")
    p.add_argument("--char", type=int, default=None, metavar="P")
    p.add_argument("--pretty", action="store_true", help="table output instead of JSON")
    p.add_argument("--verbose", action="store_true", help="list passing checks too")
    p.add_argument("--timings", action="store_true", help="include timings in JSON output")
    p.add_argument("--audit", action="store_true",
                   help="include the per-interval homology audit in JSON output")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("figure", help="annotated dual-lattice figure export")
    p.add_argument("file")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    common(p)
    p.set_defaults(fn=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.file is None and args.corpus is None:
        parser.error("verify needs a file or --corpus N")
    if args.command == "verify" and args.corpus is not None:
        if args.file is not None:
            parser.error("argument --corpus: not allowed with a graph file")
        if args.sink is not None:
            parser.error("argument --sink: not allowed with --corpus")
    if args.command == "betti" and args.char is not None and args.method in ("wilmes", "mobius"):
        parser.error(f"argument --char: not allowed with --method {args.method}")
    if args.command == "verify" and args.jobs < 1:
        parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
