"""Command line front end.

Four subcommands:

  analyze    invariants for graph6 input lines, one JSON record per graph
  verify     sweep claim checks over a corpus, JSON report per check
  witness    search a corpus for the two-of-three triangle-deletion witness
  enumerate  print connected graphs of one order, optionally filtered

Output is JSON lines with a fixed key order, so identical invocations are
byte-identical and golden files diff cleanly.  Exit codes: 0 success, 1 claim
failure, 2 parse error, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterator, Sequence

from .covers import rho_tilde
from .enumeration import ENUMERATE_MAX_N, connected_graphs_upto, enumerate_connected
from .graphs import Graph, Graph6Error, SizeLimitError, parse_graph6, to_graph6
from .prooflab import SWEEP_CLAIMS, find_strengthening_witness, run_claim
from .stability import alpha, critical_edges, is_alpha_critical
from .subdivisions import contains_tok4, find_tok4

ANALYSES = ("alpha", "critical", "tok4", "cover")


class _CliError(Exception):
    """Carries the process exit code alongside the message."""

    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage, but 2 is reserved for data parse errors
    # here, so usage problems move to the sysexits.h convention instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _order(text: str) -> int:
    value = int(text)
    if not 1 <= value <= ENUMERATE_MAX_N:
        raise argparse.ArgumentTypeError(f"must be in 1..{ENUMERATE_MAX_N}")
    return value


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _read_graph6(path: str | None) -> Iterator[tuple[int, str, Graph | Graph6Error]]:
    """(line number, text, graph or its parse error) per non-blank line of PATH
    or stdin, decoded as latin-1 so that an error names the byte really read."""
    try:
        data = sys.stdin.buffer.read() if path is None else Path(path).read_bytes()
    except OSError as exc:
        raise _CliError(2, f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip().decode("latin-1")
        if not line:
            continue
        try:
            g = parse_graph6(line)
        except Graph6Error as exc:
            g = exc
        yield lineno, line, g


def _load_corpus(args) -> tuple[list[Graph], int]:
    """Corpus graphs plus the searched order bound, from --enumerate or --file."""
    if args.enumerate is not None:
        return list(connected_graphs_upto(args.enumerate)), args.enumerate
    graphs = []
    for lineno, _, g in _read_graph6(args.file):
        if isinstance(g, Graph6Error):
            raise _CliError(2, f"{args.file}, line {lineno}: {g}")
        graphs.append(g)
    return graphs, max((g.n for g in graphs), default=0)


def _analysis_record(g: Graph, code: str, want: set[str]) -> dict:
    rec: dict = {"graph6": code, "n": g.n, "m": g.m}
    skipped: dict[str, str] = {}
    if "alpha" in want:
        rec["alpha"] = alpha(g)
    if "critical" in want:
        crit = critical_edges(g).edges
        rec["alpha_critical"] = len(crit) == g.m
        rec["critical_edge_count"] = len(crit)
    if "tok4" in want:
        cert = find_tok4(g)
        rec["tok4"] = None if cert is None else cert.to_obj()
    if "cover" in want:
        try:
            doubled, family = rho_tilde(g)
        except SizeLimitError as exc:
            rec["rho_tilde_times_2"] = None
            rec["cover"] = None
            skipped["cover"] = str(exc)
        else:
            rec["rho_tilde_times_2"] = doubled
            rec["cover"] = family.to_obj()
    if skipped:
        rec["skipped"] = skipped
    return rec


def cmd_analyze(args) -> int:
    want = {name for name in ANALYSES if getattr(args, name)}
    if args.all or not want:
        want = set(ANALYSES)
    status = 0
    for lineno, line, g in _read_graph6(args.file):
        if isinstance(g, Graph6Error):
            print(f"line {lineno}: {g}", file=sys.stderr)
            status = 2
        else:
            _emit(_analysis_record(g, line, want))
    return status


def cmd_verify(args) -> int:
    claims = args.claims or list(SWEEP_CLAIMS)
    for claim in claims:
        if claim not in SWEEP_CLAIMS:
            raise _CliError(64, f"unknown claim id {claim!r}; choose from: {', '.join(SWEEP_CLAIMS)}")
    graphs, _ = _load_corpus(args)
    counts = {"pass": 0, "fail": 0, "inapplicable": 0}
    for claim in claims:
        for report in run_claim(claim, graphs):
            counts[report.verdict] += 1
            _emit(report.to_obj())
    _emit({"summary": {"claims": claims, "graphs": len(graphs), **counts}})
    return 0 if counts["fail"] == 0 else 1


def cmd_witness(args) -> int:
    graphs, bound = _load_corpus(args)
    hit = find_strengthening_witness(graphs)
    if hit is None:
        _emit({"found": False, "graph6": None, "triangle": None, "bound": bound})
    else:
        g, tri = hit
        _emit({"found": True, "graph6": to_graph6(g), "triangle": list(tri.vertices()), "bound": bound})
    return 0


def cmd_enumerate(args) -> int:
    for g in enumerate_connected(args.n):
        if args.alpha_critical and not is_alpha_critical(g):
            continue
        if args.tok4_free and contains_tok4(g):
            continue
        print(to_graph6(g))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="alphacrit", description="stable-set criticality toolkit")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("analyze", help="compute invariants for graph6 input")
    p.add_argument("--file", metavar="PATH", help="graph6 lines (default: standard input)")
    p.add_argument("--all", action="store_true", help="run every analysis (the default)")
    p.add_argument("--alpha", action="store_true", help="stability number")
    p.add_argument("--critical", action="store_true", help="alpha-criticality and critical edge count")
    p.add_argument("--tok4", action="store_true", help="totally odd K4-subdivision certificate")
    p.add_argument("--cover", action="store_true", help="minimum vertex/edge/odd-cycle cover")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run claim checks over a corpus")
    p.add_argument("claims", nargs="*", metavar="claim",
                   help=f"any of: {', '.join(SWEEP_CLAIMS)} (default: all)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--enumerate", type=_order, metavar="N",
                        help=f"connected graphs on 1..N vertices, N <= {ENUMERATE_MAX_N}")
    source.add_argument("--file", metavar="PATH", help="graph6 lines from PATH")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("witness",
                       help="find a graph where exactly two of three triangle deletions keep the subdivision")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--enumerate", type=_order, metavar="N",
                        help=f"connected graphs on 1..N vertices, N <= {ENUMERATE_MAX_N}")
    source.add_argument("--file", metavar="PATH", help="graph6 lines from PATH")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("enumerate", help="print connected graphs of one order")
    p.add_argument("n", type=_order, help=f"number of vertices, 1..{ENUMERATE_MAX_N}")
    p.add_argument("--alpha-critical", action="store_true",
                   help="only graphs where every edge deletion raises alpha")
    p.add_argument("--tok4-free", action="store_true",
                   help="only graphs with no totally odd K4-subdivision")
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
