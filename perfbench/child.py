"""One repetition of one workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1

A fresh process per repetition means the lru_caches on alpha and find_tok4
start cold, as they do for every CLI invocation. The repetition sets up
(imports, corpus load or enumeration, seeded input generation), runs the
workload's work phase, then checks every output with the gate, and prints one
JSON object. With --trace 1 the layer boundaries are wrapped (see tracer.py)
from before set-up until the work phase ends; the gate always runs untraced.
Every time reported is in reference-speed seconds (see clock.py), measured from
the start of this file to the end of the work phase.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

from clock import Clock  # noqa: E402

CLOCK = Clock()
CLOCK.start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import alphacrit.cli  # noqa: E402
from alphacrit.covers import minmax_certificate  # noqa: E402
from alphacrit.enumeration import connected_graphs_upto, packaged_corpus  # noqa: E402
from alphacrit.stability import alpha  # noqa: E402
from alphacrit.subdivisions import find_tok4  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import NullTracer, Tracer, summarize  # noqa: E402


class Stamped:
    """A stdout stand-in that keeps every write with the time it happened."""

    def __init__(self):
        self.writes: list[tuple[float, str]] = []

    def write(self, text: str) -> int:
        self.writes.append((time.perf_counter(), text))
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(text for _, text in self.writes)


def _connected_upto_7() -> list:
    return list(connected_graphs_upto(7))


def _gaps(start: float, stamps: list[float]) -> list[tuple[float, float]]:
    return list(zip([start, *stamps], stamps))


def _run_cli(argv: list[str], tr) -> tuple[int, Stamped, float]:
    out = Stamped()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = tr.call("cli.main", alphacrit.cli.main, argv)
    return rc, out, start


class Workload:
    """Set-up, work, and gate of one workload. Only `work` is timed; `finish`
    then sets `items`, one (start, end) perf_counter pair per item (an input
    graph; a claim sweep on verify-crit; a class, as three relabelled graphs,
    on theorem-cover), and `output`, the text whose digest the run records."""

    def __init__(self, seed: int, tr, workdir: Path):
        self.seed, self.tr, self.workdir = seed, tr, workdir
        self.items: list[tuple[float, float]] = []

    def _write_input(self) -> Path:
        path = self.workdir / "input.g6"
        path.write_text(self.inputs.graph6_text())
        return path


class AnalyzeG8(Workload):
    def setup(self):
        graphs8 = self.tr.call("enumeration.packaged_corpus", packaged_corpus, "graphs8")
        self.inputs = workloads.analyze_inputs(graphs8, self.seed)
        self.path = self._write_input()

    def work(self):
        self.rc, self.out, self.start = _run_cli(["analyze", "--file", str(self.path)], self.tr)

    def finish(self):
        self.items = _gaps(self.start, [t for t, _ in self.out.writes])
        self.output = self.out.text()

    def check(self) -> gate.Verdict:
        lines = self.output.splitlines()
        return gate.check_analyze(self.inputs.graphs, self.inputs.keys, self.rc, lines, gate.load_classes())


class VerifyCrit(Workload):
    def setup(self):
        corpus7 = self.tr.call("enumeration.connected_graphs_upto", _connected_upto_7)
        critical9 = self.tr.call("enumeration.packaged_corpus", packaged_corpus, "alpha_critical_upto9")
        self.inputs = workloads.verify_inputs(corpus7, critical9, self.seed)
        self.path = self._write_input()

    def work(self):
        self.rc, self.out, self.start = _run_cli(["verify", "--file", str(self.path)], self.tr)

    def finish(self):
        # reports of one claim are written together once its sweep ends
        last: dict[str, float] = {}
        for stamp, text in self.out.writes:
            claim = json.loads(text).get("claim")
            if claim is not None:
                last[claim] = stamp
        self.items = _gaps(self.start, list(last.values()))
        self.output = self.out.text()

    def check(self) -> gate.Verdict:
        lines = self.output.splitlines()
        return gate.check_verify(self.inputs.graphs, self.rc, lines, gate.load_verify_counts())


class TheoremCover(Workload):
    def setup(self):
        corpus7 = self.tr.call("enumeration.connected_graphs_upto", _connected_upto_7)
        graphs8 = self.tr.call("enumeration.packaged_corpus", packaged_corpus, "graphs8")
        self.classes = gate.load_classes()
        tok4_free = {key for key, fields in self.classes.items() if not fields[3]}
        self.inputs = workloads.cover_inputs(corpus7, graphs8, tok4_free, self.seed)

    def work(self):
        """One item is one class: its COVER_LABELLINGS relabellings in a row."""
        self.results = []
        graphs = self.inputs.graphs
        for first in range(0, len(graphs), workloads.COVER_LABELLINGS):
            start = time.perf_counter()
            for g in graphs[first : first + workloads.COVER_LABELLINGS]:
                try:
                    stable, family = self.tr.call("covers.minmax_certificate", minmax_certificate, g)
                    self.results.append((stable.set.bits, family))
                except Exception as exc:  # the gate counts it as a failed operation
                    self.results.append(f"{type(exc).__name__}: {exc}")
            self.items.append((start, time.perf_counter()))

    def finish(self):
        self.output = "".join(
            json.dumps(res if isinstance(res, str) else [res[0], res[1].to_obj()]) + "\n" for res in self.results
        )

    def check(self) -> gate.Verdict:
        return gate.check_covers(self.inputs.graphs, self.inputs.keys, self.results, self.classes)


class Tok4Hard(Workload):
    def setup(self):
        self.inputs = workloads.tok4_inputs(self.seed)

    def work(self):
        self.results = []
        for g in self.inputs.graphs:
            start = time.perf_counter()
            try:
                self.results.append(self.tr.call("subdivisions.find_tok4", find_tok4, g))
            except Exception as exc:  # the gate counts it as a failed operation
                self.results.append(f"{type(exc).__name__}: {exc}")
            self.items.append((start, time.perf_counter()))

    def finish(self):
        self.output = "".join(
            json.dumps(res if res is None or isinstance(res, str) else res.to_obj()) + "\n" for res in self.results
        )

    def check(self) -> gate.Verdict:
        inputs = self.inputs
        return gate.check_tok4(inputs.graphs, inputs.keys, inputs.expect_tok4, self.results)


WORKLOAD_CLASSES = {
    "analyze-g8": AnalyzeG8,
    "verify-crit": VerifyCrit,
    "theorem-cover": TheoremCover,
    "tok4-hard": Tok4Hard,
}


def _cache_stats(prefix: str, info) -> dict[str, float]:
    calls = info.hits + info.misses
    return {
        f"{prefix}.cache_hit_ratio": info.hits / calls if calls else 0.0,
        f"{prefix}.cache_evictions": info.misses - info.currsize,
    }


def run(name: str, seed: int, trace: bool, workdir: Path) -> dict:
    tr = Tracer() if trace else NullTracer()
    saved = tr.install()
    wl = WORKLOAD_CLASSES[name](seed, tr, workdir)
    tr.call("bench.setup", wl.setup)
    start = time.perf_counter()
    tr.call("bench.work", wl.work)
    end = time.perf_counter()
    CLOCK.stop()
    tr.uninstall(saved)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.finish()
    wall_s = CLOCK.seconds(start, end)
    result = {
        "setup_s": CLOCK.seconds(T0, start),
        "wall_s": wall_s,
        "raw_wall_s": end - start,
        "slice_share": CLOCK.slice_share(),
        "graphs": len(wl.inputs.graphs),
        "items": [CLOCK.seconds(a, b) for a, b in wl.items],
        "peak_rss_mb": peak_rss_mb,
        "sha256": hashlib.sha256(wl.output.encode()).hexdigest(),
        "numpy": numpy.__version__,
    }
    if trace:
        for span in tr.spans:
            span[2], span[3] = CLOCK.position(span[2]), CLOCK.position(span[3])
        root = next(i for i, span in enumerate(tr.spans) if span[0] == "bench.work")
        layers = summarize(tr.spans, root)
        layers.update(_cache_stats("stability.alpha", alpha.cache_info()))
        layers.update(_cache_stats("subdivisions.find_tok4", find_tok4.cache_info()))
        if name in ("analyze-g8", "verify-crit"):
            layers["cli.records"] = wl.output.count("\n")
            layers["cli.output_bytes"] = len(wl.output.encode())
        layers["trace.wall_s"] = wall_s
        layers["trace.spans"] = len(tr.spans)
        result["layers"] = layers
    verdict = wl.check()
    result.update(
        attempted=verdict.attempted,
        failed=verdict.failed,
        problems=verdict.problems,
        known=verdict.known,
    )
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        result = run(args.workload, args.seed, bool(args.trace), Path(workdir))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
