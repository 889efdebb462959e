"""Self-tests of the benchmark's own logic (not of alphacrit).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from alphacrit.covers import CoverFamily, rho_tilde  # noqa: E402
from alphacrit.enumeration import canonical_form, packaged_corpus  # noqa: E402
from alphacrit.graphs import Graph, complete_graph, cycle_graph  # noqa: E402
from alphacrit.prooflab import SWEEP_CLAIMS  # noqa: E402
from alphacrit.subdivisions import Tok4Certificate, find_tok4  # noqa: E402


def test_generators_are_deterministic_per_seed():
    graphs8 = list(packaged_corpus("graphs8")[:300])
    assert workloads.analyze_inputs(graphs8, 5) == workloads.analyze_inputs(graphs8, 5)
    assert workloads.analyze_inputs(graphs8, 5) != workloads.analyze_inputs(graphs8, 6)
    assert workloads.tok4_inputs(5) == workloads.tok4_inputs(5)
    assert workloads.tok4_inputs(5).graph6_text() != workloads.tok4_inputs(6).graph6_text()


def test_relabelling_keeps_the_class():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 5), (0, 3)])
    h = workloads.relabel(g, workloads.random.Random(3))
    assert h != g and canonical_form(h) == canonical_form(g)


def test_gate_rejects_a_corrupted_certificate():
    g = complete_graph(4)
    cert = find_tok4(g)
    assert gate.check_tok4([g], ["planted"], [True], [cert]).correct
    a, b = cert.paths[0]
    broken = Tok4Certificate(branch=cert.branch, paths=((a, b, a, b),) + cert.paths[1:])
    verdict = gate.check_tok4([g], ["planted"], [True], [broken])
    assert (verdict.failed, verdict.correct) == (1, False)
    assert not gate.check_tok4([g], ["bipartite"], [False], [cert]).correct


def test_gate_rejects_a_wrong_cover_cost():
    g = cycle_graph(5)
    classes = {"C5": (2, 1, 5, 0, 4)}
    _, family = rho_tilde(g)
    assert gate.check_covers([g], ["C5"], [(0b00101, family)], classes).correct
    mislabelled = dataclasses.replace(family, doubled_cost=6)
    assert not gate.check_covers([g], ["C5"], [(0b00101, mislabelled)], classes).correct
    all_vertices = CoverFamily(host=g, vertices=(0, 1, 2, 3, 4), edges=(), odd_cycles=(), doubled_cost=10)
    verdict = gate.check_covers([g], ["C5"], [(0b00101, all_vertices)], classes)
    assert (verdict.failed, verdict.correct) == (1, False)
    assert not gate.check_covers([g], ["C5"], [(0b00011, family)], classes).correct


def test_self_times_of_a_synthetic_span_tree():
    spans = [
        ["bench.setup", -1, 0.0, 1.0],
        ["bench.work", -1, 1.0, 11.0],
        ["cli.main", 1, 1.5, 10.5],
        ["stability.alpha", 2, 2.0, 5.0],
        ["graphs.parse_graph6", 3, 3.0, 4.0],
        ["covers.rho_tilde", 2, 6.0, 10.0],
    ]
    assert tracer.self_times(spans) == [1.0, 1.0, 2.0, 2.0, 1.0, 4.0]
    summary = tracer.summarize(spans, root=1)
    layers = {k: v for k, v in summary.items() if k.endswith(".self_s")}
    assert layers == {"bench.self_s": 1.0, "cli.self_s": 2.0, "stability.self_s": 2.0,
                      "graphs.self_s": 1.0, "covers.self_s": 4.0}
    assert sum(layers.values()) == 10.0
    assert summary["stability.alpha.s"] == 3.0 and summary["bench.setup.calls"] == 1


def test_tracer_records_nesting_and_names(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(tracer, "perf_counter", lambda: float(next(clock)))
    tr = tracer.Tracer()
    absent = tr.wrap(tracer.FIND_TOK4, lambda g: None)
    tr.call("bench.work", lambda: [absent(1), tr.call("prooflab.run_claim", lambda c, gs: c, "cube", [])])
    assert [(name, parent) for name, parent, *_ in tr.spans] == [
        ("bench.work", -1), ("subdivisions.find_tok4.absent", 0), ("prooflab.run_claim.cube", 0)]
    assert sum(tracer.self_times(tr.spans)) == tr.spans[0][3] - tr.spans[0][2]


def test_tail_keeps_ten_samples_or_one_percent_beyond_it():
    assert run.tail([float(x) for x in range(20)]) == (9.0, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(x) for x in range(2500)]) == (2474.0, 99.0)


def test_every_per_layer_metric_is_produced():
    spans = {name for _, _, name in tracer.BOUNDARIES}
    spans |= {f"{tracer.FIND_TOK4}.found", f"{tracer.FIND_TOK4}.absent"}
    spans |= {f"prooflab.run_claim.{claim}" for claim in SWEEP_CLAIMS}
    spans |= {"enumeration.packaged_corpus", "enumeration.connected_graphs_upto"}
    layers = {name.split(".")[0] for name in spans} | {"cli", "bench"}
    extras = {"stability.alpha.cache_hit_ratio", "stability.alpha.cache_evictions",
              "subdivisions.find_tok4.cache_hit_ratio", "cli.records", "cli.output_bytes",
              "trace.wall_s", "trace.overhead_s"}
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        name = metric["name"]
        base, _, suffix = name.rpartition(".")
        assert (name in extras or (suffix in ("s", "calls") and base in spans)
                or (suffix == "self_s" and base in layers)), name


def test_clock_leaves_out_slices_and_scales_by_their_length(monkeypatch):
    monkeypatch.setattr(clock, "REF_SLICE_S", 1.0)
    steady = clock.Clock()
    steady.slices = [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]
    steady._index()
    assert steady.seconds(0.5, 4.5) == 2.0
    assert steady.seconds(0.5, 2.5) + steady.seconds(2.5, 4.5) == steady.seconds(0.5, 4.5)
    slow = clock.Clock()  # slices twice as long: the host ran at half speed
    slow.slices = [(0.0, 2.0), (3.0, 5.0), (6.0, 8.0)]
    slow._index()
    assert slow.seconds(0.0, 8.0) == 1.0
