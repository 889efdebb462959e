"""Checks for the claim-verification layer: reports, checkers, sweeps.

Sweep counts over the small enumerations are frozen; a change in any of them
means either the enumeration or a checker drifted.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from alphacrit.graphs import (
    Edge,
    Graph,
    complete_graph,
    cycle_graph,
    delete_vertex,
    parse_graph6,
)
from alphacrit.prooflab import (
    SWEEP_CLAIMS,
    ClaimReport,
    run_claim,
    triangles,
)
from alphacrit.stability import EquationMismatchError, g_minus_c
from alphacrit.subdivisions import PAIR_KEYS, Tok4Certificate, verify_tok4

NET = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])


def cert_from_obj(obj):
    return Tok4Certificate(
        branch=tuple(obj["branch"]),
        paths=tuple(tuple(obj["paths"][key]) for key in PAIR_KEYS),
    )


def test_claim_report_validation():
    with pytest.raises(ValueError):
        ClaimReport("theorem9", "C~", "pass")
    with pytest.raises(ValueError):
        ClaimReport("theorem1", "C~", "maybe")
    with pytest.raises(ValueError):
        ClaimReport("theorem1", "C~", "fail")  # fail must carry a witness
    rep = ClaimReport("theorem1", "C~", "pass", {"tok4": None})
    assert list(rep.to_obj()) == ["claim", "graph6", "verdict", "witness"]
    assert rep.to_obj()["graph6"] == "C~"


def test_sweep_claims_exclude_constructions():
    assert SWEEP_CLAIMS == (
        "theorem1", "theorem2", "lemma1", "claim2", "claim3",
        "eq1_consistency", "cube", "witness",
    )
    # the surgeries are constructions, not claims: no report may carry their ids
    for cid in ("case1", "case2"):
        with pytest.raises(ValueError, match="unknown claim id"):
            ClaimReport(cid, "C~", "pass")


def test_triangles_frozen():
    assert triangles(complete_graph(4)) == [
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
    ]
    assert triangles(NET) == [(0, 1, 2)]
    assert triangles(cycle_graph(5)) == []
    assert triangles(parse_graph6("IsP@PGXD_")) == []  # Petersen, girth 5


def test_check_theorem1():
    (rep,) = run_claim("theorem1", [complete_graph(4)])
    assert rep.verdict == "pass"
    cert = cert_from_obj(rep.witness["tok4"])
    assert verify_tok4(complete_graph(4), cert)

    reasons = {
        complete_graph(1): "excluded base graph K1",
        complete_graph(2): "excluded base graph K2",
        cycle_graph(7): "excluded base graph: odd cycle",
        cycle_graph(4): "not alpha-critical",
        Graph.from_edges(4, [(0, 1), (2, 3)]): "not connected",
    }
    for g, why in reasons.items():
        (rep,) = run_claim("theorem1", [g])
        assert rep.verdict == "inapplicable" and rep.witness == {"reason": why}


def test_check_theorem2():
    (rep,) = run_claim("theorem2", [complete_graph(4)])
    assert rep.verdict == "inapplicable"
    assert rep.witness == {"reason": "the graph is itself a totally odd K4-subdivision"}

    reports = run_claim("theorem2", [complete_graph(5)])
    assert [r.witness["triangle"] for r in reports] == [list(t) for t in triangles(complete_graph(5))]
    rep = reports[0]
    assert rep.verdict == "pass" and rep.witness["triangle"] == [0, 1, 2]
    hits = [d for d in rep.witness["deletions"] if d["tok4"] is not None]
    assert len(hits) == 3  # every deletion of K5 leaves K4
    for d in rep.witness["deletions"]:
        if d["tok4"] is None:
            continue
        reduced, _ = delete_vertex(complete_graph(5), d["deleted"])
        assert verify_tok4(reduced, cert_from_obj(d["tok4"]))


def test_check_lemma_deg2():
    # reports come back sorted by graph6 code: C3, K4, C5, C6
    c3, k4, c5, c6 = run_claim("lemma1", [cycle_graph(5), complete_graph(4), cycle_graph(6), cycle_graph(3)])
    assert c5.graph_code == "Dhc" and c5.verdict == "pass"
    assert c5.witness == {"degree2": [{"vertex": v, "alpha_drop": 1} for v in range(5)]}
    # K4 has no degree-2 vertex, so the lemma holds vacuously
    assert k4.graph_code == "C~" and k4.verdict == "pass" and k4.witness is None
    assert c6.graph_code == "EhEG" and c6.verdict == "inapplicable"
    assert c3.graph_code == "Bw" and c3.witness == {"reason": "fewer than 4 vertices"}


def test_witness_report(critical_corpus):
    (rep,) = run_claim("witness", [cycle_graph(5)])
    assert rep.verdict == "pass" and rep.graph_code == ""
    assert rep.witness == {"found": False, "searched_bound": 5}
    # odd cycles have triangles only at C3, and none is a theorem-2 graph
    (rep,) = run_claim("witness", [cycle_graph(k) for k in (3, 5, 7)])
    assert rep.graph_code == "" and rep.witness == {"found": False, "searched_bound": 7}

    (rep,) = run_claim("witness", critical_corpus)
    assert rep.graph_code == "FJa^O" and rep.witness["triangle"] == [0, 4, 5]

    small = [g for g in critical_corpus if g.n <= 7]
    (rep,) = run_claim("witness", small)
    assert rep.witness["searched_bound"] == 7
    assert rep.verdict == "pass" and rep.graph_code == "FJa^O"
    assert rep.witness["triangle"] == [0, 4, 5]
    hits = [d for d in rep.witness["deletions"] if d["tok4"] is not None]
    assert len(hits) == 2
    host = parse_graph6("FJa^O")
    for d in rep.witness["deletions"]:
        if d["tok4"] is None:
            continue
        reduced, _ = delete_vertex(host, d["deleted"])
        assert verify_tok4(reduced, cert_from_obj(d["tok4"]))


def test_run_claim_sweep_counts(corpus6):
    expected = {
        "theorem1": {"pass": 4, "inapplicable": 139},
        "theorem2": {"pass": 30, "inapplicable": 141},
        "claim2": {"pass": 11, "inapplicable": 156},
        "claim3": {"pass": 31, "inapplicable": 136},
        "eq1_consistency": {"pass": 31, "inapplicable": 136},
    }
    for cid, counts in expected.items():
        reports = run_claim(cid, corpus6)
        assert dict(Counter(r.verdict for r in reports)) == counts, cid
        assert [r.graph_code for r in reports] == sorted(r.graph_code for r in reports)


def test_run_claim_lemma_counts():
    from alphacrit.enumeration import connected_graphs_upto

    reports = run_claim("lemma1", connected_graphs_upto(5))
    assert dict(Counter(r.verdict for r in reports)) == {"pass": 3, "inapplicable": 28}


def test_run_claim_corpus_level():
    reports = run_claim("cube", [complete_graph(4)])
    assert len(reports) == 1 and reports[0].verdict == "inapplicable"
    assert "cannot certify uniqueness" in reports[0].witness["reason"]
    assert reports[0].graph_code == ""

    reports = run_claim("witness", [cycle_graph(5)])
    assert len(reports) == 1 and reports[0].witness == {"found": False, "searched_bound": 5}

    with pytest.raises(ValueError):
        run_claim("bogus", [])


def test_one_g_minus_c_per_vertex_per_sweep(critical_corpus):
    # claim2, claim3 and eq1_consistency share one G_u per (g, u): the first
    # sweep builds each, the other two read it from the cache
    g_minus_c.cache_clear()
    for cid in ("claim2", "claim3", "eq1_consistency"):
        run_claim(cid, critical_corpus)
    info = g_minus_c.cache_info()
    assert info.misses == sum(g.n for g in critical_corpus if g.n >= 2) == 425
    assert info.hits == 850


def test_eq1_consistency_reports_mismatch(monkeypatch):
    def mismatch(g, u):
        raise EquationMismatchError("sides differ", [Edge(0, 3), Edge(1, 2)], [Edge(2, 3)])

    monkeypatch.setattr("alphacrit.prooflab.g_minus_c", mismatch)
    reports = run_claim("eq1_consistency", [cycle_graph(5)])
    assert [r.verdict for r in reports] == ["fail"] * 5
    assert reports[4].witness == {"vertex": 4, "only_deleted_side": [[0, 3], [1, 2]], "only_avoiding_side": [[2, 3]]}


# the TOK4 search builds certificates that do not verify; every sweep that
# reports a TOK4, the witness search included, must refuse them, also with asserts
# stripped
_WRONG_ANSWERS = """
from alphacrit import prooflab, subdivisions
from alphacrit.graphs import complete_graph, parse_graph6
from alphacrit.subdivisions import CertificateError

subdivisions._assign_paths = lambda adj, quad: [quad[:2]] * 6
k5 = complete_graph(5)
checks = [
    lambda: prooflab.run_claim("theorem1", [complete_graph(4)]),
    lambda: prooflab.run_claim("theorem2", [k5]),
    lambda: prooflab.run_claim("claim2", [k5]),
    lambda: prooflab.run_claim("witness", [parse_graph6("FJa^O")]),
]
print(__debug__)
for check in checks:
    subdivisions.find_tok4.cache_clear()
    try:
        check()
        print("accepted")
    except CertificateError:
        print("refused")
"""


def test_certificate_rechecks_survive_python_O():
    r = subprocess.run([sys.executable, "-O", "-c", _WRONG_ANSWERS], capture_output=True, text=True, timeout=300)
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.split() == ["False"] + ["refused"] * 4


def test_tracer_boundaries_resolve():
    # perfbench's tracer patches these module globals, some of which (in
    # prooflab and enumeration) are imported only for it; a cleanup that drops
    # one would break every traced benchmark run at Tracer.install
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.BOUNDARIES
    for module, attr, _ in tracer.BOUNDARIES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_perfbench_imports_resolve():
    # tier-1 runs tests/ only, so a src/ cleanup that drops a name perfbench
    # imports would otherwise show first in a benchmark run; read its imports
    # with ast, so that no perfbench module is imported here
    sites = []
    for path in sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                sites += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "alphacrit"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "alphacrit":
                sites += [(path.name, node.module, alias.name) for alias in node.names]
    assert sites
    for file, module, name in sites:
        imported = importlib.import_module(module)
        assert name is None or hasattr(imported, name), f"{file}: from {module} import {name}"
