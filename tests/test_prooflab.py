"""Checks for the claim-verification layer: reports, constructions, sweeps.

Sweep counts over the small enumerations are frozen; a change in any of them
means either the enumeration or a checker drifted.
"""

import subprocess
import sys
from collections import Counter

import pytest

from alphacrit.graphs import (
    Edge,
    Graph,
    GraphError,
    SizeLimitError,
    add_edge,
    complete_graph,
    cube_graph,
    cycle_graph,
    delete_vertex,
    parse_graph6,
    to_graph6,
)
from alphacrit.prooflab import (
    SWEEP_CLAIMS,
    ClaimReport,
    Triangle,
    case2_gadget,
    check_claim_delta,
    check_claim_uvw,
    check_eq1_consistency,
    check_lemma_deg2,
    check_theorem1,
    check_theorem2,
    cube_uniqueness_check,
    find_strengthening_witness,
    lift_tok4_through_gadget,
    run_claim,
    triangles,
    witness_report,
)
from alphacrit.stability import EquationMismatchError, alpha, g_minus_c
from alphacrit.subdivisions import PAIR_KEYS, CertificateError, Tok4Certificate, find_tok4, verify_tok4

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


def test_triangle_normalization():
    t = Triangle(2, 0, 1)
    assert t.vertices() == (0, 1, 2)
    with pytest.raises(GraphError):
        Triangle(1, 1, 2)


def test_triangles_frozen():
    assert [t.vertices() for t in triangles(complete_graph(4))] == [
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
    ]
    assert triangles(NET) == [Triangle(0, 1, 2)]
    assert triangles(cycle_graph(5)) == []
    assert triangles(parse_graph6("IsP@PGXD_")) == []  # Petersen, girth 5


def test_check_theorem1():
    rep = check_theorem1(complete_graph(4))
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
        rep = check_theorem1(g)
        assert rep.verdict == "inapplicable" and rep.witness["reason"] == why


def test_check_theorem2():
    rep = check_theorem2(complete_graph(4), Triangle(0, 1, 2))
    assert rep.verdict == "inapplicable"
    assert rep.witness["reason"] == "the graph is itself a totally odd K4-subdivision"

    rep = check_theorem2(complete_graph(5), Triangle(0, 1, 2))
    assert rep.verdict == "pass"
    hits = [d for d in rep.witness["deletions"] if d["tok4"] is not None]
    assert len(hits) == 3  # every deletion of K5 leaves K4
    for d in rep.witness["deletions"]:
        if d["tok4"] is None:
            continue
        reduced, _ = delete_vertex(complete_graph(5), d["deleted"])
        assert verify_tok4(reduced, cert_from_obj(d["tok4"]))

    with pytest.raises(GraphError):
        check_theorem2(cycle_graph(5), Triangle(0, 1, 2))


def test_check_lemma_deg2():
    rep = check_lemma_deg2(cycle_graph(5))
    assert rep.verdict == "pass"
    assert rep.witness == {"degree2": [{"vertex": v, "alpha_drop": 1} for v in range(5)]}
    # K4 has no degree-2 vertex, so the lemma holds vacuously
    rep = check_lemma_deg2(complete_graph(4))
    assert rep.verdict == "pass" and rep.witness is None
    assert check_lemma_deg2(cycle_graph(6)).verdict == "inapplicable"
    assert check_lemma_deg2(cycle_graph(3)).witness["reason"] == "fewer than 4 vertices"


def test_case2_gadget_net_frozen():
    info = case2_gadget(NET, Triangle(0, 1, 2))
    assert info.host is NET and info.triangle == Triangle(0, 1, 2)
    assert info.outside == (3, 4, 5)
    assert to_graph6(info.graph) == "BO"  # three vertices, one edge
    assert (alpha(NET), alpha(info.graph)) == (3, 2)
    assert info.vmap == (3, 4, 5)
    assert info.added == Edge(0, 2)


def test_case2_gadget_preconditions():
    shared = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 4)])
    with pytest.raises(GraphError, match="not pairwise distinct"):
        case2_gadget(shared, Triangle(0, 1, 2))
    with pytest.raises(GraphError, match="degree 4, need exactly 3"):
        case2_gadget(add_edge(NET, (0, 4)), Triangle(0, 1, 2))
    with pytest.raises(GraphError, match="already an edge"):
        case2_gadget(add_edge(NET, (3, 5)), Triangle(0, 1, 2))
    with pytest.raises(GraphError, match="not a triangle"):
        case2_gadget(cycle_graph(6), Triangle(0, 1, 2))


# Host whose gadget is K4: triangle, three spokes, K4-minus-an-edge outside.
LIFT_HOST = Graph.from_edges(
    7,
    [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5), (3, 4), (4, 5), (3, 6), (4, 6), (5, 6)],
)


def test_case2_gadget_larger_alpha_drop():
    # structural preconditions hold here but alpha drops by two
    info = case2_gadget(LIFT_HOST, Triangle(0, 1, 2))
    assert (alpha(LIFT_HOST), alpha(info.graph)) == (3, 1)


def test_case2_gadget_on_critical_corpus(critical_corpus):
    # every (graph, triangle) pair of the packaged corpus that meets the
    # structural preconditions: alpha drops by exactly one, and each TOK4 of
    # a gadget lifts to a certificate that verifies in g - x2
    gadgets = []
    for g in critical_corpus:
        for t in triangles(g):
            try:
                gadgets.append(case2_gadget(g, t))
            except GraphError:
                continue
    assert [(to_graph6(info.host), info.triangle.vertices()) for info in gadgets] == [
        ("G@LKf?", (2, 3, 4)), ("H@LA[Jo", (1, 5, 6)), ("H@LA[j_", (1, 5, 6)), ("H@LA[j_", (2, 3, 4)),
    ]
    assert all(alpha(info.host) - alpha(info.graph) == 1 for info in gadgets)
    lifted = 0
    for info in gadgets:
        cert = find_tok4(info.graph)
        if cert is None:
            continue
        target, _ = delete_vertex(info.host, info.triangle.x2)
        assert verify_tok4(target, lift_tok4_through_gadget(cert, info))
        lifted += 1
    assert lifted == 3


def test_lift_endpoint_splice():
    info = case2_gadget(LIFT_HOST, Triangle(0, 1, 2))
    cert = find_tok4(info.graph)
    assert cert.to_obj()["paths"]["ac"] == [0, 2]  # rides the artificial edge
    lifted = lift_tok4_through_gadget(cert, info)
    assert lifted.to_obj() == {
        "branch": [2, 3, 4, 5],
        "paths": {
            "ab": [2, 3],
            "ac": [2, 0, 1, 4],  # detour through the surviving triangle corners
            "ad": [2, 5],
            "bc": [3, 4],
            "bd": [3, 5],
            "cd": [4, 5],
        },
    }
    target, _ = delete_vertex(LIFT_HOST, 1)
    assert verify_tok4(target, lifted)


def test_lift_identity_when_added_edge_unused():
    # separate K4 hanging off the first spoke: the certificate never touches
    # the artificial edge, so lifting is a pure relabeling
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]
    edges += [(6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9), (3, 6)]
    host = Graph.from_edges(10, edges)
    info = case2_gadget(host, Triangle(0, 1, 2))
    cert = find_tok4(info.graph)
    added_pair = {info.vmap[info.added.u], info.vmap[info.added.v]}
    assert not any(
        {info.vmap[a], info.vmap[b]} == added_pair
        for p in cert.paths for a, b in zip(p, p[1:])
    )
    lifted = lift_tok4_through_gadget(cert, info)
    assert sorted(len(p) for p in lifted.paths) == sorted(len(p) for p in cert.paths)
    target, _ = delete_vertex(host, 1)
    assert verify_tok4(target, lifted)


def test_lift_interior_splice():
    # the artificial edge sits mid-path, between two interior vertices
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]
    edges += [(6, 3), (5, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9)]
    host = Graph.from_edges(10, edges)
    info = case2_gadget(host, Triangle(0, 1, 2))
    cert = Tok4Certificate(
        branch=(3, 4, 5, 6),
        paths=((3, 0, 2, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)),
    )
    assert verify_tok4(info.graph, cert)
    lifted = lift_tok4_through_gadget(cert, info)
    assert lifted.to_obj()["branch"] == [5, 6, 7, 8]
    assert lifted.to_obj()["paths"]["ab"] == [5, 2, 0, 1, 4, 6]
    target, _ = delete_vertex(host, 1)
    assert verify_tok4(target, lifted)


def test_lift_rejects_unverified_certificate():
    info = case2_gadget(LIFT_HOST, Triangle(0, 1, 2))
    # shape-valid, but the ab path does not start at branch a
    bad = Tok4Certificate(
        branch=(0, 1, 2, 3),
        paths=((1, 0), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
    )
    with pytest.raises(CertificateError, match="does not verify in the gadget"):
        lift_tok4_through_gadget(bad, info)
    # out-of-range vertices surface as the verifier's own complaint
    info = case2_gadget(NET, Triangle(0, 1, 2))
    oob = Tok4Certificate(
        branch=(0, 1, 2, 3),
        paths=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
    )
    with pytest.raises(CertificateError, match="outside graph"):
        lift_tok4_through_gadget(oob, info)


def test_cube_uniqueness_default_corpus():
    rep = cube_uniqueness_check(8)
    assert rep.verdict == "pass"
    assert rep.graph_code == "G?]uf?"
    assert rep.witness == {
        "max_n": 8,
        "survivors": ["G?]uf?"],
        "alpha_critical": False,
    }


def test_cube_uniqueness_bounds_and_failures():
    with pytest.raises(GraphError):
        cube_uniqueness_check(7)
    with pytest.raises(SizeLimitError):
        cube_uniqueness_check(9)
    # duplicate survivors are a failure, not a pass
    rep = cube_uniqueness_check(8, corpus=[cube_graph(), cube_graph()])
    assert rep.verdict == "fail" and len(rep.witness["survivors"]) == 2
    rep = cube_uniqueness_check(8, corpus=[complete_graph(4)])
    assert rep.verdict == "fail" and rep.witness["survivors"] == []
    assert rep.graph_code == to_graph6(cube_graph())


def test_find_strengthening_witness(critical_corpus):
    assert find_strengthening_witness([cycle_graph(k) for k in (3, 5, 7)]) is None
    found = find_strengthening_witness(critical_corpus)
    assert found is not None
    g, t = found
    assert to_graph6(g) == "FJa^O"
    assert t == Triangle(0, 4, 5)


def test_witness_report(critical_corpus):
    rep = witness_report([cycle_graph(5)], 5)
    assert rep.verdict == "pass" and rep.graph_code == ""
    assert rep.witness == {"found": False, "searched_bound": 5}

    small = [g for g in critical_corpus if g.n <= 7]
    rep = witness_report(small, 7)
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


def test_deleted_vertex_checks_reject_out_of_range_vertex():
    # the range check comes before applicability: C4 is not alpha-critical,
    # and K0 has no vertex at all, so every u is out of range there
    for check in (check_claim_delta, check_claim_uvw, check_eq1_consistency):
        for g, u in ((cycle_graph(4), 99), (cycle_graph(5), -1), (cycle_graph(5), 5), (Graph.from_edges(0, []), 0)):
            with pytest.raises(GraphError, match="outside range"):
                check(g, u)


def test_eq1_consistency_reports_mismatch(monkeypatch):
    def mismatch(g, u):
        raise EquationMismatchError("sides differ", [Edge(0, 3), Edge(1, 2)], [Edge(2, 3)])

    monkeypatch.setattr("alphacrit.prooflab.g_minus_c", mismatch)
    report = check_eq1_consistency(cycle_graph(5), 4)
    assert report.verdict == "fail"
    assert report.witness == {"vertex": 4, "only_deleted_side": [[0, 3], [1, 2]], "only_avoiding_side": [[2, 3]]}
    assert [r.verdict for r in run_claim("eq1_consistency", [cycle_graph(5)])] == ["fail"] * 5


# find_tok4 answers a certificate that does not verify; every check and the
# witness search must refuse it, also with asserts stripped
_WRONG_ANSWERS = """
from alphacrit import prooflab
from alphacrit.graphs import complete_graph, parse_graph6
from alphacrit.subdivisions import CertificateError, Tok4Certificate

bogus = Tok4Certificate((0, 1, 2, 3), ((0, 1),) * 6)
k5 = complete_graph(5)
checks = [
    (bogus, lambda: prooflab.check_theorem1(complete_graph(4))),
    (bogus, lambda: prooflab.check_theorem2(k5, prooflab.Triangle(0, 1, 2))),
    (bogus, lambda: prooflab.check_claim_delta(k5, 0)),
    (bogus, lambda: prooflab.witness_report([parse_graph6("FJa^O")], 7)),
    (bogus, lambda: prooflab.find_strengthening_witness([parse_graph6("FJa^O")])),
]
print(__debug__)
for answer, check in checks:
    prooflab.find_tok4 = lambda g, answer=answer: answer
    try:
        check()
        print("accepted")
    except CertificateError:
        print("refused")
"""


def test_certificate_rechecks_survive_python_O():
    r = subprocess.run([sys.executable, "-O", "-c", _WRONG_ANSWERS], capture_output=True, text=True, timeout=300)
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.split() == ["False"] + ["refused"] * 5
