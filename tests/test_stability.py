import hashlib
import random

import pytest

from alphacrit.graphs import (
    Edge,
    Graph,
    GraphError,
    SizeLimitError,
    complete_graph,
    cycle_graph,
    delete_edge,
    disjoint_union,
    parse_graph6,
    path_graph,
    to_graph6,
    VertexSet,
)
from alphacrit.stability import (
    CriticalityError,
    EquationMismatchError,
    StableSetCertificate,
    all_max_stable_sets,
    alpha,
    critical_edges,
    critical_edges_avoiding,
    critical_subgraph,
    g_minus_c,
    is_alpha_critical,
    peel_max_stable_set,
)
from oracles import (
    brute_alpha,
    loop_critical_subgraph,
    loop_peel_max_stable_set,
    scan_critical_edges_avoiding,
)

PETERSEN = parse_graph6("IsP@PGXD_")


def test_alpha_matches_brute_oracle(corpus6):
    for g in corpus6:
        assert alpha(g) == brute_alpha(g)


def test_alpha_on_disjoint_unions(corpus6):
    parts = [g for g in corpus6 if g.n in (3, 4)]
    for a in parts:
        for b in parts:
            u = disjoint_union(a, b)
            assert alpha(u) == alpha(a) + alpha(b)


def test_alpha_frozen_families():
    for k in range(1, 11):
        assert alpha(path_graph(k)) == (k + 1) // 2
        if k >= 3:
            assert alpha(cycle_graph(k)) == k // 2
        assert alpha(complete_graph(k)) == 1
    assert alpha(PETERSEN) == 4


def test_stable_set_certificate_validates():
    c5 = cycle_graph(5)
    cert = StableSetCertificate(c5, VertexSet.of([1, 3]), 2)
    assert cert.claimed_alpha == 2
    with pytest.raises(GraphError):
        StableSetCertificate(c5, VertexSet.of([0, 1]), 2)  # not stable
    with pytest.raises(GraphError):
        StableSetCertificate(c5, VertexSet.of([1, 3]), 3)  # size mismatch
    with pytest.raises(GraphError):
        StableSetCertificate(c5, VertexSet.of([5]), 1)  # outside host


def test_all_max_stable_sets():
    c6 = cycle_graph(6)
    sets = all_max_stable_sets(c6)
    assert [sorted(s) for s in sets] == [[0, 2, 4], [1, 3, 5]]
    for g in (cycle_graph(5), complete_graph(4), path_graph(6)):
        found = all_max_stable_sets(g)
        a = alpha(g)
        assert all(len(s) == a for s in found)
        brute = []
        for mask in range(1 << g.n):
            members = [v for v in range(g.n) if mask >> v & 1]
            if len(members) == a and all(not g.adj[u] >> v & 1 for u in members for v in members):
                brute.append(frozenset(members))
        assert set(map(frozenset, found)) == set(brute)
    with pytest.raises(SizeLimitError):
        all_max_stable_sets(complete_graph(17))


def test_critical_edges():
    # every edge of an odd cycle or complete graph is critical
    for g in (cycle_graph(5), cycle_graph(7), complete_graph(4)):
        assert len(critical_edges(g).edges) == g.m
    # even cycles have none: deleting any edge leaves alpha at n/2
    assert len(critical_edges(cycle_graph(6)).edges) == 0
    # P4: deleting an end edge isolates a vertex and raises alpha; the
    # middle edge splits the path without changing it
    crit = critical_edges(path_graph(4))
    assert [(e.u, e.v) for e in crit.sorted_edges()] == [(0, 1), (2, 3)]


def test_critical_edge_definition_directly(corpus6):
    for g in corpus6:
        if g.n > 5:
            continue
        base = alpha(g)
        crit = {(e.u, e.v) for e in critical_edges(g).edges}
        for e in g.edges():
            raised = alpha(delete_edge(g, e)) > base
            assert raised == ((e.u, e.v) in crit)


# the thirteen connected alpha-critical classes with at most 7 vertices
CRITICAL_7 = [
    "@", "A_", "Bw", "C~", "DLo", "D~{", "EJf_", "E~~w",
    "F@Ue?", "FJ]N_", "FJ]^?", "FJa^O", "F~~~w",
]


def test_alpha_critical_classes_frozen(corpus7):
    found = [to_graph6(g) for g in corpus7 if is_alpha_critical(g)]
    assert sorted(found) == CRITICAL_7


def test_is_alpha_critical_spot_checks():
    assert is_alpha_critical(cycle_graph(5))
    assert is_alpha_critical(complete_graph(6))
    assert not is_alpha_critical(cycle_graph(6))
    assert not is_alpha_critical(path_graph(4))
    assert not is_alpha_critical(PETERSEN)


def test_critical_subgraph():
    # C6 keeps alpha = 3 on a perfect matching once non-critical edges go
    sub = critical_subgraph(cycle_graph(6))
    assert [(e.u, e.v) for e in sub.edges()] == [(0, 5), (1, 2), (3, 4)]
    assert alpha(sub) == 3
    # critical graphs are their own critical subgraph
    c5 = cycle_graph(5)
    assert critical_subgraph(c5) == c5


def test_critical_subgraph_properties(corpus6):
    for g in corpus6:
        if g.n > 5:
            continue
        sub = critical_subgraph(g)
        assert alpha(sub) == alpha(g)
        assert len(critical_edges(sub).edges) == sub.m


def test_critical_edges_avoiding_definition(corpus6):
    # re-derive the set longhand with raw mask scans instead of the library's
    # stable-set machinery
    for g in corpus6:
        if g.n > 5 or g.n < 2:
            continue
        base = alpha(g)
        for u in range(g.n):
            got = {(e.u, e.v) for e in critical_edges_avoiding(g, u)}
            want = set()
            for e in g.edges():
                reduced = delete_edge(g, e)
                tops = [mask for mask in range(1 << g.n)
                        if all(not (mask >> v & 1 and reduced.adj[v] & mask) for v in range(g.n))]
                top = max(m.bit_count() for m in tops)
                if top == base:
                    continue  # not critical
                if any(m.bit_count() == top and not m >> u & 1 for m in tops):
                    want.add((e.u, e.v))
            assert got == want


def test_g_minus_c_equals_deleted_side(corpus7):
    # the equation behind g_minus_c: critical edges of g - u coincide with
    # the avoiding-side edges of g, relabeled
    from alphacrit.graphs import delete_vertex

    for g in corpus7:
        if not is_alpha_critical(g) or g.n < 2:
            continue
        for u in range(g.n):
            reduced, vmap = delete_vertex(g, u)
            back = {tuple(sorted((vmap[e.u], vmap[e.v])))
                    for e in critical_edges(reduced).edges}
            avoiding = {(e.u, e.v) for e in critical_edges_avoiding(g, u)}
            assert back == avoiding
            built = g_minus_c(g, u)
            mapped = {tuple(sorted((vmap[e.u], vmap[e.v]))) for e in built.edges()}
            assert mapped == avoiding


def test_g_minus_c_frozen():
    reduced = g_minus_c(cycle_graph(5), 0)
    assert reduced.n == 4
    assert [(e.u, e.v) for e in reduced.edges()] == [(0, 1), (2, 3)]


def test_g_minus_c_guards():
    with pytest.raises(CriticalityError):
        g_minus_c(cycle_graph(6), 0)  # not critical
    with pytest.raises(CriticalityError):
        g_minus_c(Graph(1, (0,)), 0)  # too small
    with pytest.raises(CriticalityError):
        g_minus_c(disjoint_union(cycle_graph(5), cycle_graph(5)), 0)


def test_peel_max_stable_set():
    got = peel_max_stable_set(cycle_graph(5))
    assert got.set.members() == (2, 4)
    for g in (cycle_graph(7), complete_graph(5), path_graph(6)):
        cert = peel_max_stable_set(g)
        assert cert.host == g and cert.claimed_alpha == alpha(g)
        members = cert.set.members()
        assert all(not g.adj[u] >> v & 1 for u in members for v in members)


@pytest.fixture(scope="module")
def corpus7_and_critical(corpus7, critical_corpus):
    """corpus7 and critical_corpus, plus one seeded relabelling of each graph."""
    rng = random.Random(5)
    graphs = [*corpus7, *critical_corpus]
    relabelled = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        rows = [0] * g.n
        for e in g.edges():
            rows[perm[e.u]] |= 1 << perm[e.v]
            rows[perm[e.v]] |= 1 << perm[e.u]
        relabelled.append(Graph(g.n, tuple(rows)))
    return graphs + relabelled


def test_critical_edges_match_the_definition(corpus7_and_critical):
    for g in corpus7_and_critical:
        base = alpha(g)
        want = frozenset(e for e in g.edges() if alpha(delete_edge(g, e)) > base)
        assert critical_edges(g).edges == want
        assert is_alpha_critical(g) == (len(want) == g.m)


def test_single_passes_match_restart_loops(corpus7_and_critical):
    for g in corpus7_and_critical:
        assert critical_subgraph(g) == loop_critical_subgraph(g)
        assert peel_max_stable_set(g).set == loop_peel_max_stable_set(g)


def test_critical_edges_avoiding_matches_scan(corpus7_and_critical):
    # one (alpha - 1)-stable-set enumeration per graph against a 2^n scan of
    # every g - e; the graphs that are not alpha-critical check that an edge
    # no stable set fits is exactly an edge that is not critical
    for g in corpus7_and_critical:
        for u in range(g.n):
            assert critical_edges_avoiding(g, u) == scan_critical_edges_avoiding(g, u)


def test_criticality_frozen_graphs8(graphs8):
    # measured with the restart-loop versions, in graphs8.g6 file order
    def digest(lines):
        return hashlib.sha256("".join(lines).encode()).hexdigest()

    assert digest(to_graph6(critical_subgraph(g)) + "\n" for g in graphs8) == (
        "efd7cfdbc4618ade55057c2704b47fa763f5ebe4207ccd21a11359532ee79524")
    assert digest(f"{peel_max_stable_set(g).set.bits}\n" for g in graphs8) == (
        "df0f51ed79ee4d63bb6e435f91f78114363a9f929e77081b628def6f9f529f2d")
    counts = [len(critical_edges(g).edges) for g in graphs8]
    assert sum(counts) == 26715
    assert digest(f"{c}\n" for c in counts) == (
        "e3cc63d1aa602288274d2a29cfd62ea0c820f1d26eb23ca2ca4ca823aad8a408")
    assert sum(is_alpha_critical(g) for g in graphs8) == 40


def test_g_minus_c_mismatch_names_both_sides(monkeypatch):
    # C5 - 0 is the path 1-2-3-4, whose critical edges are 12 and 34; claim
    # instead that the avoiding side of vertex 0 is {12, 23}
    import alphacrit.stability as stability

    g = cycle_graph(5)
    facts = stability._deleted_vertex_facts(g)
    wrong = (facts[0], (frozenset({Edge(1, 2), Edge(2, 3)}),) + facts[1][1:])
    g_minus_c.cache_clear()
    monkeypatch.setattr(stability, "_deleted_vertex_facts", lambda h: wrong)
    with pytest.raises(EquationMismatchError) as info:
        g_minus_c(g, 0)
    assert str(info.value) == (
        "critical edges of g-0 disagree with the avoiding-set characterization: "
        "[Edge(u=1, v=2), Edge(u=3, v=4)] vs [Edge(u=1, v=2), Edge(u=2, v=3)]"
    )
    assert info.value.only_deleted_side == [Edge(3, 4)]
    assert info.value.only_avoiding_side == [Edge(2, 3)]
