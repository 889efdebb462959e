import hashlib
import json
import random
from collections import Counter

import pytest

from alphacrit import covers
from alphacrit.covers import (
    CoverError,
    CoverFamily,
    TheoremViolationError,
    Tok4PresentError,
    _induced_odd_cycles,
    cover_from_theorem,
    minmax_certificate,
    rho_tilde,
    verify_cover,
)
from alphacrit.graphs import (
    Edge,
    Graph,
    SizeLimitError,
    add_edge,
    complete_graph,
    cycle_graph,
    disjoint_union,
    mask_of,
    parse_graph6,
    path_graph,
)
from alphacrit.stability import alpha
from alphacrit.subdivisions import CertificateError, contains_tok4, verify_tok4
from oracles import all_moves_rho_tilde, brute_odd_cycles, brute_rho

PETERSEN = parse_graph6("IsP@PGXD_")
CHORDED_C5 = add_edge(cycle_graph(5), (0, 2))


def test_induced_odd_cycles_frozen():
    assert _induced_odd_cycles(complete_graph(4)) == [
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
    ]
    assert _induced_odd_cycles(cycle_graph(6)) == []
    assert _induced_odd_cycles(cycle_graph(5)) == [(0, 1, 2, 3, 4)]
    # each of Petersen's 20 nine-cycles has 3 chords, so only the 12 pentagons remain
    cycles = _induced_odd_cycles(PETERSEN)
    assert [len(c) for c in cycles] == [5] * 12
    assert len(set(map(frozenset, cycles))) == 12


def _chordless(g, cyc):
    mask = mask_of(cyc)
    return sum((g.adj[v] & mask).bit_count() for v in cyc) == 2 * len(cyc)


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return _graph_on(g.n, ((perm[e.u], perm[e.v]) for e in g.edges()))


def _graph_on(n, pairs):
    rows = [0] * n
    for a, b in pairs:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph(n, tuple(rows))


def test_induced_odd_cycles_are_the_chordless_ones(corpus7, critical_corpus):
    # the relabelled copies matter: a start with fewer than two neighbours
    # above it is skipped, and which starts those are depends on the labels
    rng = random.Random(7)
    for g in [*corpus7, *critical_corpus, *(_relabelled(h, rng) for h in corpus7)]:
        assert _induced_odd_cycles(g) == [c for c in brute_odd_cycles(g) if _chordless(g, c)]


def test_verify_cover_violations():
    c5 = cycle_graph(5)
    ok = CoverFamily(c5, (), (), ((0, 1, 2, 3, 4),), 4)
    assert verify_cover(c5, ok) == 4

    cases = [
        (CoverFamily(cycle_graph(3), (0, 1, 2), (), (), 6), "host-mismatch"),
        (CoverFamily(c5, (0, 9), (), ((0, 1, 2, 3, 4),), 8), "bad-vertex"),
        (CoverFamily(c5, (), (Edge(0, 2),), ((0, 1, 2, 3, 4),), 6), "bad-edge"),
        (CoverFamily(c5, (0, 1), (), ((2, 4, 3),), 6), "non-cycle"),
        (CoverFamily(c5, (4,), (Edge(0, 1),), ((1, 2, 3),), 6), "non-cycle"),
        (CoverFamily(c5, (0, 1, 2), (), (), 6), "uncovered-vertex"),
        (CoverFamily(c5, (), (), ((0, 1, 2, 3, 4),), 5), "cost-mismatch"),
    ]
    for family, tag in cases:
        with pytest.raises(CoverError) as info:
            verify_cover(c5, family)
        assert info.value.violation == tag


def test_verify_cover_rejects_even_cycles():
    c6 = cycle_graph(6)
    family = CoverFamily(c6, (), (), ((0, 1, 2, 3, 4, 5),), 5)
    with pytest.raises(CoverError) as info:
        verify_cover(c6, family)
    assert info.value.violation == "even-cycle"


def test_rho_tilde_matches_brute_oracle(corpus6):
    # brute_rho offers every odd cycle, chorded ones included, so agreement
    # also checks the chord argument that lets rho_tilde skip them
    for g in corpus6:
        doubled, family = rho_tilde(g)
        assert doubled == brute_rho(g)
        assert verify_cover(g, family) == doubled


def test_rho_tilde_matches_all_moves_oracle(corpus7_and_critical, graphs8):
    # rho_tilde offers only moves inside the state that start at its lowest
    # vertex; the oracle offers every move through that vertex, so equal
    # values and families show that the dropped moves never come first
    rng = random.Random(27)
    graphs = [*corpus7_and_critical, *(_relabelled(g, rng) for g in rng.sample(graphs8, 2000))]
    for _ in range(1000):
        p = rng.random()
        graphs.append(_graph_on(9, ((a, b) for a in range(9) for b in range(a) if rng.random() < p)))
    for g in graphs:
        doubled, family = rho_tilde(g)
        want, oracle = all_moves_rho_tilde(g)
        assert (doubled, family.to_obj()) == (want, oracle.to_obj())


def test_rho_tilde_families_use_induced_cycles(corpus6):
    for g in corpus6:
        _, family = rho_tilde(g)
        assert all(_chordless(g, c) for c in family.odd_cycles)


def test_rho_tilde_frozen_graphs8(graphs8):
    results = [rho_tilde(g) for g in graphs8]
    values = [d for d, _ in results]
    assert sum(values) == 89302
    assert Counter(values) == {6: 5783, 8: 5611, 10: 863, 12: 81, 14: 7, 16: 1}
    digest = hashlib.sha256("".join(f"{d}\n" for d in values).encode()).hexdigest()
    assert digest == "5f1c77e3288c6e0ee38c9ef18cc65fda9fba841c9b83e2e8c8ce06de025c5c6b"
    # the families too: which optimal cover the DP's tie-break picks is output
    families = "".join(json.dumps(f.to_obj()) + "\n" for _, f in results)
    assert hashlib.sha256(families.encode()).hexdigest() == (
        "a94e55fef9981ba1212fbe47478475a1436e0e2c4e9463a3c8465187737c8a6c"
    )


def test_rho_tilde_frozen_values():
    cases = [
        (cycle_graph(5), 4),
        (cycle_graph(7), 6),
        (complete_graph(4), 4),
        (path_graph(2), 2),
        (path_graph(5), 6),
        (cycle_graph(6), 6),
    ]
    for g, want in cases:
        doubled, family = rho_tilde(g)
        assert doubled == want
        assert verify_cover(g, family) == want
    doubled, family = rho_tilde(cycle_graph(5))
    assert family.to_obj() == {
        "vertices": [], "edges": [], "odd_cycles": [[0, 1, 2, 3, 4]], "cost_times_2": 4,
    }
    # K4 shows the strict gap: one vertex plus one triangle cost 2, alpha is 1
    doubled, family = rho_tilde(complete_graph(4))
    assert doubled == 4 and 2 * alpha(complete_graph(4)) == 2


def test_rho_tilde_bounds_alpha(corpus6):
    for g in corpus6:
        doubled, _ = rho_tilde(g)
        assert 2 * alpha(g) <= doubled


def test_rho_tilde_size_cap():
    with pytest.raises(SizeLimitError):
        rho_tilde(PETERSEN)


C6_THEOREM_COVER = {
    "vertices": [], "edges": [[0, 5], [1, 2], [3, 4]], "odd_cycles": [], "cost_times_2": 6,
}


def test_cover_from_theorem_frozen():
    assert cover_from_theorem(cycle_graph(6)).to_obj() == C6_THEOREM_COVER


def test_cover_from_theorem_searches_only_on_failure(monkeypatch, corpus6):
    tok4_free = [g for g in corpus6 if not contains_tok4(g)]

    def no_search(g):
        pytest.fail(f"find_tok4 called on a graph whose theorem read succeeds: {g}")

    monkeypatch.setattr(covers, "find_tok4", no_search)
    for g in tok4_free:
        assert verify_cover(g, cover_from_theorem(g)) == 2 * alpha(g)
    assert cover_from_theorem(cycle_graph(6)).to_obj() == C6_THEOREM_COVER


def test_cover_from_theorem_requires_tok4_free():
    with pytest.raises(Tok4PresentError) as info:
        cover_from_theorem(complete_graph(4))
    assert verify_tok4(complete_graph(4), info.value.certificate)


def test_cover_from_theorem_verifies_its_refusal(bogus_tok4_search):
    # the TOK4 that would refuse the theorem cover on K4 does not verify
    with pytest.raises(CertificateError):
        cover_from_theorem(complete_graph(4))


def test_theorem_read_on_tok4_graphs(corpus7):
    # the read is certified by duality, so it is handed out wherever it
    # succeeds, TOK4 or not; where it fails a TOK4 is there, never a violation
    read = refused = 0
    for g in corpus7:
        if not contains_tok4(g):
            continue
        try:
            stable, family = minmax_certificate(g)
        except Tok4PresentError as exc:
            assert verify_tok4(g, exc.certificate)
            refused += 1
        else:
            assert verify_cover(g, family) == 2 * alpha(g) == 2 * stable.claimed_alpha
            read += 1
    assert (read, refused) == (130, 363)


def test_cover_from_theorem_equality_sweep(corpus6):
    for g in corpus6:
        if contains_tok4(g):
            continue
        family = cover_from_theorem(g)
        assert verify_cover(g, family) == 2 * alpha(g)
        doubled, _ = rho_tilde(g)
        assert doubled == 2 * alpha(g)


def test_cover_from_theorem_on_unions():
    g = disjoint_union(cycle_graph(5), path_graph(4))
    family = cover_from_theorem(g)
    assert verify_cover(g, family) == 2 * alpha(g)


@pytest.mark.parametrize("skeleton, members, component", [
    # an edge, then a path on three vertices
    (disjoint_union(path_graph(2), path_graph(3)), (2, 3, 4), path_graph(3)),
    # a vertex, then an even cycle
    (disjoint_union(path_graph(1), cycle_graph(4)), (1, 2, 3, 4), cycle_graph(4)),
    # a five-cycle with a chord: odd, but two vertices have degree 3
    (CHORDED_C5, (0, 1, 2, 3, 4), CHORDED_C5),
])
def test_cover_from_theorem_rejects_other_components(monkeypatch, skeleton, members, component):
    monkeypatch.setattr(covers, "critical_subgraph", lambda g: skeleton)
    with pytest.raises(TheoremViolationError) as info:
        cover_from_theorem(path_graph(skeleton.n))
    assert str(info.value) == (
        f"critical-subgraph component on vertices {members} is not a vertex, edge, or odd cycle"
    )
    assert info.value.component == component


def test_minmax_certificate():
    for g in (cycle_graph(5), path_graph(6), cycle_graph(9)):
        stable, family = minmax_certificate(g)
        assert stable.host == g and family.host == g
        assert 2 * stable.claimed_alpha == family.doubled_cost
