import random

import networkx as nx
import pytest

from alphacrit.enumeration import (
    canonical_form,
    connected_graphs_upto,
    enumerate_connected,
    packaged_corpus,
)
from alphacrit.graphs import (
    Graph,
    SizeLimitError,
    complete_graph,
    cycle_graph,
    is_connected,
    parse_graph6,
    path_graph,
    to_graph6,
)

CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((e.u, e.v) for e in g.edges())
    return h


def shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    rows = [0] * g.n
    for e in g.edges():
        a, b = perm[e.u], perm[e.v]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph(g.n, tuple(rows))


def test_canonical_form_frozen_values():
    assert canonical_form(Graph(1, (0,))) == "1:"
    assert canonical_form(complete_graph(4)) == "4:111111"
    assert canonical_form(cycle_graph(5)) != canonical_form(path_graph(5))


def test_canonical_form_is_relabeling_invariant(corpus6):
    rng = random.Random(97)
    for g in corpus6:
        want = canonical_form(g)
        for _ in range(3):
            assert canonical_form(shuffled(g, rng)) == want


def test_canonical_form_size_cap():
    with pytest.raises(SizeLimitError):
        canonical_form(complete_graph(10))


def test_class_counts_match_known_values():
    for n, want in CLASS_COUNTS.items():
        assert len(list(enumerate_connected(n))) == want


def test_representatives_are_connected_canonical_and_sorted():
    for n in range(1, 7):
        reps = list(enumerate_connected(n))
        forms = [canonical_form(g) for g in reps]
        assert forms == sorted(forms)
        for g, form in zip(reps, forms):
            assert is_connected(g)
            # a representative is labeled so that its own bits are the minimum
            assert canonical_form(shuffled(g, random.Random(0))) == form


def test_classes_agree_with_networkx_up_to_5():
    # pairwise non-isomorphic by an independent checker, and counts already
    # pin the totals, so together the classes are exactly right
    for n in range(1, 6):
        reps = [to_nx(g) for g in enumerate_connected(n)]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not nx.is_isomorphic(reps[i], reps[j])


def test_canonical_form_equality_matches_isomorphism():
    rng = random.Random(4242)
    reps = list(enumerate_connected(6))
    sample = rng.sample(reps, 12)
    for i, a in enumerate(sample):
        for b in sample[i + 1:]:
            same = canonical_form(a) == canonical_form(b)
            assert same == nx.is_isomorphic(to_nx(a), to_nx(b))


def test_enumeration_bounds():
    with pytest.raises(SizeLimitError):
        list(enumerate_connected(0))
    with pytest.raises(SizeLimitError):
        list(enumerate_connected(9))


def test_connected_graphs_upto_sizes():
    graphs = list(connected_graphs_upto(6))
    assert len(graphs) == 143
    assert [g.n for g in graphs] == sorted(g.n for g in graphs)


def test_packaged_graphs8(graphs8):
    assert len(graphs8) == 12346
    assert all(g.n == 8 for g in graphs8)
    assert sum(1 for g in graphs8 if is_connected(g)) == 11117
    codes = [to_graph6(g) for g in graphs8]
    assert len(set(codes)) == len(codes)


def test_packaged_critical_corpus(critical_corpus):
    assert len(critical_corpus) == 54
    by_n = {}
    for g in critical_corpus:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert by_n == {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 5, 8: 10, 9: 31}
    # canonical_form is factorial, so identify the n=9 landmarks structurally:
    # connected and 2-regular forces the 9-cycle, m = 36 forces K9
    nine = [g for g in critical_corpus if g.n == 9]
    assert sum(1 for g in nine if all(g.degree(v) == 2 for v in range(9))) == 1
    assert sum(1 for g in nine if g.m == 36) == 1
    forms = {canonical_form(g) for g in critical_corpus if g.n <= 8}
    for member in (cycle_graph(7), complete_graph(8)):
        assert canonical_form(member) in forms


def test_missing_packaged_corpus():
    with pytest.raises(SizeLimitError):
        packaged_corpus("no-such-corpus")
