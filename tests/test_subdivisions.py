import hashlib
import json
import random
from itertools import product

import pytest

from alphacrit.graphs import (
    Graph,
    complete_graph,
    cube_graph,
    cycle_graph,
    is_connected,
    parse_graph6,
    path_graph,
)
from alphacrit.subdivisions import (
    PAIR_SLOTS,
    CertificateError,
    Tok4Certificate,
    contains_tok4,
    find_tok4,
    is_tok4_graph,
    verify_tok4,
)
from oracles import brute_contains_tok4, disjoint_union

K4_CERT = Tok4Certificate(
    branch=(0, 1, 2, 3),
    paths=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
)


def subdivide(g: Graph, u: int, v: int, times: int) -> Graph:
    """Replace edge uv by a path through `times` fresh vertices."""
    assert g.adj[u] >> v & 1
    edges = [(e.u, e.v) for e in g.edges() if {e.u, e.v} != {u, v}]
    chain = [u] + list(range(g.n, g.n + times)) + [v]
    edges += list(zip(chain, chain[1:]))
    return Graph.from_edges(g.n + times, edges)


def test_certificate_shape_errors():
    with pytest.raises(CertificateError):
        Tok4Certificate(branch=(0, 1, 2), paths=K4_CERT.paths)
    with pytest.raises(CertificateError):
        Tok4Certificate(branch=(0, 1, 2, 2), paths=K4_CERT.paths)
    with pytest.raises(CertificateError):
        Tok4Certificate(branch=(0, 1, 2, 3), paths=K4_CERT.paths[:5])
    # endpoint alignment is a verification concern, not a shape error:
    # the ab path must run from a to b
    flipped = Tok4Certificate(branch=(0, 1, 2, 3),
                              paths=((1, 0), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    assert not verify_tok4(complete_graph(4), flipped)


def test_verify_tok4_on_k4():
    assert verify_tok4(complete_graph(4), K4_CERT)
    # same certificate fails where an edge is missing
    assert not verify_tok4(cycle_graph(4), K4_CERT)
    with pytest.raises(CertificateError):
        verify_tok4(complete_graph(3), K4_CERT)  # vertex out of range


def test_verify_tok4_rejects_even_paths():
    g = subdivide(complete_graph(4), 0, 1, 1)  # 0-4-1 has two edges
    cert = Tok4Certificate(
        branch=(0, 1, 2, 3),
        paths=((0, 4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
    )
    assert not verify_tok4(g, cert)
    assert find_tok4(g) is None


def test_verify_tok4_rejects_shared_interior():
    # both long paths are individually valid but share interior vertices 4, 5
    g = Graph.from_edges(6, [(0, 4), (4, 5), (1, 5), (2, 4), (0, 2), (0, 3), (1, 3), (2, 3)])
    cert = Tok4Certificate(
        branch=(0, 1, 2, 3),
        paths=((0, 4, 5, 1), (0, 2), (0, 3), (1, 5, 4, 2), (1, 3), (2, 3)),
    )
    assert not verify_tok4(g, cert)


def test_find_tok4_matches_brute_oracle(corpus7):
    for g in corpus7:
        cert = find_tok4(g)
        assert (cert is not None) == brute_contains_tok4(g)
        if cert is not None:
            assert verify_tok4(g, cert)


def test_find_tok4_frozen_certificates(corpus7_and_critical, graphs8):
    # the search order fixes which certificate comes first; this digest of
    # every answer pins that order, not just found versus absent
    graphs = [*corpus7_and_critical, *filter(is_connected, graphs8)]
    lines = [json.dumps(None if (cert := find_tok4(g)) is None else cert.to_obj()) for g in graphs]
    assert len(lines) == 13217
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "15fe346bb4c2864189db6a27361c3041482a64d67014bdf8a7100c58ef2fe9f6"
    )


def test_find_tok4_frozen_families():
    assert contains_tok4(complete_graph(4))
    assert contains_tok4(complete_graph(5))
    assert not contains_tok4(cycle_graph(7))
    assert not contains_tok4(path_graph(7))
    assert not contains_tok4(cube_graph())
    assert contains_tok4(parse_graph6("IsP@PGXD_"))  # Petersen
    # all-odd subdivisions stay positive, one even subdivision kills it
    k4_odd = subdivide(complete_graph(4), 0, 1, 2)
    assert contains_tok4(k4_odd)
    assert not contains_tok4(subdivide(complete_graph(4), 0, 1, 1))


def test_contains_tok4_in_components():
    assert contains_tok4(disjoint_union(cycle_graph(5), complete_graph(4)))
    assert not contains_tok4(disjoint_union(cycle_graph(5), cycle_graph(5)))


def test_is_tok4_graph():
    assert is_tok4_graph(complete_graph(4))
    assert is_tok4_graph(subdivide(complete_graph(4), 0, 1, 2))
    assert is_tok4_graph(subdivide(subdivide(complete_graph(4), 0, 1, 2), 2, 3, 4))
    # an even subdivision is a K4-subdivision but not a totally odd one
    assert not is_tok4_graph(subdivide(complete_graph(4), 0, 1, 1))
    assert not is_tok4_graph(complete_graph(5))
    assert not is_tok4_graph(cycle_graph(7))
    assert not is_tok4_graph(cube_graph())
    # K4 plus a pendant chain has the wrong degree profile
    assert not is_tok4_graph(Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]))


def test_is_tok4_graph_agrees_with_search(corpus7):
    # whole-graph membership implies the searcher finds a certificate that
    # spans every edge
    hits = 0
    for g in corpus7:
        if is_tok4_graph(g):
            hits += 1
            cert = find_tok4(g)
            assert cert is not None
            used = set()
            for p in cert.paths:
                used.update(zip(p, p[1:]))
            assert len(used) == g.m
    # a totally odd subdivision adds an even number of vertices per edge, so
    # below 8 vertices only K4 itself and the one 6-vertex class exist
    assert hits == 2


def subdivided_multigraph(pairs, lengths, rng: random.Random) -> Graph:
    """Branch vertices 0..3 joined by one path per entry of pairs, of the
    matching edge length, with seeded relabelled vertices."""
    edges, n = [], 4
    for (a, b), length in zip(pairs, lengths):
        chain = [a] + list(range(n, n + length - 1)) + [b]
        n += length - 1
        edges += zip(chain, chain[1:])
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[x], perm[y]) for x, y in edges])


def test_is_tok4_graph_known_answers(corpus7, graphs8, critical_corpus):
    rng = random.Random(8)
    for lengths in product((1, 2, 3), repeat=6):
        g = subdivided_multigraph(PAIR_SLOTS, lengths, rng)
        assert is_tok4_graph(g) == all(length % 2 for length in lengths), lengths
    # four degree-3 vertices and the rest degree 2, but no TOK4 is all of g:
    # K4 beside a triangle, and a 4-cycle with two doubled edges (the second
    # copy of each subdivided into an odd path)
    assert not is_tok4_graph(disjoint_union(complete_graph(4), cycle_graph(3)))
    theta_pair = ((0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3))
    assert not is_tok4_graph(subdivided_multigraph(theta_pair, (1, 3, 1, 3, 1, 1), rng))
    counts = [sum(map(is_tok4_graph, corpus)) for corpus in (corpus7, graphs8, critical_corpus)]
    assert counts == [2, 3, 5]
