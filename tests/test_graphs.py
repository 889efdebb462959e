import random

import pytest

from alphacrit.graphs import (
    Edge,
    Graph,
    Graph6Error,
    GraphError,
    SizeLimitError,
    VertexSet,
    _component_masks,
    add_edge,
    complete_graph,
    contract_degree2,
    cube_graph,
    cycle_graph,
    delete_edge,
    delete_vertex,
    delete_vertices,
    disjoint_union,
    is_connected,
    parse_graph6,
    path_graph,
    read_graph6_lines,
    to_graph6,
)


def test_edge_normalizes_and_rejects_loops():
    assert Edge(3, 1) == Edge(1, 3)
    assert (Edge(3, 1).u, Edge(3, 1).v) == (1, 3)
    with pytest.raises(GraphError):
        Edge(2, 2)


def test_vertex_set_basics():
    s = VertexSet.of([4, 1, 1])
    assert len(s) == 2
    assert 1 in s and 4 in s and 2 not in s
    assert s.members() == (1, 4)
    assert list(s) == [1, 4]


def test_graph_construction_validation():
    with pytest.raises(GraphError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(GraphError):
        Graph(2, (1, 2))  # loop at 0
    with pytest.raises(GraphError):
        Graph(1, (0, 0))  # adj length mismatch
    with pytest.raises(SizeLimitError):
        complete_graph(33)
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 2)])


def test_builders_shapes():
    p4 = path_graph(4)
    assert p4.m == 3 and p4.degree(0) == 1 and p4.degree(1) == 2
    c5 = cycle_graph(5)
    assert c5.m == 5 and all(c5.degree(v) == 2 for v in range(5))
    k4 = complete_graph(4)
    assert k4.m == 6 and k4.max_degree() == 3
    q3 = cube_graph()
    assert q3.n == 8 and q3.m == 12
    assert all(q3.degree(v) == 3 for v in range(8))
    # opposite corners of the cube differ in all three bits
    assert not q3.has_edge(0, 7)


def test_disjoint_union():
    g = disjoint_union(complete_graph(3), path_graph(2))
    assert g.n == 5 and g.m == 4
    assert g.has_edge(3, 4) and not g.has_edge(2, 3)
    # in order of smallest member: the triangle, then the edge
    assert list(_component_masks(g.adj, g.vertex_mask())) == [0b00111, 0b11000]
    assert not is_connected(g) and is_connected(complete_graph(3))


def test_delete_vertex_maps_labels():
    c5 = cycle_graph(5)
    g, vmap = delete_vertex(c5, 2)
    assert g.n == 4 and vmap == (0, 1, 3, 4)
    # the survivors keep their adjacency: 3-4 was an edge, now 2-3
    assert g.has_edge(2, 3) and not g.has_edge(1, 2)
    g2, vmap2 = delete_vertices(c5, (0, 2))
    assert g2.n == 3 and vmap2 == (1, 3, 4)
    assert g2.m == 1 and g2.has_edge(1, 2)


def test_negative_vertex_is_a_graph_error():
    with pytest.raises(GraphError, match="vertex -1"):
        delete_vertices(cycle_graph(3), [-1])
    with pytest.raises(GraphError, match="vertex -1"):
        delete_vertex(cycle_graph(3), -1)
    with pytest.raises(GraphError, match="vertex -1"):
        VertexSet.of([2, -1])
    assert -1 not in VertexSet(3)


def _relabelled(g, keep, rename):
    """g restricted to keep, each vertex x renamed rename.get(x, x), rebuilt
    from an edge list; loops are impossible here and duplicates collapse."""
    index = {old: new for new, old in enumerate(keep)}
    edges = []
    for e in g.edges():
        a, b = rename.get(e.u, e.u), rename.get(e.v, e.v)
        if a in index and b in index:
            edges.append((index[a], index[b]))
    return Graph.from_edges(len(keep), edges)


def test_delete_vertices_matches_edge_list_rebuild(corpus7):
    rng = random.Random(1207)
    for g in corpus7:
        for _ in range(4):
            kill = [v for v in range(g.n) if rng.random() < 0.35]
            keep = tuple(v for v in range(g.n) if v not in kill)
            assert delete_vertices(g, rng.sample(kill, len(kill))) == (_relabelled(g, keep, {}), keep)
        for v in range(g.n):
            keep = tuple(x for x in range(g.n) if x != v)
            assert delete_vertex(g, v) == (_relabelled(g, keep, {}), keep)


def test_contract_degree2_matches_edge_list_rebuild(corpus7):
    contracted = 0
    for g in corpus7:
        for u in range(g.n):
            if g.degree(u) != 2:
                continue
            v, w = g.neighbors(u)
            if g.has_edge(v, w):
                continue
            keep = tuple(x for x in range(g.n) if x not in (u, w))
            # w folds into v; the edges uv and uw vanish with u
            assert contract_degree2(g, u) == _relabelled(g, keep, {w: v})
            contracted += 1
    assert contracted == 756


def test_edge_editing():
    c4 = cycle_graph(4)
    assert delete_edge(c4, (0, 1)).m == 3
    assert delete_edge(c4, Edge(0, 1)).m == 3
    assert add_edge(c4, (0, 2)).m == 5
    with pytest.raises(GraphError):
        delete_edge(c4, (0, 2))  # not present
    with pytest.raises(GraphError):
        add_edge(c4, (0, 1))  # already present


def test_contract_degree2():
    c5 = cycle_graph(5)
    g = contract_degree2(c5, 0)
    assert g.n == 3 and g.m == 3  # C5 shrinks to a triangle
    with pytest.raises(GraphError):
        contract_degree2(complete_graph(4), 0)  # degree 3
    with pytest.raises(GraphError):
        contract_degree2(cycle_graph(3), 0)  # neighbors adjacent


# graph6 codes checked against independently assembled graphs
FROZEN_CODES = [
    ("@", Graph(1, (0,))),
    ("A_", complete_graph(2)),
    ("Bw", complete_graph(3)),
    ("C~", complete_graph(4)),
    ("Dhc", cycle_graph(5)),
    ("D?{", Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])),
]


def test_graph6_frozen_codes():
    for code, g in FROZEN_CODES:
        assert to_graph6(g) == code
        assert parse_graph6(code) == g


def test_graph6_roundtrip_random():
    rng = random.Random(20240811)
    for _ in range(200):
        n = rng.randint(1, 12)
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        g = Graph(n, tuple(rows))
        assert parse_graph6(to_graph6(g)) == g


def test_graph6_parse_errors_name_offsets():
    with pytest.raises(Graph6Error) as info:
        parse_graph6("C~~")  # trailing byte
    assert info.value.offset == 2
    with pytest.raises(Graph6Error) as info:
        parse_graph6("D?")  # truncated body
    assert "truncated" in str(info.value)
    with pytest.raises(Graph6Error) as info:
        parse_graph6("B !")
    assert info.value.offset == 1
    with pytest.raises(Graph6Error) as info:
        parse_graph6("C\u00e9")  # non-ASCII, not read as the valid byte "?"
    assert info.value.offset == 1
    assert str(info.value) == "byte 233 at offset 1 outside printable graph6 range 63..126"
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("~??")  # extended-size header, beyond the 32-vertex cap


def test_read_graph6_lines_skips_blanks():
    graphs = list(read_graph6_lines(["Bw", "", "  ", "A_", "Dhc\r\n", " Dhc \n"]))
    assert [g.n for g in graphs] == [3, 2, 5, 5]
