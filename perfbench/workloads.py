"""Seeded inputs for the four benchmark workloads.

Every input is a class representative from a packaged corpus or a graph built
here with a known answer, then given a seeded vertex relabelling, so the
program never sees the canonical labels its corpora ship with. The same seed
always gives the same inputs; nothing here times or checks anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from alphacrit.graphs import Graph, to_graph6

# About 37k distinct alpha() arguments: over half of the 65,536-entry cache,
# while three repetitions still fit in one 30 s run.
ANALYZE_SAMPLE = 2500
# Of the 3,989 TOK4-free classes in connected <=7 plus graphs8, each given
# COVER_LABELLINGS relabellings. critical_subgraph's cost on one class varies up
# to fivefold with the labelling, so a per-graph tail would mostly measure
# which labellings the seed drew; the time of a class summed over three of
# them varies far less.
COVER_SAMPLE = 1330
COVER_LABELLINGS = 3


@dataclass(frozen=True)
class Inputs:
    """The graphs one repetition works on.

    keys[i] names graphs[i]'s class in the frozen reference (its graph6 code in
    the corpus), or, on tok4-hard, the family it was built by.
    """

    graphs: tuple[Graph, ...]
    keys: tuple[str, ...]
    expect_tok4: tuple[bool, ...] = ()

    def graph6_text(self) -> str:
        return "".join(to_graph6(g) + "\n" for g in self.graphs)


def relabel(g: Graph, rng: random.Random) -> Graph:
    """g with its vertices renamed by a seeded random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    rows = [0] * g.n
    for u in range(g.n):
        row = g.adj[u]
        for v in range(g.n):
            if row >> v & 1:
                rows[perm[u]] |= 1 << perm[v]
    return Graph(g.n, tuple(rows))


def _relabelled(picked: list[tuple[str, Graph]], rng: random.Random) -> Inputs:
    return Inputs(
        graphs=tuple(relabel(g, rng) for _, g in picked),
        keys=tuple(key for key, _ in picked),
    )


def _spread_sample(corpus: list[tuple[str, Graph]], k: int, rng: random.Random, labellings: int = 1) -> Inputs:
    """k classes spread evenly over the corpus ordered by size and edge count,
    the same k for every seed, shuffled by the seed; each class appears
    `labellings` times in a row, every time with its own seeded relabelling.

    Cost grows steeply with edge count, so which classes are picked would move
    total and tail cost between seeds; only the labelling and order do.
    """
    order = sorted(corpus, key=lambda item: (item[1].n, item[1].m, item[0]))
    step = len(order) / k
    picked = [order[int((i + 0.5) * step)] for i in range(k)]
    rng.shuffle(picked)
    return _relabelled([item for item in picked for _ in range(labellings)], rng)


def analyze_inputs(graphs8: list[Graph], seed: int) -> Inputs:
    rng = random.Random(f"analyze-g8/{seed}")
    return _spread_sample([(to_graph6(g), g) for g in graphs8], ANALYZE_SAMPLE, rng)


def verify_inputs(corpus7: list[Graph], critical9: list[Graph], seed: int) -> Inputs:
    """Every connected class on <=7 vertices and every alpha-critical class on
    <=9, shuffled and relabelled."""
    rng = random.Random(f"verify-crit/{seed}")
    picked = [(to_graph6(g), g) for g in (*corpus7, *critical9)]
    rng.shuffle(picked)
    return _relabelled(picked, rng)


def cover_inputs(corpus7: list[Graph], graphs8: list[Graph], tok4_free: set[str], seed: int) -> Inputs:
    """A sample of the TOK4-free classes of connected <=7 and graphs8, each
    class as COVER_LABELLINGS consecutive graphs.

    TOK4-freeness comes from the frozen reference, so the program's own
    find_tok4 cache is still cold when the work starts.
    """
    rng = random.Random(f"theorem-cover/{seed}")
    corpus = [(key, g) for g in (*corpus7, *graphs8) if (key := to_graph6(g)) in tok4_free]
    return _spread_sample(corpus, COVER_SAMPLE, rng, COVER_LABELLINGS)


# --- tok4-hard generators -------------------------------------------------
# A TOK4 turns every triangle of K4 into an odd cycle, and it is 2-connected,
# so it lives inside one block of its host, and that block is not bipartite.
# Hence bipartite graphs, series-parallel graphs (no K4 minor at all), and
# graphs whose blocks are bipartite or odd cycles have none; a graph with a
# planted TOK4 subgraph has one whatever noise edges are added.


def _is_bipartite(n: int, edges) -> bool:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    colour = [-1] * n
    for s in range(n):
        if colour[s] >= 0:
            continue
        colour[s] = 0
        stack = [s]
        while stack:
            x = stack.pop()
            for y in nbrs[x]:
                if colour[y] < 0:
                    colour[y] = 1 - colour[x]
                    stack.append(y)
                elif colour[y] == colour[x]:
                    return False
    return True


def _regular_bipartite(rng: random.Random, half: int, degree: int) -> set[tuple[int, int]]:
    """A simple degree-regular bipartite graph on 2*half vertices, as a union
    of random perfect matchings (redrawn until no edge repeats)."""
    while True:
        edges: set[tuple[int, int]] = set()
        for _ in range(degree):
            perm = list(range(half))
            rng.shuffle(perm)
            edges |= {(u, half + perm[u]) for u in range(half)}
        if len(edges) == half * degree:
            return edges


def bipartite_graph(rng: random.Random, half: int) -> Graph:
    """Random cubic bipartite graph on 2*half vertices: an exhaustive absence
    proof of steady cost (about 0.08 s at half=6 and 0.22 s at half=7 today)."""
    return Graph.from_edges(2 * half, _regular_bipartite(rng, half, 3))


def series_parallel_graph(rng: random.Random) -> Graph:
    """2-connected series-parallel graph on 20 vertices with an odd cycle."""
    target = 20
    while True:
        edges = [(0, 1), (1, 2), (0, 2)]
        n = 3
        while n < target:
            u, v = edges[rng.randrange(len(edges))]
            if rng.random() < 0.4:  # series: subdivide uv
                edges.remove((u, v))
                edges += [(u, n), (n, v)]
                n += 1
            else:  # parallel: a new u-v path of length 2 or 3
                length = rng.choice((2, 3)) if n + 2 <= target else 2
                path = [u, *range(n, n + length - 1), v]
                n += length - 1
                edges += list(zip(path, path[1:]))
        if not _is_bipartite(n, edges):
            return Graph.from_edges(n, edges)


def glued_graph(rng: random.Random) -> Graph:
    """Two K_{3,3} blocks and three short odd cycles, hung off each other at
    cut vertices (17..19 vertices)."""
    edges = {(u, v) for u in range(3) for v in range(3, 6)}
    n = 6
    attach = rng.randrange(n)
    rename = {0: attach, **{x: n + x - 1 for x in range(1, 6)}}
    edges |= {(rename[u], rename[v]) for u in range(3) for v in range(3, 6)}
    n += 5
    for length in rng.sample((3, 3, 5), 3):
        attach = rng.randrange(n)
        cycle = [attach, *range(n, n + length - 1)]
        n += length - 1
        edges |= set(zip(cycle, cycle[1:] + cycle[:1]))
    return Graph.from_edges(n, edges)


def planted_graph(rng: random.Random) -> Graph:
    """A TOK4 with paths of length 1 or 3, grown to 20 vertices by pendant
    trees, then hidden behind eight random noise edges."""
    edges: set[tuple[int, int]] = set()
    n = 4
    for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        length = rng.choice((1, 3, 3))
        path = [a, *range(n, n + length - 1), b]
        n += length - 1
        edges |= set(zip(path, path[1:]))
    while n < 20:
        edges.add((rng.randrange(n), n))
        n += 1
    for _ in range(8):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


# (family, count, generator, whether each graph contains a TOK4). Counts are
# chosen so the per-graph median falls inside the bipartite-12 family and the
# tail (ten graphs beyond it) inside bipartite-14, both of steady cost, rather
# than on a boundary between families whose share varies with the seed. The
# two bipartite families also carry most of the time, because the cost of the
# other three varies far more from graph to graph (a coefficient of variation
# of 0.7 to 1.9, against 0.2), so the total varies less between seeds.
TOK4_FAMILIES = (
    ("bipartite-12", 52, lambda rng: bipartite_graph(rng, 6), False),
    ("bipartite-14", 24, lambda rng: bipartite_graph(rng, 7), False),
    ("series-parallel", 8, series_parallel_graph, False),
    ("glued", 6, glued_graph, False),
    ("planted", 8, planted_graph, True),
)


def tok4_inputs(seed: int) -> Inputs:
    rng = random.Random(f"tok4-hard/{seed}")
    graphs, keys, expect = [], [], []
    for family, count, build, present in TOK4_FAMILIES:
        for _ in range(count):
            graphs.append(relabel(build(rng), rng))
            keys.append(family)
            expect.append(present)
    order = list(range(len(graphs)))
    rng.shuffle(order)
    return Inputs(
        graphs=tuple(graphs[i] for i in order),
        keys=tuple(keys[i] for i in order),
        expect_tok4=tuple(expect[i] for i in order),
    )
