"""Slow, independent reference implementations the tests compare against.

Everything here is deliberately naive: exhaustive subset scans and
generate-and-test searches with no pruning, memoization, or shared code
paths with the library. Usable only at toy sizes, which is the point.

The four functions at the end are the exception: they are former library
versions, kept as the reference for the code that replaced them. The two
restart loops stand behind the single passes of critical_subgraph and
peel_max_stable_set; they restart after every deletion and decide each step
with alpha on the freshly built smaller graph, so they share only alpha with
the code they check. scan_critical_edges_avoiding stands behind the one
(alpha - 1)-stable-set enumeration per graph of critical_edges_avoiding; it
builds g - e for every critical edge and scans all 2^n subsets of it.
all_moves_rho_tilde stands behind rho_tilde's move list: it offers every
move through the lowest uncovered vertex, also those that touch covered
vertices, and shares only the cycle search and the family check with it.
"""

from itertools import combinations, permutations

from alphacrit.covers import RHO_MAX_N, CoverFamily, _induced_odd_cycles, _verified_family
from alphacrit.graphs import Edge, Graph, VertexSet, delete_edge, delete_vertex, iter_bits, mask_of
from alphacrit.stability import all_max_stable_sets, alpha, critical_edges


def brute_alpha(g: Graph) -> int:
    """Largest stable set by scanning all 2^n vertex subsets."""
    best = 0
    for mask in range(1 << g.n):
        ok = True
        for v in range(g.n):
            if mask >> v & 1 and g.adj[v] & mask:
                ok = False
                break
        if ok:
            best = max(best, mask.bit_count())
    return best


def _odd_paths_between(g: Graph, x: int, y: int, pool: tuple[int, ...]):
    """All x..y paths with an odd number of edges whose interior comes from pool."""
    for r in range(len(pool) + 1):
        for interior in permutations(pool, r):
            seq = (x, *interior, y)
            if len(seq) % 2 != 0:
                continue  # even vertex count <=> odd edge count
            if all(g.adj[a] >> b & 1 for a, b in zip(seq, seq[1:])):
                yield seq


def brute_contains_tok4(g: Graph) -> bool:
    """Totally odd K4-subdivision test by trying every branch quadruple and
    every ordered choice of interior vertices for the six paths."""
    vertices = range(g.n)
    for quad in combinations(vertices, 4):
        a, b, c, d = quad
        rest = tuple(v for v in vertices if v not in quad)
        pairs = [(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)]

        def assign(idx: int, pool: tuple[int, ...]) -> bool:
            if idx == len(pairs):
                return True
            x, y = pairs[idx]
            for path in _odd_paths_between(g, x, y, pool):
                remaining = tuple(v for v in pool if v not in path)
                if assign(idx + 1, remaining):
                    return True
            return False

        if assign(0, rest):
            return True
    return False


def brute_odd_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Every odd cycle, one orientation per cycle, by checking all circular
    arrangements of all vertex subsets."""
    found = set()
    for k in range(3, g.n + 1, 2):
        for subset in combinations(range(g.n), k):
            first = subset[0]
            for order in permutations(subset[1:]):
                seq = (first, *order)
                closed = all(g.adj[a] >> b & 1 for a, b in zip(seq, seq[1:]))
                if closed and g.adj[seq[-1]] >> first & 1:
                    found.add(min(seq, seq[0:1] + seq[:0:-1]))
    return sorted(found)


def brute_rho(g: Graph) -> int:
    """Doubled minimum cover cost by plain recursion over the lowest
    uncovered vertex, no memoization."""
    odd_cycles = brute_odd_cycles(g)
    full = (1 << g.n) - 1

    def rec(covered: int) -> int:
        if covered == full:
            return 0
        v = ((~covered) & -(~covered)).bit_length() - 1
        best = 2 + rec(covered | 1 << v)
        for u in range(g.n):
            if g.adj[v] >> u & 1:
                best = min(best, 2 + rec(covered | 1 << v | 1 << u))
        for cyc in odd_cycles:
            if v in cyc:
                cyc_mask = 0
                for w in cyc:
                    cyc_mask |= 1 << w
                best = min(best, len(cyc) - 1 + rec(covered | cyc_mask))
        return best

    return rec(0)


def loop_critical_subgraph(g: Graph) -> Graph:
    """Delete the lexicographically smallest edge whose deletion keeps alpha,
    restarting the scan after every deletion, until no such edge is left."""
    current = g
    base = alpha(g)
    while True:
        for e in sorted(current.edges()):
            if alpha(delete_edge(current, e)) == base:
                current = delete_edge(current, e)
                break
        else:
            return current


def loop_peel_max_stable_set(g: Graph) -> VertexSet:
    """Delete the smallest vertex whose removal keeps alpha, relabelling and
    restarting after every deletion; the survivors' original labels."""
    current = g
    labels = tuple(range(g.n))
    while True:
        base = alpha(current)
        for v in range(current.n):
            reduced, vmap = delete_vertex(current, v)
            if alpha(reduced) == base:
                current = reduced
                labels = tuple(labels[old] for old in vmap)
                break
        else:
            return VertexSet.of(labels)


def scan_critical_edges_avoiding(g: Graph, u: int) -> frozenset[Edge]:
    """Critical edges e of g such that some maximum stable set of g - e misses
    u, by scanning every maximum stable set of each g - e."""
    out = []
    for e in critical_edges(g).sorted_edges():
        reduced = delete_edge(g, e)
        if any(u not in s for s in all_max_stable_sets(reduced)):
            out.append(e)
    return frozenset(out)


def all_moves_rho_tilde(g: Graph) -> tuple[int, CoverFamily]:
    """rho_tilde with every move at every vertex: v alone, each edge at v in
    neighbour order, each induced odd cycle through v in sorted order, whether
    or not the move touches a covered vertex; the first optimal move wins."""
    ways = [[(2, (v,), 1 << v)] + [(2, (v, u), 1 << v | 1 << u) for u in iter_bits(row)]
            for v, row in enumerate(g.adj)]
    for c in _induced_odd_cycles(g):
        way = (len(c) - 1, c, mask_of(c))
        for v in c:
            ways[v].append(way)
    memo: dict[int, int] = {0: 0}

    def solve(left: int) -> int:
        got = memo.get(left)
        if got is not None:
            return got
        best = 2 * RHO_MAX_N + 1
        for cost, _, mask in ways[(left & -left).bit_length() - 1]:
            best = min(best, cost + solve(left & ~mask))
        memo[left] = best
        return best

    total = solve(g.vertex_mask())
    parts: list[tuple[int, ...]] = []
    left = g.vertex_mask()
    while left:
        here = memo[left]
        part, left = next((part, left & ~mask) for cost, part, mask in ways[(left & -left).bit_length() - 1]
                          if cost + memo[left & ~mask] == here)
        parts.append(part)
    return total, _verified_family(g, parts, total)
