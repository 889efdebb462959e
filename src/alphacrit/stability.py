"""Exact stable-set machinery: alpha, critical edges, critical subgraphs,
the deleted-vertex critical graph, and the peeling construction.

alpha(g) is branch and bound over availability bitmasks: branch on a vertex of
maximum remaining degree (exclude it, or include it and drop its closed
neighborhood), seeded with a greedy lower bound and pruned with the
degree-based bound alpha <= |R| - ceil(m_R / Delta_R). Once the remainder has
maximum degree <= 2 it is a disjoint union of paths and cycles and is scored
directly. A window [floor, ceil) answers a threshold question instead: the
bound starts at floor and the search stops once it reaches ceil.

An edge uv is critical iff alpha(G - N[u] - N[v]) = alpha(G) - 1. A stable set
of size alpha + 1 in G - uv must contain both u and v, and dropping them leaves
a stable set of size alpha - 1 that avoids N[u] | N[v]; conversely any stable
set avoiding N[u] | N[v] can take u, so it has at most alpha - 1 vertices. The
test therefore runs alpha on the graph minus two closed neighborhoods instead
of on G - uv.

The same argument gives the deleted-vertex characterization in one pass per
graph. If xy is critical, every maximum stable set of G - xy is {x, y} | T,
where T is a stable set of G with |T| = alpha - 1 that avoids N[x] | N[y], and
xy is critical iff such a T exists. So the (alpha - 1)-stable sets of G are
enumerated once, by plain take/leave recursion kept separate from the branch
and bound; for each edge the sets T that fit it are intersected, and some
maximum stable set of G - xy misses u iff some T fits, u is not x or y, and u
is outside that intersection.

g_minus_c is the one construction of the deleted-vertex critical graph G_u (the
critical edges of G - u), cached per (G, u). It is also the one place where G_u
is compared with eq. (1), the avoiding-set characterization above.

Criticality is monotone under alpha-preserving deletions: if alpha(G - e) >
alpha(G) = alpha(G - f), then alpha(G - f - e) >= alpha(G - e) > alpha(G - f).
The same holds for a vertex whose deletion lowers alpha. So
critical_subgraph and peel_max_stable_set never revisit an item they kept, and
each is a single pass. Such a vertex lies in every maximum stable set, so its
neighbours lie in none, and the peel drops them at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .graphs import (
    MAX_N,
    Edge,
    Graph,
    GraphError,
    SizeLimitError,
    VertexSet,
    _component_masks,
    delete_vertex,
    is_connected,
    iter_bits,
)

ALL_STABLE_MAX_N = 16


class CriticalityError(GraphError):
    """An operation required an alpha-critical connected input and did not get one."""


class EquationMismatchError(RuntimeError):
    """The two constructions of the deleted-vertex critical graph disagreed.

    This would falsify the identity they restate; it exists to fail loudly.
    only_deleted_side and only_avoiding_side hold the edges that just one
    construction gave, as sorted Edge lists in the host graph's labels.
    """

    def __init__(self, message: str, only_deleted_side: list[Edge], only_avoiding_side: list[Edge]):
        super().__init__(message)
        self.only_deleted_side = only_deleted_side
        self.only_avoiding_side = only_avoiding_side


@dataclass(frozen=True)
class CriticalEdgeSet:
    host: Graph
    edges: frozenset[Edge]

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


@dataclass(frozen=True)
class StableSetCertificate:
    host: Graph
    set: VertexSet
    claimed_alpha: int

    def __post_init__(self):
        bits = self.set.bits
        if bits & ~self.host.vertex_mask():
            raise GraphError("stable-set certificate names vertices outside the host")
        for v in iter_bits(bits):
            if self.host.adj[v] & bits:
                raise GraphError(f"claimed stable set contains the edge at vertex {v}")
        if len(self.set) != self.claimed_alpha:
            raise GraphError(f"certificate size {len(self.set)} != claimed alpha {self.claimed_alpha}")


def _greedy_stable(adj: tuple[int, ...], avail: int) -> int:
    count = 0
    while avail:
        best_v, best_d = -1, 99
        for v in iter_bits(avail):
            d = (adj[v] & avail).bit_count()
            if d < best_d:
                best_v, best_d = v, d
        count += 1
        avail &= ~(adj[best_v] | 1 << best_v)
    return count


def _alpha_paths_cycles(adj: tuple[int, ...], avail: int) -> int:
    # every component here is a path, cycle, or isolated vertex
    total = 0
    for comp in _component_masks(adj, avail):
        k = comp.bit_count()
        deg_sum = sum((adj[v] & comp).bit_count() for v in iter_bits(comp))
        total += k // 2 if deg_sum == 2 * k else (k + 1) // 2
    return total


def _alpha_mask(adj: tuple[int, ...], full: int, floor: int = 0, ceil: int = MAX_N + 1) -> int:
    """Of alpha on full: max(alpha, floor) if alpha < ceil, else a value in [ceil, alpha]."""
    if full == 0:
        return max(0, floor)
    best = max(_greedy_stable(adj, full), floor)

    def rec(avail: int, count: int):
        nonlocal best
        pc = avail.bit_count()
        if count + pc <= best or best >= ceil:
            return
        deg_sum = 0
        v, maxdeg = -1, -1
        for u in iter_bits(avail):
            d = (adj[u] & avail).bit_count()
            deg_sum += d
            if d > maxdeg:
                v, maxdeg = u, d
        if maxdeg <= 2:
            total = count + _alpha_paths_cycles(adj, avail)
            if total > best:
                best = total
            return
        # alpha(R) <= |R| - ceil(m/Delta): any stable set misses a vertex cover
        if count + pc - (deg_sum // 2 + maxdeg - 1) // maxdeg <= best:
            return
        rec(avail & ~(adj[v] | 1 << v), count + 1)
        rec(avail & ~(1 << v), count)

    rec(full, 0)
    return best


@lru_cache(maxsize=1 << 16)
def alpha(g: Graph) -> int:
    """Maximum stable-set size, exact."""
    return _alpha_mask(g.adj, g.vertex_mask())


def all_max_stable_sets(g: Graph) -> list[VertexSet]:
    """Every maximum stable set, as bitmask values in increasing order."""
    if g.n > ALL_STABLE_MAX_N:
        raise SizeLimitError(f"exhaustive stable-set scan capped at n={ALL_STABLE_MAX_N}, got {g.n}")
    target = alpha(g)
    out = []
    for bits in range(1 << g.n):
        if bits.bit_count() != target:
            continue
        if any(g.adj[v] & bits for v in iter_bits(bits)):
            continue
        out.append(VertexSet(bits))
    return out


def _edge_is_critical(adj: Sequence[int], full: int, base: int, u: int, v: int) -> bool:
    """Whether deleting uv raises alpha of the graph induced by adj on full,
    whose alpha is base."""
    # uv is an edge, so adj[u] | adj[v] is N[u] | N[v]
    return _alpha_mask(adj, full & ~(adj[u] | adj[v]), base - 2, base - 1) == base - 1


def critical_edges(g: Graph) -> CriticalEdgeSet:
    """Edges whose deletion raises alpha.

    uv is tested as alpha(g - N[u] - N[v]) == alpha(g) - 1, which holds iff
    alpha(g - uv) > alpha(g); no edge-deleted graph is built.
    """
    base = alpha(g)
    full = g.vertex_mask()
    crit = frozenset(e for e in g.edges() if _edge_is_critical(g.adj, full, base, e.u, e.v))
    return CriticalEdgeSet(host=g, edges=crit)


def is_alpha_critical(g: Graph) -> bool:
    """True iff deleting any single edge raises alpha; edgeless graphs qualify."""
    base = alpha(g)
    full = g.vertex_mask()
    return all(_edge_is_critical(g.adj, full, base, e.u, e.v) for e in g.edges())


def critical_subgraph(g: Graph) -> Graph:
    """Alpha-preserving alpha-critical spanning subgraph; keeps all critical edges of g.

    One pass over the edges in lexicographic order, the order g.edges()
    yields, deletes each edge that is not critical in the current graph H,
    tested as alpha(H - N[u] - N[v]) == alpha(g) - 1. An edge kept as
    critical stays critical after every later deletion, since each keeps
    alpha: alpha(H - f - e) >= alpha(H - e) > alpha(H) = alpha(H - f). So the
    result equals repeatedly deleting the smallest non-critical edge until
    none is left.
    """
    base = alpha(g)
    full = g.vertex_mask()
    rows = list(g.adj)
    for e in g.edges():
        if not _edge_is_critical(rows, full, base, e.u, e.v):
            rows[e.u] &= ~(1 << e.v)
            rows[e.v] &= ~(1 << e.u)
    return Graph(g.n, tuple(rows))


# g_minus_c asks this once per (g, u) it builds; 1 << 10 holds every
# alpha-critical graph in the packaged corpora, relabelled too
@lru_cache(maxsize=1 << 10)
def _deleted_vertex_facts(g: Graph) -> tuple[bool, tuple[frozenset[Edge], ...]]:
    """Whether g is alpha-critical, and for each vertex u the critical edges e
    of g such that some maximum stable set of g - e misses u."""
    adj = g.adj
    edges = g.edges()
    # uv is an edge, so adj[u] | adj[v] is N[u] | N[v]
    closed = [adj[e.u] | adj[e.v] for e in edges]
    fits = [False] * len(edges)
    common = [g.vertex_mask()] * len(edges)

    def rec(avail: int, chosen: int, need: int):
        if need == 0:
            for i, hood in enumerate(closed):
                if not chosen & hood:
                    fits[i] = True
                    common[i] &= chosen
            return
        if avail.bit_count() < need:
            return
        low = avail & -avail
        rec(avail & ~(adj[low.bit_length() - 1] | low), chosen | low, need - 1)
        rec(avail & ~low, chosen, need)

    rec(g.vertex_mask(), 0, alpha(g) - 1)
    avoiding = tuple(
        frozenset(e for e, fit, shared in zip(edges, fits, common)
                  if fit and u != e.u and u != e.v and not shared >> u & 1)
        for u in range(g.n)
    )
    # an edge is critical iff some T fits it
    return all(fits), avoiding


def critical_edges_avoiding(g: Graph, u: int) -> frozenset[Edge]:
    """Critical edges e of g such that some maximum stable set of g - e misses u.

    If e = xy is critical, every maximum stable set of g - e is {x, y} | T for
    a stable set T of g with |T| = alpha(g) - 1 avoiding N[x] | N[y], and e is
    critical iff such a T exists. So e qualifies iff some T fits it, u is not
    x or y, and some fitting T misses u. The sets T come from one exhaustive
    enumeration per graph, kept separate from the branch and bound that
    critical_edges uses.
    """
    g._check_vertex(u)
    return _deleted_vertex_facts(g)[1][u]


# claim2, claim3 and eq1_consistency each ask this of every vertex of each alpha-critical
# graph in a sweep; 1 << 12 holds every (g, u) of the packaged corpora, relabelled too
@lru_cache(maxsize=1 << 12)
def g_minus_c(g: Graph, u: int) -> Graph:
    """The deleted-vertex critical graph G_u: the graph on V(g - u) whose edges
    are the critical edges of g - u. A vertex x > u of g is x - 1 in G_u.

    Requires g connected and alpha-critical with at least 2 vertices, so that
    alpha(g - u) = alpha(g); criticality is read off the per-graph
    enumeration behind critical_edges_avoiding. The result is cross-checked
    against eq. (1), the critical edges of g with a maximum stable set of
    g - e avoiding u; a mismatch raises EquationMismatchError.
    """
    g._check_vertex(u)
    if g.n < 2:
        raise CriticalityError("needs at least 2 vertices: deleting the only vertex changes alpha")
    if not is_connected(g):
        raise CriticalityError("input graph is not connected")
    critical, avoiding = _deleted_vertex_facts(g)
    if not critical:
        raise CriticalityError("input graph is not alpha-critical")
    reduced, vmap = delete_vertex(g, u)
    crit = critical_edges(reduced).edges
    alt = avoiding[u]
    back = frozenset(Edge(vmap[e.u], vmap[e.v]) for e in crit)
    if back != alt:
        raise EquationMismatchError(
            f"critical edges of g-{u} disagree with the avoiding-set characterization: "
            f"{sorted(back)} vs {sorted(alt)}",
            sorted(back - alt),
            sorted(alt - back),
        )
    return Graph.from_edges(reduced.n, crit)


def peel_max_stable_set(g: Graph) -> StableSetCertificate:
    """Delete each vertex, in increasing order, whose removal keeps alpha.

    A vertex kept because its removal lowers alpha keeps lowering it after
    every later alpha-preserving deletion, so one pass equals repeatedly
    deleting the smallest such vertex until none exists. A kept v then lies in
    every maximum stable set of the remainder, so each neighbour of v would
    be deleted at its turn; dropping them at once changes no later answer.
    Each test only asks whether alpha stays at target, and the pass ends once
    target vertices, a maximum stable set of g, remain.
    """
    target = alpha(g)
    avail = g.vertex_mask()
    for v in range(g.n):
        if avail.bit_count() == target:
            break
        if not avail >> v & 1:
            continue
        if _alpha_mask(g.adj, avail & ~(1 << v), target - 1, target) == target:
            avail &= ~(1 << v)
        else:
            avail &= ~g.adj[v]
    return StableSetCertificate(host=g, set=VertexSet(avail), claimed_alpha=target)
