"""Covers of V(G) by vertices, edges, and odd cycles.

Costs: a vertex or an edge costs 1, an odd cycle C costs (|C| - 1)/2. All
arithmetic uses doubled costs so everything stays integral. rho_tilde is an
exact subset DP over the induced odd cycles only: a chorded odd cycle costs
as much as a shorter odd cycle plus edges on the same vertices, so its
families never contain a chorded cycle. _induced_odd_cycles, the package's
one odd-cycle search, lists the chordless ones only. A DP state covers its
lowest uncovered vertex v by a move inside the state: v alone, an edge vu
with u > v, or a cycle whose smallest vertex is v. A move that also touches a
covered vertex is never needed: an edge to it ties with v alone, and a cycle
C through it leaves paths that vertices and edges cover at doubled cost at
most |C| - 1.

cover_from_theorem reads the cover off a critical subgraph, which is the
constructive content of the min-max equality for graphs with no totally odd
K4-subdivision. The read is guaranteed there, and wherever it succeeds weak
duality against a stable set of size alpha certifies it: a vertex or an edge
holds at most one stable vertex at cost 1, an odd cycle of length 2k + 1 at
most k at cost k. Where the read fails, Tok4PresentError carries the TOK4 of
find_tok4, which verifies every certificate it hands out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Edge,
    Graph,
    GraphError,
    SizeLimitError,
    _component_masks,
    delete_vertices,
    iter_bits,
    mask_of,
)
from .stability import StableSetCertificate, alpha, critical_subgraph, peel_max_stable_set
from .subdivisions import Tok4Certificate, find_tok4

RHO_MAX_N = 9


class CoverError(ValueError):
    """A cover family failed verification; `violation` tags the first bad invariant."""

    def __init__(self, violation: str, message: str):
        super().__init__(f"{violation}: {message}")
        self.violation = violation


class Tok4PresentError(GraphError):
    """The theorem read failed on a graph with a TOK4; carries its verified certificate."""

    def __init__(self, certificate: Tok4Certificate):
        super().__init__("graph contains a totally odd K4-subdivision; no theorem cover exists")
        self.certificate = certificate


class TheoremViolationError(RuntimeError):
    """A critical-subgraph component was not a vertex, an edge, or an odd cycle.

    Raising this would falsify the structure theorem; it exists to fail loudly.
    """

    def __init__(self, message: str, component: Graph):
        super().__init__(message)
        self.component = component


@dataclass(frozen=True)
class CoverFamily:
    host: Graph
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    odd_cycles: tuple[tuple[int, ...], ...]
    doubled_cost: int

    def to_obj(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [[e.u, e.v] for e in self.edges],
            "odd_cycles": [list(c) for c in self.odd_cycles],
            "cost_times_2": self.doubled_cost,
        }


def verify_cover(g: Graph, f: CoverFamily) -> int:
    """Check all CoverFamily invariants against g; return the doubled cost."""
    if f.host != g:
        raise CoverError("host-mismatch", "family was built for a different graph")
    covered = 0
    for v in f.vertices:
        if not 0 <= v < g.n:
            raise CoverError("bad-vertex", f"vertex {v} outside range 0..{g.n - 1}")
        covered |= 1 << v
    for e in f.edges:
        if e.v >= g.n:
            raise CoverError("bad-edge", f"edge ({e.u},{e.v}) outside the vertex range")
        if not g.has_edge(e.u, e.v):
            raise CoverError("bad-edge", f"({e.u},{e.v}) is not an edge of the host")
        covered |= 1 << e.u | 1 << e.v
    for cyc in f.odd_cycles:
        if len(cyc) < 3 or len(set(cyc)) != len(cyc):
            raise CoverError("non-cycle", f"{cyc} is not a simple cycle")
        if any(not 0 <= v < g.n for v in cyc):
            raise CoverError("non-cycle", f"{cyc} leaves the vertex range")
        for x, y in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
            if not g.has_edge(x, y):
                raise CoverError("non-cycle", f"{cyc} misses the edge ({x},{y})")
        if len(cyc) % 2 == 0:
            raise CoverError("even-cycle", f"{cyc} has even length {len(cyc)}")
        covered |= mask_of(cyc)
    if covered != g.vertex_mask():
        missing = next(iter_bits(g.vertex_mask() & ~covered))
        raise CoverError("uncovered-vertex", f"vertex {missing} is not covered")
    doubled = 2 * len(f.vertices) + 2 * len(f.edges) + sum(len(c) - 1 for c in f.odd_cycles)
    if doubled != f.doubled_cost:
        raise CoverError("cost-mismatch", f"stored doubled cost {f.doubled_cost}, recomputed {doubled}")
    return doubled


def _induced_odd_cycles(g: Graph) -> list[tuple[int, ...]]:
    """The chordless odd cycles, one orientation each: smallest vertex first,
    smaller second entry than last entry. Sorted.

    A DFS from each start s over vertices above s. A path never grows to a
    vertex adjacent to one of its interior vertices, and it closes (and stops)
    at the first vertex adjacent to the start.
    """
    out: list[tuple[int, ...]] = []
    adj = g.adj
    for s in range(g.n):
        above = -(2 << s)  # only vertices > s may appear after s
        if (adj[s] & above).bit_count() < 2:
            continue  # no cycle has s as its smallest vertex
        path = [s]

        def dfs(v: int, visited: int, blocked: int):
            # blocked: neighbours of the interior vertices path[1:-1]
            todo = adj[v] & above & ~visited & ~blocked
            while todo:
                low = todo & -todo
                todo ^= low
                w = low.bit_length() - 1
                path.append(w)
                if adj[w] >> s & 1:
                    if len(path) % 2 == 1 and path[1] < w:
                        out.append(tuple(path))
                else:
                    dfs(w, visited | low, blocked | adj[v])
                path.pop()

        for w in iter_bits(adj[s] & above):
            path.append(w)
            dfs(w, 1 << s | 1 << w, 0)
            path.pop()
    out.sort()
    return out


def _verified_family(g: Graph, parts: list[tuple[int, ...]], doubled: int) -> CoverFamily:
    """The family whose parts of length 1, 2 and >= 3 are its vertices, edges
    (sorted) and odd cycles (in order), checked by verify_cover."""
    family = CoverFamily(
        host=g,
        vertices=tuple(p[0] for p in parts if len(p) == 1),
        edges=tuple(sorted(Edge(*p) for p in parts if len(p) == 2)),
        odd_cycles=tuple(p for p in parts if len(p) >= 3),
        doubled_cost=doubled,
    )
    verify_cover(g, family)
    return family


def rho_tilde(g: Graph) -> tuple[int, CoverFamily]:
    """Exact minimum doubled cover cost with one optimal family, by subset DP.

    The DP offers only chordless (induced) odd cycles. A chord splits an odd
    cycle C into a shorter odd cycle C' and a path P on the other vertices of
    C, an even number of them; C' plus |P|/2 edges of P covers V(C) at doubled
    cost (|C'| - 1) + |P| = |C| - 1, the cost of C. Repeating this ends at a
    chordless odd cycle, so every DP state keeps its optimum without chorded
    cycles, and the returned family contains induced odd cycles only.

    ways[v] lists the moves whose lowest vertex is v, each as (doubled cost,
    part, part mask): v alone, then each edge vu with u > v, then each induced
    odd cycle with smallest vertex v, in _induced_odd_cycles order. A state
    covers its lowest vertex v with a move inside the state; the family is read
    back along the first such move that attains the optimum, so ties go to the
    vertex, then edges, then cycles. Offering the moves that touch a covered
    vertex too would change no value and no family: an edge vu with u covered
    ties with v alone, listed first, and an odd cycle C through a covered
    vertex leaves paths that vertices and edges cover at doubled cost at most
    |C| - 1 (even and at most |C|), a cover that starts with v alone or an
    edge at v, both listed before every cycle.
    """
    if g.n > RHO_MAX_N:
        raise SizeLimitError(f"cover DP capped at n={RHO_MAX_N}, got {g.n}")
    # -(2 << v) keeps the neighbours above v
    ways = [[(2, (v,), 1 << v)] + [(2, (v, u), 1 << v | 1 << u) for u in iter_bits(row & -(2 << v))]
            for v, row in enumerate(g.adj)]
    for c in _induced_odd_cycles(g):
        ways[c[0]].append((len(c) - 1, c, mask_of(c)))
    memo: dict[int, int] = {0: 0}

    def solve(left: int) -> int:
        best = 2 * RHO_MAX_N + 1  # above every doubled cover cost
        for cost, _, mask in ways[(left & -left).bit_length() - 1]:
            if mask & left == mask:
                got = memo.get(left ^ mask)
                cand = cost + (solve(left ^ mask) if got is None else got)
                if cand < best:
                    best = cand
        memo[left] = best
        return best

    left = g.vertex_mask()
    total = solve(left) if left else 0
    parts: list[tuple[int, ...]] = []
    while left:
        here = memo[left]
        part, left = next((part, left ^ mask) for cost, part, mask in ways[(left & -left).bit_length() - 1]
                          if mask & left == mask and cost + memo[left ^ mask] == here)
        parts.append(part)
    return total, _verified_family(g, parts, total)


def cover_from_theorem(g: Graph) -> CoverFamily:
    """Cover of cost alpha(g) read off the components of a critical subgraph.

    Guaranteed when g has no totally odd K4-subdivision: each component of the
    critical subgraph is then a vertex, an edge, or an odd cycle. The cost
    check against alpha(g) certifies the cover by duality on any graph, so a
    TOK4 is searched for only when a component is of another kind. A cycle is
    walked from its smallest vertex towards that vertex's smaller neighbour.
    """
    skeleton = critical_subgraph(g)
    adj, full = skeleton.adj, skeleton.vertex_mask()
    parts: list[tuple[int, ...]] = []
    for comp in _component_masks(adj, full):
        members = tuple(iter_bits(comp))
        if len(members) <= 2:
            parts.append(members)
        elif len(members) % 2 and all(adj[v].bit_count() == 2 for v in members):
            start = members[0]
            cyc, prev, cur = [start], start, (adj[start] & -adj[start]).bit_length() - 1
            while cur != start:
                cyc.append(cur)
                prev, cur = cur, (adj[cur] & ~(1 << prev)).bit_length() - 1
            parts.append(tuple(cyc))
        else:
            cert = find_tok4(g)
            if cert is not None:
                raise Tok4PresentError(cert)
            raise TheoremViolationError(
                f"critical-subgraph component on vertices {members} is not a vertex, edge, or odd cycle",
                component=delete_vertices(skeleton, iter_bits(full & ~comp))[0],
            )
    # components come in order of smallest member and each cycle starts at
    # its own, so the cycles are already sorted
    doubled = sum(2 if len(p) <= 2 else len(p) - 1 for p in parts)
    family = _verified_family(g, parts, doubled)
    if doubled != 2 * alpha(g):
        raise TheoremViolationError(
            f"theorem cover has doubled cost {doubled}, expected {2 * alpha(g)}",
            component=skeleton,
        )
    return family


def minmax_certificate(g: Graph) -> tuple[StableSetCertificate, CoverFamily]:
    """Matching stable set and cover: each certifies the other's optimality."""
    family = cover_from_theorem(g)
    stable = peel_max_stable_set(g)
    if 2 * stable.claimed_alpha != family.doubled_cost:  # pragma: no cover
        raise TheoremViolationError("stable set and theorem cover disagree on the optimum", component=g)
    return stable, family
