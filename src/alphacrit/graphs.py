"""Small immutable graphs as per-vertex bitsets, with graph6 I/O and surgery.

Vertices are integers 0..n-1 with n <= 32, so every neighborhood fits in one
machine word. All operations return new Graph values; nothing mutates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_N = 32


class GraphError(ValueError):
    """A graph operation was called with violated preconditions."""


class SizeLimitError(GraphError):
    """Input exceeds the size bound of an exhaustive routine."""


class Graph6Error(ValueError):
    """Malformed graph6 text. `offset` is the offending byte position."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


@dataclass(frozen=True, order=True)
class Edge:
    """An undirected edge; endpoints are normalized so that u < v."""

    u: int
    v: int

    def __post_init__(self):
        u, v = self.u, self.v
        if u == v:
            raise GraphError(f"loop edge ({u},{v}) is not allowed")
        if u > v:
            object.__setattr__(self, "u", v)
            object.__setattr__(self, "v", u)
        if self.u < 0:
            raise GraphError(f"negative vertex index in edge ({u},{v})")


def _as_edge(e) -> Edge:
    if isinstance(e, Edge):
        return e
    u, v = e
    return Edge(u, v)


@dataclass(frozen=True)
class VertexSet:
    """A set of vertex indices stored as a bitmask."""

    bits: int

    def __post_init__(self):
        if self.bits < 0:
            raise GraphError("vertex set bitmask must be non-negative")

    @classmethod
    def of(cls, vertices: Iterable[int]) -> "VertexSet":
        vertices = tuple(vertices)
        if vertices and min(vertices) < 0:
            raise GraphError(f"negative vertex {min(vertices)} in vertex set")
        return cls(mask_of(vertices))

    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def __contains__(self, v: int) -> bool:
        return v >= 0 and bool(self.bits >> v & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1; adj[v] is a bitmask."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "adj", tuple(self.adj))  # list rows would not hash
        n = self.n
        if n < 0:
            raise GraphError(f"vertex count {n} is negative")
        if n > MAX_N:
            raise SizeLimitError(f"vertex count {n} exceeds the bitmask cap {MAX_N}")
        if len(self.adj) != n:
            raise GraphError(f"adjacency has {len(self.adj)} rows, expected {n}")
        full = (1 << n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise GraphError(f"adjacency row {v} has bits beyond vertex range")
            if row >> v & 1:
                raise GraphError(f"loop at vertex {v}")
        for v in range(n):
            for u in iter_bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable) -> "Graph":
        rows = [0] * n
        for e in edges:
            e = _as_edge(e)
            if e.v >= n:
                raise GraphError(f"edge ({e.u},{e.v}) outside vertex range 0..{n - 1}")
            rows[e.u] |= 1 << e.v
            rows[e.v] |= 1 << e.u
        return cls(n, tuple(rows))

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.adj), default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(iter_bits(self.adj[v]))

    def edges(self) -> list[Edge]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(row):
                out.append(Edge(u, v))
        return out

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def _check_vertex(self, v: int):
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} outside range 0..{self.n - 1}")


def path_graph(k: int) -> Graph:
    if k < 1:
        raise GraphError("path needs at least 1 vertex")
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> Graph:
    return Graph.from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def cube_graph() -> Graph:
    """Q3: vertices are 3-bit strings, edges join strings at Hamming distance 1."""
    return Graph.from_edges(8, [(i, i ^ (1 << b)) for i in range(8) for b in range(3) if i < i ^ (1 << b)])


def delete_vertex(g: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Delete v, relabel higher vertices downward.

    Returns (graph, vmap) where vmap[new_index] = old_index in g.
    """
    return delete_vertices(g, (v,))


def delete_vertices(g: Graph, vs: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Delete several vertices at once; vmap[new_index] = old_index."""
    kill = 0
    for v in vs:
        g._check_vertex(v)
        kill |= 1 << v
    vmap = list(range(g.n))
    rows = list(g.adj)
    # each pass drops the highest run a..b-1 of consecutive deleted vertices:
    # it clears bits a..b-1 of every row and shifts the bits from b down to a,
    # so every label below a, and with it every lower run, stays where it was
    while kill:
        b = kill.bit_length()
        a = (~kill & ((1 << b) - 1)).bit_length()
        del vmap[a:b], rows[a:b]
        low = (1 << a) - 1
        rows = [(row & low) | (row >> b << a) for row in rows]
        kill &= low
    return Graph(len(rows), tuple(rows)), tuple(vmap)


def contract_degree2(g: Graph, u: int) -> Graph:
    """Merge a degree-2 vertex u and its two (non-adjacent) neighbors.

    The merged vertex keeps the smaller neighbor's label slot; the result has
    n-2 vertices and inherits (N(v) | N(w)) \\ {u,v,w} as its neighborhood.
    """
    g._check_vertex(u)
    if g.degree(u) != 2:
        raise GraphError(f"vertex {u} has degree {g.degree(u)}, need exactly 2")
    v, w = g.neighbors(u)
    if g.has_edge(v, w):
        raise GraphError(f"neighbors {v} and {w} of {u} are adjacent; contraction needs them non-adjacent")
    rows = list(g.adj)
    rows[v] |= g.adj[w]
    for x in iter_bits(g.adj[w]):
        rows[x] |= 1 << v
    return delete_vertices(Graph(g.n, tuple(rows)), (u, w))[0]


def _component_masks(adj: tuple[int, ...], mask: int) -> Iterator[int]:
    """Vertex masks of the components of the subgraph that mask induces, in
    order of smallest member."""
    while mask:
        comp = mask & -mask
        frontier = comp
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= adj[v]
            frontier = grow & mask & ~comp
            comp |= frontier
        yield comp
        mask &= ~comp


def is_connected(g: Graph) -> bool:
    # the empty graph has no component and counts as connected
    full = g.vertex_mask()
    return next(_component_masks(g.adj, full), 0) == full


# graph6: header byte n+63 (n <= 62 here, and <= 32 by our vertex cap), then
# ceil(n(n-1)/2 / 6) payload bytes. Bits run over the upper triangle in column
# order (0,1),(0,2),(1,2),(0,3),..., packed 6 per byte, most significant bit
# first, and every byte is offset by 63 into the printable range.

_G6_OFFSET = 63


def _pair_stream(n: int) -> Iterator[tuple[int, int]]:
    for v in range(1, n):
        for u in range(v):
            yield u, v


def parse_graph6(line: str) -> Graph:
    text = line.rstrip("\n")
    if not text:
        raise Graph6Error("empty graph6 line", offset=0)
    for i, c in enumerate(text):
        if not 63 <= ord(c) <= 126:
            raise Graph6Error(f"byte {ord(c)} at offset {i} outside printable graph6 range 63..126", offset=i)
    data = text.encode("ascii")
    n = data[0] - _G6_OFFSET
    if n > MAX_N:
        raise Graph6Error(f"header at offset 0 encodes n={n}, beyond the {MAX_N}-vertex cap", offset=0)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - 1 < need:
        raise Graph6Error(f"truncated payload: {len(data) - 1} bytes after header, need {need}", offset=len(data))
    if len(data) - 1 > need:
        raise Graph6Error(f"trailing data at offset {1 + need}: expected {need} payload bytes", offset=1 + need)
    rows = [0] * n
    k = 0
    for u, v in _pair_stream(n):
        byte = data[1 + k // 6] - _G6_OFFSET
        if byte >> (5 - k % 6) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        k += 1
    return Graph(n, tuple(rows))


def to_graph6(g: Graph) -> str:
    n = g.n
    out = [n + _G6_OFFSET]
    acc = 0
    filled = 0
    for u, v in _pair_stream(n):
        acc = acc << 1 | (g.adj[u] >> v & 1)
        filled += 1
        if filled == 6:
            out.append(acc + _G6_OFFSET)
            acc, filled = 0, 0
    if filled:
        out.append((acc << (6 - filled)) + _G6_OFFSET)
    return bytes(out).decode("ascii")


def read_graph6_lines(lines: Iterable[str]) -> Iterator[Graph]:
    """Parse graph6 lines, stripping surrounding whitespace and skipping blank lines."""
    for line in lines:
        if text := line.strip():
            yield parse_graph6(text)
