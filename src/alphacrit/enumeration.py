"""Canonical forms and isomorphism-reduced enumeration of small connected graphs.

Canonical form: the lexicographically smallest upper-triangle adjacency
bitstring (row-major pair order) over all vertex orderings, found by plain
factorial search. Enumeration of connected graphs up to n = 8 reads the
packaged data/graphs8.g6, which holds every class on 8 vertices labeled so
that its own bits are that minimum. Under that labeling an isolated vertex
is vertex 0, so the classes on n vertices are the classes on n + 1 vertices
with vertex 0 isolated, with vertex 0 removed.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from itertools import permutations
from typing import Iterator

from .graphs import Graph, SizeLimitError, delete_vertex, is_connected, parse_graph6

CANONICAL_MAX_N = 9
ENUMERATE_MAX_N = 8


def _pairs_row_major(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _graph_key(g: Graph) -> int:
    """Upper-triangle adjacency bits of g packed into an int, pair 0 as MSB."""
    key = 0
    for i, j in _pairs_row_major(g.n):
        key = key << 1 | (g.adj[i] >> j & 1)
    return key


def canonical_form(g: Graph) -> str:
    """Minimal adjacency bitstring over all n! orderings, prefixed by "n:"."""
    n = g.n
    if n > CANONICAL_MAX_N:
        raise SizeLimitError(f"canonical_form does factorial search; n={n} exceeds {CANONICAL_MAX_N}")
    m = n * (n - 1) // 2
    pairs = _pairs_row_major(n)
    best = None
    for perm in permutations(range(n)):
        key = 0
        for i, j in pairs:
            key = key << 1 | (g.adj[perm[i]] >> perm[j] & 1)
        if best is None or key < best:
            best = key
    if best is None or m == 0:
        return f"{n}:"
    return f"{n}:" + format(best, f"0{m}b")


@lru_cache(maxsize=None)
def _all_classes(n: int) -> tuple[Graph, ...]:
    """Every class on n vertices in its minimum-key labeling, unsorted."""
    if n == ENUMERATE_MAX_N:
        return packaged_corpus("graphs8")
    return tuple(delete_vertex(g, 0)[0] for g in _all_classes(n + 1) if g.adj[0] == 0)


@lru_cache(maxsize=None)
def _connected_classes(n: int) -> tuple[Graph, ...]:
    # the file is sorted by graph6 text, which is not canonical-key order
    return tuple(sorted((g for g in _all_classes(n) if is_connected(g)), key=_graph_key))


def enumerate_connected(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on n vertices.

    Representatives are labeled canonically and stream in sorted canonical-form
    order. Bounded at n = 8; larger corpora come from graph6 files.
    """
    if not 1 <= n <= ENUMERATE_MAX_N:
        raise SizeLimitError(
            f"built-in enumeration covers 1..{ENUMERATE_MAX_N}; for n={n} ingest a graph6 file instead"
        )
    yield from _connected_classes(n)


def connected_graphs_upto(n: int) -> Iterator[Graph]:
    """All built-in corpus graphs with 1..n vertices, smaller sizes first."""
    for k in range(1, n + 1):
        yield from enumerate_connected(k)


@lru_cache(maxsize=None)
def packaged_corpus(name: str) -> tuple[Graph, ...]:
    """Load a graph6 corpus shipped with the package (data/<name>.g6)."""
    path = resources.files("alphacrit").joinpath(f"data/{name}.g6")
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise SizeLimitError(f"packaged corpus data/{name}.g6 is missing") from None
    return tuple(parse_graph6(line) for line in text.splitlines() if line.strip())
