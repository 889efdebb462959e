"""Totally odd K4-subdivisions: certificate search and an independent checker.

A certificate names 4 branch vertices and 6 paths, one per unordered branch
pair, all of odd edge-length and internally disjoint from each other and from
the branch set. find_tok4 searches exhaustively (branch quadruples from the
degree >= 3 vertices, then backtracking path assignment in fixed pair order),
so an empty answer is a proof of absence. verify_tok4 shares no path logic
with the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .graphs import Graph, is_connected, iter_bits, mask_of

# unordered pairs of branch slots, lexicographic; slot names a,b,c,d
PAIR_SLOTS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PAIR_KEYS = ("ab", "ac", "ad", "bc", "bd", "cd")


class CertificateError(ValueError):
    """Certificate is structurally malformed (as opposed to merely not verifying)."""


@dataclass(frozen=True)
class Tok4Certificate:
    """Branch quadruple plus its six odd paths, aligned with PAIR_SLOTS."""

    branch: tuple[int, int, int, int]
    paths: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.branch) != 4 or len(set(self.branch)) != 4:
            raise CertificateError(f"branch must be 4 distinct vertices, got {self.branch}")
        if any(not isinstance(v, int) or v < 0 for v in self.branch):
            raise CertificateError(f"branch vertices must be non-negative integers, got {self.branch}")
        if len(self.paths) != 6:
            raise CertificateError(f"need 6 paths, got {len(self.paths)}")
        for path in self.paths:
            if len(path) < 2:
                raise CertificateError(f"path {path} too short to join two branch vertices")
            if any(not isinstance(v, int) or v < 0 for v in path):
                raise CertificateError(f"path {path} has a bad vertex entry")

    def path_for(self, key: str) -> tuple[int, ...]:
        return self.paths[PAIR_KEYS.index(key)]

    def to_obj(self) -> dict:
        return {
            "branch": list(self.branch),
            "paths": {key: list(path) for key, path in zip(PAIR_KEYS, self.paths)},
        }


def verify_tok4(g: Graph, cert: Tok4Certificate) -> bool:
    """Check every certificate invariant against g.

    Out-of-range vertex indices raise CertificateError; any semantic failure
    (wrong endpoints, even path, shared interior, non-edge step) returns False.
    """
    for v in cert.branch:
        if v >= g.n:
            raise CertificateError(f"branch vertex {v} outside graph with n={g.n}")
    for path in cert.paths:
        for v in path:
            if v >= g.n:
                raise CertificateError(f"path vertex {v} outside graph with n={g.n}")
    used = set(cert.branch)
    for (i, j), path in zip(PAIR_SLOTS, cert.paths):
        if path[0] != cert.branch[i] or path[-1] != cert.branch[j]:
            return False
        if len(path) % 2 != 0:  # odd edge count means even vertex count
            return False
        if len(set(path)) != len(path):
            return False
        for x, y in zip(path, path[1:]):
            if not g.has_edge(x, y):
                return False
        for v in path[1:-1]:
            if v in used:
                return False
            used.add(v)
    return True


def _odd_paths(adj: tuple[int, ...], a: int, b: int, blocked: int):
    """Yield odd-length simple paths from a to b whose interiors avoid `blocked`.

    b is allowed only as the final vertex; a and interiors are marked in the
    running visited mask. Neighbor order is vertex index order.
    """
    path = [a]

    def extend(v: int, visited: int):
        for w in iter_bits(adj[v]):
            if w == b:
                if len(path) % 2 == 1:  # closing edge makes len(path) edges
                    yield path + [b]
                continue
            if (visited | blocked) >> w & 1:
                continue
            path.append(w)
            yield from extend(w, visited | 1 << w)
            path.pop()

    yield from extend(a, 1 << a)


def _assign_paths(adj: tuple[int, ...], quad: tuple[int, ...]):
    branch_mask = mask_of(quad)

    def rec(idx: int, used: int):
        if idx == 6:
            return []
        i, j = PAIR_SLOTS[idx]
        a, b = quad[i], quad[j]
        for path in _odd_paths(adj, a, b, used & ~(1 << a)):
            interior = mask_of(path[1:-1])
            rest = rec(idx + 1, used | interior)
            if rest is not None:
                return [tuple(path)] + rest
        return None

    return rec(0, branch_mask)


@lru_cache(maxsize=1 << 15)
def find_tok4(g: Graph) -> Tok4Certificate | None:
    """First totally odd K4-subdivision in deterministic search order, if any."""
    candidates = [v for v in range(g.n) if g.adj[v].bit_count() >= 3]
    if len(candidates) < 4:
        return None
    for quad in combinations(candidates, 4):
        paths = _assign_paths(g.adj, quad)
        if paths is not None:
            return Tok4Certificate(branch=quad, paths=tuple(paths))
    return None


def contains_tok4(g: Graph) -> bool:
    return find_tok4(g) is not None


def is_tok4_graph(g: Graph) -> bool:
    """True iff g itself is a totally odd K4-subdivision (not just contains one).

    This is exact. Let every vertex of g have degree 2 except four of degree 3.
    A TOK4 inside g has its four branch vertices at degree 3 and its path
    interiors at degree 2, so it uses every edge of g at each of its vertices
    and is a union of components of g. So if g is connected, the TOK4 is all
    of g, and the exhaustive find_tok4 finds one iff g is a TOK4.
    """
    degs = sorted(g.degree(v) for v in range(g.n))
    if degs != [2] * (g.n - 4) + [3, 3, 3, 3]:
        return False
    return is_connected(g) and find_tok4(g) is not None
