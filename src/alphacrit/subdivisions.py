"""Totally odd K4-subdivisions: certificate search and an independent checker.

A certificate names 4 branch vertices and 6 paths, one per unordered branch
pair, all of odd edge-length and internally disjoint from each other and from
the branch set. find_tok4 tries branch quadruples of degree >= 3 vertices in
lexicographic order. For each, one depth-first search routes ab, ac, ad, bc,
bd, cd in turn, each path grown in vertex-index order, and the first full
routing wins. The search is exhaustive, so None is a proof of absence.
verify_tok4 shares no path logic with the search. find_tok4 raises
CertificateError rather than hand out a certificate that verify_tok4 rejects,
so every TOK4 the package reports or acts on is checked here, once per graph:
claim checks, analyze, enumerate --tok4-free, is_tok4_graph, Tok4PresentError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .graphs import Graph, is_connected, iter_bits, mask_of, to_graph6

# unordered pairs of branch slots, lexicographic; slot names a,b,c,d
PAIR_SLOTS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PAIR_KEYS = ("ab", "ac", "ad", "bc", "bd", "cd")


class CertificateError(ValueError):
    """A certificate is malformed, or one the package built does not verify."""


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


def _assign_paths(adj: tuple[int, ...], quad: tuple[int, ...]) -> list[tuple[int, ...]] | None:
    """First routing of quad's pairs in PAIR_SLOTS order, or None.

    used holds the branch set and every interior routed so far; a path may
    end at b or step onto a vertex outside used.
    """
    paths: list[tuple[int, ...]] = []

    def route(idx: int, used: int) -> bool:
        if idx == 6:
            return True
        i, j = PAIR_SLOTS[idx]
        a, b = quad[i], quad[j]
        path = [a]

        def extend(v: int, seen: int) -> bool:
            for w in iter_bits(adj[v]):
                if w == b:
                    if len(path) % 2:  # the closing edge makes len(path) edges
                        paths.append((*path, b))
                        if route(idx + 1, seen):
                            return True
                        paths.pop()
                elif not seen >> w & 1:
                    path.append(w)
                    if extend(w, seen | 1 << w):
                        return True
                    path.pop()
            return False

        return extend(a, used)

    return paths if route(0, mask_of(quad)) else None


@lru_cache(maxsize=1 << 15)
def find_tok4(g: Graph) -> Tok4Certificate | None:
    """First totally odd K4-subdivision in search order, if any; it must pass verify_tok4."""
    candidates = [v for v in range(g.n) if g.adj[v].bit_count() >= 3]
    for quad in combinations(candidates, 4):
        paths = _assign_paths(g.adj, quad)
        if paths is not None:
            cert = Tok4Certificate(branch=quad, paths=tuple(paths))
            if not verify_tok4(g, cert):
                raise CertificateError(f"the TOK4 found in {to_graph6(g)} does not verify")
            return cert
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
