"""Executable checks for the structure theory of alpha-critical graphs.

run_claim is the one entry point: it sweeps a claim over a corpus and returns
ClaimReports with verdict pass, fail, or inapplicable. On the shipped corpora
every verdict is pass or inapplicable; a fail would falsify a published
statement, so sweeps treat it as fatal.

Checked statements, in the vocabulary of this package:
  theorem1        every connected alpha-critical graph other than K1, K2, and
                  the odd cycles contains a totally odd K4-subdivision
  theorem2        if such a graph (itself not a TOK4) has a triangle, at least
                  two of the three one-vertex deletions contain a TOK4
  lemma1          minimum degree >= 2; a degree-2 vertex has non-adjacent
                  neighbors, is their only common neighbor, and contracting
                  its two edges leaves an alpha-critical graph
  claim2          max degree >= 3 in the deleted-vertex critical graph forces
                  a TOK4 in g - u
  claim3          edges at distance one from u stay critical after deleting u
  eq1_consistency the two constructions of the deleted-vertex critical graph
                  coincide
  cube            the five cube properties isolate Q3 in the corpus, and Q3
                  is not alpha-critical
  witness         the first theorem-2 report with exactly two TOK4 deletions
                  (the non-strengthenability witness)

theorem1, theorem2, claim2 and the witness take every TOK4 from
subdivisions.find_tok4, which hands out only certificates that verify_tok4
accepts and raises CertificateError otherwise.

claim2, claim3 and eq1_consistency read the deleted-vertex critical graph G_u
from stability.g_minus_c, which builds it once per (g, u) and compares it with
eq. (1) there; eq1_consistency reports that comparison.

run_claim dispatches each sweep claim through one table, _SWEEPS: its
applicability reason, its unit (graph, vertex, triangle or corpus) and its
checker. Its keys, SWEEP_CLAIMS, are the only ids a ClaimReport accepts.
run_claim settles applicability and encodes graph6 once per graph; every
per-graph reason starts from one cached fact per graph, _standing, and a
checker runs only on the units of a graph its reason accepts, so it
re-validates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .graphs import (
    Graph,
    contract_degree2,
    cube_graph,
    delete_vertex,
    is_connected,
    iter_bits,
    to_graph6,
)
# canonical_form, critical_edges, critical_edges_avoiding, contains_tok4 and
# verify_tok4 stay globals: perfbench's tracer patches them
from .enumeration import canonical_form  # noqa: F401
from .stability import (  # noqa: F401
    EquationMismatchError,
    alpha,
    critical_edges,
    critical_edges_avoiding,
    g_minus_c,
    is_alpha_critical,
)
from .subdivisions import find_tok4, is_tok4_graph
from .subdivisions import contains_tok4, verify_tok4  # noqa: F401

VERDICTS = ("pass", "fail", "inapplicable")


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one check. graph_code is empty for corpus-level reports."""

    claim_id: str
    graph_code: str
    verdict: str
    witness: dict | None = None

    def __post_init__(self):
        if self.claim_id not in SWEEP_CLAIMS:
            raise ValueError(f"unknown claim id {self.claim_id!r}")
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "fail" and self.witness is None:
            raise ValueError("failing reports must carry a witness")

    def to_obj(self) -> dict:
        return {
            "claim": self.claim_id,
            "graph6": self.graph_code,
            "verdict": self.verdict,
            "witness": self.witness,
        }


def triangles(g: Graph) -> list[tuple[int, int, int]]:
    """All triangles (i, j, k) of g, i < j < k, in lexicographic order."""
    out = []
    for i, j in combinations(range(g.n), 2):
        if not g.adj[i] >> j & 1:
            continue
        for k in iter_bits(g.adj[i] & g.adj[j] & ~((1 << (j + 1)) - 1)):
            out.append((i, j, k))
    return out


# a sweep asks this of every graph once per claim; 1 << 14 holds all of graphs8.g6
@lru_cache(maxsize=1 << 14)
def _standing(g: Graph) -> str | None:
    """Why g is not a nonempty connected alpha-critical graph, or None."""
    if g.n == 0:
        return "no vertices"
    if not is_connected(g):
        return "not connected"
    if not is_alpha_critical(g):
        return "not alpha-critical"
    return None


def _theorem1_reason(g: Graph) -> str | None:
    """None when theorem 1 applies; otherwise why it does not."""
    reason = _standing(g)
    if reason is not None:
        return reason
    if g.n == 1:
        return "excluded base graph K1"
    if g.n == 2:
        return "excluded base graph K2"
    # g is connected, so 2-regular means a cycle
    if g.n % 2 == 1 and all(row.bit_count() == 2 for row in g.adj):
        return "excluded base graph: odd cycle"
    return None


def _deletion(g: Graph, x: int) -> dict:
    """The verified TOK4 of g - x, or None, with the map back to g's labels."""
    reduced, vmap = delete_vertex(g, x)
    cert = find_tok4(reduced)
    return {"map": list(vmap), "tok4": cert.to_obj() if cert else None}


def _theorem1(g: Graph, code: str) -> ClaimReport:
    cert = find_tok4(g)
    if cert is None:
        return ClaimReport("theorem1", code, "fail", {"reason": "no totally odd K4-subdivision found"})
    return ClaimReport("theorem1", code, "pass", {"tok4": cert.to_obj()})


def _theorem2_reason(g: Graph) -> str | None:
    reason = _theorem1_reason(g)
    if reason is not None:
        return reason
    if is_tok4_graph(g):
        return "the graph is itself a totally odd K4-subdivision"
    return None


def _theorem2(g: Graph, code: str, tri: tuple[int, int, int]) -> ClaimReport:
    deletions = [{"deleted": x, **_deletion(g, x)} for x in tri]
    hits = sum(d["tok4"] is not None for d in deletions)
    witness = {"triangle": list(tri), "deletions": deletions}
    return ClaimReport("theorem2", code, "pass" if hits >= 2 else "fail", witness)


def _lemma1_reason(g: Graph) -> str | None:
    reason = _standing(g)
    if reason is None and g.n < 4:
        reason = "fewer than 4 vertices"
    return reason


def _lemma1(g: Graph, code: str) -> ClaimReport:
    for v in range(g.n):
        if g.degree(v) < 2:
            return ClaimReport("lemma1", code, "fail", {"vertex": v, "reason": f"degree {g.degree(v)} < 2"})
    exhibits = []
    for u in range(g.n):
        if g.degree(u) != 2:
            continue
        v, w = g.neighbors(u)
        if g.has_edge(v, w):
            return ClaimReport("lemma1", code, "fail", {"vertex": u, "reason": "neighbors are adjacent"})
        common = g.adj[v] & g.adj[w]
        if common != 1 << u:
            return ClaimReport(
                "lemma1", code, "fail",
                {"vertex": u, "reason": "extra common neighbor", "common": list(iter_bits(common))},
            )
        contracted = contract_degree2(g, u)
        if not is_alpha_critical(contracted):
            return ClaimReport("lemma1", code, "fail", {"vertex": u, "reason": "contraction not alpha-critical"})
        exhibits.append({"vertex": u, "alpha_drop": alpha(g) - alpha(contracted)})
    return ClaimReport("lemma1", code, "pass", {"degree2": exhibits} if exhibits else None)


def _deletion_reason(g: Graph) -> str | None:
    reason = _standing(g)
    if reason is None and g.n < 2:
        reason = "single vertex: deleting it changes alpha"
    return reason


def _claim2(g: Graph, code: str, u: int) -> ClaimReport:
    delta = g_minus_c(g, u).max_degree()
    if delta <= 2:
        return ClaimReport("claim2", code, "inapplicable", {"vertex": u, "max_degree": delta})
    found = _deletion(g, u)
    if found["tok4"] is None:
        return ClaimReport("claim2", code, "fail", {"vertex": u, "max_degree": delta})
    return ClaimReport("claim2", code, "pass", {"vertex": u, "max_degree": delta, **found})


def _claim3(g: Graph, code: str, u: int) -> ClaimReport:
    targets = [
        e for e in g.edges()
        if u not in (e.u, e.v) and (g.has_edge(u, e.u) or g.has_edge(u, e.v))
    ]
    reduced_crit = g_minus_c(g, u)
    # in G_u a vertex x > u of g is x - 1
    missing = [e for e in targets if not reduced_crit.has_edge(e.u - (e.u > u), e.v - (e.v > u))]
    if missing:
        return ClaimReport(
            "claim3", code, "fail",
            {"vertex": u, "missing": [[e.u, e.v] for e in missing]},
        )
    return ClaimReport("claim3", code, "pass", {"vertex": u, "edges_checked": len(targets)})


def _eq1_consistency(g: Graph, code: str, u: int) -> ClaimReport:
    try:
        reduced_crit = g_minus_c(g, u)
    except EquationMismatchError as exc:
        return ClaimReport(
            "eq1_consistency", code, "fail",
            {
                "vertex": u,
                "only_deleted_side": [[e.u, e.v] for e in exc.only_deleted_side],
                "only_avoiding_side": [[e.u, e.v] for e in exc.only_avoiding_side],
            },
        )
    return ClaimReport("eq1_consistency", code, "pass", {"vertex": u, "edge_count": reduced_crit.m})


def _cube_survivor_filter(g: Graph) -> bool:
    if g.n == 0 or not is_connected(g):
        return False
    if any(row.bit_count() != 3 for row in g.adj):
        return False
    for a, b in combinations(range(g.n), 2):
        if (g.adj[a] & g.adj[b]).bit_count() >= 3:
            return False  # K_{2,3} subgraph
    for v in range(g.n):
        for a, b in combinations(g.neighbors(v), 2):
            if g.adj[a] >> b & 1:
                return False  # triangle
            if not g.adj[a] & g.adj[b] & ~(1 << v):
                return False  # incident edge pair on no 4-cycle
    return True


def _witness_sweep(graphs: list[Graph], bound: int) -> ClaimReport:
    """The first theorem-2 report, in corpus then triangle order, with exactly
    two TOK4 deletions: the witness that "two" cannot become "three"."""
    for g in graphs:
        if _theorem2_reason(g) is None:
            for tri in triangles(g):
                if sum(find_tok4(delete_vertex(g, x)[0]) is not None for x in tri) == 2:
                    code = to_graph6(g)
                    witness = {"found": True, "searched_bound": bound, **_theorem2(g, code, tri).witness}
                    return ClaimReport("witness", code, "pass", witness)
    return ClaimReport("witness", "", "pass", {"found": False, "searched_bound": bound})


def _cube_sweep(graphs: list[Graph], bound: int) -> ClaimReport:
    """Filter the corpus by the five cube properties: connected, cubic,
    triangle-free, K(2,3)-free, every incident edge pair on a 4-cycle.

    The claim passes when Q3 is the only survivor and is not alpha-critical.
    It is inapplicable when bound, the corpus's largest order, is below 8, or
    when nothing survives.
    """
    if bound < 8:
        reason = f"the cube has 8 vertices; max_n={bound} cannot certify uniqueness"
        return ClaimReport("cube", "", "inapplicable", {"reason": reason})
    survivors = [g for g in graphs if _cube_survivor_filter(g)]
    if not survivors:
        # Q3 itself passes the filter, so a corpus with no survivor cannot hold
        # every connected graph up to its largest order
        reason = f"corpus lacks Q3, so it is not every connected graph up to n={bound}"
        return ClaimReport("cube", "", "inapplicable", {"reason": reason})
    witness: dict = {"max_n": bound, "survivors": [to_graph6(g) for g in survivors]}
    # a survivor is connected and cubic; on 8 vertices alpha 4 makes it
    # bipartite (all 12 edges meet the stable set, so the other 4 vertices are
    # stable too), and a cubic K_{4,4} minus a perfect matching is Q3
    ok = len(survivors) == 1 and survivors[0].n == 8 and alpha(survivors[0]) == 4
    if ok:
        witness["alpha_critical"] = is_alpha_critical(survivors[0])
        ok = not witness["alpha_critical"]
    code = to_graph6(survivors[0]) if len(survivors) == 1 else to_graph6(cube_graph())
    return ClaimReport("cube", code, "pass" if ok else "fail", witness)


# A checker runs on each unit (the graph, a vertex, a triangle) of every graph
# its reason accepts; a corpus checker gets the corpus and its largest order.
_UNITS = {
    "graph": lambda g, code, check: [check(g, code)],
    "vertex": lambda g, code, check: [check(g, code, u) for u in range(g.n)],
    "triangle": lambda g, code, check: [check(g, code, tri) for tri in triangles(g)],
}
_SWEEPS = {
    "theorem1": (_theorem1_reason, "graph", _theorem1),
    "theorem2": (_theorem2_reason, "triangle", _theorem2),
    "lemma1": (_lemma1_reason, "graph", _lemma1),
    "claim2": (_deletion_reason, "vertex", _claim2),
    "claim3": (_deletion_reason, "vertex", _claim3),
    "eq1_consistency": (_deletion_reason, "vertex", _eq1_consistency),
    "cube": (None, "corpus", _cube_sweep),
    "witness": (None, "corpus", _witness_sweep),
}
SWEEP_CLAIMS = tuple(_SWEEPS)


def run_claim(claim_id: str, corpus: Iterable[Graph]) -> list[ClaimReport]:
    """Run one claim over a corpus; reports come back sorted by graph6 code."""
    if claim_id not in _SWEEPS:
        raise ValueError(f"unknown claim id {claim_id!r}")
    reason_of, unit, check = _SWEEPS[claim_id]
    graphs = list(corpus)
    if unit == "corpus":
        return [check(graphs, max((g.n for g in graphs), default=0))]
    reports: list[ClaimReport] = []
    for g in graphs:
        code = to_graph6(g)
        reason = reason_of(g)
        found = [] if reason else _UNITS[unit](g, code, check)
        if not found:
            reason = reason or f"no {unit}"
            reports.append(ClaimReport(claim_id, code, "inapplicable", {"reason": reason}))
        reports.extend(found)
    reports.sort(key=lambda r: r.graph_code)
    return reports
