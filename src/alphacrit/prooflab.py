"""Executable checks for the structure theory of alpha-critical graphs.

Each check_* function returns a ClaimReport with verdict pass, fail, or
inapplicable. On the shipped corpora every verdict is pass or inapplicable; a
fail would falsify a published statement, so sweeps treat it as fatal.

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
  cube            the five cube properties isolate Q3 in the corpus
  witness         search for a triangle where exactly two deletions contain a
                  TOK4 (the non-strengthenability witness)

claim2, claim3 and eq1_consistency read the deleted-vertex critical graph G_u
from stability.g_minus_c, which builds it once per (g, u) and compares it with
eq. (1) there; eq1_consistency reports that comparison.

run_claim dispatches each sweep claim through one table, _SWEEPS: its
applicability reason, its unit (graph, vertex, triangle or corpus) and its
checker. Its keys, SWEEP_CLAIMS, are the only ids a ClaimReport accepts. Every
per-graph reason, in a sweep and in a direct check_* call alike, starts from
one cached fact per graph, _standing.

case2_gadget builds the triangle-to-edge gadget of the proof's case 2, and
lift_tok4_through_gadget pulls a TOK4 of the gadget back into g - x2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .enumeration import canonical_form, connected_graphs_upto
from .graphs import (
    Edge,
    Graph,
    GraphError,
    SizeLimitError,
    add_edge,
    contract_degree2,
    cube_graph,
    delete_vertex,
    delete_vertices,
    is_connected,
    iter_bits,
    mask_of,
    to_graph6,
)
# critical_edges and critical_edges_avoiding stay globals: perfbench's tracer patches them
from .stability import (  # noqa: F401
    EquationMismatchError,
    alpha,
    critical_edges,
    critical_edges_avoiding,
    g_minus_c,
    is_alpha_critical,
)
from .subdivisions import CertificateError, Tok4Certificate, contains_tok4, find_tok4, is_tok4_graph, verify_tok4

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


@dataclass(frozen=True)
class Triangle:
    x1: int
    x2: int
    x3: int

    def __post_init__(self):
        xs = sorted((self.x1, self.x2, self.x3))
        if len(set(xs)) != 3:
            raise GraphError(f"triangle vertices must be distinct, got {xs}")
        object.__setattr__(self, "x1", xs[0])
        object.__setattr__(self, "x2", xs[1])
        object.__setattr__(self, "x3", xs[2])

    def vertices(self) -> tuple[int, int, int]:
        return (self.x1, self.x2, self.x3)


def triangles(g: Graph) -> list[Triangle]:
    """All triangles of g in lexicographic vertex order."""
    out = []
    for i, j in combinations(range(g.n), 2):
        if not g.adj[i] >> j & 1:
            continue
        for k in iter_bits(g.adj[i] & g.adj[j] & ~((1 << (j + 1)) - 1)):
            out.append(Triangle(i, j, k))
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


def check_theorem1(g: Graph) -> ClaimReport:
    code = to_graph6(g)
    reason = _theorem1_reason(g)
    if reason is not None:
        return ClaimReport("theorem1", code, "inapplicable", {"reason": reason})
    cert = find_tok4(g)
    if cert is None:
        return ClaimReport("theorem1", code, "fail", {"reason": "no totally odd K4-subdivision found"})
    if not verify_tok4(g, cert):
        raise CertificateError(f"the TOK4 found in {code} does not verify")
    return ClaimReport("theorem1", code, "pass", {"tok4": cert.to_obj()})


def _theorem2_reason(g: Graph) -> str | None:
    reason = _theorem1_reason(g)
    if reason is not None:
        return reason
    if is_tok4_graph(g):
        return "the graph is itself a totally odd K4-subdivision"
    return None


def check_theorem2(g: Graph, t: Triangle) -> ClaimReport:
    code = to_graph6(g)
    for a, b in combinations(t.vertices(), 2):
        if not g.has_edge(a, b):
            raise GraphError(f"{t.vertices()} is not a triangle of the graph: edge ({a},{b}) missing")
    reason = _theorem2_reason(g)
    if reason is not None:
        return ClaimReport("theorem2", code, "inapplicable", {"reason": reason, "triangle": list(t.vertices())})
    deletions = []
    for x in t.vertices():
        reduced, vmap = delete_vertex(g, x)
        cert = find_tok4(reduced)
        if cert is not None and not verify_tok4(reduced, cert):
            raise CertificateError(f"the TOK4 found in {code} minus vertex {x} does not verify")
        deletions.append({
            "deleted": x,
            "map": list(vmap),
            "tok4": cert.to_obj() if cert else None,
        })
    hits = sum(d["tok4"] is not None for d in deletions)
    witness = {"triangle": list(t.vertices()), "deletions": deletions}
    return ClaimReport("theorem2", code, "pass" if hits >= 2 else "fail", witness)


def _lemma1_reason(g: Graph) -> str | None:
    reason = _standing(g)
    if reason is None and g.n < 4:
        reason = "fewer than 4 vertices"
    return reason


def check_lemma_deg2(g: Graph) -> ClaimReport:
    code = to_graph6(g)
    reason = _lemma1_reason(g)
    if reason is not None:
        return ClaimReport("lemma1", code, "inapplicable", {"reason": reason})
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


def check_claim_delta(g: Graph, u: int) -> ClaimReport:
    g._check_vertex(u)
    code = to_graph6(g)
    reason = _deletion_reason(g)
    if reason is not None:
        return ClaimReport("claim2", code, "inapplicable", {"vertex": u, "reason": reason})
    reduced_crit = g_minus_c(g, u)
    delta = reduced_crit.max_degree()
    if delta <= 2:
        return ClaimReport("claim2", code, "inapplicable", {"vertex": u, "max_degree": delta})
    reduced, vmap = delete_vertex(g, u)
    cert = find_tok4(reduced)
    if cert is None:
        return ClaimReport("claim2", code, "fail", {"vertex": u, "max_degree": delta})
    if not verify_tok4(reduced, cert):
        raise CertificateError(f"the TOK4 found in {code} minus vertex {u} does not verify")
    return ClaimReport(
        "claim2", code, "pass",
        {"vertex": u, "max_degree": delta, "map": list(vmap), "tok4": cert.to_obj()},
    )


def check_claim_uvw(g: Graph, u: int) -> ClaimReport:
    g._check_vertex(u)
    code = to_graph6(g)
    reason = _deletion_reason(g)
    if reason is not None:
        return ClaimReport("claim3", code, "inapplicable", {"vertex": u, "reason": reason})
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


def check_eq1_consistency(g: Graph, u: int) -> ClaimReport:
    g._check_vertex(u)
    code = to_graph6(g)
    reason = _deletion_reason(g)
    if reason is not None:
        return ClaimReport("eq1_consistency", code, "inapplicable", {"vertex": u, "reason": reason})
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


@dataclass(frozen=True)
class GadgetInfo:
    """Everything needed to lift certificates back out of a triangle gadget."""

    host: Graph
    triangle: Triangle
    graph: Graph                  # the gadget: host minus triangle plus the new edge
    vmap: tuple[int, ...]         # gadget index -> host label
    outside: tuple[int, int, int]  # host labels of the outside neighbors of x1,x2,x3
    added: Edge                   # the new edge, in gadget labels


def case2_gadget(g: Graph, t: Triangle) -> GadgetInfo:
    """Delete a triangle of degree-3 vertices and join the outer neighbors of
    its first and third vertices."""
    xs = t.vertices()
    for a, b in combinations(xs, 2):
        if not g.has_edge(a, b):
            raise GraphError(f"{xs} is not a triangle of the graph: edge ({a},{b}) missing")
    tmask = mask_of(xs)
    outside = []
    for x in xs:
        if g.degree(x) != 3:
            raise GraphError(f"triangle vertex {x} has degree {g.degree(x)}, need exactly 3")
        outside.append(next(iter_bits(g.adj[x] & ~tmask)))
    if len(set(outside)) != 3:
        raise GraphError(f"outside neighbors {outside} are not pairwise distinct")
    u_out, _, w_out = outside
    if g.has_edge(u_out, w_out):
        raise GraphError(f"({u_out},{w_out}) is already an edge outside the triangle")
    stripped, vmap = delete_vertices(g, xs)
    index = {old: new for new, old in enumerate(vmap)}
    added = Edge(index[u_out], index[w_out])
    gadget = add_edge(stripped, added)
    return GadgetInfo(host=g, triangle=t, graph=gadget, vmap=vmap, outside=tuple(outside), added=added)


def lift_tok4_through_gadget(k: Tok4Certificate, info: GadgetInfo) -> Tok4Certificate:
    """Pull a certificate from the gadget back into host-minus-middle-vertex.

    Paths that used the artificial edge get the 3-edge detour through the two
    surviving triangle vertices spliced in (parity 1 -> 3); everything else is
    a plain relabeling.
    """
    if not verify_tok4(info.graph, k):
        raise CertificateError("certificate does not verify in the gadget graph")
    x1, x2, x3 = info.triangle.vertices()
    u_out, _, w_out = info.outside
    host_paths = []
    for path in k.paths:
        lifted = [info.vmap[p] for p in path]
        for i in range(len(lifted) - 1):
            pair = (lifted[i], lifted[i + 1])
            if pair == (u_out, w_out):
                lifted[i + 1:i + 1] = [x1, x3]
                break
            if pair == (w_out, u_out):
                lifted[i + 1:i + 1] = [x3, x1]
                break
        host_paths.append(lifted)
    # relabel host vertices into host-minus-x2 coordinates
    target, _ = delete_vertex(info.host, x2)

    def shift(v: int) -> int:
        return v - 1 if v > x2 else v

    cert = Tok4Certificate(
        branch=tuple(shift(info.vmap[b]) for b in k.branch),
        paths=tuple(tuple(shift(v) for v in path) for path in host_paths),
    )
    if not verify_tok4(target, cert):  # pragma: no cover - splice logic is total
        raise CertificateError("lifted certificate failed to verify in host minus middle vertex")
    return cert


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


def cube_uniqueness_check(max_n: int, corpus: Iterable[Graph] | None = None) -> ClaimReport:
    """Filter the corpus by the five cube properties; Q3 must be the only survivor.

    With no explicit corpus this uses the built-in enumeration, which covers
    max_n = 8 exactly.
    """
    if max_n < 8:
        raise GraphError(f"the cube has 8 vertices; max_n={max_n} cannot certify uniqueness")
    if corpus is None:
        if max_n > 8:
            raise SizeLimitError(f"no built-in corpus beyond n=8; supply corpus up to n={max_n}")
        corpus = connected_graphs_upto(8)
    survivors = [g for g in corpus if g.n <= max_n and _cube_survivor_filter(g)]
    cube = cube_graph()
    witness: dict = {"max_n": max_n, "survivors": [to_graph6(g) for g in survivors]}
    ok = len(survivors) == 1 and canonical_form(survivors[0]) == canonical_form(cube)
    if ok:
        witness["alpha_critical"] = is_alpha_critical(survivors[0])
        ok = not witness["alpha_critical"]
    code = to_graph6(survivors[0]) if len(survivors) == 1 else to_graph6(cube)
    return ClaimReport("cube", code, "pass" if ok else "fail", witness)


def find_strengthening_witness(corpus: Iterable[Graph]):
    """First (graph, triangle) where exactly two of the three deletions contain
    a TOK4; None if the corpus has no such pair."""
    for g in corpus:
        if _theorem2_reason(g) is not None:
            continue
        for t in triangles(g):
            count = 0
            for x in t.vertices():
                reduced, _ = delete_vertex(g, x)
                if contains_tok4(reduced):
                    count += 1
            if count == 2:
                return g, t
    return None


def witness_report(corpus: Iterable[Graph], bound: int) -> ClaimReport:
    """Corpus-level report for the strengthening-witness search."""
    found = find_strengthening_witness(corpus)
    if found is None:
        return ClaimReport("witness", "", "pass", {"found": False, "searched_bound": bound})
    g, t = found
    instance = check_theorem2(g, t).witness
    hits = sum(1 for d in instance["deletions"] if d["tok4"] is not None)
    if hits != 2:
        raise CertificateError(f"witness {to_graph6(g)} has {hits} TOK4 deletions on recheck, expected 2")
    witness = {"found": True, "searched_bound": bound, **instance}
    return ClaimReport("witness", to_graph6(g), "pass", witness)


def _cube_sweep(graphs: list[Graph], bound: int) -> ClaimReport:
    try:
        report = cube_uniqueness_check(bound, corpus=graphs)
    except GraphError as exc:
        return ClaimReport("cube", "", "inapplicable", {"reason": str(exc)})
    if report.witness["survivors"]:
        return report
    # Q3 itself passes the filter, so a corpus with no survivor cannot hold
    # every connected graph up to its largest order
    reason = f"corpus lacks Q3, so it is not every connected graph up to n={bound}"
    return ClaimReport("cube", "", "inapplicable", {"reason": reason})


# A checker runs on each unit (the graph, a vertex, a triangle) of every graph
# its reason accepts; a corpus checker gets the corpus and its largest order.
_UNITS = {
    "graph": lambda g, check: [check(g)],
    "vertex": lambda g, check: [check(g, u) for u in range(g.n)],
    "triangle": lambda g, check: [check(g, t) for t in triangles(g)],
}
_SWEEPS = {
    "theorem1": (_theorem1_reason, "graph", check_theorem1),
    "theorem2": (_theorem2_reason, "triangle", check_theorem2),
    "lemma1": (_lemma1_reason, "graph", check_lemma_deg2),
    "claim2": (_deletion_reason, "vertex", check_claim_delta),
    "claim3": (_deletion_reason, "vertex", check_claim_uvw),
    "eq1_consistency": (_deletion_reason, "vertex", check_eq1_consistency),
    "cube": (None, "corpus", _cube_sweep),
    "witness": (None, "corpus", witness_report),
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
        reason = reason_of(g)
        found = [] if reason else _UNITS[unit](g, check)
        if not found:
            reason = reason or f"no {unit}"
            reports.append(ClaimReport(claim_id, to_graph6(g), "inapplicable", {"reason": reason}))
        reports.extend(found)
    reports.sort(key=lambda r: r.graph_code)
    return reports
