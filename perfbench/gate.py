"""Correctness gate: every output of a repetition is checked after timing ends.

The checks do not trust the search that produced an answer. TOK4
certificates are re-checked with verify_tok4 and covers with verify_cover;
per-class invariants and per-claim verdict counts are compared with the frozen
reference in reference/ (see make_reference.py); stable sets are re-checked
here bit by bit; tok4-hard answers are compared with how each graph was built.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from alphacrit.covers import CoverError, CoverFamily, verify_cover
from alphacrit.graphs import Edge, Graph, delete_vertex, parse_graph6, to_graph6
from alphacrit.prooflab import SWEEP_CLAIMS
from alphacrit.subdivisions import PAIR_KEYS, CertificateError, Tok4Certificate, verify_tok4

REFERENCE = Path(__file__).resolve().parent / "reference"

# The cube claim needs every graph up to the corpus's largest order, so on the
# verify-crit corpus (connected <=7 plus alpha-critical <=9) it finds no
# survivor and reports fail. That is a known defect of the program, counted
# as a failed operation and left visible, not a gate failure.
CUBE_KNOWN_DEFECT = {"fail": 1}


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)

    def op(self, problems: list[str], known: str | None = None) -> None:
        """Count one operation; it failed if it has problems or a known defect."""
        self.attempted += 1
        if problems or known:
            self.failed += 1
        self.problems += problems
        if known:
            self.known.append(known)

    @property
    def correct(self) -> bool:
        return not self.problems


def load_classes() -> dict[str, tuple[int, ...]]:
    """graph6 -> (alpha, alpha_critical, critical_edge_count, tok4, 2*rho_tilde)."""
    out = {}
    for line in (REFERENCE / "classes.txt").read_text().splitlines():
        code, *fields = line.split()
        out[code] = tuple(map(int, fields))
    return out


def load_verify_counts() -> dict[str, dict[str, int]]:
    return json.loads((REFERENCE / "verify_counts.json").read_text())


def tok4_problem(g: Graph, obj: dict, where: str) -> list[str]:
    try:
        cert = Tok4Certificate(
            branch=tuple(obj["branch"]),
            paths=tuple(tuple(obj["paths"][key]) for key in PAIR_KEYS),
        )
        ok = verify_tok4(g, cert)
    except (CertificateError, KeyError, TypeError) as exc:
        return [f"{where}: malformed TOK4 certificate: {exc}"]
    return [] if ok else [f"{where}: TOK4 certificate does not verify"]


def cover_problem(g: Graph, family: CoverFamily, doubled: int, where: str) -> list[str]:
    try:
        got = verify_cover(g, family)
    except CoverError as exc:
        return [f"{where}: cover rejected: {exc}"]
    return [] if got == doubled else [f"{where}: cover costs {got}/2, reference {doubled}/2"]


def _cover_from_obj(g: Graph, obj: dict) -> CoverFamily:
    return CoverFamily(
        host=g,
        vertices=tuple(obj["vertices"]),
        edges=tuple(Edge(u, v) for u, v in obj["edges"]),
        odd_cycles=tuple(tuple(c) for c in obj["odd_cycles"]),
        doubled_cost=obj["cost_times_2"],
    )


def check_analyze(graphs, keys, rc: int, lines: list[str], classes) -> Verdict:
    verdict = Verdict()
    records = [json.loads(line) for line in lines]
    if rc != 0 or len(records) != len(graphs):
        verdict.problems.append(f"analyze exited {rc} with {len(records)} records for {len(graphs)} graphs")
    for i, (g, key) in enumerate(zip(graphs, keys)):
        where = f"analyze record {i}"
        if i >= len(records):
            verdict.op([f"{where}: missing"])
            continue
        rec = records[i]
        a, crit, crit_edges, tok4, rho2 = classes[key]
        got = (rec["graph6"], rec["n"], rec["m"], rec["alpha"], rec["alpha_critical"],
               rec["critical_edge_count"], rec["tok4"] is not None, rec["rho_tilde_times_2"])
        want = (to_graph6(g), g.n, g.m, a, bool(crit), crit_edges, bool(tok4), rho2)
        problems = [] if got == want else [f"{where}: {got} != reference {want}"]
        if rec["tok4"] is not None:
            problems += tok4_problem(g, rec["tok4"], where)
        try:
            problems += cover_problem(g, _cover_from_obj(g, rec["cover"]), rho2, where)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{where}: malformed cover: {exc}")
        verdict.op(problems)
    return verdict


def _report_certificates(rep: dict) -> list[tuple[Graph, dict]]:
    """Every (graph, TOK4 certificate) pair a verify report carries."""
    w = rep["witness"] or {}
    if rep["verdict"] != "pass" or not rep["graph6"]:
        return []
    g = parse_graph6(rep["graph6"])
    if rep["claim"] == "theorem1":
        return [(g, w["tok4"])]
    if rep["claim"] == "claim2":
        return [(delete_vertex(g, w["vertex"])[0], w["tok4"])]
    if rep["claim"] in ("theorem2", "witness"):
        return [(delete_vertex(g, d["deleted"])[0], d["tok4"]) for d in w.get("deletions", []) if d["tok4"]]
    return []


def check_verify(graphs, rc: int, lines: list[str], counts: dict[str, dict[str, int]]) -> Verdict:
    verdict = Verdict()
    reports = [json.loads(line) for line in lines]
    summary = reports.pop()["summary"] if reports and "summary" in reports[-1] else None
    tally = {claim: Counter() for claim in SWEEP_CLAIMS}
    cert_problems = {claim: [] for claim in SWEEP_CLAIMS}
    codes = {to_graph6(g) for g in graphs}
    for i, rep in enumerate(reports):
        tally[rep["claim"]][rep["verdict"]] += 1
        # the cube report names Q3 itself, which is not an input
        if rep["graph6"] and rep["claim"] != "cube" and rep["graph6"] not in codes:
            cert_problems[rep["claim"]].append(f"verify report {i}: graph {rep['graph6']} is not an input")
        for host, obj in _report_certificates(rep):
            cert_problems[rep["claim"]] += tok4_problem(host, obj, f"verify report {i} ({rep['claim']})")
    for claim in SWEEP_CLAIMS:
        got = dict(tally[claim])
        problems = list(cert_problems[claim])
        known = None
        if claim == "cube" and got == CUBE_KNOWN_DEFECT:
            cube = next(r for r in reports if r["claim"] == "cube")
            if cube["witness"].get("survivors") == []:
                known = "cube: fail with no survivor on a corpus that is not all graphs up to n=9"
            else:
                problems.append(f"cube: unexpected witness {cube['witness']}")
        elif claim == "cube" and got == {"inapplicable": 1}:
            pass  # what a fix of the known defect is expected to report
        elif got != counts[claim]:
            problems.append(f"{claim}: verdict counts {got} != reference {counts[claim]}")
        verdict.op(problems, known)
    any_fail = any(t["fail"] for t in tally.values())
    want_summary = {"claims": list(SWEEP_CLAIMS), "graphs": len(graphs)}
    if summary is None or {k: summary.get(k) for k in want_summary} != want_summary:
        verdict.problems.append(f"verify summary {summary} does not match the run")
    if rc != (1 if any_fail else 0):
        verdict.problems.append(f"verify exited {rc} with{'' if any_fail else ' no'} failing report")
    return verdict


def stable_set_problem(g: Graph, bits: int, size: int, where: str) -> list[str]:
    if bits >> g.n or bits.bit_count() != size:
        return [f"{where}: stable set {bits:b} is not {size} vertices of the graph"]
    if any(bits >> v & 1 and g.adj[v] & bits for v in range(g.n)):
        return [f"{where}: stable set {bits:b} contains an edge"]
    return []


def check_covers(graphs, keys, results, classes) -> Verdict:
    """results[i] is (stable-set bits, CoverFamily) or an error string."""
    verdict = Verdict()
    for i, (g, key, res) in enumerate(zip(graphs, keys, results)):
        where = f"theorem-cover graph {i}"
        if isinstance(res, str):
            verdict.op([f"{where}: {res}"])
            continue
        bits, family = res
        a = classes[key][0]
        verdict.op(stable_set_problem(g, bits, a, where) + cover_problem(g, family, 2 * a, where))
    return verdict


def check_tok4(graphs, families, expect, results) -> Verdict:
    """results[i] is a Tok4Certificate, None, or an error string."""
    verdict = Verdict()
    for i, (g, family, present, res) in enumerate(zip(graphs, families, expect, results)):
        where = f"tok4-hard graph {i} ({family})"
        if isinstance(res, str):
            verdict.op([f"{where}: {res}"])
        elif (res is not None) != present:
            said, built = ("present" if res else "absent"), ("with" if present else "without")
            verdict.op([f"{where}: find_tok4 says {said}, built {built} one"])
        else:
            verdict.op(tok4_problem(g, res.to_obj(), where) if res is not None else [])
    return verdict
