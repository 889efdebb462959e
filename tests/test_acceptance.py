"""Acceptance gate: the nine headline guarantees, one visible line each.

Every test prints `criterion N (...): PASS/FAIL - detail` outside pytest's
capture so the gate stays readable in a normal run, then asserts. The
counts in the details are exact and frozen; these sweeps are exhaustive over
the stated corpora, not sampled.
"""

import hashlib
import json
import subprocess
import sys
import time
from collections import Counter
from itertools import chain

from oracles import brute_contains_tok4

from alphacrit.covers import cover_from_theorem, rho_tilde, verify_cover
from alphacrit.enumeration import canonical_form, connected_graphs_upto
from alphacrit.graphs import (
    complete_graph,
    cube_graph,
    delete_vertex,
    is_connected,
    parse_graph6,
    to_graph6,
)
from alphacrit.prooflab import find_strengthening_witness, run_claim
from alphacrit.stability import alpha, is_alpha_critical
from alphacrit.subdivisions import contains_tok4, find_tok4, verify_tok4


def _report(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num} ({name}): {verdict} - {detail}", flush=True)


def test_01_theorem1_sweep(capsys, corpus7):
    started = time.monotonic()
    reports = run_claim("theorem1", corpus7)
    elapsed = time.monotonic() - started
    counts = Counter(r.verdict for r in reports)
    ok = counts["fail"] == 0 and counts["pass"] == 8 and elapsed < 120
    detail = (
        f"{counts['pass']} alpha-critical non-base graphs on <=7 vertices, "
        f"all with verifying TOK4 certificates, {elapsed:.1f}s"
    )
    _report(capsys, 1, "theorem 1 sweep", ok, detail)
    assert ok, detail


def test_02_theorem2_sweep(capsys, corpus7):
    reports = run_claim("theorem2", corpus7)
    counts = Counter(r.verdict for r in reports)
    ok = counts["fail"] == 0 and counts["pass"] == 82
    detail = f"{counts['pass']} graph/triangle pairs, each with >=2 deletions containing a TOK4"
    _report(capsys, 2, "theorem 2 sweep", ok, detail)
    assert ok, detail


def test_03_minmax_equality(capsys, corpus7, graphs8):
    # connected TOK4-free graphs on <= 8 vertices: exact three-way equality,
    # with both the optimal and the constructed family re-verified
    conn8 = [g for g in graphs8 if is_connected(g)]
    free = [g for g in chain(corpus7, conn8) if not contains_tok4(g)]
    equal = 0
    built_lines = []
    for g in free:
        built = cover_from_theorem(g)
        cost, optimal = rho_tilde(g)
        if 2 * alpha(g) == cost == built.doubled_cost == verify_cover(g, built) == verify_cover(g, optimal):
            equal += 1
        built_lines.append(json.dumps(built.to_obj()) + "\n")
    # the constructed families themselves are frozen, not just their costs
    built_digest = hashlib.sha256("".join(built_lines).encode()).hexdigest()
    frozen = built_digest == "149efc6a8b0b9662edd71315eea60ddcca8b9a1d4856db26633f09dd1cafcb56"
    # alpha <= rho holds for every graph on <= 8 vertices: every smaller graph
    # is an n=8 class minus isolated vertices, and removing an isolated vertex
    # lowers alpha and the cover cost by exactly one unit each, so sweeping the
    # 12346 classes at n=8 covers them all
    bounded = sum(1 for g in graphs8 if 2 * alpha(g) <= rho_tilde(g)[0])
    k4_doubled = rho_tilde(complete_graph(4))[0]
    strict = k4_doubled == 4 and alpha(complete_graph(4)) == 1
    ok = equal == len(free) == 3314 and frozen and bounded == len(graphs8) == 12346 and strict
    detail = (
        f"alpha = rho on {equal}/{len(free)} connected TOK4-free graphs <=8, "
        f"theorem families {'frozen' if frozen else 'CHANGED'}, "
        f"alpha <= rho on all {bounded} classes at n=8, strict on K4 (1 < 2)"
    )
    _report(capsys, 3, "min-max equality", ok, detail)
    assert ok, detail


def test_04_lemma1_sweep(capsys, corpus7, critical_corpus):
    reports = run_claim("lemma1", chain(corpus7, critical_corpus))
    counts = Counter(r.verdict for r in reports)
    degrees_ok = all(
        min(g.degree(v) for v in range(g.n)) >= 2
        for g in critical_corpus
        if g.n >= 4
    )
    ok = counts["fail"] == 0 and counts["pass"] == 61 and degrees_ok
    detail = (
        f"{counts['pass']} alpha-critical graphs (<=7 enumerated, <=9 packaged), "
        f"min degree >= 2 and all degree-2 contractions alpha-critical"
    )
    _report(capsys, 4, "lemma 1 sweep", ok, detail)
    assert ok, detail


def test_05_claims_sweep(capsys, corpus7):
    expected = {"claim2": 35, "claim3": 66, "eq1_consistency": 66}
    fails = 0
    passes = {}
    for cid, want in expected.items():
        counts = Counter(r.verdict for r in run_claim(cid, corpus7))
        fails += counts["fail"]
        passes[cid] = counts["pass"] == want
    ok = fails == 0 and all(passes.values())
    detail = (
        "max-degree>=3 forces TOK4 (35 pairs), distance-1 edges stay critical "
        "(66 pairs), both deleted-vertex constructions agree (66 pairs)"
    )
    _report(capsys, 5, "claims 2-3 and consistency", ok, detail)
    assert ok, detail


def test_06_tok4_oracle_equivalence(capsys, corpus7):
    disagreements = 0
    unverified = 0
    for g in corpus7:
        cert = find_tok4(g)
        if (cert is not None) != brute_contains_tok4(g):
            disagreements += 1
        if cert is not None and not verify_tok4(g, cert):
            unverified += 1
    ok = disagreements == 0 and unverified == 0
    detail = (
        f"find_tok4 agrees with the brute-force oracle on all {len(corpus7)} "
        f"connected graphs <=7; every certificate verifies"
    )
    _report(capsys, 6, "TOK4 oracle equivalence", ok, detail)
    assert ok, detail


def test_07_cube_uniqueness(capsys):
    (rep,) = run_claim("cube", connected_graphs_upto(8))
    survivors = rep.witness["survivors"]
    ok = (
        rep.verdict == "pass"
        and survivors == ["G?]uf?"]
        and canonical_form(parse_graph6(survivors[0])) == canonical_form(cube_graph())
        and rep.witness["alpha_critical"] is False
    )
    detail = "only the cube is cubic, triangle-free, K(2,3)-free with incident edges on 4-cycles; not alpha-critical"
    _report(capsys, 7, "cube uniqueness", ok, detail)
    assert ok, detail


def test_08_strengthening_witness(capsys, critical_corpus):
    found = find_strengthening_witness(critical_corpus)
    ok = found is not None
    detail = "no witness up to n=9"
    if ok:
        g, t = found
        certified = 0
        absent = 0
        for x in t.vertices():
            reduced, _ = delete_vertex(g, x)
            cert = find_tok4(reduced)
            if cert is not None:
                certified += verify_tok4(reduced, cert)
            else:
                # independent exhaustive confirmation for the missing third
                absent += not brute_contains_tok4(reduced)
        ok = (
            to_graph6(g) == "FJa^O"
            and is_alpha_critical(g)
            and certified == 2
            and absent == 1
        )
        detail = (
            f"graph {to_graph6(g)} (n={g.n}), triangle {t.vertices()}: two deletions "
            f"certified, third exhaustively TOK4-free"
        )
    _report(capsys, 8, "strengthening witness", ok, detail)
    assert ok, detail


def test_09_determinism_and_roundtrip(capsys, corpus7, graphs8, critical_corpus):
    graphs = 0
    bad = 0
    for g in chain(corpus7, graphs8, critical_corpus):
        graphs += 1
        line = to_graph6(g)
        if parse_graph6(line) != g or to_graph6(parse_graph6(line)) != line:
            bad += 1
    cli = [sys.executable, "-m", "alphacrit.cli"]
    args = ["verify", "theorem1", "lemma1", "--enumerate", "6"]
    first = subprocess.run(cli + args, capture_output=True, timeout=300)
    second = subprocess.run(cli + args, capture_output=True, timeout=300)
    identical = first.stdout == second.stdout and first.returncode == second.returncode == 0
    ok = bad == 0 and identical
    detail = f"graph6 round-trip on {graphs} corpus graphs; repeated CLI runs byte-identical"
    _report(capsys, 9, "determinism and round-trip", ok, detail)
    assert ok, detail
