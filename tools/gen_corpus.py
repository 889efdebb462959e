#!/usr/bin/env python3
"""Generate the graph corpora shipped in src/alphacrit/data/.

Outputs:

  graphs8.g6               one representative per isomorphism class of all
                           graphs on 8 vertices (12346 classes)
  alpha_critical_upto9.g6  one representative per class of connected
                           alpha-critical graphs on 1..9 vertices
  MANIFEST.json            per-file counts and sha256 digests

Method: level-by-level vertex augmentation with exact canonical dedupe. A
graph class on n vertices always arises from some class on n-1 vertices by
adding one vertex with some neighborhood, so sweeping every (representative,
neighborhood mask) pair reaches every class. The canonical key is the minimum
upper-triangle bit pattern over all vertex orderings, evaluated with a
precomputed numpy permutation table.

The full class lists are validated against the known counts of graphs on up
to 8 vertices (1, 2, 4, 11, 34, 156, 1044, 12346) and of connected graphs
on those orders (1, 1, 2, 6, 21, 112, 853, 11117). The n = 9 level would
have 274668 classes, so it is filtered down to connected alpha-critical
candidates before the factorial dedupe step; the degree prefilters used
there are validated empirically on the full n <= 8 levels first. Expect
roughly 10-30 minutes on one core, dominated by the n = 9
alpha-criticality sweep.

This script deliberately re-implements keys and augmentation instead of
reusing alphacrit.enumeration, which derives its classes from the very
graphs8.g6 written here: the corpus must be reproducible by a path
independent of the code it later validates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from itertools import permutations
from pathlib import Path

import numpy as np

from alphacrit.graphs import Graph, complete_graph, cube_graph, cycle_graph, is_connected, to_graph6
from alphacrit.stability import is_alpha_critical

ALL_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def pairs_row_major(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def perm_table(n: int) -> np.ndarray:
    """table[p, k] = key contribution of source pair slot k under permutation p."""
    pairs = pairs_row_major(n)
    index = {p: k for k, p in enumerate(pairs)}
    m = len(pairs)
    perms = list(permutations(range(n)))
    table = np.zeros((len(perms), m), dtype=np.int64)
    for pi, perm in enumerate(perms):
        for k, (i, j) in enumerate(pairs):
            a, b = perm[i], perm[j]
            if a > b:
                a, b = b, a
            table[pi, k] = 1 << (m - 1 - index[(a, b)])
    return table


def graph_from_key(n: int, key: int) -> Graph:
    m = n * (n - 1) // 2
    rows = [0] * n
    for k, (i, j) in enumerate(pairs_row_major(n)):
        if key >> (m - 1 - k) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def canonical_key(g: Graph, table: np.ndarray, index: dict) -> int:
    cols = [index[(i, j)] for (i, j) in index if g.adj[i] >> j & 1]
    if not cols:
        return 0
    return int(table[:, cols].sum(axis=1).min())


def extend(parent: Graph, s: int, n: int) -> Graph:
    """parent plus a new vertex n-1 whose neighborhood is the bitmask s."""
    adj = [parent.adj[i] | ((s >> i & 1) << (n - 1)) for i in range(n - 1)]
    adj.append(s)
    return Graph(n, tuple(adj))


def augment_level(prev: list[Graph], n: int, table: np.ndarray) -> list[Graph]:
    """All isomorphism classes on n vertices from the classes on n-1."""
    pairs = pairs_row_major(n)
    index = {p: k for k, p in enumerate(pairs)}
    newvecs = [table[:, index[(i, n - 1)]] for i in range(n - 1)]
    zeros = np.zeros(len(table), dtype=np.int64)
    seen: set[int] = set()
    for parent in prev:
        pcols = [index[(i, j)] for (i, j) in pairs if j < n - 1 and parent.adj[i] >> j & 1]
        base = table[:, pcols].sum(axis=1) if pcols else zeros
        for s in range(1 << (n - 1)):
            keys = base
            bits = s
            while bits:
                i = (bits & -bits).bit_length() - 1
                keys = keys + newvecs[i]
                bits &= bits - 1
            seen.add(int(keys.min()))
    return [graph_from_key(n, key) for key in sorted(seen)]


def alpha_critical_level9(reps8: list[Graph]) -> list[Graph]:
    """Connected alpha-critical classes on 9 vertices.

    Candidates are filtered before dedupe: connectivity and criticality are
    isomorphism-invariant, so dropping a candidate never loses a class that
    some other (parent, mask) pair still produces. The degree-based skips
    rely on two necessary conditions of the target class: a connected graph
    needs the new vertex to touch every parent component, and a connected
    alpha-critical graph on >= 3 vertices has minimum degree >= 2 (swapping
    a degree-1 vertex for its neighbor in any stable set witnessing a
    critical edge at that neighbor yields a too-large stable set of the
    original graph).
    """
    survivors: list[Graph] = []
    t0 = time.perf_counter()
    for count, parent in enumerate(reps8, start=1):
        comp_masks = _component_masks(parent)
        need = 0
        for i in range(8):
            if parent.adj[i].bit_count() <= 1:
                need |= 1 << i
        for s in range(1, 1 << 8):
            if s & need != need or s.bit_count() < 2:
                continue
            if any(not s & cm for cm in comp_masks):
                continue
            g = extend(parent, s, 9)
            if not is_connected(g):
                continue
            if is_alpha_critical(g):
                survivors.append(g)
        if count % 1000 == 0:
            print(f"  n=9 sweep: {count}/{len(reps8)} parents, "
                  f"{len(survivors)} survivors, {time.perf_counter() - t0:.0f}s",
                  file=sys.stderr, flush=True)
    print(f"  n=9 sweep done: {len(survivors)} candidates before dedupe", file=sys.stderr, flush=True)

    table = perm_table(9)
    index = {p: k for k, p in enumerate(pairs_row_major(9))}
    out: dict[int, Graph] = {}
    for g in survivors:
        key = canonical_key(g, table, index)
        if key not in out:
            rep = graph_from_key(9, key)
            if not (is_connected(rep) and is_alpha_critical(rep)):
                raise AssertionError(f"canonical rebuild broke class properties for key {key}")
            out[key] = rep
    return [out[key] for key in sorted(out)]


def _component_masks(g: Graph) -> list[int]:
    left = (1 << g.n) - 1
    masks = []
    while left:
        frontier = left & -left
        comp = 0
        while frontier:
            comp |= frontier
            nbrs = 0
            bits = frontier
            while bits:
                v = (bits & -bits).bit_length() - 1
                nbrs |= g.adj[v]
                bits &= bits - 1
            frontier = nbrs & ~comp
        masks.append(comp)
        left &= ~comp
    return masks


def write_g6(path: Path, graphs: list[Graph]) -> str:
    lines = sorted(to_graph6(g) for g in graphs)
    data = "".join(line + "\n" for line in lines).encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_out = Path(__file__).resolve().parents[1] / "src" / "alphacrit" / "data"
    parser.add_argument("--out-dir", type=Path, default=default_out)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    levels: dict[int, list[Graph]] = {1: [Graph(1, (0,))]}
    for n in range(2, 9):
        t0 = time.perf_counter()
        levels[n] = augment_level(levels[n - 1], n, perm_table(n))
        got = len(levels[n])
        print(f"n={n}: {got} classes in {time.perf_counter() - t0:.1f}s", file=sys.stderr, flush=True)
        if got != ALL_GRAPH_COUNTS[n]:
            raise AssertionError(f"n={n}: expected {ALL_GRAPH_COUNTS[n]} classes, got {got}")

    for n in range(1, 9):
        connected = sum(1 for g in levels[n] if is_connected(g))
        if connected != CONNECTED_COUNTS[n]:
            raise AssertionError(f"n={n}: expected {CONNECTED_COUNTS[n]} connected classes, got {connected}")
    print("cross-checks: connected class counts ok at n<=8", file=sys.stderr, flush=True)

    ac: dict[int, list[Graph]] = {}
    for n in range(1, 9):
        ac[n] = [g for g in levels[n] if is_connected(g) and is_alpha_critical(g)]
    # empirical support for the n=9 prefilter: minimum degree >= 2 from n=3 on
    for n in range(3, 9):
        for g in ac[n]:
            if min(row.bit_count() for row in g.adj) < 2:
                raise AssertionError(f"degree prefilter unsound: {to_graph6(g)}")
    ac[9] = alpha_critical_level9(levels[8])
    for n in sorted(ac):
        print(f"alpha-critical connected n={n}: {len(ac[n])}", file=sys.stderr, flush=True)

    # membership sanity: the odd cycle and complete graph classes must be there,
    # and the cube (not alpha-critical) must not
    table9 = perm_table(9)
    index9 = {p: k for k, p in enumerate(pairs_row_major(9))}
    keys9 = {canonical_key(g, table9, index9) for g in ac[9]}
    for want in (cycle_graph(9), complete_graph(9)):
        if canonical_key(want, table9, index9) not in keys9:
            raise AssertionError("expected class missing from the n=9 alpha-critical level")
    if any(to_graph6(g) == to_graph6(cube_graph()) for g in ac[8]):
        raise AssertionError("the cube must not test alpha-critical")

    digest8 = write_g6(args.out_dir / "graphs8.g6", levels[8])
    ac_all = [g for n in sorted(ac) for g in ac[n]]
    digest_ac = write_g6(args.out_dir / "alpha_critical_upto9.g6", ac_all)
    manifest = {
        "generator": "tools/gen_corpus.py",
        "files": {
            "graphs8.g6": {
                "description": "all graphs on 8 vertices, one per isomorphism class",
                "count": len(levels[8]),
                "sha256": digest8,
            },
            "alpha_critical_upto9.g6": {
                "description": "connected alpha-critical graphs on 1..9 vertices, one per class",
                "count": len(ac_all),
                "counts_by_order": {str(n): len(ac[n]) for n in sorted(ac)},
                "sha256": digest_ac,
            },
        },
        "all_graph_class_counts": {str(n): len(levels[n]) for n in sorted(levels)},
    }
    (args.out_dir / "MANIFEST.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {args.out_dir}/graphs8.g6, alpha_critical_upto9.g6, MANIFEST.json", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
