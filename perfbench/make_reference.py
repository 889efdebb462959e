"""Regenerate the frozen reference the benchmark's correctness gate compares to.

    python3 perfbench/make_reference.py

Writes reference/classes.txt, one line per class of the connected <=7 corpus
and of graphs8.g6: graph6, alpha, alpha-critical (0/1), critical-edge count,
TOK4 present (0/1), and twice rho_tilde. All are isomorphism invariants, so
they hold for any relabelling of the class. Also writes
reference/verify_counts.json, the per-claim verdict counts of every sweep claim
over the verify-crit corpus. Rerun only when a change is declared to alter
these answers; a plain speed-up must leave both files unchanged.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from alphacrit.covers import rho_tilde  # noqa: E402
from alphacrit.enumeration import connected_graphs_upto, packaged_corpus  # noqa: E402
from alphacrit.graphs import to_graph6  # noqa: E402
from alphacrit.prooflab import SWEEP_CLAIMS, run_claim  # noqa: E402
from alphacrit.stability import alpha, critical_edges, is_alpha_critical  # noqa: E402
from alphacrit.subdivisions import find_tok4  # noqa: E402

CLASSES = HERE / "reference" / "classes.txt"
VERIFY_COUNTS = HERE / "reference" / "verify_counts.json"


def main() -> None:
    corpus7 = list(connected_graphs_upto(7))
    lines = []
    for g in (*corpus7, *packaged_corpus("graphs8")):
        fields = (
            alpha(g),
            int(is_alpha_critical(g)),
            len(critical_edges(g).edges),
            int(find_tok4(g) is not None),
            rho_tilde(g)[0],
        )
        lines.append(" ".join([to_graph6(g), *map(str, fields)]) + "\n")
    CLASSES.write_text("".join(lines))

    verify_corpus = corpus7 + list(packaged_corpus("alpha_critical_upto9"))
    counts = {}
    for claim in SWEEP_CLAIMS:
        tally = Counter(r.verdict for r in run_claim(claim, verify_corpus))
        counts[claim] = dict(sorted(tally.items()))
    VERIFY_COUNTS.write_text(json.dumps(counts, indent=1) + "\n")


if __name__ == "__main__":
    main()
