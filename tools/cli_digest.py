#!/usr/bin/env python3
"""Print the exit code and stdout sha256 of the standard CLI invocations.

    python3 tools/cli_digest.py [ROOT]

ROOT is a checkout of this repository (default: the one holding this script).
Each invocation runs `python -m alphacrit.cli` on ROOT's src/ in a fresh
process, from ROOT, and prints one tab-separated line: the argv, the exit
code and the sha256 of stdout. A change that promises byte-identical output
runs this on the parent checkout and on its own, and diffs the two outputs.
Standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

INVOCATIONS = (
    ("verify", "--enumerate", "7"),
    ("verify", "--file", "src/alphacrit/data/alpha_critical_upto9.g6"),
    ("verify", "cube", "--enumerate", "8"),
    ("analyze", "--file", "src/alphacrit/data/graphs8.g6"),
    ("analyze", "--file", "src/alphacrit/data/alpha_critical_upto9.g6"),
    ("enumerate", "8", "--alpha-critical"),
    ("enumerate", "7", "--tok4-free"),
)


def main() -> int:
    root = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for argv in INVOCATIONS:
        proc = subprocess.run(
            [sys.executable, "-m", "alphacrit.cli", *argv], cwd=root, env=env, capture_output=True,
        )
        digest = hashlib.sha256(proc.stdout).hexdigest()
        print(f"{' '.join(argv)}\t{proc.returncode}\t{digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
