import os
import random
from pathlib import Path

import pytest

from alphacrit import subdivisions
from alphacrit.enumeration import connected_graphs_upto, packaged_corpus
from alphacrit.graphs import Graph

# pytest puts src/ on its own path (pyproject.toml); the tests that start
# `python -m alphacrit.cli` or a demo in a subprocess need it there too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def corpus6():
    """Connected class representatives on 1..6 vertices (143 graphs)."""
    return list(connected_graphs_upto(6))


@pytest.fixture(scope="session")
def corpus7():
    """Connected class representatives on 1..7 vertices (996 graphs)."""
    return list(connected_graphs_upto(7))


@pytest.fixture(scope="session")
def graphs8():
    """All isomorphism classes on 8 vertices, from the packaged file."""
    return packaged_corpus("graphs8")


@pytest.fixture(scope="session")
def critical_corpus():
    """Connected alpha-critical classes on 1..9 vertices, from the packaged file."""
    return packaged_corpus("alpha_critical_upto9")


@pytest.fixture(scope="session")
def corpus7_and_critical(corpus7, critical_corpus):
    """corpus7 and critical_corpus, plus one seeded relabelling of each graph."""
    rng = random.Random(5)
    graphs = [*corpus7, *critical_corpus]
    relabelled = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        rows = [0] * g.n
        for e in g.edges():
            rows[perm[e.u]] |= 1 << perm[e.v]
            rows[perm[e.v]] |= 1 << perm[e.u]
        relabelled.append(Graph(g.n, tuple(rows)))
    return graphs + relabelled


@pytest.fixture
def bogus_tok4_search(monkeypatch):
    """The TOK4 search routes all six pairs of a quadruple as its ab edge, so
    every certificate find_tok4 builds fails verify_tok4. Answers cached
    before or during the patch are dropped at both ends."""
    subdivisions.find_tok4.cache_clear()
    monkeypatch.setattr(subdivisions, "_assign_paths", lambda adj, quad: [quad[:2]] * 6)
    yield
    monkeypatch.undo()
    subdivisions.find_tok4.cache_clear()
