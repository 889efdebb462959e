"""Covering by vertices, edges, and odd cycles: where the min-max lives.

Cover costs are integers times one half (an odd cycle C costs (|C|-1)/2), so
everything below is reported doubled to stay in exact integers.
"""

from alphacrit.covers import (
    Tok4PresentError,
    cover_from_theorem,
    rho_tilde,
    verify_cover,
)
from alphacrit.enumeration import connected_graphs_upto
from alphacrit.graphs import complete_graph, cycle_graph, path_graph, to_graph6
from alphacrit.stability import alpha
from alphacrit.subdivisions import contains_tok4


def describe(fam):
    parts = []
    if fam.vertices:
        parts.append(f"vertices {list(fam.vertices)}")
    if fam.edges:
        parts.append(f"edges {[(e.u, e.v) for e in fam.edges]}")
    if fam.odd_cycles:
        parts.append(f"odd cycles {[list(c) for c in fam.odd_cycles]}")
    return "; ".join(parts) if parts else "empty family"


print("== optimal covers on familiar graphs ==")
for name, g in [("C5", cycle_graph(5)), ("C7", cycle_graph(7)),
                ("C6", cycle_graph(6)), ("P5", path_graph(5)),
                ("K4", complete_graph(4))]:
    doubled, fam = rho_tilde(g)
    assert verify_cover(g, fam) == doubled
    print(f"{name:>3}: 2*alpha={2 * alpha(g)}  2*rho={doubled}  via {describe(fam)}")
print()
print("One odd cycle covers C5 at cost 2 while alpha(C5) = 2: equality.")
print("K4 is the other story: the best cover costs 2 but alpha is 1, and")
print("that gap is exactly why K4-like structure has to be excluded.")
print()

print("== the constructive side ==")
c6 = cycle_graph(6)
fam = cover_from_theorem(c6)
print(f"cover_from_theorem(C6) -> {describe(fam)} at doubled cost {fam.doubled_cost}")
print("The construction reads the components of a critical subgraph (vertices,")
print("edges, odd cycles) and checks their cost against alpha: by weak duality")
print("that certifies the cover, so no TOK4 search runs when the read succeeds.")
print()

print("== refusing graphs where equality can fail ==")
try:
    cover_from_theorem(complete_graph(4))
except Tok4PresentError as exc:
    print(f"cover_from_theorem(K4) raises {type(exc).__name__}; the exception")
    print(f"carries the blocking certificate with branch {exc.certificate.branch}")
print()

print("== equality, exhaustively, while the graphs stay small ==")
checked = gaps = 0
for g in connected_graphs_upto(6):
    doubled, _ = rho_tilde(g)
    if contains_tok4(g):
        if doubled > 2 * alpha(g):
            gaps += 1
        continue
    checked += 1
    assert doubled == 2 * alpha(g) == cover_from_theorem(g).doubled_cost
print(f"equality on all {checked} connected TOK4-free graphs with <= 6 vertices;")
print(f"{gaps} TOK4-containing graphs show a strict gap")
