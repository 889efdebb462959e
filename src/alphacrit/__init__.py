"""Exact toolkit for stable-set criticality on small graphs.

Bitmask graphs up to 32 vertices, exact stability numbers, alpha-critical
edge analysis, totally odd K4-subdivision certificates, minimum
vertex/edge/odd-cycle covers, and exhaustive claim verification over
enumerated corpora.
"""

from .covers import (
    CoverError,
    CoverFamily,
    TheoremViolationError,
    Tok4PresentError,
    cover_from_theorem,
    minmax_certificate,
    rho_tilde,
    verify_cover,
)
from .enumeration import (
    canonical_form,
    connected_graphs_upto,
    enumerate_connected,
    packaged_corpus,
)
from .graphs import (
    Edge,
    Graph,
    Graph6Error,
    GraphError,
    SizeLimitError,
    VertexSet,
    complete_graph,
    contract_degree2,
    cube_graph,
    cycle_graph,
    delete_vertex,
    delete_vertices,
    is_connected,
    parse_graph6,
    path_graph,
    read_graph6_lines,
    to_graph6,
)
from .prooflab import (
    SWEEP_CLAIMS,
    ClaimReport,
    run_claim,
    triangles,
)
from .stability import (
    CriticalEdgeSet,
    CriticalityError,
    EquationMismatchError,
    StableSetCertificate,
    all_max_stable_sets,
    alpha,
    critical_edges,
    critical_edges_avoiding,
    critical_subgraph,
    g_minus_c,
    is_alpha_critical,
    peel_max_stable_set,
)
from .subdivisions import (
    CertificateError,
    Tok4Certificate,
    contains_tok4,
    find_tok4,
    is_tok4_graph,
    verify_tok4,
)

__version__ = "0.1.0"

__all__ = [
    "SWEEP_CLAIMS",
    "CertificateError",
    "ClaimReport",
    "CoverError",
    "CoverFamily",
    "CriticalEdgeSet",
    "CriticalityError",
    "Edge",
    "EquationMismatchError",
    "Graph",
    "Graph6Error",
    "GraphError",
    "SizeLimitError",
    "StableSetCertificate",
    "TheoremViolationError",
    "Tok4Certificate",
    "Tok4PresentError",
    "VertexSet",
    "all_max_stable_sets",
    "alpha",
    "canonical_form",
    "complete_graph",
    "connected_graphs_upto",
    "contains_tok4",
    "contract_degree2",
    "cover_from_theorem",
    "critical_edges",
    "critical_edges_avoiding",
    "critical_subgraph",
    "cube_graph",
    "cycle_graph",
    "delete_vertex",
    "delete_vertices",
    "enumerate_connected",
    "find_tok4",
    "g_minus_c",
    "is_alpha_critical",
    "is_connected",
    "is_tok4_graph",
    "minmax_certificate",
    "packaged_corpus",
    "parse_graph6",
    "path_graph",
    "peel_max_stable_set",
    "read_graph6_lines",
    "rho_tilde",
    "run_claim",
    "to_graph6",
    "triangles",
    "verify_cover",
    "verify_tok4",
]
