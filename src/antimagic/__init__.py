"""Constructive antimagic edge labelings of paths, cycles, grid graphs, and prisms.

An antimagic labeling assigns the numbers 1..|E| bijectively to a graph's
edges so that every vertex receives a distinct sum of incident labels.  This
package builds such labelings deterministically for four families, checks
them (materialized or streamed), exposes the structural sum orderings the
constructions guarantee, and carries a small brute-force oracle for
independent validation on tiny graphs.
"""

from .errors import FormatError, InvalidParameterError, SizeRefusalError
from .families import (
    CYCLE,
    FAMILIES,
    LATTICE,
    PATH,
    PRISM,
    Arrangement,
    FamilySpec,
    Graph,
    build_graph,
    canonical_edge,
    factor_arrangements,
    graph_from_edges,
    k2_graph,
    make_arrangement,
)
from .formats import (
    labeling_to_dot,
    labeling_to_json,
    labeling_tsv_lines,
    parse_json,
    parse_labeling,
    parse_tsv,
)
from .labelings import (
    Labeling,
    label,
    label_cycle,
    label_lattice_general,
    label_lattice_thin,
    label_path,
    label_prism_general,
    label_prism_two_layers,
    merge_sequence,
    transpose_labeling,
    ur_coloring,
)
from .oracle import SearchResult, exhaustive_search, random_search
from .stream import (
    EdgeKey,
    StreamStats,
    closed_form_label,
    edge_key,
    iter_edge_blocks,
    iter_labeled_edges,
    stream_verify,
)
from .verification import (
    PropertyCheck,
    PropertyReport,
    SumReport,
    Verdict,
    check_antimagic,
    check_paper_properties,
    vertex_sums,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "CYCLE",
    "EdgeKey",
    "FAMILIES",
    "FamilySpec",
    "FormatError",
    "Graph",
    "InvalidParameterError",
    "LATTICE",
    "Labeling",
    "PATH",
    "PRISM",
    "PropertyCheck",
    "PropertyReport",
    "SearchResult",
    "SizeRefusalError",
    "StreamStats",
    "SumReport",
    "Verdict",
    "build_graph",
    "canonical_edge",
    "check_antimagic",
    "check_paper_properties",
    "closed_form_label",
    "edge_key",
    "exhaustive_search",
    "factor_arrangements",
    "graph_from_edges",
    "iter_edge_blocks",
    "iter_labeled_edges",
    "k2_graph",
    "label",
    "label_cycle",
    "label_lattice_general",
    "label_lattice_thin",
    "label_path",
    "label_prism_general",
    "label_prism_two_layers",
    "labeling_to_dot",
    "labeling_to_json",
    "labeling_tsv_lines",
    "make_arrangement",
    "merge_sequence",
    "parse_json",
    "parse_labeling",
    "parse_tsv",
    "random_search",
    "stream_verify",
    "transpose_labeling",
    "ur_coloring",
    "vertex_sums",
]
