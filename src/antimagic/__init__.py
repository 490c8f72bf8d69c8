"""Constructive antimagic edge labelings of paths, cycles, grid graphs, and prisms.

An antimagic labeling assigns the numbers 1..|E| bijectively to a graph's
edges so that every vertex receives a distinct sum of incident labels.  This
package builds such labelings deterministically for four families, checks
them (materialized or streamed), exposes the structural sum orderings the
constructions guarantee, and carries a small brute-force oracle for
independent validation on tiny graphs.
"""

from . import stream
from .errors import FormatError, InvalidParameterError, SizeRefusalError
from .families import (
    CYCLE,
    LATTICE,
    PATH,
    PRISM,
    FamilySpec,
    build_graph,
    graph_from_edges,
    k2_graph,
)
from .formats import (
    labeling_to_dot,
    labeling_to_json,
    labeling_tsv_lines,
    parse_json,
    parse_labeling,
    parse_tsv,
)
from .labelings import Labeling, label
from .oracle import exhaustive_search, random_search
from .stream import (
    EdgeKey,
    StreamStats,
    closed_form_label,
    edge_key,
    iter_edge_blocks,
    iter_labeled_edges,
    stream_verify,
)
from .verification import check_antimagic, check_paper_properties, vertex_sums

__version__ = "0.1.0"

# the names the README, the command line and the tests import
__all__ = [
    "CYCLE",
    "EdgeKey",
    "FamilySpec",
    "FormatError",
    "InvalidParameterError",
    "LATTICE",
    "Labeling",
    "PATH",
    "PRISM",
    "SizeRefusalError",
    "StreamStats",
    "build_graph",
    "check_antimagic",
    "check_paper_properties",
    "closed_form_label",
    "edge_key",
    "exhaustive_search",
    "graph_from_edges",
    "iter_edge_blocks",
    "iter_labeled_edges",
    "k2_graph",
    "label",
    "labeling_to_dot",
    "labeling_to_json",
    "labeling_tsv_lines",
    "parse_json",
    "parse_labeling",
    "parse_tsv",
    "random_search",
    "stream",
    "stream_verify",
    "vertex_sums",
]
