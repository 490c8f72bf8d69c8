"""Constructive antimagic edge labelings of paths, cycles, grid graphs, and prisms.

An antimagic labeling assigns the numbers 1..|E| bijectively to a graph's
edges so that every vertex receives a distinct sum of incident labels.  This
package builds such labelings deterministically for four families, checks
them (materialized or streamed), exposes the structural sum orderings the
constructions guarantee, and carries a small brute-force oracle for
independent validation on tiny graphs.

``import antimagic`` loads no submodule and no numpy: each public name and
submodule is imported on first access (PEP 562), so a command line process
compiles only the modules its subcommand uses.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("cli", "errors", "families", "formats", "labelings", "oracle", "stream", "verification")
# each public name other than a submodule, by the submodule that defines it
_HOMES = {
    "errors": ("FormatError", "InvalidParameterError", "SizeRefusalError"),
    "families": ("CYCLE", "LATTICE", "PATH", "PRISM", "FamilySpec", "build_graph", "graph_from_edges", "k2_graph"),
    "formats": (
        "labeling_to_dot",
        "labeling_to_json",
        "labeling_tsv_lines",
        "parse_json",
        "parse_labeling",
        "parse_tsv",
    ),
    "labelings": ("Labeling", "label"),
    "oracle": ("exhaustive_search", "random_search"),
    "stream": (
        "EdgeKey",
        "StreamStats",
        "closed_form_label",
        "edge_key",
        "iter_edge_blocks",
        "iter_labeled_edges",
        "stream_verify",
    ),
    "verification": ("check_antimagic", "check_paper_properties", "vertex_sums"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

# the names the README, the command line and the tests import
__all__ = sorted([*_HOME, "stream"])


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
