"""Constructive antimagic edge labelings for all four supported families.

Every labeling is a bijection from the graph's edges onto ``1..|E|`` with
pairwise distinct vertex sums.  Paths and cycles take their labels in
listing order.  Grids and prisms read them from the closed forms of
:mod:`antimagic.stream`, which state the paper's constructions, block by
block, under the skip namings from :mod:`antimagic.families`; there the
vertex sums fall into provably separated ranges.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import InvalidParameterError
from .families import CYCLE, PATH, _check_ints, _factor_edge_count, _graph_and_copies, _select
from .stream import _forms


class Labeling:
    """Labels on a graph's edges.

    ``labels`` is an int64 array aligned with ``graph.edge_array`` (narrower
    integer arrays are widened).  A mapping edge -> int64 label is accepted
    too; when it misses or adds edges, ``labels`` is None and only the
    mapping is kept.  ``assignment`` is the read-only edge -> label view,
    built on first read.
    """

    def __init__(self, graph, labels):
        self.graph = graph
        self._given = None
        if isinstance(labels, np.ndarray):
            if labels.shape != (len(graph.edge_array),) or labels.dtype.kind not in "iu" or labels.dtype == np.uint64:
                raise InvalidParameterError(f"labels must be one int64 per edge, got {labels.dtype} {labels.shape}")
            labels = labels.astype(np.int64, copy=False)
        else:
            self._given = dict(labels)
            given = self._given.values()
            if set(map(type, given)) - {int}:  # one bulk test; the slow check names the first non-int
                _check_ints(**{f"label of {edge}": value for edge, value in self._given.items()})
            low, high = min(given, default=0), max(given, default=0)
            if low < -(1 << 63) or high >= 1 << 63:
                bad = low if low < -(1 << 63) else high
                raise InvalidParameterError(f"label {bad} is outside the 64-bit integer range")
            try:
                values = [self._given[e] for e in graph.edges]
            except KeyError:
                values = None
            covered = values is not None and len(values) == len(self._given)
            labels = np.array(values, dtype=np.int64) if covered else None
        self.labels = labels

    @cached_property
    def assignment(self):
        given = self._given if self._given is not None else dict(zip(self.graph.edges, self.labels.tolist()))
        return MappingProxyType(given)


def label(spec):
    """The construction's labeling of ``spec``'s graph.

    Paths and cycles are labeled 1..|E| in listing order: a path's sums are
    1, 2, then the even run 2i-2, and finally 2m-1, strictly increasing along
    the vertex indices.  Grids and prisms read their construction's closed
    forms into two matrices, the first-factor copies (K1, cols) and the
    second-factor copies (rows, K2).  A grid with m > n is labeled through
    its transpose, whose two matrices, transposed and swapped, land on the
    coordinates the caller asked for.  The graph's copy at each edge position
    indexes the two matrices, laid end to end, in one ``take``.
    """
    graph, (is_first, k, pos) = _graph_and_copies(spec)  # validates, and refuses a size above the cap
    if spec.family in (PATH, CYCLE):
        return Labeling(graph, k)  # one column: edge position p holds factor edge p + 1
    forms, transposed = _forms(spec)
    k1 = np.arange(1, _factor_edge_count(forms.row_kind, forms.rows) + 1)
    k2 = np.arange(1, _factor_edge_count(forms.col_kind, forms.cols) + 1)
    first = forms.first(k1[:, None], np.arange(1, forms.cols + 1))
    second = forms.second(np.arange(1, forms.rows + 1)[:, None], k2)
    if transposed:  # the transpose's first-factor copy (k, j) is this grid's second-factor copy (j, k)
        first, second = second.T, first.T
    cols = spec.col_count()  # K2 = cols - 1 second-factor edges per row
    flat = _select(is_first, (k - 1) * cols + pos - 1, first.size + (pos - 1) * (cols - 1) + k - 1)
    return Labeling(graph, np.concatenate((first.ravel(), second.ravel())).take(flat))
