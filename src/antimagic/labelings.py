"""Constructive antimagic edge labelings for all four supported families.

Every labeling is a bijection from the graph's edges onto ``1..|E|`` with
pairwise distinct vertex sums.  Paths and cycles take their labels in
listing order.  Grids and prisms read them, edge copy by edge copy, from
the closed forms of :mod:`antimagic.stream` (``copy_label``), which state
the paper's constructions, block by block, under the skip namings from
:mod:`antimagic.families`; there the vertex sums fall into provably
separated ranges.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import InvalidParameterError
from .families import CYCLE, PATH, _check_ints, _materialize
from .stream import _forms


class Labeling:
    """Labels on a graph's edges.

    ``labels`` is an int64 array aligned with ``graph.edge_array`` (narrower
    integer arrays are widened).  A mapping edge -> int64 label is accepted
    too; when it misses or adds edges, ``labels`` is None and only the
    mapping is kept.  ``assignment`` is the read-only edge -> label view,
    built on first read; ``spec`` is the graph's.
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

    spec = property(lambda self: self.graph.spec)

    @cached_property
    def assignment(self):
        given = self._given if self._given is not None else dict(zip(self.graph.edges, self.labels.tolist()))
        return MappingProxyType(given)


def label(spec):
    """The construction's labeling of ``spec``'s graph.

    Paths and cycles are labeled 1..|E| in listing order: a path's sums are
    1, 2, then the even run 2i-2, and finally 2m-1, strictly increasing along
    the vertex indices.  Grids and prisms label each edge copy through their
    forms' ``copy_label``, which reads the closed forms in the spec's own orientation.
    """

    def label_of(first, k, pos):  # called only once the spec has passed the materialization checks
        # a path or cycle has one column: edge position p holds its factor edge k = p + 1
        return k if spec.family in (PATH, CYCLE) else _forms(spec).copy_label(first, k, pos)

    return Labeling(*_materialize(spec, label_of))
