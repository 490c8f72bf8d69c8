"""Constructive antimagic edge labelings for all four supported families.

Every function returns a :class:`Labeling` whose assignment is a bijection
from the graph's edges onto ``1..|E|`` with pairwise distinct vertex sums.
The schemes rely on the skip namings from :mod:`antimagic.families`: under
those namings the labels can be handed out in closed form, block by block,
and the vertex sums fall into provably separated ranges.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import InvalidParameterError
from .families import (
    CYCLE,
    LATTICE,
    PATH,
    PRISM,
    SKIP_PATH,
    FamilySpec,
    _check_ints,
    _graph_and_copies,
    _select,
    make_arrangement,
)

U = "U"
R = "R"


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


def merge_sequence(m, n):
    """The interleaved labels of the grid's long-direction edges (n >= m >= 2).

    Of the ``s`` odd numbers in 1..2mn+m+n and the ``t`` even numbers in
    2mn+2m+1..2mn+m+n, the list starts with the first ``s - t`` odds and then
    alternates one even, one odd until both runs are spent; it always ends on
    the largest odd.
    """
    if not (n >= m >= 2):
        raise InvalidParameterError(f"merge sequence needs n >= m >= 2, got m={m} n={n}")
    total = 2 * m * n + m + n
    a = list(range(1, total + 1, 2))
    b = list(range(2 * m * n + 2 * m + 2, total + 1, 2))
    s, t = len(a), len(b)
    c = a[: s - t]
    for i in range(t):
        c.append(b[i])
        c.append(a[s - t + i])
    return c


def ur_coloring(arr):
    """Proper 2-coloring of a skip-path's edges, alternating along the walk.

    Adjacent edges get different letters and the first walk edge (joining
    vertices 1 and 3) gets ``U``; the line graph of a path is a path, so this
    is the unique such coloring.  Returns listing index -> "U" or "R".
    """
    if arr.kind != SKIP_PATH:
        raise InvalidParameterError(f"U/R coloring is defined on skip-paths, got {arr.kind!r}")
    index_of = arr.edge_listing_index()
    colors = {}
    walk = arr.traversal
    for step in range(len(walk) - 1):
        a, b = walk[step], walk[step + 1]
        k = index_of[(a, b) if a < b else (b, a)]
        colors[k] = U if step % 2 == 0 else R
    return colors


def _usual_edges(size):
    """Whether each edge of a skip-path on ``size`` vertices is a U edge, in listing order."""
    colors = ur_coloring(make_arrangement(SKIP_PATH, size))
    return np.array([colors[k] == U for k in range(1, size)])


def _grid(m, n):
    """Grid labels for n >= m >= 2.

    Stage one spreads the evens 2..2mn+2m over the row-direction edges: the
    k-th row edge owns a block of n+1 consecutive evens, dealt across columns
    left to right when its U/R color is U and right to left when it is R.
    Stage two deals the merge sequence row by row along the column-direction
    edges.  Interior columns then carry even, strictly increasing sums while
    the remaining vertices carry odd, pairwise distinct sums.
    """
    blocks = np.arange(2, 2 * m * (n + 1) + 1, 2).reshape(m, n + 1)
    blocks = np.where(_usual_edges(m + 1)[:, None], blocks, blocks[:, ::-1])
    return blocks, np.array(merge_sequence(m, n), dtype=np.int64).reshape(m + 1, n)


def _prism(m, n):
    """Prism labels for m >= 3, n >= 2.

    Stage one labels ring copy j with (j-1)m+1..jm in listing order.  Stage
    two gives the k-th path edge the block mn+km+1..mn+(k+1)m, dealt along
    ring positions in usual order when the edge's color is U and reversed
    when it is R.  When n is even the second path edge is an R edge, which
    would break the layer-two sum ordering; compensating, every ring label
    l in layer 2 is replaced by 3m+1-l (the block m+1..2m reversed in place).
    """
    usual = _usual_edges(n + 1)
    rings = np.arange(1, m * (n + 1) + 1).reshape(n + 1, m).T
    if not usual[1]:  # the second path edge is R exactly when n is even
        rings[:, 1] = rings[::-1, 1]
    links = np.arange(m * (n + 1) + 1, m * (2 * n + 1) + 1).reshape(n, m).T
    return rings, np.where(usual, links, links[::-1])


def _ladder(spec):
    """Ladder labels: the two-row grid 1 x n (n >= 2) or the two-layer prism m x 1.

    Two copies of a long factor with L = mn edges are joined by rungs, one
    per long-factor vertex.  Long edge k takes 2k-1 on side one and 2k on
    side two, in listing order, and the rung at position p takes 2L+p.  The
    sums read strictly increasing when the two sides are interleaved
    position by position.
    """
    long = spec.m * spec.n
    sides = np.arange(1, 2 * long + 1).reshape(long, 2)  # (long edge, side)
    rungs = np.arange(2 * long + 1, spec.edge_count() + 1)
    if spec.family == PRISM:  # the rings are the first factor, the rungs the second
        return sides, rungs[:, None]
    return rungs[None, :], sides.T


def label(spec):
    """Dispatch to the construction that covers ``spec``.

    Paths and cycles are labeled 1..|E| in listing order: a path's sums are
    1, 2, then the even run 2i-2, and finally 2m-1, strictly increasing along
    the vertex indices.  The 1 x 1 grid is a 4-cycle: the cycle's labels,
    carried onto the corners 1 -> (1,1), 2 -> (2,1), 3 -> (1,2), 4 -> (2,2),
    give the rungs 1 and 4 and the row edges 2 and 3.  Grids with m > n are
    dealt as their transpose, whose two label matrices, transposed and
    swapped, land on the coordinates the caller asked for.

    Each construction deals the labels of the first-factor copies (K1, cols)
    and the second-factor copies (rows, K2).  The graph's copy at each edge
    position indexes the two matrices, laid end to end, in one ``take``.
    """
    graph, (is_first, k, pos) = _graph_and_copies(spec)  # validates, and refuses a size above the cap
    m, n = spec.m, spec.n
    if spec.family in (PATH, CYCLE):
        first, second = np.arange(1, spec.edge_count() + 1)[:, None], np.empty(0, dtype=np.int64)
    elif spec.family == PRISM:
        first, second = _prism(m, n) if n >= 2 else _ladder(spec)
    elif m > n:
        # the transpose's first-factor copy (k, j) is this grid's second-factor copy (j, k)
        wide = _grid(n, m) if n >= 2 else _ladder(FamilySpec(LATTICE, n, m))
        second, first = (dealt.T for dealt in wide)
    elif m >= 2:
        first, second = _grid(m, n)
    else:
        first, second = _ladder(spec) if n >= 2 else ([[1, 4]], [[2], [3]])
    cols, first = spec.col_count(), np.ravel(first)  # K2 = cols - 1 second-factor edges per row
    flat = _select(is_first, (k - 1) * cols + pos - 1, first.size + (pos - 1) * (cols - 1) + k - 1)
    return Labeling(graph, np.concatenate((first, np.ravel(second))).take(flat))
