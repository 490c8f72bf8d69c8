"""The paper's constructions dealt out block by block: an independent reference for ``label()``.

``label()`` reads the closed forms in :mod:`antimagic.stream`.  This module
derives the same labels a second way, as the paper states them: the
factor arrangements as explicit edge lists and walks, the U/R coloring
read off the walk, the merge sequence as lists of odds and evens, and
each construction's two label matrices dealt from ``np.arange`` blocks.
It shares no label formula with the closed forms, so the tests that
compare the two check one derivation against the other.
"""

from dataclasses import dataclass

import numpy as np

from antimagic import CYCLE, LATTICE, PATH, PRISM, FamilySpec, InvalidParameterError
from antimagic.families import (
    CONSECUTIVE_PATH,
    SKIP_CYCLE,
    SKIP_PATH,
    _copy_at,
    _factor_edge_count,
    _factor_edge_endpoints,
    factor_kinds,
)

U = "U"
R = "R"


def canonical_edge(a, b):
    """Order edge endpoints lexicographically by (row, col)."""
    if a == b:
        raise InvalidParameterError(f"self-loop at {a}")
    return (a, b) if a < b else (b, a)


def _skip_traversal(size):
    # walk odd indices up, then even indices back down
    evens_start = size if size % 2 == 0 else size - 1
    return tuple(range(1, size + 1, 2)) + tuple(range(evens_start, 0, -2))


@dataclass(frozen=True)
class Arrangement:
    """A path or cycle whose vertex names follow one of the fixed listing schemes.

    ``edges`` holds index pairs in listing order; the dealers index into it
    with 1-based positions.  ``traversal`` walks the underlying path or cycle
    exactly once, starting at vertex 1 (a cycle closes back to vertex 1 via
    the edge ``(1, 2)``).
    """

    kind: str
    size: int
    edges: tuple
    traversal: tuple

    def edge_listing_index(self):
        """Map canonical endpoint pair -> 1-based listing position."""
        return {pair: k for k, pair in enumerate(self.edges, start=1)}


def make_arrangement(kind, size):
    """Build the named arrangement on ``size`` vertices.

    * ``consecutive-path``: edges (i, i+1), natural traversal.
    * ``skip-path``: edges (i, i+2) for i = 1..size-2 plus the turnaround
      edge (size-1, size); traversal 1, 3, 5, ... then back down the evens.
    * ``skip-cycle``: edge (1, 2), then (i, i+2) for i = 1..size-2, then
      (size-1, size); same traversal, closed by (1, 2).
    """
    if not isinstance(size, int) or isinstance(size, bool):
        raise InvalidParameterError(f"arrangement size must be an int, got {size!r}")
    if kind not in (CONSECUTIVE_PATH, SKIP_PATH, SKIP_CYCLE):
        raise InvalidParameterError(f"unknown arrangement kind {kind!r}")
    least = 3 if kind == SKIP_CYCLE else 2
    if size < least:
        raise InvalidParameterError(f"{kind} needs size >= {least}, got {size}")
    count = _factor_edge_count(kind, size)
    edges = tuple(_factor_edge_endpoints(kind, size, k) for k in range(1, count + 1))
    traversal = tuple(range(1, size + 1)) if kind == CONSECUTIVE_PATH else _skip_traversal(size)
    return Arrangement(kind, size, edges, traversal)


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
    edges.
    """
    blocks = np.arange(2, 2 * m * (n + 1) + 1, 2).reshape(m, n + 1)
    blocks = np.where(_usual_edges(m + 1)[:, None], blocks, blocks[:, ::-1])
    return blocks, np.array(merge_sequence(m, n), dtype=np.int64).reshape(m + 1, n)


def _prism(m, n):
    """Prism labels for m >= 3, n >= 2.

    Stage one labels ring copy j with (j-1)m+1..jm in listing order.  Stage
    two gives the k-th path edge the block mn+km+1..mn+(k+1)m, dealt along
    ring positions in usual order when the edge's color is U and reversed
    when it is R.  When n is even the second path edge is an R edge, so
    every ring label l in layer 2 is replaced by 3m+1-l (the block m+1..2m
    reversed in place).
    """
    usual = _usual_edges(n + 1)
    rings = np.arange(1, m * (n + 1) + 1).reshape(n + 1, m).T
    if not usual[1]:  # the second path edge is R exactly when n is even
        rings[:, 1] = rings[::-1, 1]
    links = np.arange(m * (n + 1) + 1, m * (2 * n + 1) + 1).reshape(n, m).T
    return rings, np.where(usual, links, links[::-1])


def _ladder(spec):
    """Ladder labels: the two-row grid 1 x n (n >= 2) or the two-layer prism m x 1.

    Long edge k of the L = mn long-factor edges takes 2k-1 on side one and
    2k on side two, in listing order, and the rung at position p takes 2L+p.
    """
    long = spec.m * spec.n
    sides = np.arange(1, 2 * long + 1).reshape(long, 2)  # (long edge, side)
    rungs = np.arange(2 * long + 1, spec.edge_count() + 1)
    if spec.family == PRISM:  # the rings are the first factor, the rungs the second
        return sides, rungs[:, None]
    return rungs[None, :], sides.T


def dealt_matrices(spec):
    """``spec``'s first-factor (K1, cols) and second-factor (rows, K2) label matrices, dealt.

    Paths and cycles take 1..|E| in listing order.  The 1 x 1 grid is a
    4-cycle with rungs 1 and 4 and row edges 2 and 3.  A grid with m > n is
    dealt as its transpose, whose two matrices, transposed and swapped, land
    on the spec's own coordinates.
    """
    m, n = spec.m, spec.n
    if spec.family in (PATH, CYCLE):
        return np.arange(1, spec.edge_count() + 1)[:, None], np.empty((1, 0), dtype=np.int64)
    if spec.family == PRISM:
        return _prism(m, n) if n >= 2 else _ladder(spec)
    if m > n:
        # the transpose's first-factor copy (k, j) is this grid's second-factor copy (j, k)
        wide = _grid(n, m) if n >= 2 else _ladder(FamilySpec(LATTICE, n, m))
        return wide[1].T, wide[0].T
    if m >= 2:
        return _grid(m, n)
    return _ladder(spec) if n >= 2 else (np.array([[1, 4]]), np.array([[2], [3]]))


def reference_labels(spec):
    """The dealt labels of ``spec``, aligned with ``build_graph(spec).edge_array``."""
    first, second = dealt_matrices(spec)
    is_first, k, pos = _copy_at(*factor_kinds(spec), np.arange(spec.edge_count()))
    labels = np.empty(spec.edge_count(), dtype=np.int64)
    labels[is_first] = first[k[is_first] - 1, pos[is_first] - 1]
    labels[~is_first] = second[pos[~is_first] - 1, k[~is_first] - 1]
    return labels
