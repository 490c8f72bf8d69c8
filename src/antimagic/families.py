"""Path, cycle, lattice-grid, and prism graphs, with the vertex orderings the labelers expect.

Vertices are 1-based ``(row, col)`` pairs.  Rows index the first factor of a
product (the cycle of a prism, the short path of a grid), columns the second;
standalone paths and cycles live in a single column.  The factor paths and
cycles come in fixed "arrangements": vertex namings under which most edges
join indices ``i`` and ``i + 2``.  All labeling schemes in this package are
stated against these namings, so the graphs here must use them verbatim.

A product graph's edges are factor-edge copies.  Their canonical order
(sorted endpoint pairs) has one closed form, ``_copy_at`` and
``_copy_endpoints``, through which the graphs, the labeler and the stream
blocks all place edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, SizeRefusalError

PATH = "path"
CYCLE = "cycle"
LATTICE = "lattice"
PRISM = "prism"
FAMILIES = (PATH, CYCLE, LATTICE, PRISM)

CONSECUTIVE_PATH = "consecutive-path"
SKIP_PATH = "skip-path"
SKIP_CYCLE = "skip-cycle"

#: materialized graphs above this edge count are refused (use the stream module instead)
MAX_MATERIALIZED_EDGES = 10**8
RANGE_EDGES = 1 << 14  # canonical positions a materialized graph maps to copies at once


def _factor_edge_count(kind, size):
    return size if kind == SKIP_CYCLE else size - 1


def _factor_edge_endpoints(kind, size, k):
    """(lower, upper) endpoint of listing edge ``k``, in O(1).

    ``k`` may be an int or an integer array; ints give ints.  Range checks are
    the caller's.
    """
    if kind == CONSECUTIVE_PATH:
        return k, k + 1
    if kind == SKIP_PATH:
        return k, k + 2 - (k == size - 1)
    return k - 1 + (k == 1), k + 1 - (k == size)


def _factor_edge_index(kind, size, a, b):
    """Listing index of the factor edge (a, b), a < b."""
    k = a + 1 if kind == SKIP_CYCLE and b != 2 else a
    if 1 <= k <= _factor_edge_count(kind, size) and _factor_edge_endpoints(kind, size, k) == (a, b):
        return k
    raise InvalidParameterError(f"{kind} of size {size} has no edge ({a}, {b})")


def _factor_edges_at(kind, size, v):
    """Listing indices of the factor edges meeting vertex ``v``, ascending.

    Every edge ``k`` has both endpoints in ``k-1..k+2`` (a cycle's edge 1
    joins 1 and 2, its last edge the last two vertices), so the edges at
    ``v`` are among ``v-2..v+1``.
    """
    count = _factor_edge_count(kind, size)
    return [k for k in range(v - 2, v + 2) if 1 <= k <= count and v in _factor_edge_endpoints(kind, size, k)]


def _check_ints(**values):
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidParameterError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class FamilySpec:
    """Which graph family to build and its size parameters.

    ``n`` is ignored for paths and cycles.  Lattice means the grid product of
    paths on m+1 and n+1 vertices; prism the product of an m-cycle and a path
    on n+1 vertices.
    """

    family: str
    m: int
    n: int = 0

    def validate(self):
        if self.family not in FAMILIES:
            raise InvalidParameterError(f"unknown family {self.family!r}")
        _check_ints(m=self.m, n=self.n)
        if self.family == PATH and self.m < 2:
            raise InvalidParameterError(f"path needs m >= 2, got m={self.m}")
        if self.family == CYCLE and self.m < 3:
            raise InvalidParameterError(f"cycle needs m >= 3, got m={self.m}")
        if self.family == LATTICE and (self.m < 1 or self.n < 1):
            raise InvalidParameterError(f"lattice needs m, n >= 1, got m={self.m} n={self.n}")
        if self.family == PRISM and (self.m < 3 or self.n < 1):
            raise InvalidParameterError(f"prism needs m >= 3 and n >= 1, got m={self.m} n={self.n}")

    def vertex_count(self):
        return self.row_count() * self.col_count()

    def edge_count(self):
        # a path or cycle has one column, so its column term is 0
        row_kind, col_kind, rows, cols = factor_kinds(self)
        return cols * _factor_edge_count(row_kind, rows) + rows * _factor_edge_count(col_kind, cols)

    def header(self):
        """The ``family``/``m``/``n`` header of files and reports; ``n`` is None for paths and cycles."""
        return {"family": self.family, "m": self.m, "n": self.n if self.family in (LATTICE, PRISM) else None}

    def row_count(self):
        return self.m + (self.family in (PATH, LATTICE))  # paths on m+1 vertices, cycles on m

    def col_count(self):
        return 1 if self.family in (PATH, CYCLE) else self.n + 1


def factor_kinds(spec):
    """Arrangement kinds and sizes ``(row_kind, col_kind, rows, cols)`` of ``spec``'s factors.

    ``col_kind`` is ``None`` for standalone paths and cycles.  For lattices
    the naming depends on the shape: with 2 <= m <= n the rows carry the skip
    naming and the columns the consecutive one; a single-row grid (m = 1,
    n >= 2) puts the skip naming on its long side; shapes with m > n mirror
    the transposed shape.
    """
    rows, cols = spec.row_count(), spec.col_count()
    m, n = spec.m, spec.n
    if spec.family == PATH:
        return SKIP_PATH, None, rows, cols
    if spec.family == CYCLE:
        return SKIP_CYCLE, None, rows, cols
    if spec.family == PRISM:
        return SKIP_CYCLE, SKIP_PATH if n >= 2 else CONSECUTIVE_PATH, rows, cols
    if m == 1 and n == 1:
        return CONSECUTIVE_PATH, CONSECUTIVE_PATH, rows, cols
    if m == 1:
        return CONSECUTIVE_PATH, SKIP_PATH, rows, cols
    if n == 1 or m <= n:
        return SKIP_PATH, CONSECUTIVE_PATH, rows, cols
    return CONSECUTIVE_PATH, SKIP_PATH, rows, cols


@dataclass(eq=False)
class Graph:
    """A concrete vertex/edge set, held as arrays.  Treated as immutable once built.

    ``edge_array`` holds the (E, 4) int64 rows ``r1, c1, r2, c2``, each edge
    in canonical endpoint order, all sorted; ``vertex_array`` the sorted
    (V, 2) vertex rows; ``ends`` the (E, 2) rows of ``vertex_array`` each edge
    joins.  ``edges`` and ``vertices`` are tuple lists built on first read.
    """

    spec: FamilySpec | None
    edge_array: np.ndarray
    vertex_array: np.ndarray
    ends: np.ndarray

    @cached_property
    def edges(self):
        return [((r1, c1), (r2, c2)) for r1, c1, r2, c2 in self.edge_array.tolist()]

    @cached_property
    def vertices(self):
        return list(map(tuple, self.vertex_array.tolist()))


def _select(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``: one ``np.where`` over arrays, a conditional on ints."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else a if cond else b


def _copy_at(row_kind, col_kind, rows, cols, index):
    """The copy at 0-based canonical edge position ``index``: ``(first, k, pos)``, ints or arrays.

    That is first-factor edge ``k`` in column ``pos``, or second-factor edge
    ``k`` in row ``pos``.  The edges with lower endpoint (r, c) are
    consecutive: second-factor edge c (column factors are paths, whose edge c
    starts at c; none in the last column), then the first-factor edges that
    start at row r.  Listing order sorts a factor's edges by lower endpoint,
    and every vertex but the last starts one edge, except a cycle's vertex 1,
    which starts two.  So a row spans 2 cols - 1 positions, a cycle's row 1
    cols more, and the last row cols - 1.
    """
    extra = row_kind == SKIP_CYCLE  # a cycle's row 1 starts edges 1 and 2
    wide = 2 * cols - 1
    r = 1 + (index >= wide + extra * cols) * ((index - extra * cols) // wide)
    below = r - 1 + extra * (r > 1)  # first-factor edges starting above row r
    slots = 2 + extra * (r == 1) - (r == rows)  # per column, but the last
    offset = index - (r - 1) * (cols - 1) - below * cols
    # the last column has no second-factor edge; one more column's slots makes c 1-based
    c, slot = divmod(offset + (offset >= (cols - 1) * slots) + slots, slots)
    first = slot > 0
    return first, _select(first, below + slot, c), _select(first, c, r)


def _copy_endpoints(row_kind, col_kind, rows, cols, first, k, pos):
    """Endpoints ``r1, c1, r2, c2`` of the copy ``(first, k, pos)``, lower first; ints or arrays."""
    a, b = _factor_edge_endpoints(row_kind, rows, k)
    c, d = _factor_edge_endpoints(col_kind, cols, k)
    return _select(first, a, pos), _select(first, pos, c), _select(first, b, pos), _select(first, pos, d)


def check_materializable(spec):
    """``spec``'s edge count, once it is valid and within ``MAX_MATERIALIZED_EDGES``."""
    spec.validate()
    count = spec.edge_count()
    if count > MAX_MATERIALIZED_EDGES:
        raise SizeRefusalError(
            f"{count} edges exceeds the materialization cap of "
            f"{MAX_MATERIALIZED_EDGES}; use the stream module for this size"
        )
    return count


def _ranges(spec, count, start=0):
    """``(at, copies, endpoints)`` for each ``RANGE_EDGES`` of ``spec``'s canonical positions ``start..count - 1``.

    ``at`` is their slice, ``copies`` the ``(first, k, pos)`` arrays of :func:`_copy_at` and
    ``endpoints`` the four columns of :func:`_copy_endpoints`, so no temporary spans every edge.
    """
    factors = factor_kinds(spec)
    for low in range(start, count, RANGE_EDGES):
        at = slice(low, min(count, low + RANGE_EDGES))
        copies = _copy_at(*factors, np.arange(at.start, at.stop))
        yield at, copies, _copy_endpoints(*factors, *copies)


def _spec_graph(spec, edges):
    """``spec``'s graph on its canonical (E, 4) ``edges``."""
    cols = spec.col_count()
    vertices = np.stack(np.divmod(np.arange(spec.vertex_count()), cols), axis=1) + 1
    ends = edges[:, 0::2] * cols  # vertex (r, c) is row (r - 1) * cols + c - 1; built in place
    ends += edges[:, 1::2]
    ends -= cols + 1
    return Graph(spec, edges, vertices, ends)


def _materialize(spec, label_of=None):
    """``spec``'s graph, and the labels ``label_of(first, k, pos)`` gives its copies, or None."""
    count = check_materializable(spec)
    edges = np.empty((count, 4), dtype=np.int64)
    labels = None if label_of is None else np.empty(count, dtype=np.int64)
    for at, copies, endpoints in _ranges(spec, count):
        for column, values in enumerate(endpoints):
            edges[at, column] = values
        if label_of is not None:
            labels[at] = label_of(*copies)
    return _spec_graph(spec, edges), labels


def _canonical(spec, edges, start=0):
    """Whether the (B, 4+) int rows ``edges`` are ``spec``'s canonical edges at positions ``start`` on.

    They are compared range by range with :func:`_ranges`, so they are not made a second time.
    """
    return all(
        np.array_equal(edges[at.start - start : at.stop - start, column], values)
        for at, _, endpoints in _ranges(spec, start + len(edges), start)
        for column, values in enumerate(endpoints)
    )


def _parsed_graph(spec, edges):
    """``spec``'s graph on the (E, 4) int ``edges`` if they are its canonical edges, else None.

    The spec is checked, and the edge count compared, before any edge.
    """
    if len(edges) != check_materializable(spec) or not _canonical(spec, edges):
        return None
    return _spec_graph(spec, edges)


def build_graph(spec):
    """Materialize the graph for ``spec`` with canonically sorted edges."""
    return _materialize(spec)[0]


def _adhoc_graph(edge_array):
    """The graph of distinct canonical edges given as sorted (E, 4) rows.

    Each endpoint gets one int key that sorts as its ``(row, col)``: per axis, the offset from the
    least value when the values span less than 2**31, else the rank among the distinct values.
    When the keys span no more values than there are endpoints, as on a grid or a prism, a table
    over that span marks the keys in use, and its running count numbers the vertices.  Otherwise the
    rows are sorted, so the first endpoints' keys are one sorted run, and a stable sort of all keys
    merges the second endpoints' into it; each endpoint then finds its vertex by binary search.
    """
    keys = np.zeros((2, len(edge_array)), dtype=np.int64)  # the first endpoints' keys, then the second's
    decode = []
    for axis in (0, 1):  # keys = row code * column span + column code, built in place
        values = edge_array[:, axis::2].T
        low, high = int(values.min(initial=0)), int(values.max(initial=0))
        if high - low < 1 << 31:
            codes, span = values, high - low + 1
            decode.append(lambda code, low=low: code + low)
        else:
            levels, codes = np.unique(values, return_inverse=True)
            low, span = 0, len(levels)
            decode.append(levels.__getitem__)
        keys *= span
        keys += codes.reshape(values.shape)
        keys -= low  # int64 wraps, so the sum is exact once it is below 2**62
    table = int(keys.max(initial=-1)) + 1
    if table <= keys.size:
        used = np.zeros(table, dtype=bool)
        used[keys] = True
        distinct = np.flatnonzero(used)
        number = np.cumsum(used, dtype=np.int64)
        number -= 1
        ends = number[keys]
    else:
        ordered = np.sort(keys.ravel(), kind="stable")
        new = np.ones(len(ordered), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        distinct = ordered[new]
        del ordered, new
        ends = np.searchsorted(distinct, keys)
    vertices = np.stack([of(code) for of, code in zip(decode, np.divmod(distinct, span))], axis=1)
    return Graph(None, edge_array, vertices, ends.T)


def _lex_order(rows):
    """The stable permutation that sorts the rows of a 2-D array lexicographically."""
    return np.lexsort(rows.T[::-1])


def _first_repeat(rows):
    """``(earlier, later)``: the first row of ``rows`` equal to an earlier one, and that one's first copy; or None."""
    order = _lex_order(rows)
    ordered = rows[order]
    same = (ordered[1:] == ordered[:-1]).all(axis=1)
    if not same.any():
        return None
    repeats = np.flatnonzero(same) + 1
    at = repeats[np.argmin(order[repeats])]
    # the stable sort puts the first copy of a row first among its equals
    return int(order[(ordered == ordered[at]).all(axis=1).argmax()]), int(order[at])


def _lex_greater(a, b):
    """Which rows of the 2-D int array ``a`` are lexicographically greater than the same rows of ``b``."""
    greater, tied = np.zeros(len(a), bool), np.ones(len(a), bool)
    for x, y in zip(a.T, b.T):
        greater |= tied & (x > y)
        tied &= x == y
    return greater


def _canonical_rows(rows):
    """(E, 4+) int rows ``r1, c1, r2, c2, ...`` with endpoints in canonical order, sorted by edge.

    The first self-loop or repeated edge raises.  Rows already canonical and strictly
    ascending, as the writers emit edge order, hold no repeat, so they skip both sorts.
    """
    u, v = rows[:, :2], rows[:, 2:4]
    swap = _lex_greater(u, v)
    loops = np.flatnonzero((u == v).all(axis=1))
    in_order = not swap.any() and _lex_greater(rows[1:, :4], rows[:-1, :4]).all()
    if not in_order:
        rows = rows.copy()
        rows[swap, :2], rows[swap, 2:4] = v[swap], u[swap]
    repeat = None if in_order else _first_repeat(rows[:, :4])
    if loops.size and (repeat is None or loops[0] < repeat[1]):
        raise InvalidParameterError(f"self-loop at {tuple(u[loops[0]].tolist())}")
    if repeat is not None:
        r1, c1, r2, c2 = rows[repeat[1], :4].tolist()
        raise InvalidParameterError(f"repeated edge {((r1, c1), (r2, c2))}")
    return rows if in_order else rows[_lex_order(rows[:, :4])]


def graph_from_edges(edges):
    """Ad-hoc graph from canonical edges (file input, negative controls).

    ``edges`` is any iterable of edges, each a pair of ``(row, col)`` endpoints, tuples or
    lists.  The first edge that is not canonical, a self-loop or a repeat raises.
    """
    rows = []
    for edge in edges:
        try:
            (r1, c1), (r2, c2) = edge
        except (TypeError, ValueError):
            raise InvalidParameterError(f"edge {edge} does not join two (row, col) pairs") from None
        rows.append((r1, c1, r2, c2))
    coords = [value for row in rows for value in row]
    if set(map(type, coords)) - {int}:  # one bulk test; the slow check names the first non-int
        _check_ints(**{f"coordinate {i % 4 + 1} of edge {i // 4 + 1}": value for i, value in enumerate(coords)})
    if min(coords, default=0) < -(1 << 63) or max(coords, default=0) >= 1 << 63:
        raise InvalidParameterError("an edge coordinate is outside the 64-bit integer range")
    rows = np.array(rows, dtype=np.int64).reshape(-1, 4)
    # the first fault in list order is named: check the rows before the first swapped one
    swapped = np.flatnonzero(_lex_greater(rows[:, :2], rows[:, 2:]))
    checked = _canonical_rows(rows[: swapped[0] if swapped.size else len(rows)])
    if swapped.size:
        r1, c1, r2, c2 = rows[swapped[0]].tolist()
        raise InvalidParameterError(f"edge {((r1, c1), (r2, c2))} is not in canonical endpoint order")
    return _adhoc_graph(checked)


def k2_graph():
    """The single-edge graph on two vertices.

    Both endpoints of the lone edge always receive the same sum, so no
    bijection onto {1} separates them; useful as a negative control for
    search and verification code.
    """
    return graph_from_edges([((1, 1), (2, 1))])
