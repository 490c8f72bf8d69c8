"""Closed-form edge labels, block emission and bounded-memory verification for huge grids and prisms.

Every construction's labels have a closed form under the skip namings, and these
forms are their one source: ``label()`` reads them into the materialized view, and
the functions here read them edge by edge or block by block.  A construction is one
class with two label formulas, ``first(k, j)`` for first-factor edge ``k`` in column
``j`` and ``second(i, k)`` for second-factor edge ``k`` in row ``i``, and their
inverse ``invert``; all three are branch-free arithmetic over ints or int64 arrays, and
the column sweep hands ``first`` and ``second`` a span's column-invariant terms instead.
There are four: the general grid, the 1 x 1 grid, the general prism, and the
ladder, which covers both the two-row grid and the two-layer prism.

``_forms(spec)``, one checked view of a spec, labels a copy ``(first, k, pos)`` by
``copy_label``.  On it sit ``closed_form_label``; ``iter_edge_blocks``, every edge as
int64 rows, ``BLOCK_EDGES`` canonical positions or labels at a time
(``iter_labeled_edges`` is its per-edge view); ``iter_sum_blocks``, every vertex sum
in vertex order by ``sums_at``; and ``stream_verify``, which sweeps the columns in spans of rows
and checks bijectivity and sum distinctness exactly: labels and sums are buffered,
and each full buffer is spilled as a sorted run into value-range buckets in anonymous
files (a file per bucket, or past ``RUN_BUCKETS`` buckets one), so live state stays at
one span of a column plus the two buffers and one bucket.  Only a broken construction
makes a value outside 0..2**32-1; such strays are held in memory and counted.
"""

from __future__ import annotations

import itertools
import os
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, SizeRefusalError
from .families import (
    CONSECUTIVE_PATH,
    LATTICE,
    PRISM,
    SKIP_CYCLE,
    SKIP_PATH,
    FamilySpec,
    _check_ints,
    _copy_at,
    _copy_endpoints,
    _factor_edge_count,
    _factor_edge_index,
    _factor_edges_at,
    _select,
    factor_kinds,
)

DEFAULT_CHUNK_TARGET = 1 << 16
MAX_STREAM_DIMENSION = 1 << 30
MAX_STREAM_EDGES = 1 << 60  # keeps every vertex sum below 2**62
BLOCK_EDGES = 1 << 11  # the most edges in one block of iter_edge_blocks
RUN_BUCKETS = 32  # a store needing more buckets spills sorted runs to one file, not a file per bucket

ROW = "row"
COL = "col"


def _usual(size, k):
    # skip-path edge k is U iff its walk position is odd: (k+1)/2 for odd k, size - k/2
    # for even k (the turnaround edge fits either rule), i.e. (k+1)/2 flipped by size's parity
    return (((k + 1) >> 1) ^ (~k & size)) & 1 == 1


def _head(m, n):
    # the merge sequence's first head entries are the odds 2p-1
    return m * n + (m + n + 1) // 2 - (n - m) // 2


def _merge(m, n, p):
    # past the head, offsets q alternate between the tail evens (q odd) and the remaining odds
    head = _head(m, n)
    q = p - head
    return 2 * p - 1 + (q > 0) * ((q & 1) * (2 * m * n + 2 * m + 2 - 2 * head) - q)


class _Forms:
    """One construction's closed forms, in the normalized orientation.

    A subclass gives ``first(k, j)``, ``second(i, k)`` and their inverse ``invert(label)
    -> (first, k, pos)``, where ``first`` tells which formula gave the label; ints give
    exact Python ints, and the caller passes valid indices only.  ``first`` and ``second``
    also take what ``span_terms`` makes of a sweep span's edges and rows: those arrays, or on a
    grid tuples of column-invariant terms; ``sums_at`` adds them into vertex sums.  ``transposed``
    says whether the forms label the caller's spec through its transpose, and ``factors`` is that
    spec's own ``factor_kinds``.  The forms hold no arrays, so a cached entry stays small.
    """

    def __init__(self, spec, transposed):
        self.m, self.n, self.transposed = spec.m, spec.n, transposed
        self.row_kind, self.col_kind, self.rows, self.cols = factors = factor_kinds(spec)
        self.factors = (self.col_kind, self.row_kind, self.cols, self.rows) if transposed else factors

    def copy_label(self, first, k, pos):
        """Label of the copy ``(first, k, pos)``, named in the spec's own orientation; ints or arrays."""
        first = first != self.transposed  # the transpose's first factor is the spec's second
        if type(first) is bool:  # one edge: only its own formula
            return self.first(k, pos) if first else self.second(pos, k)
        return _select(first, self.first(k, pos), self.second(pos, k))

    def sums_at(self, r, c):
        """The vertex sums at rows ``r`` and columns ``c``: ints, or int64 arrays that broadcast."""
        a, b = _factor_edges_at(self.row_kind, self.rows, r)  # a == b at a degree-1 vertex: counted once
        x, y = _factor_edges_at(self.col_kind, self.cols, c)
        return self.first(a, c) + self.first(b, c) * (a != b) + self.second(r, x) + self.second(r, y) * (x != y)

    def sum_bounds(self):
        """The least and greatest vertex sum: at vertex (1, 1), and in the last row's last two columns."""
        return self.sums_at(1, 1), max(self.sums_at(self.rows, c) for c in {self.cols, max(1, self.cols - 1)})

    def span_terms(self, edges, rows):
        """A sweep span's column-invariant terms, taken by ``first`` and ``second`` for its edges and rows."""
        return edges, rows

    def columns(self, span, keep):
        """Yield ``(j, r0, sums)``: the vertex sums of column ``j`` at rows ``r0, r0 + 1, ...``.

        The rows are swept in spans of at most ``span``, each span column by column, from the
        span's ``span_terms``.  Each row gathers its first-factor edges (``_factor_edges_at``) from
        the block of those meeting the span, and the blocks of the second-factor edges meeting the
        column add in row by row.  Column ``j`` meets edges ``j - gap`` and ``j`` of its path (the
        last column its path's last one or two), so a block is made once, in column ``k``, and
        carried to the other column it meets.  ``keep`` is handed the blocks whose labels the
        span's column ``j`` owns while they are live: its first-factor edges whose listing index
        is a row of the span, then second-factor edge ``j``.  Its arrays live only while it runs.
        """
        count = _factor_edge_count(self.row_kind, self.rows)
        gap, last = 1 + (self.col_kind == SKIP_PATH), _factor_edge_count(self.col_kind, self.cols)
        for r0 in range(1, self.rows + 1, span):
            r1 = min(self.rows, r0 + span - 1)
            edges = np.arange(max(1, r0 - 2), min(count, r1 + 1) + 1, dtype=np.int64)  # all that meet the span
            rows = np.arange(r0, r1 + 1, dtype=np.int64)
            a, b = np.subtract(_factor_edges_at(self.row_kind, self.rows, rows), edges[0])  # window offsets
            single = np.flatnonzero(a == b)
            owned = slice(r0 - edges[0], min(r1, count) + 1 - edges[0])
            edge_terms, row_terms = self.span_terms(edges, rows)
            del edges, rows
            carried = {}  # the blocks a later column meets, by edge
            for j in range(1, self.cols + 1):
                block = self.first(edge_terms, j)
                sums = block[a] + block[b]
                sums[single] -= block[a[single]]
                keep(block[owned])
                hi = min(j, last)
                for k in (j - gap, hi) if 0 < j - gap < hi else (hi,):
                    block = carried.pop(k) if k < j else self.second(row_terms, k)
                    sums += block
                    if k == j:
                        keep(block)
                        carried[k] = block
                yield j, r0, sums


class _GridForms(_Forms):
    """Closed forms for the general grid construction (2 <= m <= n)."""

    def span_terms(self, edges, rows):
        # an edge's U/R colour and block offset are the same in every column, so its label in column
        # j is base + j * step (an int8 step of -2 or 2); row i is kept as the odd 2(i - 1)n - 1
        n, usual = self.n, _usual(self.m + 1, edges)
        base = 2 * (n + 1) * (edges - 1) + 2 * (n + 2) - usual * (2 * n + 4)
        return (base, (4 * usual - 2).astype(np.int8)), (2 * n * (rows - 1) - 1,)

    def first(self, k, j):
        if type(k) is tuple:  # a span's (base, step)
            block = np.multiply(k[1], j, dtype=np.int64)
            block += k[0]
            return block
        # the j-th even of the k-th block of n+1, counted from the far end for an R edge
        n = self.n
        return 2 * (n + 1) * (k - 1) + 2 * (n + 2 - j) + _usual(self.m + 1, k) * (4 * j - 2 * n - 4)

    def second(self, i, k):
        if type(i) is not tuple:
            return _merge(self.m, self.n, (i - 1) * self.n + k)
        # a span's odds 2p - 1, p = (i - 1)n: merge position p + k takes the odd 2(p + k) - 1 up to
        # the head, on a prefix of the rows (all but the last when m <= n); a row past it takes _merge
        (odds,), m, n = i, self.m, self.n
        block = odds + 2 * k
        for t in range(np.searchsorted(odds, 2 * (_head(m, n) - k) - 1, side="right"), block.size):
            block[t] = _merge(m, n, (int(odds[t]) + 1) // 2 + k)
        return block

    def invert(self, lab):
        m, n = self.m, self.n
        first = (lab % 2 == 0) & (lab <= 2 * m * n + 2 * m)
        # the offset-th even of block k, counted from the far end for R edges
        k = (lab - 2) // (2 * (n + 1)) + 1
        offset = (lab - 2 * (k - 1) * (n + 1)) // 2
        j = _select(_usual(m + 1, k), offset, n + 2 - offset)
        # merge position p: odds 2p-1 up to the head, then odds and tail evens alternate
        head = _head(m, n)
        p = (lab + 1) // 2
        p = _select(lab % 2, _select(p > head, lab + 1 - head, p), head + lab - 2 * m * n - 2 * m - 1)
        return first, _select(first, k, (p - 1) % n + 1), _select(first, j, (p - 1) // n + 1)


class _LadderForms(_Forms):
    """Closed forms for the ladders: two-row grids (m = 1, n >= 2) and two-layer prisms (n = 1).

    Two copies of a long factor with L = mn edges are joined by rungs.  Long
    edge k takes 2k-1 on side 1 and 2k on side 2, and the rung at position p
    takes 2L+p.  A grid's rungs are its first factor (so m = 1 picks them out),
    a prism's its second.
    """

    def _label(self, rung, k, pos):
        # a rung is its factor's one edge, k = 1; k - 1 keeps the block's shape
        return 2 * self.m * self.n + pos + k - 1 if rung else 2 * k + pos - 2

    def first(self, k, j):
        return self._label(self.m == 1, k, j)

    def second(self, i, k):
        return self._label(self.m != 1, k, i)

    def invert(self, lab):
        rung = lab > 2 * self.m * self.n
        k, pos = _select(rung, 1, (lab + 1) // 2), _select(rung, lab - 2 * self.m * self.n, 2 - lab % 2)
        return rung == (self.m == 1), k, pos


class _UnitForms(_Forms):
    """The 1 x 1 grid: a labeled square with sums 3, 4, 6, 7."""

    def first(self, k, j):
        return 3 * j + k - 3  # the rungs: 1 in column 1, 4 in column 2

    def second(self, i, k):
        return i + k  # the row edges: 2 in row 1, 3 in row 2

    def invert(self, lab):
        return lab % 3 == 1, 1 + 0 * lab, 1 + (lab > 2)


class _PrismForms(_Forms):
    """Closed forms for the general prism construction (m >= 3, n >= 2)."""

    def first(self, k, j):
        # ring copy j takes (j-1)m+1..jm; for even n, layer 2's block is reversed in place
        return _select((self.n % 2 == 0) * (j == 2), 2 * self.m + 1 - k, (j - 1) * self.m + k)

    def second(self, i, k):
        # path edge k deals mn+km+1..mn+(k+1)m along the ring, reversed for an R edge
        usual = _usual(self.n + 1, k)
        return self.m * (self.n + k) + (1 - usual) * (self.m + 1) + (2 * usual - 1) * i

    def invert(self, lab):
        m, n = self.m, self.n
        first = lab <= m * (n + 1)
        j = (lab - 1) // m + 1
        k = _select((n % 2 == 0) * (j == 2), 2 * m + 1 - lab, lab - (j - 1) * m)
        link = (lab - m * n - 1) // m
        offset = lab - m * n - link * m
        i = _select(_usual(n + 1, link), offset, m + 1 - offset)
        return first, _select(first, k, link), _select(first, j, i)


# the factor namings of a normalized spec pick its construction
_CONSTRUCTIONS = {
    (SKIP_PATH, CONSECUTIVE_PATH): _GridForms,
    (CONSECUTIVE_PATH, SKIP_PATH): _LadderForms,
    (CONSECUTIVE_PATH, CONSECUTIVE_PATH): _UnitForms,
    (SKIP_CYCLE, SKIP_PATH): _PrismForms,
    (SKIP_CYCLE, CONSECUTIVE_PATH): _LadderForms,
}


def _check_stream_spec(spec):
    spec.validate()
    if spec.family not in (LATTICE, PRISM):
        raise InvalidParameterError("streaming covers lattice and prism specs only")
    if max(spec.m, spec.n) > MAX_STREAM_DIMENSION:
        raise SizeRefusalError(f"streaming supports dimensions up to {MAX_STREAM_DIMENSION}")
    if spec.edge_count() > MAX_STREAM_EDGES:
        raise SizeRefusalError(f"streaming supports up to {MAX_STREAM_EDGES} edges")


# typed: 3.0 and True must miss the entries of 3 and 1, and fail the check
@lru_cache(maxsize=256, typed=True)
def _forms_cached(family, m, n):
    spec = FamilySpec(family, m, n)
    _check_stream_spec(spec)
    transposed = family == LATTICE and m > n
    if transposed:
        spec = FamilySpec(LATTICE, n, m)
    row_kind, col_kind, _, _ = factor_kinds(spec)
    return _CONSTRUCTIONS[row_kind, col_kind](spec, transposed)


def _forms(spec):
    """``spec``'s construction forms; grids with m > n are labeled through the transposed shape.

    ``spec`` is checked on a cache miss only.
    """
    try:
        return _forms_cached(spec.family, spec.m, spec.n)
    except TypeError:  # an unhashable field; the check names the bad one
        _check_stream_spec(spec)
        raise


class EdgeKey(NamedTuple):
    """One edge of a lattice or prism, named without materializing the graph.

    ``orientation`` is "row" for first-factor copies (endpoints share a column) and "col"
    for second-factor copies; ``k`` is the factor edge's listing index and ``pos`` the
    cross coordinate (the column for row edges, the row for column edges), in ``spec``'s
    own orientation, also for grid shapes labeled through their transpose.
    """

    spec: FamilySpec
    orientation: str
    k: int
    pos: int

    def _resolve(self):
        """The forms labeling ``spec``, once the key is checked to name one of its edges."""
        forms = _forms(self.spec)
        if self.orientation not in (ROW, COL):
            raise InvalidParameterError(f"orientation must be {ROW!r} or {COL!r}, got {self.orientation!r}")
        if type(self.k) is not int or type(self.pos) is not int:
            _check_ints(k=self.k, pos=self.pos)
        row_kind, col_kind, rows, cols = forms.factors
        kind, size, cross = (row_kind, rows, cols) if self.orientation == ROW else (col_kind, cols, rows)
        if not 1 <= self.k <= _factor_edge_count(kind, size):
            raise InvalidParameterError(f"{kind} of size {size} has no edge {self.k}")
        if not 1 <= self.pos <= cross:
            raise InvalidParameterError(f"cross position {self.pos} out of range 1..{cross}")
        return forms

    def endpoints(self):
        r1, c1, r2, c2 = _copy_endpoints(*self._resolve().factors, self.orientation == ROW, self.k, self.pos)
        return ((r1, c1), (r2, c2))


def edge_key(spec, edge):
    """Classify a canonical edge of ``spec``'s graph as an :class:`EdgeKey`."""
    row_kind, col_kind, rows, cols = _forms(spec).factors  # checks the spec
    try:
        (r1, c1), (r2, c2) = edge
    except (TypeError, ValueError):
        raise InvalidParameterError(f"edge {edge} does not join two (row, col) pairs") from None
    if not (type(r1) is int and type(c1) is int and type(r2) is int and type(c2) is int):
        _check_ints(r1=r1, c1=c1, r2=r2, c2=c2)
    if c1 == c2:
        if not 1 <= c1 <= cols:
            raise InvalidParameterError(f"column {c1} out of range")
        return EdgeKey(spec, ROW, _factor_edge_index(row_kind, rows, r1, r2), c1)
    if r1 == r2:
        if not 1 <= r1 <= rows:
            raise InvalidParameterError(f"row {r1} out of range")
        return EdgeKey(spec, COL, _factor_edge_index(col_kind, cols, c1, c2), r1)
    raise InvalidParameterError(f"{edge} is not an edge of {spec}")


def closed_form_label(key):
    """Label of the edge named by ``key``, in O(1), matching ``label()``."""
    return key._resolve().copy_label(key.orientation == ROW, key.k, key.pos)


def iter_edge_blocks(spec, by_label=False):
    """Yield every edge as rows ``r1, c1, r2, c2, label`` of ``(B, 5)`` int64 arrays.

    Default order is canonical (sorted endpoint pairs); ``by_label`` walks labels 1..|E| instead.
    Each block is a range of at most ``BLOCK_EDGES`` positions in that order, mapped to its copies
    by the canonical closed form or by inverting the labels, so memory does not grow with the side
    lengths.  Validation happens up front.
    """
    forms = _forms(spec)
    edges = spec.edge_count()

    def blocks():
        for low in range(0, edges, BLOCK_EDGES):
            index = np.arange(low, min(edges, low + BLOCK_EDGES), dtype=np.int64)
            if by_label:
                label = index + 1
                first, k, pos = forms.invert(label)
                first = first != forms.transposed
            else:
                first, k, pos = _copy_at(*forms.factors, index)
                label = forms.copy_label(first, k, pos)
            yield np.column_stack((*_copy_endpoints(*forms.factors, first, k, pos), label))

    return blocks()


def iter_sum_blocks(spec):
    """Yield every vertex sum as rows ``r, c, sum`` of ``(B, 3)`` int64 arrays, in vertex order.

    A block is whole rows, or part of one, of at most ``BLOCK_EDGES`` vertices; each vertex
    adds the labels of the factor-edge copies meeting it.  The spec is checked at the first block.
    """
    forms = _forms(spec)
    _, _, rows, cols = forms.factors
    height, width = max(1, BLOCK_EDGES // cols), min(cols, BLOCK_EDGES)
    for r0, c0 in itertools.product(range(1, rows + 1, height), range(1, cols + 1, width)):
        r1, c1 = min(rows, r0 + height - 1), min(cols, c0 + width - 1)
        r, c = np.arange(r0, r1 + 1)[:, None], np.arange(c0, c1 + 1)
        sums = forms.sums_at(c, r) if forms.transposed else forms.sums_at(r, c)
        yield np.column_stack((np.repeat(r, c.size), np.tile(c, r.size), sums.ravel()))


def iter_labeled_edges(spec, by_label=False):
    """Yield ``(r1, c1, r2, c2, label)`` for every edge: a per-edge view of :func:`iter_edge_blocks`."""
    blocks = iter_edge_blocks(spec, by_label)
    return (edge for block in blocks for edge in map(tuple, block.tolist()))


@dataclass
class StreamStats:
    """Work and live-state accounting for one ``stream_verify`` run.

    ``spill_files`` counts the files the two stores opened, one per bucket that spilled a value, or
    one per store past ``RUN_BUCKETS`` buckets, and one per re-scattered bucket; ``spill_bytes``
    every byte written to them, re-scatters included.
    """

    edges_labeled: int = 0
    sums_checked: int = 0
    peak_live_values: int = 0
    spill_files: int = 0
    spill_bytes: int = 0
    elapsed_seconds: float = 0.0


class _BucketStore:
    """Routes integer values into ascending value-range buckets over ``lower..upper-1``, in batches.

    ``add`` copies into one preallocated buffer of the store's dtype, room for ``chunk_target``
    values (or ``expected``, if fewer) plus ``most``, the most one call hands over; a longer batch
    fills it piece by piece.  Once it holds ``chunk_target`` values, the buffer is sorted in place
    and spilled as a run: each file takes its buckets' slice in one write, and the store notes the
    run's bucket cuts, offsets within the run, in an index sized up front for ``expected`` values
    in batches of ``most`` and doubled if outgrown.  A file holds one bucket in a store of at most
    ``RUN_BUCKETS`` buckets, and all of them in a larger one or a ``one_file`` store; a store
    whose buffer never fills opens none.  Files are anonymous (``tempfile.TemporaryFile``): the
    kernel frees one when it is closed or the process dies, so no spill outlives the process.
    The dtype, ``uint32`` if the range fits and int64 if not, is fixed when the store is built.
    A ``uint32`` store keeps each value outside 0..2**32-1, which only a broken construction makes,
    in ``side``, in memory, counted in ``count`` and ``peak``; bucket 0 takes it.  Iterating yields
    every bucket, unsorted, while only one is live, read with one ``os.preadv`` per run holding part
    of it.  A spilled bucket of more than two buffers is instead re-scattered, one run slice at a
    time, into a child ``one_file`` store over its own range (bucket 0's ``side`` too), whose
    buckets are yielded in its place.  ``peak`` counts the most values held at once (the index is
    metadata, like a file's buffer, and is not counted), ``written`` the bytes written to files, a
    child's too.  As a context manager it closes every file on exit.
    """

    def __init__(self, expected, upper, chunk_target, lower=0, most=1, one_file=False):
        self.nbuckets = min(512, -(-expected // chunk_target))
        self.lower, self.upper, self.width = lower, upper, max(1, -(-(upper - lower) // self.nbuckets))
        bounds = lower + self.width * np.arange(1, self.nbuckets, dtype=np.int64)
        self.dtype = np.dtype(np.uint32 if 0 <= lower and bounds.max(initial=upper) < 1 << 32 else np.int64)
        self.bounds = bounds.astype(self.dtype)  # searchsorted on like dtypes copies nothing
        self.chunk_target, self.most = chunk_target, most
        self.per_file = self.nbuckets if self.nbuckets > RUN_BUCKETS or one_file else 1  # buckets per spill file
        self.files = [None] * -(-self.nbuckets // self.per_file)
        self.buffer = np.empty(min(chunk_target, expected) + most, self.dtype)
        self.limit = 2 * self.buffer.size  # a spilled bucket of more values is re-scattered
        runs = expected // max(chunk_target, most) + 1  # a spill takes a chunk, or a batch that passes one
        self.index = np.empty((runs, self.nbuckets + 1), np.min_scalar_type(self.buffer.size))
        self.buffered = self.count = self.runs = self.spills = self.written = self.peak = 0
        self.side = np.empty(0, np.int64)  # what a uint32 store cannot hold; bucket 0 takes it

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for handle in filter(None, self.files):
            handle.close()
        self.files = [None] * len(self.files)

    def add(self, values):
        self.count += values.size
        if self.dtype == np.uint32 and np.bitwise_or.reduce(values) >> 32:  # one below 0 or past 2**32-1
            wide = values >> 32 != 0
            self.side, values = np.concatenate((self.side, values[wide])), values[~wide]
            self.peak = max(self.peak, self.buffered + self.side.size)
        while values.size:  # a batch past the buffer's room fills it, which spills, and goes on
            end = min(self.buffer.size, self.buffered + values.size)
            self.buffer[self.buffered : end], values = values[: end - self.buffered], values[end - self.buffered :]
            self.buffered, self.peak = end, max(self.peak, end + self.side.size)
            if end >= self.chunk_target or end == self.buffer.size:  # full: past ``expected``, or mid-batch
                self._scatter()

    def _take_buffer(self):
        """The buffered values sorted in place, with the bucket bounds cut into them; empties the buffer."""
        values, self.buffered = self.buffer[: self.buffered], 0
        values.sort()
        return values, [0, *np.searchsorted(values, self.bounds).tolist(), values.size]

    def _scatter(self):
        values, cuts = self._take_buffer()
        if self.runs == len(self.index):  # more values than expected, or smaller batches
            self.index = np.concatenate((self.index, self.index))
        self.index[self.runs], self.runs = cuts, self.runs + 1
        for f, handle in enumerate(self.files):
            start, stop = cuts[f * self.per_file], cuts[min((f + 1) * self.per_file, self.nbuckets)]
            if stop > start:
                if handle is None:
                    handle = self.files[f] = tempfile.TemporaryFile()
                    self.spills += 1
                self.written += handle.write(values[start:stop])  # no copy

    def iter_buckets(self):
        """Yield ``(lo, hi, values)`` for every bucket, ascending; the values are unsorted.

        A bucket holds the values in ``lo..hi-1``, within ``lower..upper-1``; the first also
        takes those below its range and ``side``, and the last those above.
        """
        marks = [min(self.lower + c * self.width, self.upper) for c in range(self.nbuckets + 1)]
        if not self.spills:  # every value is in the buffer
            values, cuts = self._take_buffer()
            for b in range(self.nbuckets):
                part = values[cuts[b] : cuts[b + 1]]
                yield marks[b], marks[b + 1], np.concatenate((part, self.side)) if b == 0 and self.side.size else part
            return
        if self.buffered:
            self._scatter()
        self.buffer = None  # the files hold every value
        for handle in filter(None, self.files):
            handle.flush()
        fds = [handle and handle.fileno() for handle in self.files]
        for b in range(self.nbuckets):
            f = b // self.per_file
            f0, f1 = f * self.per_file, min((f + 1) * self.per_file, self.nbuckets)
            cuts = self.index[: self.runs, [f0, b, b + 1, f1]].astype(np.int64)
            sizes, lengths = cuts[:, 3] - cuts[:, 0], cuts[:, 2] - cuts[:, 1]
            hit = lengths > 0  # runs holding part of the bucket, at their slice's place in file f
            offsets = ((np.cumsum(sizes) - sizes + cuts[:, 1] - cuts[:, 0])[hit] * self.dtype.itemsize).tolist()
            lengths, total = lengths[hit].tolist(), int(lengths.sum())
            lo, hi = marks[b], marks[b + 1]
            if total <= self.limit or hi - lo <= 1:
                part, at = np.empty(total, dtype=self.dtype), 0
                for offset, length in zip(offsets, lengths):
                    os.preadv(fds[f], [part[at : at + length]], offset)
                    at += length
                part = np.concatenate((part, self.side)) if b == 0 and self.side.size else part
                self.peak = max(self.peak, part.size)
                yield lo, hi, part
                del part  # the caller drops its own, so the next bucket is read with none held
                continue
            with type(self)(total, hi, self.chunk_target, lo, self.most, one_file=True) as child:
                child.add(self.side if b == 0 else self.side[:0])  # bucket 0's strays go with it
                part = np.empty(max(lengths), dtype=self.dtype)  # one run slice at a time
                for offset, length in zip(offsets, lengths):
                    os.preadv(fds[f], [part[:length]], offset)
                    child.add(part[:length])
                del part  # not held while the child's buckets are checked
                yield from child.iter_buckets()
            self.peak = max(self.peak, max(lengths) + child.peak)
            self.spills, self.written = self.spills + child.spills, self.written + child.written


def _distinct(chunk):
    """Whether ``chunk``'s values are pairwise distinct; sorts it in place, so neighbours tell."""
    chunk.sort()
    return not (chunk[1:] == chunk[:-1]).any()


def _check_permutation(store, n):
    """(bijection_ok, missing/repeated/out-of-range sample) for a streamed multiset."""
    issues = set()
    ok = store.count == n
    for lo, hi, chunk in store.iter_buckets():
        first, stop = max(lo, 1), max(lo, 1, hi)  # the bucket's share of 1..n
        distinct = _distinct(chunk)  # sorted now: distinct and as long as its share, it is the share if its ends are
        ends = (chunk[0], chunk[-1]) if chunk.size else (first, stop - 1)
        if not (distinct and chunk.size == stop - first and ends == (first, stop - 1)):
            ok = False
            repeated = chunk[1:][chunk[1:] == chunk[:-1]]
            outside = chunk[(chunk < 1) | (chunk > n)]
            missing = np.setdiff1d(np.arange(first, stop, dtype=np.int64), chunk, assume_unique=False)
            for part in (repeated, outside, missing):
                issues.update(part[:32].tolist())
        del chunk  # freed before the next bucket is read
    return ok, sorted(issues)


def _collect_duplicates(store):
    dups = set()
    for _, _, chunk in store.iter_buckets():
        if not _distinct(chunk):  # sorted now, so repeats are neighbours
            dups.update(np.unique(chunk[1:][chunk[1:] == chunk[:-1]]).tolist())
        del chunk  # freed before the next bucket is read
    return sorted(dups)


def _locate_duplicate_pair(spec, dup_values):
    hits = {}  # vertices of each repeated sum, in vertex order
    for block in iter_sum_blocks(spec):
        for r, c, total in block[np.isin(block[:, 2], dup_values)].tolist():
            hits.setdefault(total, []).append((r, c))
    pairs = [tuple(vertices[:2]) for vertices in hits.values() if len(vertices) >= 2]
    return min(pairs) if pairs else None


def stream_verify(spec, *, chunk_target=DEFAULT_CHUNK_TARGET, stats=None):
    """Antimagic check without materializing the graph or the labeling.

    Sweeps columns, computing each column's vertex sums in closed form, and checks exactly (no
    sampling, no hashing tricks) that the labels are a bijection onto 1..|E| and the sums are
    pairwise distinct.  Live state is one span of a column of the normalized orientation, at most
    ``max(min(chunk_target // 4, 2048), 8 * (min(m, n) + 2))`` rows, plus a label and a sum buffer
    of a chunk and a span each; value-range buckets on disk carry the rest, read back one bucket of
    at most about two buffers at a time, and a stream that never fills a buffer touches no disk.
    A broken construction's labels or sums outside 0..2**32-1 are held in memory and counted.
    """
    from .verification import Verdict  # here, so that streaming a labeling out loads no verifier
    start = time.perf_counter()
    forms = _forms(spec)
    _check_ints(chunk_target=chunk_target)
    if chunk_target < 1:
        raise InvalidParameterError(f"chunk target must be at least 1, got {chunk_target}")
    nv, ne = spec.vertex_count(), spec.edge_count()
    # rows per sweep span; a grid column, at most the short side plus one rows, always fits in one
    span = min(forms.rows, max(min(chunk_target // 4, 2048), 8 * (min(spec.m, spec.n) + 2)))
    # a run store's sum buckets are cut over the real sums; a stray sum lands in an end bucket or aside
    least, greatest = forms.sum_bounds() if nv > RUN_BUCKETS * chunk_target else (0, 4 * ne)
    with _BucketStore(ne, ne + 1, chunk_target, 0, span) as label_store, _BucketStore(
        nv, greatest + 1, chunk_target, least, span
    ) as sum_store:
        for _, _, sums in forms.columns(span, label_store.add):
            sum_store.add(sums)
        if label_store.count != ne or sum_store.count != nv:
            raise AssertionError(f"stream enumeration miscounted for {spec}")
        bijection_ok, label_issues = _check_permutation(label_store, ne)
        dup_values = _collect_duplicates(sum_store)
    duplicate = None
    if bijection_ok and dup_values:
        duplicate = _locate_duplicate_pair(spec, dup_values)
    antimagic = bijection_ok and not dup_values
    if stats is not None:
        stats.edges_labeled = ne
        stats.sums_checked = nv
        # the sweep holds a span's row indices, two edge offsets per row and
        # its degree-1 rows (two on a path, none on a cycle), and one passing block
        # that is not kept; the span's sums and kept blocks count in the stores
        single = 2 * (forms.rows - _factor_edge_count(forms.row_kind, forms.rows))
        stats.peak_live_values = 4 * span + single + label_store.peak + sum_store.peak
        stats.spill_files = label_store.spills + sum_store.spills
        stats.spill_bytes = label_store.written + sum_store.written
        stats.elapsed_seconds = time.perf_counter() - start
    return Verdict(antimagic, bijection_ok, duplicate, label_issues)
