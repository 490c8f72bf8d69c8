"""Constructive antimagic edge labelings for all four supported families.

Every function returns a :class:`Labeling` whose assignment is a bijection
from the graph's edges onto ``1..|E|`` with pairwise distinct vertex sums.
The schemes rely on the skip namings from :mod:`antimagic.families`: under
those namings the labels can be handed out in closed form, block by block,
and the vertex sums fall into provably separated ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError
from .families import (
    CYCLE,
    LATTICE,
    PATH,
    PRISM,
    SKIP_PATH,
    FamilySpec,
    Graph,
    build_graph,
    canonical_edge,
)

U = "U"
R = "R"


@dataclass
class Labeling:
    """An edge -> label assignment over a concrete graph."""

    graph: Graph
    assignment: dict


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


# Closed-form label formulas, shared with the stream module.  k is a 1-based
# factor-edge listing index, i a row, j a column.  The formulas are branch-free
# arithmetic, so each argument may be an int or an int64 array (``usual`` a
# bool or a bool array); ints give ints.

def even_block_label(m, n, k, j, usual):
    """Grid row-direction edge: j-th (or mirrored) even of the k-th block."""
    return 2 * (n + 1) * (k - 1) + 2 * (n + 2 - j) + usual * (4 * j - 2 * n - 4)


def ring_label(m, k, j, reversed_second):
    """Prism cycle edge in layer j, with the optional second-layer reversal."""
    flip = reversed_second * (j == 2)  # layer 2's block m+1..2m in reverse
    return (1 - 2 * flip) * ((j - 1) * m + k) + flip * (3 * m + 1)


def layer_link_label(m, n, k, i, usual):
    """Prism layer-to-layer edge at ring position i for path edge k."""
    return m * n + k * m + (1 - usual) * (m + 1) + (2 * usual - 1) * i


def thin_row_label(k, i):
    return 2 * k + i - 2


def thin_rung_label(n, j):
    return 2 * n + j


def two_layer_ring_label(k, j):
    return 2 * k + j - 2


def two_layer_rung_label(m, i):
    return 2 * m + i


def label_path(m):
    """Skip-named path on m+1 vertices: the k-th listed edge gets label k.

    The resulting sums are 1, 2, then the even run 2i-2, and finally 2m-1:
    strictly increasing along the vertex indices.
    """
    return _label_in_listing_order(FamilySpec(PATH, m))


def label_cycle(m):
    """Skip-named cycle on m vertices, labeled in listing order."""
    return _label_in_listing_order(FamilySpec(CYCLE, m))


def _label_in_listing_order(spec):
    spec.validate()
    graph = build_graph(spec)
    edges = enumerate(graph.row_arrangement.edges, start=1)
    return Labeling(graph, {((a, 1), (b, 1)): k for k, (a, b) in edges})


def label_lattice_general(m, n):
    """Grid labeling for n >= m >= 2.

    Stage one spreads the evens 2..2mn+2m over the row-direction edges: the
    k-th row edge owns a block of n+1 consecutive evens, dealt across columns
    left to right when its U/R color is U and right to left when it is R.
    Stage two deals the merge sequence row by row along the column-direction
    edges.  Interior columns then carry even, strictly increasing sums while
    the remaining vertices carry odd, pairwise distinct sums.
    """
    if not (n >= m >= 2):
        raise InvalidParameterError(f"general grid labeling needs n >= m >= 2, got m={m} n={n}")
    graph = build_graph(FamilySpec(LATTICE, m, n))
    colors = ur_coloring(graph.row_arrangement)
    assignment = {}
    for k, (a, b) in enumerate(graph.row_arrangement.edges, start=1):
        usual = colors[k] == U
        for j in range(1, n + 2):
            assignment[((a, j), (b, j))] = even_block_label(m, n, k, j, usual)
    seq = merge_sequence(m, n)
    for i in range(1, m + 2):
        base = (i - 1) * n
        for j in range(1, n + 1):
            assignment[((i, j), (i, j + 1))] = seq[base + j - 1]
    return Labeling(graph, assignment)


def label_lattice_thin(n):
    """Two-row grid labeling for n >= 2 (the long side carries the skip naming).

    Row one's skip edges take the odds 1..2n-1 in listing order, row two's
    the evens 2..2n, and the rung in column j takes 2n+j.  Sums interleave
    into one strictly increasing chain, column by column.
    """
    if n < 2:
        raise InvalidParameterError(f"thin grid labeling needs n >= 2, got n={n}")
    graph = build_graph(FamilySpec(LATTICE, 1, n))
    assignment = {}
    for k, (a, b) in enumerate(graph.col_arrangement.edges, start=1):
        assignment[((1, a), (1, b))] = thin_row_label(k, 1)
        assignment[((2, a), (2, b))] = thin_row_label(k, 2)
    for j in range(1, n + 2):
        assignment[((1, j), (2, j))] = thin_rung_label(n, j)
    return Labeling(graph, assignment)


_UNIT_SQUARE_MAP = {1: (1, 1), 2: (2, 1), 3: (1, 2), 4: (2, 2)}


def _label_lattice_unit():
    # the 1 x 1 grid is a 4-cycle; reuse the cycle labeling through a fixed
    # correspondence between ring indices and square corners
    ring = label_cycle(4)
    graph = build_graph(FamilySpec(LATTICE, 1, 1))
    assignment = {}
    for ((a, _), (b, _)), lab in ring.assignment.items():
        assignment[canonical_edge(_UNIT_SQUARE_MAP[a], _UNIT_SQUARE_MAP[b])] = lab
    return Labeling(graph, assignment)


def label_prism_general(m, n):
    """Prism labeling for m >= 3, n >= 2.

    Stage one labels ring copy j with (j-1)m+1..jm in listing order.  Stage
    two gives the k-th path edge the block mn+km+1..mn+(k+1)m, dealt along
    ring positions in usual order when the edge's color is U and reversed
    when it is R.  When n is even the second path edge is an R edge, which
    would break the layer-two sum ordering; compensating, every ring label
    l in layer 2 is replaced by 3m+1-l (the block m+1..2m reversed in place).
    """
    if m < 3 or n < 2:
        raise InvalidParameterError(f"general prism labeling needs m >= 3, n >= 2, got m={m} n={n}")
    graph = build_graph(FamilySpec(PRISM, m, n))
    colors = ur_coloring(graph.col_arrangement)
    reversed_second = n % 2 == 0
    assert reversed_second == (colors[2] == R)  # second path edge color decides
    assignment = {}
    for k, (a, b) in enumerate(graph.row_arrangement.edges, start=1):
        for j in range(1, n + 2):
            assignment[((a, j), (b, j))] = ring_label(m, k, j, reversed_second)
    for k, (a, b) in enumerate(graph.col_arrangement.edges, start=1):
        usual = colors[k] == U
        for i in range(1, m + 1):
            assignment[((i, a), (i, b))] = layer_link_label(m, n, k, i, usual)
    return Labeling(graph, assignment)


def label_prism_two_layers(m):
    """Prism with a single path edge (n = 1): two ring layers plus rungs.

    Layer one takes the odds 1..2m-1 in ring listing order, layer two the
    evens 2..2m, and the rung at ring position i takes 2m+i.  The sums read
    strictly increasing when the two layers are interleaved position by
    position.
    """
    if m < 3:
        raise InvalidParameterError(f"two-layer prism labeling needs m >= 3, got m={m}")
    graph = build_graph(FamilySpec(PRISM, m, 1))
    assignment = {}
    for k, (a, b) in enumerate(graph.row_arrangement.edges, start=1):
        assignment[((a, 1), (b, 1))] = two_layer_ring_label(k, 1)
        assignment[((a, 2), (b, 2))] = two_layer_ring_label(k, 2)
    for i in range(1, m + 1):
        assignment[((i, 1), (i, 2))] = two_layer_rung_label(m, i)
    return Labeling(graph, assignment)


def transpose_labeling(lab, target_spec):
    """Swap the two coordinates of every vertex, rebasing onto ``target_spec``."""
    graph = build_graph(target_spec)
    assignment = {}
    for ((r1, c1), (r2, c2)), lab_value in lab.assignment.items():
        assignment[canonical_edge((c1, r1), (c2, r2))] = lab_value
    if set(assignment) != set(graph.edges):
        raise InvalidParameterError("transposed labeling does not fit the target graph")
    return Labeling(graph, assignment)


def label(spec):
    """Dispatch to the construction that covers ``spec``.

    Grids with m > n are labeled through their transpose and mapped back, so
    callers always get labels on the coordinates they asked for.
    """
    spec.validate()
    if spec.family == PATH:
        return label_path(spec.m)
    if spec.family == CYCLE:
        return label_cycle(spec.m)
    if spec.family == PRISM:
        if spec.n >= 2:
            return label_prism_general(spec.m, spec.n)
        return label_prism_two_layers(spec.m)
    m, n = spec.m, spec.n
    if m > n:
        return transpose_labeling(label(FamilySpec(LATTICE, n, m)), spec)
    if m >= 2:
        return label_lattice_general(m, n)
    if n >= 2:
        return label_lattice_thin(n)
    return _label_lattice_unit()
