"""Arrangements, family specs, and graph construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic import (
    CYCLE,
    LATTICE,
    PATH,
    PRISM,
    FamilySpec,
    InvalidParameterError,
    SizeRefusalError,
    build_graph,
    graph_from_edges,
    k2_graph,
)
from antimagic.families import (
    CONSECUTIVE_PATH,
    SKIP_CYCLE,
    SKIP_PATH,
    _factor_edge_endpoints,
    _factor_edge_index,
    _adhoc_graph,
    _factor_edges_at,
    factor_kinds,
)
from reference_dealers import canonical_edge, make_arrangement


def adjacency(graph):
    """Sorted neighbour lists of every vertex, derived from ``graph.edges``."""
    adj = {v: [] for v in graph.vertices}
    for a, b in graph.edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort()
    return adj


def test_canonical_edge_sorts_endpoints():
    assert canonical_edge((2, 1), (1, 1)) == ((1, 1), (2, 1))
    assert canonical_edge((1, 1), (1, 2)) == ((1, 1), (1, 2))
    with pytest.raises(InvalidParameterError):
        canonical_edge((1, 1), (1, 1))


def test_consecutive_path_listing():
    arr = make_arrangement(CONSECUTIVE_PATH, 4)
    assert arr.edges == ((1, 2), (2, 3), (3, 4))
    assert arr.traversal == (1, 2, 3, 4)


def test_skip_path_listing_and_traversal():
    arr = make_arrangement(SKIP_PATH, 6)
    assert arr.edges == ((1, 3), (2, 4), (3, 5), (4, 6), (5, 6))
    assert arr.traversal == (1, 3, 5, 6, 4, 2)
    # size 2 degenerates to the single edge (1, 2)
    assert make_arrangement(SKIP_PATH, 2).edges == ((1, 2),)
    assert make_arrangement(SKIP_PATH, 3).edges == ((1, 3), (2, 3))


def test_skip_cycle_listing_and_traversal():
    arr = make_arrangement(SKIP_CYCLE, 5)
    assert arr.edges == ((1, 2), (1, 3), (2, 4), (3, 5), (4, 5))
    assert arr.traversal == (1, 3, 5, 4, 2)
    assert make_arrangement(SKIP_CYCLE, 3).edges == ((1, 2), (1, 3), (2, 3))


@pytest.mark.parametrize("kind", [CONSECUTIVE_PATH, SKIP_PATH, SKIP_CYCLE])
@pytest.mark.parametrize("size", range(3, 26))
def test_traversal_walks_the_arrangement_once(kind, size):
    arr = make_arrangement(kind, size)
    assert sorted(arr.traversal) == list(range(1, size + 1))
    edge_set = set(arr.edges)
    steps = list(zip(arr.traversal, arr.traversal[1:]))
    if kind == SKIP_CYCLE:
        steps.append((arr.traversal[-1], arr.traversal[0]))
    walked = {canonical_edge(a, b) for a, b in steps}
    assert walked == edge_set
    assert len(steps) == len(arr.edges)


@pytest.mark.parametrize("kind", [CONSECUTIVE_PATH, SKIP_PATH, SKIP_CYCLE])
def test_endpoint_forms_match_listing(kind):
    for size in range(3 if kind == SKIP_CYCLE else 2, 30):
        edges = make_arrangement(kind, size).edges
        lo, hi = _factor_edge_endpoints(kind, size, np.arange(1, len(edges) + 1))
        assert list(zip(lo.tolist(), hi.tolist())) == list(edges)
        for k, (a, b) in enumerate(edges, start=1):
            assert _factor_edge_index(kind, size, a, b) == k
        for v in range(1, size + 1):
            at = [k for k, e in enumerate(edges, start=1) if v in e]
            assert _factor_edges_at(kind, size, v) == at
            # the starts _copy_at counts on: one edge per vertex but the last, two at a cycle's vertex 1
            starting = [k for k, (a, b) in enumerate(edges, start=1) if a == v]
            assert len(starting) == 1 + (kind == SKIP_CYCLE and v == 1) - (v == size)
        assert list(edges) == sorted(edges)
        with pytest.raises(InvalidParameterError):
            _factor_edge_index(kind, size, size, size + 1)


def test_arrangement_position_and_listing_maps():
    arr = make_arrangement(SKIP_PATH, 5)
    assert arr.edge_listing_index() == {(1, 3): 1, (2, 4): 2, (3, 5): 3, (4, 5): 4}


@pytest.mark.parametrize(
    "kind,size",
    [(CONSECUTIVE_PATH, 1), (SKIP_PATH, 1), (SKIP_CYCLE, 2), ("ring", 5)],
)
def test_bad_arrangements_rejected(kind, size):
    with pytest.raises(InvalidParameterError):
        make_arrangement(kind, size)


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec(PATH, 1),
        FamilySpec(CYCLE, 2),
        FamilySpec(LATTICE, 0, 3),
        FamilySpec(LATTICE, 3, 0),
        FamilySpec(PRISM, 2, 1),
        FamilySpec(PRISM, 3, 0),
        FamilySpec("tree", 4),
        FamilySpec(PATH, True),
        FamilySpec(PATH, 2.0),
    ],
)
def test_invalid_specs_rejected(spec):
    with pytest.raises(InvalidParameterError):
        spec.validate()


@pytest.mark.parametrize(
    "spec,nv,ne",
    [
        (FamilySpec(PATH, 7), 8, 7),
        (FamilySpec(CYCLE, 7), 7, 7),
        (FamilySpec(LATTICE, 3, 5), 24, 38),
        (FamilySpec(LATTICE, 1, 1), 4, 4),
        (FamilySpec(PRISM, 4, 3), 16, 28),
        (FamilySpec(PRISM, 3, 1), 6, 9),
        (FamilySpec(LATTICE, 1, 5), 12, 16),
        (FamilySpec(LATTICE, 5, 1), 12, 16),
        (FamilySpec(PRISM, 5, 1), 10, 15),
    ],
)
def test_counts_match_materialized_graph(spec, nv, ne):
    graph = build_graph(spec)
    assert spec.vertex_count() == nv == len(graph.vertices)
    assert spec.edge_count() == ne == len(graph.edges)


@pytest.mark.parametrize(
    "spec,row_kind,row_size,col_kind,col_size",
    [
        (FamilySpec(LATTICE, 1, 1), CONSECUTIVE_PATH, 2, CONSECUTIVE_PATH, 2),
        (FamilySpec(LATTICE, 1, 5), CONSECUTIVE_PATH, 2, SKIP_PATH, 6),
        (FamilySpec(LATTICE, 5, 1), SKIP_PATH, 6, CONSECUTIVE_PATH, 2),
        (FamilySpec(LATTICE, 3, 4), SKIP_PATH, 4, CONSECUTIVE_PATH, 5),
        (FamilySpec(LATTICE, 4, 4), SKIP_PATH, 5, CONSECUTIVE_PATH, 5),
        (FamilySpec(LATTICE, 4, 3), CONSECUTIVE_PATH, 5, SKIP_PATH, 4),
        (FamilySpec(PRISM, 5, 3), SKIP_CYCLE, 5, SKIP_PATH, 4),
        (FamilySpec(PRISM, 5, 1), SKIP_CYCLE, 5, CONSECUTIVE_PATH, 2),
    ],
)
def test_factor_dispatch(spec, row_kind, row_size, col_kind, col_size):
    kind_of_rows, kind_of_cols, rows, cols = factor_kinds(spec)
    assert (kind_of_rows, rows) == (row_kind, row_size)
    assert (kind_of_cols, cols) == (col_kind, col_size)


def test_path_and_cycle_factors():
    row_kind, col_kind, rows, _ = factor_kinds(FamilySpec(PATH, 6))
    assert (row_kind, rows) == (SKIP_PATH, 7)
    assert col_kind is None
    row_kind, col_kind, rows, _ = factor_kinds(FamilySpec(CYCLE, 6))
    assert (row_kind, rows) == (SKIP_CYCLE, 6)
    assert col_kind is None


def test_build_graph_canonical_and_consistent():
    graph = build_graph(FamilySpec(LATTICE, 2, 3))
    assert graph.edges == sorted(graph.edges)
    assert len(set(graph.edges)) == len(graph.edges)
    assert all(e == canonical_edge(*e) for e in graph.edges)
    adj = adjacency(graph)
    for v, neighbors in adj.items():
        for w in neighbors:
            assert v in adj[w]
    # grid degrees: every vertex touches one row edge or two, one col edge or two
    degrees = sorted(len(adj[v]) for v in graph.vertices)
    assert degrees[0] >= 2 and degrees[-1] <= 4


def test_path_graph_is_a_path():
    graph = build_graph(FamilySpec(PATH, 6))
    adj = adjacency(graph)
    degrees = sorted(len(adj[v]) for v in graph.vertices)
    assert degrees == [1, 1] + [2] * 5
    # the two endpoints of the underlying path are vertices 1 and 2
    assert len(adj[(1, 1)]) == 1
    assert len(adj[(2, 1)]) == 1


def test_cycle_graph_is_a_cycle():
    graph = build_graph(FamilySpec(CYCLE, 7))
    adj = adjacency(graph)
    assert all(len(adj[v]) == 2 for v in graph.vertices)


def test_prism_graph_degrees():
    graph = build_graph(FamilySpec(PRISM, 4, 2))
    # the underlying path on columns runs 1, 3, 2, so column 3 is its middle
    for (i, j), neighbors in adjacency(graph).items():
        assert len(neighbors) == (4 if j == 3 else 3)


def test_materialization_cap():
    with pytest.raises(SizeRefusalError):
        build_graph(FamilySpec(LATTICE, 10_000, 10_000))


def test_graph_from_edges_validation():
    with pytest.raises(InvalidParameterError):
        graph_from_edges([((2, 1), (1, 1))])  # not canonical
    with pytest.raises(InvalidParameterError):
        graph_from_edges([((1, 1), (2, 1)), ((1, 1), (2, 1))])  # repeated
    graph = graph_from_edges([((1, 1), (2, 1)), ((1, 1), (3, 1))])
    assert graph.spec is None
    assert graph.vertices == [(1, 1), (2, 1), (3, 1)]
    assert graph_from_edges([((-(1 << 63), 1), ((1 << 63) - 1, 1))]).edges == [((-(1 << 63), 1), ((1 << 63) - 1, 1))]


# coordinates near each other, which key by their offset into a table, and anywhere in int64, which
# key by rank and are sorted
_NEAR = st.integers(-3, 3)
_FAR = st.one_of(st.integers(-(1 << 63), (1 << 63) - 1), st.sampled_from([-(1 << 63), (1 << 63) - 1, 1 << 31]))


@given(st.one_of(*[st.lists(st.tuples(*[coordinate] * 4), max_size=30) for coordinate in (_NEAR, _NEAR | _FAR)]))
@settings(max_examples=300, deadline=None)
def test_adhoc_graph_matches_a_set_of_vertices(rows):
    edges = sorted({(min(u, v), max(u, v)) for u, v in (((r1, c1), (r2, c2)) for r1, c1, r2, c2 in rows) if u != v})
    array = np.array([(*u, *v) for u, v in edges], dtype=np.int64).reshape(-1, 4)
    graph = _adhoc_graph(array)
    vertices = sorted({point for edge in edges for point in edge})
    index = {vertex: at for at, vertex in enumerate(vertices)}
    assert graph.edge_array is array
    assert graph.vertex_array.tolist() == [list(vertex) for vertex in vertices]
    assert graph.ends.tolist() == [[index[u], index[v]] for u, v in edges]


@pytest.mark.parametrize(
    "edge,fragment",
    [
        (((1, 1), (1.5, 1)), "coordinate 3 of edge 2 must be an int, got 1.5"),
        (((True, 1), (2, 1)), "coordinate 1 of edge 2 must be an int, got True"),
        (((1, 1), (2**70, 1)), "outside the 64-bit integer range"),
    ],
)
def test_graph_from_edges_rejects_non_int64_coordinates(edge, fragment):
    # no truncation of 1.5 into a self-loop, no bool read as 1, and no numpy OverflowError
    with pytest.raises(InvalidParameterError, match=fragment):
        graph_from_edges([((1, 1), (1, 2)), edge])


@pytest.mark.parametrize(
    "edges,fragment",
    [
        ([((1, 1), (1, 2)), ((1, 1), (1, 1)), ((1, 1), (1, 2))], r"self-loop at \(1, 1\)"),
        ([((1, 1), (1, 2)), ((2, 1), (1, 1)), ((1, 1), (1, 2))], "not in canonical endpoint order"),
        ([((1, 1), (1, 2)), ((1, 1), (2, 1)), ((1, 1), (1, 2))], r"repeated edge \(\(1, 1\), \(1, 2\)\)"),
        ([((1, 1), (1, 1)), ((2, 1), (1, 1)), ((2, 1), (1, 1))], r"self-loop at \(1, 1\)"),
    ],
)
def test_graph_from_edges_checks_a_one_shot_iterable(edges, fragment):
    for given in (edges, iter(edges), (edge for edge in edges)):
        with pytest.raises(InvalidParameterError, match=fragment):
            graph_from_edges(given)


@pytest.mark.parametrize(
    "edges",
    [
        [((1, 2, 3), (4, 5, 6)), ((1, 2, 3), (4, 5, 7))],
        [((1,), (2, 1, 5))],
        [((1, 1), (1, 2)), ((1, 1), (2.5,))],
        [((1, 1), (1, 2)), ((), (1.5, 1, 1, 1))],
        # edges that do not unpack into two endpoints: three endpoints, two ints, one int, an int, None
        [((1, 1), (1, 2)), ((1, 1), (1, 2), (1, 3))],
        [((1, 1), (1, 2)), (1, 2)],
        [((1, 1), (1, 2)), (1,)],
        [((1, 1), (1, 2)), 7],
        [((1, 1), (1, 2)), None],
    ],
)
def test_graph_from_edges_refuses_endpoints_that_are_not_pairs(edges):
    with pytest.raises(InvalidParameterError, match=r"does not join two \(row, col\) pairs"):
        graph_from_edges(edges)


def test_graph_from_edges_accepts_list_pairs():
    graph = graph_from_edges([([1, 1], [2, 1]), ([1, 1], [1, 2])])
    assert graph.edges == [((1, 1), (1, 2)), ((1, 1), (2, 1))]
    with pytest.raises(InvalidParameterError, match="repeated edge"):
        graph_from_edges([([1, 1], [2, 1]), ([1, 1], [2, 1])])


def test_k2_graph():
    graph = k2_graph()
    assert graph.edges == [((1, 1), (2, 1))]
    assert graph.spec is None
