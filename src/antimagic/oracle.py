"""Ground truth by exhaustion: enumerate every edge labeling of a tiny graph.

This module recomputes vertex sums from scratch with its own loop, on
purpose: it is the independent reference the constructions and the verifier
are tested against, so it must not share their code paths.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import InvalidParameterError, SizeRefusalError
from .labelings import Labeling

#: exhaustive search walks |E|! permutations; beyond this it is refused
MAX_EXHAUSTIVE_EDGES = 10
#: random search turns every edge into Python tuples before its first trial; beyond this it is refused
MAX_RANDOM_EDGES = 1 << 16


@dataclass
class SearchResult:
    """Outcome of a search over labelings of one graph.

    ``total_labelings_checked`` counts complete labelings actually evaluated
    (with pruning enabled, subtrees that provably contain no antimagic leaf
    are skipped, so the number drops while ``antimagic_count`` stays exact).
    ``contains_constructed`` is None unless a reference labeling was given.
    """

    total_labelings_checked: int
    antimagic_count: int
    first_antimagic: Labeling | None
    contains_constructed: bool | None


def _prepared(graph):
    edges = list(graph.edges)
    if not edges:
        raise InvalidParameterError("graph has no edges")
    vindex = {v: i for i, v in enumerate(graph.vertices)}
    pairs = [(vindex[a], vindex[b]) for a, b in edges]
    return edges, pairs, len(graph.vertices)


def _as_labeling(graph, edges, values):
    if values is None:
        return None
    return Labeling(graph, dict(zip(edges, values)))


def check_search_size(edges, exhaustive=True):
    """Refuse a search over more edges than ``MAX_EXHAUSTIVE_EDGES`` or ``MAX_RANDOM_EDGES`` (read at call time)."""
    cap = MAX_EXHAUSTIVE_EDGES if exhaustive else MAX_RANDOM_EDGES
    if edges > cap:
        mode, scale = ("exhaustive", f" means {edges}! labelings") if exhaustive else ("random", "")
        raise SizeRefusalError(f"{mode} search over {edges} edges{scale}; the cap is {cap} edges")


def exhaustive_search(graph, reference=None, prune=False):
    """Count antimagic labelings by walking all |E|! bijections in lex order.

    With ``prune=True`` a partial assignment is abandoned as soon as two
    finished vertices collide; every such subtree consists of non-antimagic
    leaves only, so the antimagic count and the first antimagic labeling are
    identical to the unpruned walk.
    """
    check_search_size(len(graph.edge_array))
    edges, pairs, nv = _prepared(graph)
    ne = len(edges)
    ref = None
    if reference is not None:
        if set(reference.assignment) != set(edges):
            raise InvalidParameterError("reference labeling is not over this graph")
        ref = tuple(reference.assignment[e] for e in edges)
    if prune:
        return _exhaustive_pruned(graph, edges, pairs, nv, ref)
    checked = 0
    count = 0
    first = None
    ref_antimagic = False
    for perm in itertools.permutations(range(1, ne + 1)):
        sums = [0] * nv
        for value, (a, b) in zip(perm, pairs):
            sums[a] += value
            sums[b] += value
        ok = len(set(sums)) == nv
        checked += 1
        if ok:
            count += 1
            if first is None:
                first = perm
            if perm == ref:
                ref_antimagic = True
    return SearchResult(
        checked,
        count,
        _as_labeling(graph, edges, first),
        None if ref is None else ref_antimagic,
    )


def _exhaustive_pruned(graph, edges, pairs, nv, ref):
    ne = len(edges)
    remaining = [0] * nv
    for a, b in pairs:
        remaining[a] += 1
        remaining[b] += 1
    sums = [0] * nv
    used = [False] * (ne + 1)
    assign = [0] * ne
    finished = set()
    state = {"checked": 0, "count": 0, "first": None, "ref_ok": False}

    def dfs(depth):
        if depth == ne:
            state["checked"] += 1
            state["count"] += 1
            if state["first"] is None:
                state["first"] = tuple(assign)
            if ref is not None and tuple(assign) == ref:
                state["ref_ok"] = True
            return
        a, b = pairs[depth]
        for value in range(1, ne + 1):
            if used[value]:
                continue
            used[value] = True
            assign[depth] = value
            sums[a] += value
            sums[b] += value
            remaining[a] -= 1
            remaining[b] -= 1
            added = []
            ok = True
            for x in (a, b):
                if remaining[x] == 0:
                    if sums[x] in finished:
                        ok = False
                        break
                    finished.add(sums[x])
                    added.append(sums[x])
            if ok:
                dfs(depth + 1)
            for s in added:
                finished.discard(s)
            remaining[a] += 1
            remaining[b] += 1
            sums[a] -= value
            sums[b] -= value
            used[value] = False
    dfs(0)
    return SearchResult(
        state["checked"],
        state["count"],
        _as_labeling(graph, edges, state["first"]),
        None if ref is None else state["ref_ok"],
    )


def random_search(graph, trials, seed):
    """Sample ``trials`` uniformly random bijections and count antimagic hits.

    Shuffling is an explicit Fisher-Yates using floats from
    ``random.Random(seed)`` (Mersenne Twister), index = int(r * (i + 1)), so
    the exact sample sequence is reproducible from the seed alone.
    """
    if trials < 0:
        raise InvalidParameterError(f"trials must be >= 0, got {trials}")
    check_search_size(len(graph.edge_array), exhaustive=False)
    edges, pairs, nv = _prepared(graph)
    ne = len(edges)
    rng = random.Random(seed)
    count = 0
    first = None
    for _ in range(trials):
        values = list(range(1, ne + 1))
        for i in range(ne - 1, 0, -1):
            j = int(rng.random() * (i + 1))
            values[i], values[j] = values[j], values[i]
        sums = [0] * nv
        for value, (a, b) in zip(values, pairs):
            sums[a] += value
            sums[b] += value
        if len(set(sums)) == nv:
            count += 1
            if first is None:
                first = tuple(values)
    return SearchResult(trials, count, _as_labeling(graph, edges, first), None)
