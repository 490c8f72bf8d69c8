"""Serialization of labelings as JSON, TSV, and pinned-layout DOT.

Writers format each edge and vertex line straight from the labeling.  The
JSON and TSV forms round-trip.  A headerless file (all TSV, JSON without a
family) gets an ad-hoc graph built from the edges in the file, so external
labelings (including single-edge negative controls) can be verified.  A
headered JSON file gets the family's graph: its header must describe exactly
the edges in the file.
"""

from __future__ import annotations

import json
import math

from .errors import FormatError, InvalidParameterError
from .families import (
    CYCLE,
    FAMILIES,
    LATTICE,
    PATH,
    PRISM,
    FamilySpec,
    build_graph,
    canonical_edge,
    graph_from_edges,
)
from .labelings import Labeling
from .verification import vertex_sums


def labeling_to_json(lab):
    """Render with one edge object and one sum entry per line."""
    spec = lab.graph.spec
    header = spec.header() if spec is not None else dict.fromkeys(("family", "m", "n"))
    assignment = lab.assignment
    total = vertex_sums(lab).total
    edges = ",\n".join(
        f'    {{"u": [{u[0]}, {u[1]}], "v": [{v[0]}, {v[1]}], "label": {assignment[u, v]}}}'
        for u, v in lab.graph.edges
    )
    sums = ",\n".join(f'    "{r},{c}": {total[r, c]}' for r, c in lab.graph.vertices)
    return (
        "{\n"
        f"  {json.dumps(header)[1:-1]},\n"
        '  "edges": [\n' + edges + "\n  ],\n"
        '  "sums": {\n' + sums + "\n  }\n"
        "}\n"
    )


def labeling_tsv_lines(lab, by_label=False):
    """One "r1 c1 r2 c2 label" line per edge, tab separated."""
    items = [(edge, lab.assignment[edge]) for edge in lab.graph.edges]
    if by_label:
        items.sort(key=lambda pair: pair[1])
    for ((r1, c1), (r2, c2)), value in items:
        yield f"{r1}\t{c1}\t{r2}\t{c2}\t{value}"


def _vertex_positions(graph):
    """Plot coordinates per vertex: grids on a grid, rings on circles."""
    family = graph.spec.family if graph.spec is not None else None
    if family == PATH:
        return {(r, c): (float(r), 0.0) for r, c in graph.vertices}
    if family in (CYCLE, PRISM):  # ring position i at angle 2 pi (i-1)/m, layer j at radius j
        m = graph.spec.m
        angle = {i: 2.0 * math.pi * (i - 1) / m for i in range(1, m + 1)}
        return {(i, j): (j * math.cos(angle[i]), j * math.sin(angle[i])) for i, j in graph.vertices}
    return {(r, c): (float(c), -float(r)) for r, c in graph.vertices}


def labeling_to_dot(lab):
    """Graphviz (neato) source with pinned positions; node text is the vertex sum."""
    sums = vertex_sums(lab).total
    pos = _vertex_positions(lab.graph)
    lines = [
        "graph antimagic {",
        "  layout=neato;",
        "  node [shape=circle fontsize=10];",
        "  edge [fontsize=9];",
    ]
    for v in lab.graph.vertices:
        x, y = pos[v]
        lines.append(
            f'  "{v[0]},{v[1]}" [label="{sums[v]}" pos="{x:.3f},{y:.3f}!"];'
        )
    for (u, v) in lab.graph.edges:
        lines.append(
            f'  "{u[0]},{u[1]}" -- "{v[0]},{v[1]}" [label="{lab.assignment[(u, v)]}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _labels_from_pairs(pairs):
    """Check (endpoint-pair, label) items collected by a parser; return edge -> label."""
    labels = {}
    for (a, b), value in pairs:
        try:
            edge = canonical_edge(a, b)
        except InvalidParameterError as exc:
            raise FormatError(str(exc)) from exc
        if edge in labels:
            raise FormatError(f"repeated edge {edge}")
        labels[edge] = value
    if not labels:
        raise FormatError("no edges found")
    return labels


def parse_tsv(text):
    pairs = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise FormatError(f"line {ln}: expected 5 fields, got {len(parts)}")
        try:
            r1, c1, r2, c2, value = (int(p) for p in parts)
        except ValueError as exc:
            raise FormatError(f"line {ln}: fields must be integers") from exc
        pairs.append((((r1, c1), (r2, c2)), value))
    labels = _labels_from_pairs(pairs)
    return Labeling(graph_from_edges(sorted(labels)), labels)


def _coords(entry, key):
    raw = entry.get(key)
    if not isinstance(raw, list) or len(raw) != 2 or type(raw[0]) is not int or type(raw[1]) is not int:
        raise FormatError(f'edge field "{key}" must be a pair of integers, got {raw!r}')
    return (raw[0], raw[1])


def parse_json(text):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("edges"), list):
        raise FormatError('expected an object with an "edges" list')
    pairs = []
    for entry in doc["edges"]:
        if not isinstance(entry, dict):
            raise FormatError(f"edge entries must be objects, got {entry!r}")
        value = entry.get("label")
        if isinstance(value, bool) or not isinstance(value, int):
            raise FormatError(f"edge label must be an integer, got {value!r}")
        pairs.append(((_coords(entry, "u"), _coords(entry, "v")), value))
    labels = _labels_from_pairs(pairs)
    family = doc.get("family")
    if family is None:
        return Labeling(graph_from_edges(sorted(labels)), labels)
    if family not in FAMILIES:
        raise FormatError(f"unknown family {family!r}")
    m, n = doc.get("m"), doc.get("n")
    if isinstance(m, bool) or not isinstance(m, int):
        raise FormatError(f'"m" must be an integer, got {m!r}')
    if family in (LATTICE, PRISM):
        if isinstance(n, bool) or not isinstance(n, int):
            raise FormatError(f'"n" must be an integer for {family}, got {n!r}')
        spec = FamilySpec(family, m, n)
    else:
        spec = FamilySpec(family, m)
    try:
        spec.validate()
        graph = build_graph(spec)
    except InvalidParameterError as exc:
        raise FormatError(str(exc)) from exc
    if graph.edges != sorted(labels):
        raise FormatError(f"edges do not match {family} m={m}" + (f" n={n}" if n else ""))
    return Labeling(graph, labels)


def parse_labeling(text):
    """Sniff JSON (leading '{') vs TSV and parse accordingly."""
    if text.lstrip().startswith("{"):
        return parse_json(text)
    return parse_tsv(text)
