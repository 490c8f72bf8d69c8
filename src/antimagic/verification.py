"""Vertex sums, the antimagic check, and the structural sum-ordering properties.

The antimagic check is the contract every labeling here must pass: labels
form a bijection onto 1..|E| and the induced vertex sums are pairwise
distinct.  The property checks go further and test the ordered sum chains
that make the constructions work; they are the machine-checkable form of the
arguments behind each scheme.  Both read a labeling, or just its label counts
and vertex sums in a :class:`Tally`, through one core each.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import InvalidParameterError
from .families import CYCLE, LATTICE, PATH, PRISM, FamilySpec, _first_repeat


@dataclass(eq=False)
class SumReport:
    """Vertex sums of a labeling, aligned with its graph's ``vertex_array``.

    ``sums`` holds the total at every vertex.  The read-only vertex -> sum
    views ``total``, ``component1`` (row-direction edges: endpoints share a
    column) and ``component2`` (column-direction edges) are built on first
    read; standalone paths and cycles put everything into ``component1``.
    """

    graph: object
    labels: np.ndarray
    sums: np.ndarray

    def _view(self, same_column=None):
        sums = self.sums
        if same_column is not None:
            edges = self.graph.edge_array
            sums = _incident_sums(self.graph, self.labels * ((edges[:, 1] == edges[:, 3]) == same_column))
        return MappingProxyType(dict(zip(self.graph.vertices, sums.tolist())))

    total = cached_property(_view)
    component1 = cached_property(lambda self: self._view(True))
    component2 = cached_property(lambda self: self._view(False))


def _incident_sums(graph, labels, peak=None):
    """Exact sum of ``labels`` over the edges at each vertex; ``peak``, if given, bounds their magnitude."""
    count = len(graph.vertex_array)
    if peak is None:
        peak = max(-int(labels.min(initial=0)), int(labels.max(initial=0)))
    if peak * len(labels) < 1 << 53:
        # no partial sum reaches 2**53, so the float accumulation is exact
        sums = np.bincount(graph.ends[:, 0], labels, count) + np.bincount(graph.ends[:, 1], labels, count)
        return sums.astype(np.int64)
    sums = np.zeros(count, dtype=object)
    for ends in graph.ends.T:
        np.add.at(sums, ends, labels.astype(object))
    return sums


def _labels(lab):
    """``lab``'s label array; a mapping that misses or adds edges raises."""
    if lab.labels is None:
        raise InvalidParameterError("labeling does not cover exactly the graph's edges")
    return lab.labels


def vertex_sums(lab):
    """Accumulate label sums at every vertex of ``lab``'s graph."""
    return SumReport(lab.graph, labels := _labels(lab), _incident_sums(lab.graph, labels))


@dataclass
class Verdict:
    """Outcome of the antimagic check, with a certificate on failure."""

    antimagic: bool
    bijection_ok: bool
    duplicate: tuple | None = None
    missing_or_repeated_labels: list = field(default_factory=list)

    def to_json_dict(self):
        doc = asdict(self)  # antimagic, bijection_ok, duplicate, missing_or_repeated_labels
        doc["duplicate"] = [list(v) for v in self.duplicate] if self.duplicate else None
        return doc

    def to_text_lines(self):
        lines = [f"antimagic: {'yes' if self.antimagic else 'no'}"]
        if not self.bijection_ok:
            lines.append("labels are not a bijection onto 1..|E|")
            if self.missing_or_repeated_labels:
                shown = ", ".join(str(x) for x in self.missing_or_repeated_labels[:20])
                lines.append(f"missing or repeated labels: {shown}")
        elif self.duplicate is not None:
            (r1, c1), (r2, c2) = self.duplicate
            lines.append(f"equal sums at ({r1},{c1}) and ({r2},{c2})")
        return lines


@dataclass(eq=False)
class Tally:
    """What the checks read of a labeling: how often each label occurs, and the vertex sums.

    ``counts[x]`` counts label x of 1..|E| (capped at 2 or more; ``counts[0]`` is 0) and
    ``outside`` holds the labels outside 1..|E|.  ``sums`` holds the vertex sums in vertex order,
    ``vertex(i)`` gives the i-th vertex as an ``(r, c)`` tuple, and ``spec`` is the family's spec,
    None for an ad-hoc graph.  The command line reads a file into one without holding its edges.
    """

    spec: FamilySpec | None
    counts: np.ndarray | None
    outside: np.ndarray | None
    sums: np.ndarray
    vertex: object = None


def _counts(labels, ne):
    """How often each of 0..ne occurs in ``labels`` (0 never does), and the labels outside 1..ne."""
    counts = np.bincount(np.minimum(np.maximum(labels, 0), ne + 1), minlength=ne + 2)
    outside = labels[(labels < 1) | (labels > ne)] if counts[0] or counts[ne + 1] else labels[:0]
    counts[0] = 0
    return counts[: ne + 1], outside


def _label_issues(counts, outside):
    """Labels missing from, repeated in, or outside 1..ne, ascending, from a :class:`Tally`'s ``counts`` and ``outside``."""
    if not outside.size and np.count_nonzero(counts == 1) == len(counts) - 1:  # counts[0] is 0
        return []
    return sorted(set(outside.tolist()) | set((np.flatnonzero(counts[1:] != 1) + 1).tolist()))


def _verdict(counts, outside, sums, vertex):
    """The verdict from label ``counts`` and ``outside`` labels, and ``sums()``, the vertex sums in vertex order.

    ``sums`` is called only if the labels are a bijection.  Vertices are sorted, and the stable
    sort keeps each sum's vertices in order: the pair starting at the least repeated vertex comes first.
    """
    issues = _label_issues(counts, outside)
    if issues:
        return Verdict(False, False, None, issues)
    sums = sums()
    order = np.argsort(sums, kind="stable")
    ordered = sums[order]
    repeated = np.flatnonzero(ordered[1:] == ordered[:-1])
    if not repeated.size:
        return Verdict(True, True, None, [])
    at = repeated[np.argmin(order[repeated])]
    return Verdict(False, True, (vertex(int(order[at])), vertex(int(order[at + 1]))), [])


def check_antimagic(lab):
    """Decide whether ``lab``, a labeling or a :class:`Tally`, is an antimagic labeling of its graph.

    On a sum collision, ``duplicate`` names the lexicographically first
    offending vertex pair.  A broken bijection short-circuits: the sums are
    not evaluated and ``duplicate`` stays ``None``.
    """
    if isinstance(lab, Tally):
        return _verdict(lab.counts, lab.outside, lambda: lab.sums, lab.vertex)
    ne = len(lab.graph.edge_array)
    if lab.labels is None:  # a mapping that misses or adds edges
        values = np.array(list(lab.assignment.values()), np.int64)
        return Verdict(False, False, None, _label_issues(*_counts(values, ne)))
    graph = lab.graph
    return _verdict(
        *_counts(lab.labels, ne),
        lambda: _incident_sums(graph, lab.labels, ne),  # labels 1..ne: no sum reaches 2**53
        lambda i: tuple(graph.vertex_array[i].tolist()),
    )


@dataclass
class PropertyCheck:
    """One named structural property with a certificate on failure."""

    name: str
    passed: bool
    certificate: dict | None = None
    note: str | None = None


@dataclass
class PropertyReport:
    """All structural properties evaluated for one labeling."""

    spec: FamilySpec
    transposed: bool
    checks: list

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_json_dict(self):
        return {
            **self.spec.header(),
            "evaluated_transposed": self.transposed,
            "all_passed": self.all_passed,
            "checks": [asdict(c) for c in self.checks],  # name, passed, certificate, note
        }

    def to_text_lines(self):
        lines = []
        for c in self.checks:
            line = f"{'PASS' if c.passed else 'FAIL'} {c.name}"
            if c.note:
                line += f" ({c.note})"
            if not c.passed and c.certificate is not None:
                line += f" {c.certificate}"
            lines.append(line)
        lines.append(f"{'PASS' if self.all_passed else 'FAIL'} overall")
        return lines


def _chain_check(name, sums, vertex):
    """Strictly increasing ``sums``, a 1-D array along a chain whose i-th vertex is ``vertex(i)``."""
    if len(sums) == 0:
        return PropertyCheck(name, True, note="empty range")
    bad = np.flatnonzero(sums[:-1] >= sums[1:])
    if bad.size:
        at = int(bad[0])
        cert = {"vertices": [vertex(at), vertex(at + 1)], "sums": [int(sums[at]), int(sums[at + 1])]}
        return PropertyCheck(name, False, cert)
    return PropertyCheck(name, True)


def _parity_check(name, sums, vertex, want_even):
    bad = np.flatnonzero(sums % 2 != (0 if want_even else 1))
    if bad.size:
        return PropertyCheck(name, False, {"vertex": vertex(int(bad[0])), "sum": int(sums[bad[0]])})
    return PropertyCheck(name, True)


def _distinct_check(name, sums, vertex):
    repeat = _first_repeat(sums[:, None])
    if repeat is not None:
        earlier, later = repeat
        return PropertyCheck(name, False, {"vertices": [vertex(earlier), vertex(later)], "sum": int(sums[later])})
    return PropertyCheck(name, True)


def _grid_checks(m, n, total):
    """The m x n grid's sum orderings, read in the transpose of a tall grid; certificates name the caller's vertices.

    Each check reads a slice or a masked gather of the sum matrix ``total``; a vertex is located
    only for a certificate.
    """
    flip = m > n
    m, n = sorted((m, n))
    total = total.T if flip else total

    def vertex(a, b):  # the 0-based (a, b) of the m <= n grid, in the caller's 1-based coordinates
        return [b + 1, a + 1] if flip else [a + 1, b + 1]

    def at(mask):  # the vertex of the i-th True of ``mask``
        return lambda i: vertex(*divmod(int(np.flatnonzero(mask)[i]), n + 1))

    if m == 1:  # column by column
        name = "thin-interleaved-chain" if n >= 2 else "square-chain"
        return [_chain_check(name, total.T.ravel(), lambda i: vertex(i % 2, i // 2))]
    # interior columns 2..n, row by row; the last row stops 2t columns early
    t = (n - m) // 2
    interior = np.zeros((m + 1, n + 1), dtype=bool)
    interior[:m, 1:n] = True
    interior[m, 1 : n - 2 * t] = True
    chain = total[interior]
    checks = [
        _parity_check("interior-sums-even", chain, at(interior), True),
        _chain_check("interior-even-chain", chain, at(interior)),
    ]
    del chain
    rest = ~interior
    checks += [
        _parity_check("boundary-sums-odd", total[rest], at(rest), False),
        _distinct_check("boundary-odd-distinct", total[rest], at(rest)),
    ]
    if m % 2 == 0:
        lo, hi = int(total[1, n]), int(total[1, 0])
        ok = lo == 6 * n + 3 and hi == 6 * n + 5
        cert = None
        if not ok:
            cert = {
                "vertices": [vertex(1, n), vertex(1, 0)],
                "sums": [lo, hi],
                "expected": [6 * n + 3, 6 * n + 5],
            }
        checks.append(PropertyCheck("even-m-anchor-swap", ok, cert))
    return checks


def _prism_column_checks(m, n, total):
    reversed_second = n % 2 == 0
    checks = []
    for j in range(1, n + 2):
        if reversed_second and j == 2:
            checks.append(_chain_check("layer-2-reversed-chain", total[::-1, 1], lambda i: [m - i, 2]))
        else:
            checks.append(_chain_check(f"layer-{j}-chain", total[:, j - 1], lambda i, j=j: [i + 1, j]))
    columns = total.T.copy()
    columns.sort()
    flat = columns.ravel()
    bad = np.flatnonzero(flat[:-1] >= flat[1:])
    cert = None
    if bad.size:
        cert = {"sorted_sums": [int(flat[bad[0]]), int(flat[bad[0] + 1])]}
    checks.append(PropertyCheck("layers-ascending-blocks", not bad.size, cert))
    return checks


def check_paper_properties(spec, lab):
    """Evaluate the structural sum orderings appropriate for ``spec``; ``lab`` is a labeling or a :class:`Tally`.

    Grid shapes with m > n are evaluated in transposed orientation (the one
    the construction actually works in); certificates are mapped back to the
    caller's coordinates.
    """
    spec.validate()
    if lab.spec != spec:
        raise InvalidParameterError("labeling was not produced for this spec")
    # the sum at vertex (r, c) sits at total[r - 1, c - 1]
    sums = lab.sums if isinstance(lab, Tally) else vertex_sums(lab).sums
    total = sums.reshape(spec.row_count(), spec.col_count())
    m, n = spec.m, spec.n
    if spec.family in (PATH, CYCLE):
        checks = [_chain_check(f"{spec.family}-chain", total[:, 0], lambda i: [i + 1, 1])]
    elif spec.family == PRISM:
        if n >= 2:
            checks = _prism_column_checks(m, n, total)
        else:
            checks = [_chain_check("two-layer-chain", total.ravel(), lambda i: [i // 2 + 1, i % 2 + 1])]
    else:
        checks = _grid_checks(m, n, total)
    return PropertyReport(spec, spec.family == LATTICE and m > n, checks)
