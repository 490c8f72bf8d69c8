"""Vertex sums, the antimagic check, and the structural sum-ordering properties.

The antimagic check is the contract every labeling here must pass: labels
form a bijection onto 1..|E| and the induced vertex sums are pairwise
distinct.  The property checks go further and test the ordered sum chains
that make the constructions work; they are the machine-checkable form of the
arguments behind each scheme.
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


def _incident_sums(graph, labels):
    """Exact sum of ``labels`` over the edges at each vertex."""
    count = len(graph.vertex_array)
    if max(-int(labels.min(initial=0)), int(labels.max(initial=0))) * len(labels) < 1 << 53:
        # no partial sum reaches 2**53, so the float accumulation is exact
        sums = np.bincount(graph.ends[:, 0], labels, count) + np.bincount(graph.ends[:, 1], labels, count)
        return sums.astype(np.int64)
    sums = np.zeros(count, dtype=object)
    for ends in graph.ends.T:
        np.add.at(sums, ends, labels.astype(object))
    return sums


def vertex_sums(lab):
    """Accumulate label sums at every vertex of ``lab``'s graph."""
    if lab.labels is None:
        raise InvalidParameterError("labeling does not cover exactly the graph's edges")
    return SumReport(lab.graph, lab.labels, _incident_sums(lab.graph, lab.labels))


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


def _label_issues(values, ne):
    """Labels missing from, repeated in, or outside 1..ne, ascending."""
    values = np.sort(values)
    repeated = values[1:][values[1:] == values[:-1]]
    outside = values[(values < 1) | (values > ne)]
    missing = np.setdiff1d(np.arange(1, ne + 1), values)
    return sorted(set(repeated.tolist()) | set(outside.tolist()) | set(missing.tolist()))


def check_antimagic(lab):
    """Decide whether ``lab`` is an antimagic labeling of its graph.

    On a sum collision, ``duplicate`` names the lexicographically first
    offending vertex pair.  A broken bijection short-circuits: the sums are
    not evaluated and ``duplicate`` stays ``None``.
    """
    ne = len(lab.graph.edge_array)
    if lab.labels is None:
        return Verdict(False, False, None, _label_issues(np.array(list(lab.assignment.values())), ne))
    if not (np.sort(lab.labels) == np.arange(1, ne + 1)).all():
        return Verdict(False, False, None, _label_issues(lab.labels, ne))
    sums = vertex_sums(lab).sums
    order = np.argsort(sums, kind="stable")
    repeated = (sums[order[1:]] == sums[order[:-1]]).nonzero()[0]
    if not repeated.size:
        return Verdict(True, True, None, [])
    # vertices are sorted, and the stable sort keeps each sum's vertices in
    # order: the pair starting at the least repeated vertex comes first
    at = repeated[np.argmin(order[repeated])]
    vertices = lab.graph.vertex_array
    return Verdict(False, True, (tuple(vertices[order[at]].tolist()), tuple(vertices[order[at + 1]].tolist())), [])


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


def _coords(rows, cols, by_column=False):
    """The (r, c) pairs of ``rows`` x ``cols`` as (L, 2) rows, row by row or column by column."""
    r, c = np.meshgrid(rows, cols, indexing="xy" if by_column else "ij")
    return np.stack((r.ravel(), c.ravel()), axis=1)


def _sums_at(total, vertices):
    return total[vertices[:, 0] - 1, vertices[:, 1] - 1]


def _chain_check(name, chain, total, note=None):
    """Strictly increasing sums along ``chain``, (L, 2) vertex rows, in the sum matrix ``total``."""
    if len(chain) == 0:
        return PropertyCheck(name, True, note="empty range")
    sums = _sums_at(total, chain)
    bad = np.flatnonzero(sums[:-1] >= sums[1:])
    if bad.size:
        at = bad[0]
        cert = {
            "vertices": [chain[at].tolist(), chain[at + 1].tolist()],
            "sums": [int(sums[at]), int(sums[at + 1])],
        }
        return PropertyCheck(name, False, cert, note)
    return PropertyCheck(name, True, note=note)


def _parity_check(name, vertices, total, want_even):
    sums = _sums_at(total, vertices)
    bad = np.flatnonzero(sums % 2 != (0 if want_even else 1))
    if bad.size:
        cert = {"vertex": vertices[bad[0]].tolist(), "sum": int(sums[bad[0]])}
        return PropertyCheck(name, False, cert)
    return PropertyCheck(name, True)


def _distinct_check(name, vertices, total):
    sums = _sums_at(total, vertices)
    repeat = _first_repeat(sums[:, None])
    if repeat is not None:
        earlier, later = repeat
        cert = {
            "vertices": [vertices[earlier].tolist(), vertices[later].tolist()],
            "sum": int(sums[later]),
        }
        return PropertyCheck(name, False, cert)
    return PropertyCheck(name, True)


def _grid_checks(m, n, total):
    """The m x n grid's sum orderings; a tall grid's vertex rows are laid out in its transpose and flipped back."""
    flip = -1 if m > n else 1
    m, n = sorted((m, n))
    if m == 1:
        chain = _coords([1, 2], range(1, n + 2), by_column=True)[:, ::flip]
        return [_chain_check("thin-interleaved-chain" if n >= 2 else "square-chain", chain, total)]
    # interior columns 2..n, row by row; the last row stops 2t columns early
    t = (n - m) // 2
    interior = np.zeros((m + 1, n + 1), dtype=bool)
    interior[:m, 1:n] = True
    interior[m, 1 : n - 2 * t] = True
    chain = (np.argwhere(interior) + 1)[:, ::flip]
    rest = (np.argwhere(~interior) + 1)[:, ::flip]
    checks = [
        _parity_check("interior-sums-even", chain, total, True),
        _chain_check("interior-even-chain", chain, total),
        _parity_check("boundary-sums-odd", rest, total, False),
        _distinct_check("boundary-odd-distinct", rest, total),
    ]
    if m % 2 == 0:
        anchors = np.array([[2, n + 1], [2, 1]])[:, ::flip]
        lo, hi = _sums_at(total, anchors).tolist()
        ok = lo == 6 * n + 3 and hi == 6 * n + 5
        cert = None
        if not ok:
            cert = {
                "vertices": anchors.tolist(),
                "sums": [lo, hi],
                "expected": [6 * n + 3, 6 * n + 5],
            }
        checks.append(PropertyCheck("even-m-anchor-swap", ok, cert))
    return checks


def _prism_column_checks(m, n, total):
    reversed_second = n % 2 == 0
    checks = []
    for j in range(1, n + 2):
        column = _coords(range(1, m + 1), [j])
        if reversed_second and j == 2:
            checks.append(_chain_check("layer-2-reversed-chain", column[::-1], total))
        else:
            checks.append(_chain_check(f"layer-{j}-chain", column, total))
    flat = np.sort(total, axis=0).T.ravel()
    bad = np.flatnonzero(flat[:-1] >= flat[1:])
    cert = None
    if bad.size:
        cert = {"sorted_sums": [int(flat[bad[0]]), int(flat[bad[0] + 1])]}
    checks.append(PropertyCheck("layers-ascending-blocks", not bad.size, cert))
    return checks


def check_paper_properties(spec, lab):
    """Evaluate the structural sum orderings appropriate for ``spec``.

    Grid shapes with m > n are evaluated in transposed orientation (the one
    the construction actually works in); certificates are mapped back to the
    caller's coordinates.
    """
    spec.validate()
    if lab.graph.spec != spec:
        raise InvalidParameterError("labeling was not produced for this spec")
    # the sum at vertex (r, c) sits at total[r - 1, c - 1]
    total = vertex_sums(lab).sums.reshape(spec.row_count(), spec.col_count())
    m, n = spec.m, spec.n
    if spec.family == PATH:
        checks = [_chain_check("path-chain", _coords(range(1, m + 2), [1]), total)]
    elif spec.family == CYCLE:
        checks = [_chain_check("cycle-chain", _coords(range(1, m + 1), [1]), total)]
    elif spec.family == PRISM:
        if n >= 2:
            checks = _prism_column_checks(m, n, total)
        else:
            chain = _coords(range(1, m + 1), [1, 2])
            checks = [_chain_check("two-layer-chain", chain, total)]
    else:
        checks = _grid_checks(m, n, total)
    return PropertyReport(spec, spec.family == LATTICE and m > n, checks)
