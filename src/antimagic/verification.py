"""Vertex sums, the antimagic check, and the structural sum-ordering properties.

The antimagic check is the contract every labeling here must pass: labels
form a bijection onto 1..|E| and the induced vertex sums are pairwise
distinct.  The property checks go further and test the ordered sum chains
that make the constructions work; they are the machine-checkable form of the
arguments behind each scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidParameterError
from .families import CYCLE, LATTICE, PATH, PRISM, FamilySpec


@dataclass
class SumReport:
    """Vertex sums, split by which factor an edge copy belongs to.

    ``component1`` collects row-direction edges (endpoints share a column),
    ``component2`` column-direction edges; ``total`` is their pointwise sum.
    Standalone paths and cycles put everything into ``component1``.
    """

    total: dict
    component1: dict
    component2: dict


def vertex_sums(lab):
    """Accumulate label sums at every vertex of ``lab``'s graph."""
    graph = lab.graph
    if set(lab.assignment) != set(graph.edges):
        raise InvalidParameterError("labeling does not cover exactly the graph's edges")
    total = dict.fromkeys(graph.vertices, 0)
    comp1 = dict.fromkeys(graph.vertices, 0)
    comp2 = dict.fromkeys(graph.vertices, 0)
    for (a, b), value in lab.assignment.items():
        total[a] += value
        total[b] += value
        part = comp1 if a[1] == b[1] else comp2
        part[a] += value
        part[b] += value
    return SumReport(total, comp1, comp2)


@dataclass
class Verdict:
    """Outcome of the antimagic check, with a certificate on failure."""

    antimagic: bool
    bijection_ok: bool
    duplicate: tuple | None = None
    missing_or_repeated_labels: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "antimagic": self.antimagic,
            "bijection_ok": self.bijection_ok,
            "duplicate": [list(v) for v in self.duplicate] if self.duplicate else None,
            "missing_or_repeated_labels": list(self.missing_or_repeated_labels),
        }

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
    expected = set(range(1, ne + 1))
    seen = set()
    repeated = set()
    out_of_range = set()
    for v in values:
        if v in seen:
            repeated.add(v)
        seen.add(v)
        if not (1 <= v <= ne):
            out_of_range.add(v)
    return sorted((expected - seen) | repeated | out_of_range)


def check_antimagic(lab):
    """Decide whether ``lab`` is an antimagic labeling of its graph.

    On a sum collision, ``duplicate`` names the lexicographically first
    offending vertex pair.  A broken bijection short-circuits: the sums are
    not evaluated and ``duplicate`` stays ``None``.
    """
    graph = lab.graph
    ne = len(graph.edges)
    covered = set(lab.assignment) == set(graph.edges)
    values = list(lab.assignment.values())
    bijection_ok = covered and sorted(values) == list(range(1, ne + 1))
    if not bijection_ok:
        return Verdict(False, False, None, _label_issues(values, ne))
    report = vertex_sums(lab)
    first_seen = {}
    candidates = []
    for v in graph.vertices:  # graph.vertices is lex sorted
        s = report.total[v]
        prev = first_seen.get(s)
        if prev is None:
            first_seen[s] = v
        elif prev is not True:
            candidates.append((prev, v))
            first_seen[s] = True  # keep only the first two per sum
    duplicate = min(candidates) if candidates else None
    return Verdict(duplicate is None, True, duplicate, [])


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
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "certificate": c.certificate,
                    "note": c.note,
                }
                for c in self.checks
            ],
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


def _cert_vertex(v, transposed):
    r, c = (v[1], v[0]) if transposed else v
    return [r, c]


def _chain_check(name, chain, total, transposed, note=None):
    """Strictly increasing sums along ``chain`` (a list of vertices)."""
    if not chain:
        return PropertyCheck(name, True, note="empty range")
    for x, y in zip(chain, chain[1:]):
        if not total[x] < total[y]:
            cert = {
                "vertices": [_cert_vertex(x, transposed), _cert_vertex(y, transposed)],
                "sums": [total[x], total[y]],
            }
            return PropertyCheck(name, False, cert, note)
    return PropertyCheck(name, True, note=note)


def _parity_check(name, vertices, total, want_even, transposed):
    for v in vertices:
        if total[v] % 2 != (0 if want_even else 1):
            cert = {"vertex": _cert_vertex(v, transposed), "sum": total[v]}
            return PropertyCheck(name, False, cert)
    return PropertyCheck(name, True)


def _distinct_check(name, vertices, total, transposed):
    seen = {}
    for v in vertices:
        s = total[v]
        if s in seen:
            cert = {
                "vertices": [_cert_vertex(seen[s], transposed), _cert_vertex(v, transposed)],
                "sum": s,
            }
            return PropertyCheck(name, False, cert)
        seen[s] = v
    return PropertyCheck(name, True)


def _grid_interior_checks(m, n, total, transposed):
    # interior columns 2..n, row by row; the last row stops 2t columns early
    t = (n - m) // 2
    chain = [(i, j) for i in range(1, m + 1) for j in range(2, n + 1)]
    chain += [(m + 1, j) for j in range(2, n - 2 * t + 1)]
    checks = [
        _parity_check("interior-sums-even", chain, total, True, transposed),
        _chain_check("interior-even-chain", chain, total, transposed),
    ]
    interior = set(chain)
    rest = [v for v in sorted(total) if v not in interior]
    checks.append(_parity_check("boundary-sums-odd", rest, total, False, transposed))
    checks.append(_distinct_check("boundary-odd-distinct", rest, total, transposed))
    if m % 2 == 0:
        lo, hi = total[(2, n + 1)], total[(2, 1)]
        ok = lo == 6 * n + 3 and hi == 6 * n + 5
        cert = None
        if not ok:
            cert = {
                "vertices": [_cert_vertex((2, n + 1), transposed), _cert_vertex((2, 1), transposed)],
                "sums": [lo, hi],
                "expected": [6 * n + 3, 6 * n + 5],
            }
        checks.append(PropertyCheck("even-m-anchor-swap", ok, cert))
    return checks


def _prism_column_checks(m, n, total, transposed):
    reversed_second = n % 2 == 0
    checks = []
    flat = []
    for j in range(1, n + 2):
        column = [(i, j) for i in range(1, m + 1)]
        if reversed_second and j == 2:
            checks.append(
                _chain_check("layer-2-reversed-chain", list(reversed(column)), total, transposed)
            )
        else:
            checks.append(_chain_check(f"layer-{j}-chain", column, total, transposed))
        flat.extend(sorted(total[v] for v in column))
    ok = all(x < y for x, y in zip(flat, flat[1:]))
    cert = None
    if not ok:
        idx = next(i for i, (x, y) in enumerate(zip(flat, flat[1:])) if not x < y)
        cert = {"sorted_sums": [flat[idx], flat[idx + 1]]}
    checks.append(PropertyCheck("layers-ascending-blocks", ok, cert))
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
    total = vertex_sums(lab).total
    transposed = spec.family == LATTICE and spec.m > spec.n
    if transposed:
        spec_eval = FamilySpec(LATTICE, spec.n, spec.m)
        total = {(c, r): value for (r, c), value in total.items()}
    else:
        spec_eval = spec
    m, n = spec_eval.m, spec_eval.n
    if spec_eval.family == PATH:
        chain = [(i, 1) for i in range(1, m + 2)]
        checks = [_chain_check("path-chain", chain, total, transposed)]
    elif spec_eval.family == CYCLE:
        chain = [(i, 1) for i in range(1, m + 1)]
        checks = [_chain_check("cycle-chain", chain, total, transposed)]
    elif spec_eval.family == PRISM:
        if n >= 2:
            checks = _prism_column_checks(m, n, total, transposed)
        else:
            chain = [(i, j) for i in range(1, m + 1) for j in (1, 2)]
            checks = [_chain_check("two-layer-chain", chain, total, transposed)]
    elif m >= 2:
        checks = _grid_interior_checks(m, n, total, transposed)
    elif n >= 2:
        chain = [(i, j) for j in range(1, n + 2) for i in (1, 2)]
        checks = [_chain_check("thin-interleaved-chain", chain, total, transposed)]
    else:
        chain = [(1, 1), (2, 1), (1, 2), (2, 2)]
        checks = [_chain_check("square-chain", chain, total, transposed)]
    return PropertyReport(spec, transposed, checks)
