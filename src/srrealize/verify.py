"""Dimension-level verification of the colimit construction.

Gluing one facet at a time expresses the complex as iterated pushouts; on
Stanley-Reisner rings that gives, for every even degree d,

    dim SR(K_j)^d = dim SR(K_{j-1})^d + dim Z[s_j]^d - dim SR(K_{j-1} /\\ s_j)^d

where K_j is the complex on the first j facets and s_j is the facet added
at step j.  The check grows one family of faces a step at a time: F_0 is
{empty face}, the point; at step j, Q_j = {s_j & t : t in F_{j-1}} and
F_j = F_{j-1} | Q_j | {s_j}.  F_j is closed under intersection and holds
the facets of K_j; Q_j is closed under intersection and holds the facets of
K_{j-1} /\\ s_j (the empty face alone when s_j meets nothing before it, the
point again).  The intersection side is its own Moebius sum
(hilbert.mobius_hilbert) over Q_j, dim Z[s_j] is free_hilbert, and
dim SR(K_{j-1}) is the previous step's union side.

The union side, the Moebius sum over F_j, is carried from step to step and
updated.  The elements of F_j inside s_j are exactly Q_j and s_j (an element
of F_{j-1} inside s_j is its own meet with s_j), and the weight of an
element depends only on the elements above it and their weights.  Every new
element lies inside s_j, so none lies above an element outside s_j, and no
weight outside s_j changes.  Step j reweighs Q_j and s_j alone, through
hilbert.moebius_weights with the outside weights grouped by their meet with
s_j, the one weighing loop, and adds the sum of (change in weight) *
dim Z[r] over them.
The check still checks: that added sum equals dim Z[s_j] minus the sum over
Q_j only because Moebius sums over both families count SR rings exactly (the
argument in hilbert), and the update never reads the free or the
intersection side.  A wrong weight or a wrong update fails a row.

A StepRecord keeps the step's four Hilbert functions, not its rows: its
previous side is the last step's union tuple itself (the point's at step
1).  The rows, (degree, union, previous, free, intersection, ok) per even
degree, exist only while a report is checked or written (StepRecord.rows).

verify_construction couples the recurrence with two per-diagram checks:
every node label has the free cohomology of its simplex (equal Hilbert
functions up to the truncation), and every edge's induced generator map is
the Stanley-Reisner projection.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import takewhile
from json.encoder import encode_basestring_ascii
from typing import Iterator

from .complexes import (
    ComplexError,
    ComplexWithDegrees,
    DegreeMultiset,
    bitmasks,
    simplex_key,
)
from .diagram import (
    ColimitDiagram,
    CPInfPower,
    DiagramNode,
    NoCanonicalMap,
    Point,
    SpaceLabel,
    expected_block_maps,
    json_container,
    json_record,
    json_strings,
    json_value,
    lie_degrees,
    node_name,
    partition_issues,
)
from .hilbert import (
    Hilbert,
    add_free_hilbert,
    check_truncation,
    free_hilbert,
    mobius_hilbert,
    moebius_weights,
)


@dataclass
class StepRecord:
    """Step index, which glues on facet: the Hilbert functions of SR(K_j),
    SR(K_{j-1}), Z[s_j] and SR(K_{j-1} /\\ s_j), indexed by degree / 2."""
    index: int
    facet: tuple[str, ...]
    union: Hilbert
    previous: Hilbert
    free: Hilbert
    intersection: Hilbert

    def rows(self) -> Iterator[tuple[int, int, int, int, int, bool]]:
        """(degree, union, previous, free, intersection, ok) per even degree."""
        sides = zip(self.union, self.previous, self.free, self.intersection)
        return ((2 * i, u, p, f, q, u == p + f - q)
                for i, (u, p, f, q) in enumerate(sides))

    @property
    def ok(self) -> bool:
        return all(row[5] for row in self.rows())


@dataclass
class NodeCheck:
    name: str
    first_bad_degree: int | None = None
    expected: int | None = None
    got: int | None = None

    @property
    def ok(self) -> bool:
        return self.first_bad_degree is None


@dataclass
class EdgeCheck:
    source: str
    target: str
    detail: str = ""  # why the edge fails; empty when it passes

    @property
    def ok(self) -> bool:
        return not self.detail


@dataclass
class VerificationReport:
    truncation: int
    structure_issues: list[str] = field(default_factory=list)
    node_checks: list[NodeCheck] = field(default_factory=list)
    edge_checks: list[EdgeCheck] = field(default_factory=list)
    steps: list[StepRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.first_discrepancy is None

    @property
    def first_discrepancy(self) -> str | None:
        if self.structure_issues:
            return self.structure_issues[0]
        for n in self.node_checks:
            if not n.ok:
                return (
                    f"node {n.name}: label dimension {n.got} != {n.expected} "
                    f"at degree {n.first_bad_degree}"
                )
        for e in self.edge_checks:
            if not e.ok:
                return f"edge {e.source} -> {e.target}: {e.detail}"
        for s in self.steps:
            for d, u, p, f, q, ok in s.rows():
                if not ok:
                    return (f"step {s.index} (facet {list(s.facet)}), degree "
                            f"{d}: {u} != {p} + {f} - {q}")
        return None

    def to_json(self) -> str:
        """The report as JSON text, from the record templates."""
        first = self.first_discrepancy
        nodes = [
            _NODE % (encode_basestring_ascii(n.name), json_value(n.ok),
                     json_value(n.first_bad_degree), json_value(n.expected),
                     json_value(n.got))
            for n in self.node_checks
        ]
        edges = [
            _EDGE % (encode_basestring_ascii(e.source),
                     encode_basestring_ascii(e.target), json_value(e.ok),
                     encode_basestring_ascii(e.detail))
            for e in self.edge_checks
        ]
        steps = [
            _STEP % (s.index, json_strings(s.facet, 3), json_value(s.ok),
                     json_container("[", [_ROW % row[:5] for row in s.rows()],
                                    "]", 3))
            for s in self.steps
        ]
        return _REPORT % (
            self.truncation, json_value(first is None), json_value(first),
            json_strings(self.structure_issues, 1),
            json_container("[", nodes, "]", 1),
            json_container("[", edges, "]", 1),
            json_container("[", steps, "]", 1),
        )

    def to_text(self) -> str:
        first = self.first_discrepancy
        lines = [f"verification up to degree {self.truncation}: "
                 + ("PASS" if first is None else f"FAIL ({first})")]
        for issue in self.structure_issues:
            lines.append(f"  structure: {issue}")
        for n in self.node_checks:
            lines.append(f"  node {n.name}: " + ("ok" if n.ok else
                         f"mismatch at degree {n.first_bad_degree} "
                         f"({n.got} != {n.expected})"))
        for e in self.edge_checks:
            lines.append(f"  edge {e.source} -> {e.target}: "
                         + ("ok" if e.ok else e.detail))
        for s in self.steps:
            lines.append(f"  step {s.index} facet {list(s.facet)}: "
                         + ("ok" if s.ok else "FAIL"))
            lines.extend(
                f"    d={d}: {u} = {p} + {f} - {q}" + ("" if ok else "  <- mismatch")
                for d, u, p, f, q, ok in s.rows()
            )
        return "\n".join(lines) + "\n"


# The report's records, laid out as diagram.json_record lays them out.
_REPORT = json_record(0, "D", "passed", "first_discrepancy", "structure",
                      "nodes", "edges", "steps") + "\n"
_NODE = json_record(2, "name", "ok", "first_bad_degree", "expected", "got")
_EDGE = json_record(2, "from", "to", "ok", "detail")
_STEP = json_record(2, "index", "facet", "ok", "rows")
_ROW = json_container("[", ["%d"] * 5, "]", 4)


def pushout_recurrence_check(c: ComplexWithDegrees, truncation: int) -> VerificationReport:
    """Check the facet-by-facet gluing recurrence for every even degree up to
    the truncation, in the complex's facet order."""
    check_truncation(truncation)
    report = VerificationReport(truncation)
    family = {0}  # F_0, the point
    weight = {0: 1}  # the nonzero Moebius weights over the family
    prev_h = (1,) + (0,) * (truncation // 2)
    for j, (facet, s) in enumerate(zip(c.facets, bitmasks(c, c.facets)), start=1):
        meet = {s & t for t in family}  # Q_j
        family |= meet
        family.add(s)  # F_j
        # Only the elements inside s, Q_j and s, are reweighed.  above[k] is
        # the weight of the elements outside s whose meet with s is k: an
        # element outside s lies above r inside s exactly when its meet does.
        above: dict[int, int] = {}
        for t, w in weight.items():
            if t & s != t:
                above[t & s] = above.get(t & s, 0) + w
        inside = meet | {s}
        new = moebius_weights(inside, above)
        change: dict[int, int] = {}
        for r in inside:
            delta = new.get(r, 0) - weight.pop(r, 0)
            if delta:
                change[r] = delta
        weight.update(new)
        cur_h = add_free_hilbert(c, prev_h, change)
        report.steps.append(StepRecord(
            j, simplex_key(facet), cur_h, prev_h,
            free_hilbert(tuple(c.degree_map[v] for v in facet), truncation),
            mobius_hilbert(c, meet, truncation),
        ))
        prev_h = cur_h
    return report


def _binding_issues(
    c: ComplexWithDegrees, node: DiagramNode, blocks: tuple[tuple[str, ...], ...]
) -> list[str]:
    """Factor i of a node must stand for partition block i met with the
    node's simplex: its cp_vertices are the meet's degree-2 vertices in id
    order, a CP^inf^k factor has k >= 1 of them and a point none, and its
    lie_vertices are the rest of the meet in ascending degree, carrying
    exactly the degrees of the factor's Lie generators.  The facts are
    spelled out here rather than recomputed by label_node, so a fault there
    cannot vouch for itself."""
    if len(node.blocks) != len(blocks):
        return [f"node {node.name} has {len(node.blocks)} factors for "
                f"{len(blocks)} partition blocks"]
    simplex = frozenset(node.simplex)
    issues = []
    for i, (bl, block) in enumerate(zip(node.blocks, blocks)):
        meet = [v for v in block if v in simplex]
        cp = sorted(v for v in meet if c.degree_map[v] == 2)
        rest = sorted(v for v in meet if c.degree_map[v] != 2)
        f, gens = bl.factor, lie_degrees(bl.factor)
        if (
            bl.block != i
            or list(bl.cp_vertices) != cp
            or isinstance(f, Point) and cp
            or isinstance(f, CPInfPower) and not 0 < f.k == len(cp)
            or sorted(bl.lie_vertices) != rest
            or list(gens[:len(rest) + 1]) != [c.degree_map[v] for v in bl.lie_vertices]
        ):
            issues.append(f"node {node.name} factor {i} does not bind the "
                          f"generators of partition block {i}")
    return issues


def _label_degrees(blocks: SpaceLabel, truncation: int) -> DegreeMultiset:
    """The generator degrees of a label's free cohomology ring up to the
    truncation.  Larger degrees cannot change its Hilbert function up to
    the truncation, and leaving them out bounds the list however large a
    factor's rank is."""
    degs: list[int] = []
    for bl in blocks:
        degs.extend(takewhile(lambda d: d <= truncation, lie_degrees(bl.factor)))
        degs.extend([2] * len(bl.cp_vertices))
    return tuple(sorted(degs))


def verify_construction(
    c: ComplexWithDegrees, diagram: ColimitDiagram, truncation: int
) -> VerificationReport:
    """Full verification: the partition's blocks are nonempty and disjoint,
    cover the vertex set and list their ids in strictly ascending order,
    their canonical form (partition_issues, the rule build_diagram keeps);
    (a) node labels bind each generator to the vertex of the right block
    (_binding_issues) and carry the free cohomology of their simplices,
    (b) edge maps restrict to the Stanley-Reisner projections on
    generators, (c) the gluing recurrence holds up to the truncation."""
    report = VerificationReport(truncation)
    # each element's name and key, named once and read for every cover
    named = {s: (node_name(k), k) for s, k in zip(c.poset.elements, c.poset.keys)}
    expected_nodes = list(named.values())
    got_nodes = [(n.name, n.simplex) for n in diagram.nodes]
    if got_nodes != expected_nodes:
        report.structure_issues.append(
            f"diagram nodes {got_nodes} do not match the poset {expected_nodes}"
        )
    expected_edges = []
    for s, t in c.covers:
        (ns, ks), (nt, kt) = named[s], named[t]
        expected_edges.append((ns, nt, ks, kt))
    got_edges = [(e.source, e.target, e.source_simplex, e.target_simplex)
                 for e in diagram.edges]
    if got_edges != expected_edges:
        report.structure_issues.append(
            f"diagram edges {got_edges} do not match covering pairs {expected_edges}"
        )
    report.structure_issues.extend(partition_issues(c, diagram.partition))

    for node in diagram.nodes:
        try:
            degrees = c.degree_multiset(node.simplex)
        except ComplexError:  # an unknown vertex, or ids on no facet
            report.structure_issues.append(f"node {node.name} is not a face")
            continue
        report.structure_issues.extend(
            _binding_issues(c, node, diagram.partition)
        )
        want = free_hilbert(degrees, truncation)
        have = free_hilbert(_label_degrees(node.blocks, truncation), truncation)
        bad = next((i for i, (w, h) in enumerate(zip(want, have)) if w != h), None)
        report.node_checks.append(
            NodeCheck(node.name) if bad is None
            else NodeCheck(node.name, 2 * bad, want[bad], have[bad])
        )

    # By simplex, not by name: node_name joins ids with "_", so the names of
    # {a, b} and {a_b} coincide.
    labels = {n.simplex: n.blocks for n in diagram.nodes}
    for e in diagram.edges:
        src = frozenset(e.source_simplex)
        projection = tuple(
            (v, v if v in src else None) for v in sorted(e.target_simplex)
        )
        if e.generator_map != projection:
            report.edge_checks.append(EdgeCheck(
                e.source, e.target,
                "generator map is not the Stanley-Reisner projection"))
            continue
        try:
            want_maps = expected_block_maps(
                labels[e.source_simplex], labels[e.target_simplex]
            )
        except (KeyError, NoCanonicalMap) as err:
            report.edge_checks.append(
                EdgeCheck(e.source, e.target, f"no canonical maps: {err}")
            )
            continue
        if e.maps != want_maps:
            report.edge_checks.append(EdgeCheck(
                e.source, e.target,
                "stored maps disagree with the node labels"))
            continue
        report.edge_checks.append(EdgeCheck(e.source, e.target))

    report.steps.extend(pushout_recurrence_check(c, truncation).steps)
    return report
