"""Realizability verdicts for graded Stanley-Reisner rings.

decide_main implements the complete decision available under the hypothesis
that no two distinct generators whose common degree is a power of two >= 4
have nonzero product: the ring is an integral cohomology ring exactly when
every element of the facet-intersection poset has a Torus, SUType or SpType
degree multiset.  In a Stanley-Reisner ring xy != 0 iff x and y share a
facet, so one scan over the facets decides the hypothesis (_shared_pair).
The decision is then necessary_condition's scan of the poset's degree
multisets: no element is Exceptional, whose row holds 2^n >= 8 twice.

When that hypothesis fails the engine falls back to two one-sided tools:
a vertex partition certifying realizability block by block (sufficient), and
a necessary condition requiring every poset element to classify into one of
the four admissible families (valid whenever no two degree-4 generators share
a face).  full_report runs them only when the hypothesis fails; under it,
decide_main's verdict is final and the tools would only repeat it.

The partition search is the one stage whose cost is exponential in the
worst case.  It refutes by counting before it branches.  Every constructible
block meets a poset element in a Torus, SU or Sp multiset, whose degrees
above 2 form a chain {4, 6, ..., 2n+2} or {4, 8, ..., 4n}: it starts at 4,
repeats no degree and is closed downward along its step.  Two rules follow,
proved in find_partition's docstring: a root rule that compares the degree
counts of each element before the search starts, and a completion rule that
compares the chain degrees the placed blocks still lack with the vertices
left to place.  Both only cut branches holding no partition, so the search
returns the same first partition as without them.  On an element whose
vertices are all placed, the completion rule holds exactly when every block
meets it in a constructible multiset, so the search never classifies.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .admissible import (
    AdmissibleClass,
    Inadmissible,
    ObstructionReason,
    classify,
)
from .complexes import ComplexWithDegrees, Simplex


# Ordered blocks of vertex ids; block 0 carries all degree-2 vertices.
Partition = tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Realizable:
    partition: Partition
    per_sigma: tuple[tuple[Simplex, AdmissibleClass], ...]


@dataclass(frozen=True)
class NotRealizable:
    witness: Simplex
    reason: ObstructionReason


@dataclass(frozen=True)
class HypothesisViolated:
    pair: tuple[str, str]
    shared_power_degree: int


@dataclass(frozen=True)
class SufficientOnly:
    partition: Partition


@dataclass(frozen=True)
class Unknown:
    pass


Verdict = Realizable | NotRealizable | HypothesisViolated | SufficientOnly | Unknown


def _shared_pair(c: ComplexWithDegrees, degrees: set[int]) -> tuple[str, str] | None:
    """The least pair x < y of vertices sharing a facet and one degree in
    degrees, or None.  Per facet, the vertices of each degree in id order
    form a group whose least pair is its first two."""
    pairs = []
    for f in c.facets:
        groups: dict[int, list[str]] = {}
        for v in sorted(f):
            if c.degree_map[v] in degrees:
                groups.setdefault(c.degree_map[v], []).append(v)
        pairs += [(g[0], g[1]) for g in groups.values() if len(g) > 1]
    return min(pairs, default=None)


def check_main_hypothesis(c: ComplexWithDegrees) -> HypothesisViolated | None:
    """The first pair x < y of vertices of equal degree 2^i (i >= 2) that
    span a face, with that degree, or None when the main hypothesis holds."""
    powers = {d for d in c.degree_map.values() if d >= 4 and d & (d - 1) == 0}
    pair = _shared_pair(c, powers)
    return None if pair is None else HypothesisViolated(pair, c.degree_map[pair[0]])


def decide_main(c: ComplexWithDegrees) -> Verdict:
    """The complete decision under the main hypothesis: necessary_condition's
    scan.  No element is Exceptional while the hypothesis holds (its row
    holds 2^n >= 8 twice, two vertices of degree 2^n on one face), so every
    element that is not inadmissible is constructible."""
    return check_main_hypothesis(c) or _scan(c)


def _scan(c: ComplexWithDegrees) -> Realizable | NotRealizable:
    """The first poset element in none of the four admissible families, with
    its reason, or else every element with its class under the one-block
    partition (a verdict only under the main hypothesis); one classify each."""
    per = []
    for s, ms in zip(c.poset.elements, c.poset.multisets):
        cls = classify(ms)
        if isinstance(cls, Inadmissible):
            return NotRealizable(s, cls.reason)
        per.append((s, cls))
    return Realizable((c.sorted_ids,) if c.sorted_ids else (), tuple(per))


def necessary_condition(c: ComplexWithDegrees) -> NotRealizable | None:
    """_scan's refutation, or None when every element is admissible.  A
    refutation only while no two degree-4 generators share a face."""
    verdict = _scan(c)
    return verdict if isinstance(verdict, NotRealizable) else None


def _root_counts_fail(counts: Counter[int]) -> bool:
    """The root rule on one poset element's degree counts (find_partition)."""
    for d, n in counts.items():
        if d < 6:
            continue
        below = counts[d - 2] + (counts[d - 4] if d % 4 == 0 else 0)
        if n > counts[4] or n > below:
            return True
    return False


def _chain_gaps(degs: set[int]) -> list[int]:
    """M_b of find_partition: the degrees that every SU or Sp chain holding
    degs also holds, less degs itself (a set of distinct degrees >= 4)."""
    if not degs:
        return []
    step = 2 if any(d % 4 == 2 for d in degs) else 4
    return [e for e in range(4, max(degs), step) if e not in degs]


def find_partition(c: ComplexWithDegrees) -> Partition | None:
    """Backtracking search for a vertex partition under which every poset
    element meets every block in a Torus, SUType or SpType multiset.

    Degree-2 vertices all go to block 0; they never affect admissibility.
    Higher-degree vertices are assigned in lexicographic order, each to an
    existing block or the first unused one (which breaks symmetry), pruning
    a branch as soon as a block repeats a degree inside one poset element or
    the completion rule below fires.  The first solution found is returned,
    so the result is deterministic.  The search is a loop that keeps one
    block cursor per depth, not a recursion, so a complex with many
    vertices of degree >= 4 cannot overflow the interpreter stack.

    Two counting rules cut branches early.  Both rest on one fact: in a
    partition, block b meets element s in a constructible multiset, so its
    degrees above 2 in s form an SU chain {4, 6, ..., 2n+2} or an Sp chain
    {4, 8, ..., 4n}.  Such a chain starts at 4, holds each degree at most
    once, and with a degree d >= 6 it also holds d - 2 (SU) or d - 4 (Sp,
    only when 4 | d, since Sp degrees are multiples of 4).

    Root rule, checked once before the search.  Let n_e(s) count the
    vertices of degree e in s.  For every element s and every degree
    d >= 6, a partition needs n_d(s) <= n_4(s), and n_d(s) <= n_(d-2)(s)
    when d = 2 mod 4, or n_d(s) <= n_(d-2)(s) + n_(d-4)(s) when 4 | d.
    Proof: each block holds at most one vertex of degree d in s, so
    n_d(s) blocks hold one.  Each of them holds a degree-4 vertex of s and
    one of degree d - 2 (or d - 4 when 4 | d) in s, and distinct blocks
    hold distinct vertices, so these are injective maps into the vertices
    counted on the right.  When a count fails, no partition exists.

    Completion rule, checked after each assignment on each element s that
    holds the vertex just placed.  Let A_b be the degrees of the placed
    vertices of s in block b.  Block b still needs the chain degrees
    M_b = {4, 6, ..., max A_b} minus A_b when A_b has a degree = 2 mod 4,
    else {4, 8, ..., max A_b} minus A_b.  Prune when, for some degree e,
    more blocks need e than s has unplaced vertices of degree e.  Proof: in
    a partition that extends the current assignment, block b meets s in a
    chain holding A_b.  A degree = 2 mod 4 makes it an SU chain, which holds
    every even degree from 4 to max A_b; otherwise it holds at least the Sp
    degrees {4, 8, ..., max A_b}, which both chains do.  So b gets a vertex
    of each degree in M_b from the unplaced vertices of s, and distinct
    blocks get distinct vertices.  The search keeps, per element, the
    degrees each block holds, the number of blocks lacking each degree and
    the unplaced vertices of each degree, and updates them as it places a
    vertex and takes it back.

    The completion rule is also the whole constructibility test, so the
    search never classifies.  Once every vertex of s is placed, none is
    left, so the rule prunes unless every A_b runs without a gap from 4 to
    max A_b along its step; repeating no degree, A_b is then empty or an SU
    or Sp chain.  Degree-2 vertices change no Torus, SU or Sp class, so
    every leaf the search reaches is a partition.

    The rules cut only subtrees that hold no partition, so the search
    returns the same first partition as a plain search that checks
    repeated degrees and classifies each fully placed element, or None
    exactly when no partition exists.  The search stays exponential in the
    worst case.
    """
    ids2 = tuple(v for v in c.sorted_ids if c.degree_map[v] == 2)
    ids4 = tuple(v for v in c.sorted_ids if c.degree_map[v] >= 4)
    elements = c.poset.elements

    # unplaced vertices of each degree, per element
    left = {s: Counter(d for d in ms if d >= 4)
            for s, ms in zip(elements, c.poset.multisets)}
    if any(_root_counts_fail(left[s]) for s in elements):
        return None
    holding = {v: [s for s in elements if v in s] for v in ids4}
    # per element, the degrees each block holds and the number of blocks
    # lacking each chain degree
    held: dict[Simplex, dict[int, set[int]]] = {s: {} for s in elements}
    lacking: dict[Simplex, Counter[int]] = {s: Counter() for s in elements}

    nblocks = 1 if ids2 else 0

    def duplicate_degree(v: str, b: int) -> bool:
        d = c.degree_map[v]
        return any(d in held[s].get(b, ()) for s in holding[v])

    def move(v: str, b: int, placing: bool) -> None:
        """Place v in block b, or take it back out, in the state of every
        element holding v."""
        d = c.degree_map[v]
        for s in holding[v]:
            degs, lack = held[s].setdefault(b, set()), lacking[s]
            for e in _chain_gaps(degs):
                lack[e] -= 1
            if placing:
                degs.add(d)
            else:
                degs.remove(d)
            for e in _chain_gaps(degs):
                lack[e] += 1
            left[s][d] += -1 if placing else 1

    def cannot_complete(s: Simplex) -> bool:
        """The completion rule on element s."""
        return any(n > left[s][e] for e, n in lacking[s].items())

    # ids4[k] was last placed in block tried[k] - 1 (nowhere while 0), and
    # grew[k] says whether that placement opened a new block
    tried = [0] * len(ids4)
    grew = [False] * len(ids4)
    k = 0
    while 0 <= k < len(ids4):
        v, b = ids4[k], tried[k]
        if b:  # back at depth k: take v out of its last block
            move(v, b - 1, False)
            nblocks -= grew[k]
        while b <= nblocks and duplicate_degree(v, b):
            b += 1
        if b > nblocks:  # no block left for v
            tried[k] = 0
            k -= 1
            continue
        tried[k], grew[k] = b + 1, b == nblocks
        nblocks += grew[k]
        move(v, b, True)
        if not any(cannot_complete(s) for s in holding[v]):
            k += 1

    if k < 0:
        return None
    blocks: list[list[str]] = [[] for _ in range(nblocks)]
    if ids2:
        blocks[0].extend(ids2)
    for v, b in zip(ids4, tried):
        blocks[b - 1].append(v)
    return tuple(tuple(sorted(b)) for b in blocks)


def full_report(c: ComplexWithDegrees) -> Verdict:
    """decide_main's verdict, or, when the main hypothesis fails, the best
    the partition search and the necessary condition can say.

    xy != 0 iff x and y share a facet, so one scan over the facets
    (_shared_pair) decides both the main hypothesis and whether the
    necessary condition applies (no two degree-4 generators on a facet).

    Under the hypothesis a refutation is final.  If element s is not
    constructible, a partition must split its vertices of degree > 2 over
    two or more blocks (degree-2 vertices never decide a class), and each
    such block meets s in an SU or Sp chain holding a degree-4 vertex: two
    on the face s, against the hypothesis.  decide_main is
    necessary_condition's scan, and no element is Exceptional under the
    hypothesis (its row holds 2^n >= 8 twice).  Unknown is only reachable
    when the hypothesis fails.
    """
    verdict = decide_main(c)
    if not isinstance(verdict, HypothesisViolated):
        return verdict
    part = find_partition(c)
    if part is not None:
        return SufficientOnly(part)
    if _shared_pair(c, {4}) is not None:
        return verdict
    return necessary_condition(c) or Unknown()
