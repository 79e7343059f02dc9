"""Realizability verdicts for graded Stanley-Reisner rings.

decide_main implements the complete decision available under the hypothesis
that no two distinct generators whose common degree is a power of two >= 4
have nonzero product: the ring is an integral cohomology ring exactly when
every element of the facet-intersection poset has a Torus, SUType or SpType
degree multiset.

When that hypothesis fails the engine falls back to two one-sided tools:
a vertex partition certifying realizability block by block (sufficient), and
a necessary condition requiring every poset element to classify into one of
the four admissible families (valid whenever no two degree-4 generators share
a face).  full_report runs them only when the hypothesis fails; under it,
decide_main's verdict is final and the tools would only repeat it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .admissible import (
    CONSTRUCTIBLE,
    AdmissibleClass,
    Exceptional,
    Inadmissible,
    ObstructionReason,
    classify,
)
from .complexes import ComplexWithDegrees, Simplex


@dataclass(frozen=True)
class Partition:
    """Ordered blocks of vertex ids; block 0 carries all degree-2 vertices."""

    blocks: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Realizable:
    partition: Partition
    per_sigma: tuple[tuple[Simplex, AdmissibleClass], ...]


@dataclass(frozen=True)
class NotRealizable:
    witness: Simplex
    reason: ObstructionReason | Exceptional


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


class HypothesisViolatedError(Exception):
    """Two degree-4 generators share a face, so the necessary condition
    does not apply."""

    def __init__(self, pair: tuple[str, str]):
        super().__init__(f"degree-4 generators {pair[0]!r} and {pair[1]!r} share a face")
        self.pair = pair


def _is_power_of_two_ge4(d: int) -> bool:
    return d >= 4 and d & (d - 1) == 0


def check_main_hypothesis(c: ComplexWithDegrees) -> tuple[str, str, int] | None:
    """First pair of distinct vertices x < y with equal degree 2^i (i >= 2)
    spanning a face, or None when the main hypothesis holds."""
    ids = c.sorted_ids
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            x, y = ids[a], ids[b]
            d = c.degree(x)
            if d == c.degree(y) and _is_power_of_two_ge4(d):
                if c.is_face({x, y}):
                    return (x, y, d.bit_length() - 1)
    return None


def _single_block_partition(c: ComplexWithDegrees) -> Partition:
    if not c.sorted_ids:
        return Partition(())
    return Partition((c.sorted_ids,))


def decide_main(c: ComplexWithDegrees) -> Verdict:
    """The complete decision under the main hypothesis.  Exceptional counts
    as a failure here: it is ruled out of the realizable list, and in fact
    cannot occur at all while the hypothesis holds (its doubled degree is a
    power of two carried by two vertices of a common face)."""
    hit = check_main_hypothesis(c)
    if hit is not None:
        x, y, i = hit
        return HypothesisViolated((x, y), 2 ** i)
    per: list[tuple[Simplex, AdmissibleClass]] = []
    for s in c.poset.elements:
        cls = classify(c.degree_multiset(s))
        if isinstance(cls, CONSTRUCTIBLE):
            per.append((s, cls))
        elif isinstance(cls, Inadmissible):
            return NotRealizable(s, cls.reason)
        else:
            return NotRealizable(s, cls)
    return Realizable(_single_block_partition(c), tuple(per))


def necessary_condition(c: ComplexWithDegrees) -> Simplex | None:
    """None when every poset element classifies into one of the four
    admissible families; otherwise the first violating simplex.  Raises
    HypothesisViolatedError when two degree-4 generators share a face."""
    four = [v for v in c.sorted_ids if c.degree(v) == 4]
    for a in range(len(four)):
        for b in range(a + 1, len(four)):
            if c.is_face({four[a], four[b]}):
                raise HypothesisViolatedError((four[a], four[b]))
    for s in c.poset.elements:
        if isinstance(classify(c.degree_multiset(s)), Inadmissible):
            return s
    return None


def find_partition(c: ComplexWithDegrees) -> Partition | None:
    """Backtracking search for a vertex partition under which every poset
    element meets every block in a Torus, SUType or SpType multiset.

    Degree-2 vertices all go to block 0; they never affect admissibility.
    Higher-degree vertices are assigned in lexicographic order, each to an
    existing block or the first unused one (which breaks symmetry), pruning
    a branch as soon as a block repeats a degree inside one poset element or
    a fully assigned element classifies badly.  The first solution found is
    returned, so the result is deterministic.
    """
    ids2 = tuple(v for v in c.sorted_ids if c.degree(v) == 2)
    ids4 = tuple(v for v in c.sorted_ids if c.degree(v) >= 4)
    elements = c.poset.elements

    idx_of = {v: k for k, v in enumerate(ids4)}
    twos_in = {s: sum(1 for v in s if c.degree(v) == 2) for s in elements}
    high_in = {s: tuple(v for v in sorted(s) if c.degree(v) >= 4) for s in elements}
    complete_at: dict[int, list[Simplex]] = {}
    for s in elements:
        if high_in[s]:
            complete_at.setdefault(max(idx_of[v] for v in high_in[s]), []).append(s)

    assign: dict[str, int] = {}
    base_blocks = 1 if ids2 else 0
    nblocks = base_blocks

    def block_multiset(s: Simplex, b: int) -> tuple[int, ...]:
        degs = [c.degree(v) for v in high_in[s] if assign.get(v) == b]
        if b == 0:
            degs.extend([2] * twos_in[s])
        return tuple(sorted(degs))

    def admissible_so_far(s: Simplex) -> bool:
        return all(
            isinstance(classify(block_multiset(s, b)), CONSTRUCTIBLE)
            for b in range(nblocks)
        )

    def duplicate_degree(v: str, b: int) -> bool:
        dv = c.degree(v)
        for s in elements:
            if v in s and any(
                w != v and assign.get(w) == b and c.degree(w) == dv
                for w in high_in[s]
            ):
                return True
        return False

    def dfs(k: int) -> bool:
        nonlocal nblocks
        if k == len(ids4):
            return True
        v = ids4[k]
        for b in range(nblocks + 1):
            if duplicate_degree(v, b):
                continue
            assign[v] = b
            grew = b == nblocks
            if grew:
                nblocks += 1
            ok = all(admissible_so_far(s) for s in complete_at.get(k, ()))
            if ok and dfs(k + 1):
                return True
            del assign[v]
            if grew:
                nblocks -= 1
        return False

    if not dfs(0):
        return None
    blocks: list[list[str]] = [[] for _ in range(nblocks)]
    if ids2:
        blocks[0].extend(ids2)
    for v in ids4:
        blocks[assign[v]].append(v)
    return Partition(tuple(tuple(sorted(b)) for b in blocks))


def full_report(c: ComplexWithDegrees) -> Verdict:
    """decide_main's verdict, or, when the main hypothesis fails, the best
    the partition search and the necessary condition can say.

    Under the hypothesis a refutation is final.  If element s is not
    constructible, a partition must split its vertices of degree > 2 over
    two or more blocks (degree-2 vertices never decide a class), and each
    such block meets s in an SU or Sp chain holding a degree-4 vertex: two
    on the face s, against the hypothesis.  Exceptional cannot occur under
    it, so necessary_condition names decide_main's witness and reason.
    Unknown is only reachable when the hypothesis fails.
    """
    verdict = decide_main(c)
    if not isinstance(verdict, HypothesisViolated):
        return verdict
    part = find_partition(c)
    if part is not None:
        return SufficientOnly(part)
    try:
        witness = necessary_condition(c)
    except HypothesisViolatedError:
        return verdict
    if witness is not None:
        cls = classify(c.degree_multiset(witness))
        assert isinstance(cls, Inadmissible)
        return NotRealizable(witness, cls.reason)
    return Unknown()
