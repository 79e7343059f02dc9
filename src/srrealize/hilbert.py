"""Graded dimension counting for Stanley-Reisner rings and free polynomial rings.

The Stanley-Reisner ring of a complex K has a monomial basis: exponent
vectors whose support is a face.  Its dimensions come from a family F of
faces by Moebius inversion (Rota 1964):

    dim SR(K)^d = sum over s in F of c(s) * dim Z[s]^d,
    c(s) = 1 - sum over t in F with t properly containing s of c(t),

where Z[s] is the free ring on the vertices of s.  The sum is exact for any
family F that contains every facet of K and is closed under pairwise
intersection.  A monomial with support the face f lies in Z[s] exactly when
f <= s, so the sum counts it sum_{s >= f} c(s) times.  The elements of F
containing f are not empty (a facet contains f) and are closed under
intersection, so they have a least element m, the intersection of all of
them; and every element containing m contains f.  So that sum is
sum_{s >= m} c(s), which is 1 by the definition of c.  A face in no element
of F is not a face of K and is counted 0 times.  The facet-intersection
poset P is the smallest such family; P plus the empty face is another, and
for a complex without facets it is {empty face}, the point.  One loop,
moebius_weights, weighs every family, and skips elements of weight 0.

Faces are vertex bitmasks (complexes.bitmasks): bit i stands for
c.sorted_ids[i], so complexes.mask_ids decodes a face's vertices, lowest
bit first, and their degrees are read from c.degree_map.

All counts are exact Python integers; only even degrees carry anything, so a
Hilbert function up to an even degree D is a tuple h of D/2 + 1 entries,
h[d // 2] the dimension in degree d, and degrees are counted in units of 2:
a generator of degree d steps the index by d/2.  D is capped at
MAX_TRUNCATION, which bounds the size of every table built here.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .complexes import ComplexWithDegrees, DegreeMultiset, bitmasks, mask_ids

MAX_TRUNCATION = 10_000

# h[i] is the dimension in degree 2i, for i = 0 .. D/2
Hilbert = tuple[int, ...]


def check_truncation(d: int) -> None:
    """Reject a truncation degree that is odd, negative or above
    MAX_TRUNCATION."""
    if d < 0 or d % 2 != 0:
        raise ValueError(f"truncation degree must be even and >= 0, got {d}")
    if d > MAX_TRUNCATION:
        raise ValueError(
            f"truncation degree {d} exceeds the cap of {MAX_TRUNCATION}"
        )


def _count_ways(degrees: Sequence[int], length: int) -> list[int]:
    # ways[i] = number of exponent vectors over the given (distinguishable)
    # generators of even degree with total degree 2i, 0 <= i < length
    ways = [1] + [0] * (length - 1)
    for deg in degrees:
        half = deg // 2
        for i in range(half, length):
            ways[i] += ways[i - half]
    return ways


def free_hilbert(ms: DegreeMultiset, truncation: int) -> Hilbert:
    """Hilbert function of a free polynomial ring on generators with the
    given even degrees."""
    check_truncation(truncation)
    for d in ms:
        if d <= 0 or d % 2 != 0:
            raise ValueError(f"generator degree {d} must be a positive even integer")
    return tuple(_count_ways(ms, truncation // 2 + 1))


def moebius_weights(
    family: Iterable[int], above: Mapping[int, int] | None = None
) -> dict[int, int]:
    """The nonzero weights c(s) of the faces s in family (as bitmasks).
    above holds weight from outside family, keyed by the face it lies
    above: it counts toward every s inside its key."""
    # top-down by size, so everything properly above s is weighed before s
    # (an element of the same size containing s is s itself)
    above = dict(above or {})
    weight: dict[int, int] = {}
    for s in sorted(family, key=int.bit_count, reverse=True):
        w = 1 - sum(aw for k, aw in above.items() if k & s == s)
        if w:
            weight[s] = w
            above[s] = above.get(s, 0) + w
    return weight


def mobius_hilbert(
    c: ComplexWithDegrees, family: Iterable[int], truncation: int
) -> Hilbert:
    """Hilbert function of the Stanley-Reisner ring of the complex whose
    faces lie in some member of family, by Moebius inversion over family
    (faces as bitmasks of c's vertices, see bitmasks).  Exact when family
    is closed under intersection and contains every facet of that complex."""
    check_truncation(truncation)
    zero = (0,) * (truncation // 2 + 1)
    return add_free_hilbert(c, zero, moebius_weights(family))


def add_free_hilbert(
    c: ComplexWithDegrees, base: Hilbert, weight: Mapping[int, int]
) -> Hilbert:
    """base plus the sum over s in weight of weight[s] times the Hilbert
    function of Z[s] (faces as bitmasks of c's vertices, see bitmasks), up
    to base's truncation, with one free-ring count per distinct degree
    multiset."""
    # degree multisets are read from the set bits of each element, not
    # from every vertex
    ids, degree = c.sorted_ids, c.degree_map
    per_multiset: dict[DegreeMultiset, int] = {}
    for s, w in weight.items():
        ms = tuple(sorted(degree[v] for v in mask_ids(ids, s)))
        per_multiset[ms] = per_multiset.get(ms, 0) + w
    h = base
    for ms, w in per_multiset.items():
        if w:
            ways = _count_ways(ms, len(base))
            h = tuple(a + w * b for a, b in zip(h, ways))
    return h


def sr_hilbert(c: ComplexWithDegrees, truncation: int) -> Hilbert:
    """Hilbert function of the Stanley-Reisner ring, by Moebius inversion
    over the facet-intersection poset plus the empty face (so a complex
    without facets is the point)."""
    family = {0, *bitmasks(c, c.poset.elements)}
    return mobius_hilbert(c, family, truncation)
