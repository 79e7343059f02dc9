"""Graded dimension counting for Stanley-Reisner rings and free polynomial rings.

The Stanley-Reisner ring of a complex K has a monomial basis: exponent
vectors whose support is a face.  Its dimensions come from the
facet-intersection poset P by Moebius inversion (Rota 1964):

    dim SR(K)^d = sum over s in P of c(s) * dim Z[s]^d,
    c(s) = 1 - sum over t in P with t properly containing s of c(t),

where Z[s] is the free ring on the vertices of s.  A monomial with support
the face f lies in Z[s] exactly when f <= s, so the sum counts it
sum_{s >= f} c(s) times.  The elements of P containing f have a least
element, the intersection m of the facets that contain f, and every
element containing m contains f; so that sum is sum_{s >= m} c(s), which is
1 by the definition of c.  Elements of weight 0 are skipped.

All counts are exact Python integers; only even degrees carry anything, so a
Hilbert function stores even degrees 0..D.  D is capped at MAX_TRUNCATION,
which bounds the size of every table built here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .complexes import ComplexWithDegrees, DegreeMultiset, Simplex, pmax

MAX_TRUNCATION = 10_000


@dataclass(frozen=True)
class HilbertFunction:
    """dims[d] for even d in 0..truncation; dims[0] is always 1."""

    truncation: int
    dims: Mapping[int, int]

    def at(self, d: int) -> int:
        if d < 0 or d > self.truncation:
            raise ValueError(f"degree {d} outside truncation 0..{self.truncation}")
        return self.dims.get(d, 0)

    def to_json_dict(self) -> dict:
        return {
            "D": self.truncation,
            "dims": {str(d): self.dims[d] for d in sorted(self.dims)},
        }


def check_truncation(d: int) -> None:
    """Reject a truncation degree that is odd, negative or above
    MAX_TRUNCATION."""
    if d < 0 or d % 2 != 0:
        raise ValueError(f"truncation degree must be even and >= 0, got {d}")
    if d > MAX_TRUNCATION:
        raise ValueError(
            f"truncation degree {d} exceeds the cap of {MAX_TRUNCATION}"
        )


def _count_ways(degrees: Sequence[int], cap: int) -> list[int]:
    # ways[d] = number of exponent vectors over the given (distinguishable)
    # generators with total degree d, 0 <= d <= cap
    ways = [0] * (cap + 1)
    ways[0] = 1
    for deg in degrees:
        for d in range(deg, cap + 1):
            ways[d] += ways[d - deg]
    return ways


def free_hilbert(ms: DegreeMultiset, truncation: int) -> HilbertFunction:
    """Hilbert function of a free polynomial ring on generators with the
    given even degrees."""
    check_truncation(truncation)
    for d in ms:
        if d <= 0 or d % 2 != 0:
            raise ValueError(f"generator degree {d} must be a positive even integer")
    ways = _count_ways(ms, truncation)
    return HilbertFunction(
        truncation, {d: ways[d] for d in range(0, truncation + 1, 2)}
    )


def sr_hilbert(c: ComplexWithDegrees, truncation: int) -> HilbertFunction:
    """Hilbert function of the Stanley-Reisner ring, by Moebius inversion
    over the facet-intersection poset.  A complex without facets is the
    point."""
    check_truncation(truncation)
    dims = {d: 0 for d in range(0, truncation + 1, 2)}
    if not c.facets:
        dims[0] = 1
        return HilbertFunction(truncation, dims)
    # top-down by size, so everything properly above s is weighed before s;
    # only nonzero weights are kept
    weight: dict[Simplex, int] = {}
    for s in sorted(pmax(c).elements, key=len, reverse=True):
        w = 1 - sum(cw for t, cw in weight.items() if s < t)
        if w:
            weight[s] = w
    for s, w in weight.items():
        ways = _count_ways([c.degree(v) for v in s], truncation)
        for d in dims:
            dims[d] += w * ways[d]
    return HilbertFunction(truncation, dims)
