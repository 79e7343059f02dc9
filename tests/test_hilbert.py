"""Graded dimension counting: free rings and Stanley-Reisner rings."""
import random

import pytest
from hypothesis import given, strategies as st

from srrealize import make_complex
from srrealize.complexes import ComplexError
from srrealize.hilbert import MAX_TRUNCATION, free_hilbert, sr_hilbert

from helpers import (
    PROPERTY,
    brute_oracle_hilbert,
    complexes,
    face_sum_hilbert,
    naive_count,
    naive_sr_count,
    random_complex,
    ring_468,
    ring_split46,
)


class TestFreeHilbert:
    def test_two_generators_4_8(self):
        h = free_hilbert((4, 8), 8)
        assert h == (1, 0, 1, 0, 2)

    def test_two_degree2_generators(self):
        h = free_hilbert((2, 2), 4)
        assert h == (1, 2, 3)

    def test_no_generators(self):
        h = free_hilbert((), 6)
        assert h == (1, 0, 0, 0)

    def test_degree_12_on_4_6_8(self):
        assert free_hilbert((4, 6, 8), 12)[6] == 3

    def test_matches_naive_recursion(self):
        rng = random.Random(20260814)
        for _ in range(50):
            ms = tuple(
                sorted(rng.choice([2, 4, 6, 8, 10]) for _ in range(rng.randint(0, 5)))
            )
            h = free_hilbert(ms, 20)
            for d in range(0, 21, 2):
                assert h[d // 2] == naive_count(ms, d), (ms, d)

    def test_rejects_bad_degrees_and_truncation(self):
        with pytest.raises(ValueError):
            free_hilbert((3,), 4)
        with pytest.raises(ValueError):
            free_hilbert((0,), 4)
        with pytest.raises(ValueError):
            free_hilbert((-2,), 4)
        with pytest.raises(ValueError):
            free_hilbert((4,), 5)
        with pytest.raises(ValueError):
            free_hilbert((4,), -2)


class TestSrHilbert:
    def test_worked_example(self):
        h = sr_hilbert(ring_468(), 12)
        assert h == (1, 0, 1, 1, 2, 1, 3)

    def test_two_disjoint_vertices(self):
        h = sr_hilbert(ring_split46(), 24)
        assert h[6] == 2  # degree 12: x4^3 and x6^2; x4*x6 vanishes
        assert h[12] == 2

    def test_empty_complex_is_a_point(self):
        c = make_complex({}, [])
        assert sr_hilbert(c, 4) == (1, 0, 0)

    def test_free_when_single_facet(self):
        c = make_complex({"a": 2, "b": 4, "c": 4}, [{"a", "b", "c"}])
        h = sr_hilbert(c, 16)
        f = free_hilbert((2, 4, 4), 16)
        assert h == f

    def test_matches_naive_enumeration(self):
        rng = random.Random(99)
        for _ in range(60):
            c = random_complex(rng)
            h = sr_hilbert(c, 16)
            for d in range(0, 17, 2):
                assert h[d // 2] == naive_sr_count(c, d), (c, d)

    def test_rejects_odd_truncation(self):
        with pytest.raises(ValueError):
            sr_hilbert(ring_468(), 7)

    def test_rejects_truncation_above_cap(self):
        sr_hilbert(ring_468(), MAX_TRUNCATION)
        with pytest.raises(ValueError, match="cap of 10000"):
            sr_hilbert(ring_468(), MAX_TRUNCATION + 2)

    @PROPERTY
    @given(complexes(), st.integers(0, 12).map(lambda k: 2 * k))
    def test_moebius_sum_matches_face_sum_and_brute_oracle(self, c, truncation):
        want = face_sum_hilbert(c, truncation)
        assert len(want) == truncation // 2 + 1
        assert sr_hilbert(c, truncation) == want
        assert brute_oracle_hilbert(c, truncation) == want


class TestRestrictToSimplex:
    """Restricting a complex to one of its faces leaves the free ring on
    that face's degree multiset."""

    def test_returns_sorted_degrees(self):
        c = ring_468()
        assert c.degree_multiset(frozenset({"x8", "x4"})) == (4, 8)
        assert c.degree_multiset(frozenset()) == ()

    def test_rejects_nonface(self):
        with pytest.raises(ComplexError, match="is not a face"):
            ring_468().degree_multiset(frozenset({"x6", "x8"}))

    def test_restriction_carries_the_free_ring(self):
        c = ring_468()
        s = frozenset({"x4", "x6"})
        sub = make_complex({v: c.degree_map[v] for v in s}, [s])
        assert sr_hilbert(sub, 20) == free_hilbert(c.degree_multiset(s), 20)
