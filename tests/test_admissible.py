"""Degree-multiset classification, obstruction checks, congruence primes."""
import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from srrealize import classify
from srrealize.admissible import (
    AdemP3,
    Exceptional,
    Inadmissible,
    MultipleDegree4,
    SpType,
    SUType,
    TableMiss,
    ThomasRank,
    Torus,
    _is_prime,
    _mixed_row,
    adem_p3_check,
    aguade_table_member,
    class_degrees,
    dirichlet_prime,
    exceptional_degrees,
    sp_degrees,
    su_degrees,
    thomas_rank_check,
)

from helpers import (
    PROPERTY,
    naive_congruence_prime,
    naive_is_prime,
    reference_classify,
    union_table_member,
)

# the rejection suite: multiset -> frozen first rank violation
THOMAS_REJECTED = {
    (4, 12): ThomasRank(12, 2, 8, 0, 1),
    (4, 12, 16, 24): ThomasRank(12, 2, 8, 0, 1),
    (4, 10, 12, 16, 18, 24): ThomasRank(10, 1, 8, 0, 1),
    (4, 12, 16, 20, 24, 28, 36): ThomasRank(12, 2, 8, 0, 1),
    (4, 16, 24, 28, 36, 40, 48, 60): ThomasRank(36, 2, 32, 0, 1),
    (4, 24): ThomasRank(24, 3, 16, 0, 1),
    (4, 48): ThomasRank(48, 4, 32, 0, 1),
    (4, 8, 12, 16, 20, 12): ThomasRank(12, 2, 8, 1, 2),
}


class TestFamilyDegrees:
    def test_su_chain(self):
        assert su_degrees(1) == (4,)
        assert su_degrees(3) == (4, 6, 8)
        assert su_degrees(5) == (4, 6, 8, 10, 12)

    def test_sp_chain(self):
        assert sp_degrees(1) == (4,)
        assert sp_degrees(3) == (4, 8, 12)

    def test_exceptional(self):
        assert exceptional_degrees(3) == (4, 8, 8, 12)
        assert exceptional_degrees(4) == (4, 8, 12, 16, 16, 20, 24, 28)
        with pytest.raises(ValueError):
            exceptional_degrees(2)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_exceptional_closed_form(self, k):
        assert exceptional_degrees(k) == tuple(
            sorted([*range(4, 2 ** (k + 1) - 3, 4), 2 ** k])
        )

    def test_every_mixed_row_classifies_as_the_oracle(self):
        # the table row {4, 8, ..., 4(n-1)} + {2n}: Exceptional exactly
        # when n is a power of two, else the oracle's rejection
        for n in range(4, 34):
            for twos in ((), (2, 2)):
                ms = twos + _mixed_row(n)
                got = classify(ms)
                assert got == reference_classify(ms), ms
                if n & (n - 1) == 0:
                    assert got == Exceptional(n.bit_length(), len(twos)), ms
                else:
                    assert isinstance(got, Inadmissible), ms

    def test_class_degrees_includes_2s(self):
        assert class_degrees(Torus(3)) == (2, 2, 2)
        assert class_degrees(SUType(2, 1)) == (2, 4, 6)
        assert class_degrees(SpType(2, 0)) == (4, 8)
        assert class_degrees(Exceptional(3, 2)) == (2, 2, 4, 8, 8, 12)
        with pytest.raises(ValueError):
            class_degrees(Inadmissible(TableMiss()))


class TestClassify:
    def test_torus(self):
        assert classify(()) == Torus(0)
        assert classify((2, 2)) == Torus(2)

    def test_single_4_prefers_symplectic(self):
        assert classify((4,)) == SpType(1, 0)
        assert classify((2, 4)) == SpType(1, 1)

    def test_chains(self):
        assert classify((4, 6)) == SUType(2, 0)
        assert classify((4, 6, 8)) == SUType(3, 0)
        assert classify((4, 8)) == SpType(2, 0)
        for n in range(2, 9):
            assert classify(su_degrees(n)) == SUType(n, 0)
            assert classify(sp_degrees(n)) == SpType(n, 0)

    def test_exceptional(self):
        assert classify((4, 8, 8, 12)) == Exceptional(3, 0)
        assert classify(exceptional_degrees(4)) == Exceptional(4, 0)

    def test_input_order_is_irrelevant(self):
        assert classify((8, 4, 6)) == SUType(3, 0)
        assert classify((12, 8, 8, 4)) == Exceptional(3, 0)

    def test_lone_6_misses_the_table(self):
        assert classify((6,)) == Inadmissible(TableMiss())

    def test_lone_8_misses_the_table(self):
        assert classify((8,)) == Inadmissible(TableMiss())

    def test_huge_degrees_miss_the_table(self):
        # the table is bounded by the multiset's length as well as its top
        # degree, so neither call builds families up to degree 10^12
        assert classify((4, 10**12)) == Inadmissible(TableMiss())
        assert classify((10**12,)) == Inadmissible(TableMiss())

    def test_thomas_rejections(self):
        for ms, reason in THOMAS_REJECTED.items():
            assert classify(ms) == Inadmissible(reason), ms

    def test_adem_rejection(self):
        assert classify((4, 16)) == Inadmissible(AdemP3())
        assert classify((2, 2, 4, 16)) == Inadmissible(AdemP3())

    def test_two_4s_rejected_first(self):
        assert classify((4, 4)) == Inadmissible(MultipleDegree4())
        assert classify((4, 4, 6)) == Inadmissible(MultipleDegree4())
        # even when the union {4} + {4,16} would sit in the table
        assert classify((4, 4, 16)) == Inadmissible(MultipleDegree4())

    def test_mixed_family_odd_n_hits_table_rule(self):
        # {4,8,...,4(n-1)} + {2n} with n = 5: passes the rank and Adem
        # checks, rejected by the hard-coded table rule
        assert classify((4, 8, 12, 16, 10)) == Inadmissible(TableMiss())
        # n = 7 likewise
        assert classify((4, 8, 12, 16, 20, 24, 14)) == Inadmissible(TableMiss())

    def test_round_trip_on_admissible(self):
        cases = [Torus(0), Torus(4), SUType(3, 0), SUType(5, 2),
                 SpType(1, 0), SpType(4, 1), Exceptional(3, 0), Exceptional(4, 3)]
        for cls in cases:
            assert classify(class_degrees(cls)) == cls

    def test_stripping_2s_changes_only_k2(self):
        samples = [(4, 6, 8), (4, 8), (4, 8, 8, 12), (4, 12), (6,), (4, 16)]
        for ms in samples:
            bare = classify(ms)
            dressed = classify(ms + (2, 2, 2))
            if isinstance(bare, Inadmissible):
                assert dressed == bare
            else:
                assert type(dressed) is type(bare)
                assert dressed.k2 == 3

    def test_rejects_odd_or_nonpositive_degrees(self):
        with pytest.raises(ValueError):
            classify((3,))
        with pytest.raises(ValueError):
            classify((0,))


class TestClassifyMatchesUnionSearch:
    """classify reads the table by matching one row; the oracle searches
    every disjoint union of rows.  MultipleDegree4 comes first, so the two
    must agree everywhere."""

    @PROPERTY
    @given(st.lists(
        st.sampled_from((2, 4, 6, 8, 10, 12, 16, 24, 48, 10**12)), max_size=9,
    ))
    def test_generated_multisets(self, ms):
        assert classify(ms) == reference_classify(ms)

    def test_every_1_to_4_degrees_up_to_40_with_at_most_one_4(self):
        for r in range(1, 5):
            for ms in itertools.combinations_with_replacement(range(4, 41, 2), r):
                if ms.count(4) <= 1:
                    assert classify(ms) == reference_classify(ms), ms


class TestThomasRank:
    def test_passes_on_admissible_families(self):
        families = [su_degrees(n) for n in range(1, 9)]
        families += [sp_degrees(n) for n in range(1, 9)]
        families += [exceptional_degrees(3), exceptional_degrees(4)]
        for ms in families:
            assert thomas_rank_check(ms) is None, ms

    def test_first_violation_in_ascending_degree(self):
        # both 6 and 12 violate; 6 is reported
        assert thomas_rank_check((6, 12)) == ThomasRank(6, 1, 4, 0, 1)

    def test_frozen_examples(self):
        for ms, reason in THOMAS_REJECTED.items():
            assert thomas_rank_check(ms) == reason, ms

    def test_reported_fields_are_consistent(self):
        for ms, reason in THOMAS_REJECTED.items():
            counts = Counter(ms)
            # target = 2^i * n with n odd >= 3, source one even step below
            n = reason.target_degree >> reason.i
            assert n % 2 == 1 and n >= 3 and reason.i >= 1
            assert reason.target_degree == (1 << reason.i) * n
            assert reason.source_degree == reason.target_degree - (1 << reason.i)
            assert reason.dim_target == counts[reason.target_degree]
            assert reason.dim_source == counts.get(reason.source_degree, 0)
            assert reason.dim_source < reason.dim_target

    def test_power_of_two_degrees_impose_nothing(self):
        assert thomas_rank_check((4, 8, 16, 32, 64)) is None


class TestAdemP3:
    def test_exact_shape_only(self):
        assert adem_p3_check((4, 16)) == AdemP3()
        assert adem_p3_check((2, 2, 4, 16)) == AdemP3()
        assert adem_p3_check((4, 8, 16)) is None
        assert adem_p3_check((4,)) is None
        assert adem_p3_check(()) is None


class TestAguadeTable:
    def test_fixed_rows(self):
        rows = [(4, 12), (4, 12, 16, 24), (4, 10, 12, 16, 18, 24),
                (4, 12, 16, 20, 24, 28, 36), (4, 16, 24, 28, 36, 40, 48, 60),
                (4, 16), (4, 24), (4, 48)]
        for row in rows:
            assert aguade_table_member(row), row

    def test_chain_rows(self):
        assert aguade_table_member((4, 6, 8, 10))
        assert aguade_table_member((4, 8, 12))
        assert aguade_table_member((4, 8, 8, 12))  # mixed family at n=4

    def test_unions(self):
        # union semantics live only in the oracle: every row holds one 4
        assert union_table_member((4, 6, 4, 8, 12))
        assert union_table_member((4, 4))
        assert union_table_member((4, 12, 4, 6, 8))
        assert not aguade_table_member((4, 4))

    def test_misses(self):
        assert not aguade_table_member((6,))
        assert not aguade_table_member((8,))
        assert not aguade_table_member((6, 6))
        assert not aguade_table_member((4, 14))

    def test_empty_and_2s(self):
        assert aguade_table_member(())
        assert aguade_table_member((2, 2))

    def test_union_matches_brute_force_on_small_multisets(self):
        def brute_member(ms):
            # try all ways to peel off one family, no memoization
            ms = tuple(sorted(d for d in ms if d != 2))
            if not ms:
                return True
            fams = []
            top = max(ms)
            n = 2
            while 2 * n <= top:
                fams.append(tuple(range(4, 2 * n + 1, 2)))
                n += 1
            n = 1
            while 4 * n <= top:
                fams.append(tuple(range(4, 4 * n + 1, 4)))
                n += 1
            n = 4
            while max(4 * (n - 1), 2 * n) <= top:
                fams.append(tuple(sorted(list(range(4, 4 * n - 3, 4)) + [2 * n])))
                n += 1
            fams += [r for r in [(4, 12), (4, 12, 16, 24), (4, 10, 12, 16, 18, 24),
                                 (4, 12, 16, 20, 24, 28, 36),
                                 (4, 16, 24, 28, 36, 40, 48, 60),
                                 (4, 16), (4, 24), (4, 48)] if max(r) <= top]
            rem = Counter(ms)
            for fam in fams:
                f = Counter(fam)
                if all(rem.get(k, 0) >= v for k, v in f.items()):
                    left = rem - f
                    if brute_member(tuple(left.elements())):
                        return True
            return False

        # with at most one 4 a union of rows is empty or a single row
        pool = (4, 6, 8, 10, 12, 16, 24, 48)
        for r in range(1, 5):
            for combo in itertools.combinations_with_replacement(pool, r):
                if combo.count(4) <= 1:
                    assert aguade_table_member(combo) == brute_member(combo), combo


class TestDirichletPrime:
    def test_frozen_values(self):
        assert dirichlet_prime([], 0) == 983
        assert dirichlet_prime([], 1000) == 2663
        assert dirichlet_prime([], 982) == 983  # strict lower bound

    def test_matches_naive_scan(self):
        for bound in (0, 982, 983, 1000, 2663, 5000):
            assert dirichlet_prime([], bound) == naive_congruence_prime([], bound)
        # past 2663 the next candidate is 4343 = 43 * 101, whose factors
        # are no base, so Miller-Rabin itself must reject it
        assert dirichlet_prime([], 2663) == 7703

    def test_is_prime_matches_trial_division_below_20000(self):
        assert all(_is_prime(n) == naive_is_prime(n) for n in range(20000))

    def test_is_prime_squaring_loop(self):
        # 998244353 - 1 = 2^23 * 119: the loop squares up to 22 times
        assert _is_prime(998244353)
        # strong pseudoprimes to the bases 2, 3, 5 and 7, and to every base
        # but 37: only later bases reject them
        assert 151 * 751 * 28351 == 3215031751
        assert 149491 * 747451 * 34233211 == 3825123056546413051
        assert not _is_prime(3215031751)
        assert not _is_prime(3825123056546413051)

    def test_extra_primes(self):
        for extras in ([11], [13], [11, 13]):
            p = dirichlet_prime(extras, 0)
            assert p == naive_congruence_prime(extras, 0)
            assert naive_is_prime(p)
            assert p % 16 == 7 and p % 3 == 2 and p % 5 == 3 and p % 7 == 3
            assert all(p % q == 2 for q in extras)

    def test_rejects_bad_extras(self):
        for extras, message in (
            ([9], "extra modulus 9 must be a prime > 7"),  # not prime
            ([7], "extra modulus 7 must be a prime > 7"),  # too small
            ([11, 11], "extra primes must be pairwise distinct"),  # repeated
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                dirichlet_prime(extras, 0)

    def test_refuses_candidates_at_the_miller_rabin_bound(self):
        # the least strong pseudoprime to the twelve bases 2..37
        bound = 318665857834031151167461
        assert bound == 399165290221 * 798330580441
        for extras, lower, n in (([bound], 0, bound), ([], 10**24, 10**24 + 583)):
            message = (f"primality of {n} is not decided: the test is exact "
                       f"only below {bound}")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                dirichlet_prime(extras, lower)
