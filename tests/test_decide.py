"""Verdicts: the complete decision, the partition search, the necessary
condition, and the combined report."""
import random
import time

import pytest
from hypothesis import given

from srrealize import (
    HypothesisViolated,
    NotRealizable,
    Realizable,
    SufficientOnly,
    Unknown,
    classify,
    full_report,
    make_complex,
)
from srrealize.admissible import (
    Exceptional,
    SpType,
    SUType,
    TableMiss,
    Torus,
)
from srrealize.complexes import pmax
from srrealize.decide import (
    check_main_hypothesis,
    decide_main,
    find_partition,
    necessary_condition,
)
from srrealize import decide

from helpers import (
    PROPERTY,
    brute_partition_exists,
    complexes,
    pairwise_main_hypothesis,
    random_complex,
    ring_468,
    ring_double_fan,
    ring_split46,
    shuffled_facets,
    single_facet,
    unpruned_find_partition,
)


def pair_of_4s():
    return make_complex({"a": 4, "b": 4}, [{"a", "b"}])


class TestMainHypothesis:
    def test_ok_when_powers_of_two_are_unique(self):
        assert check_main_hypothesis(ring_468()) is None

    def test_ok_when_equal_powers_never_share_a_face(self):
        # two degree-8 vertices, but z1*z2 = 0
        assert check_main_hypothesis(ring_double_fan()) is None

    def test_degree_4_pair_on_a_face(self):
        assert check_main_hypothesis(pair_of_4s()) == HypothesisViolated(("a", "b"), 4)

    def test_degree_16_pair_on_a_face(self):
        c = make_complex({"p": 16, "q": 16}, [{"p", "q"}])
        assert check_main_hypothesis(c) == HypothesisViolated(("p", "q"), 16)

    def test_degree_2_and_non_powers_are_exempt(self):
        c = make_complex({"s": 2, "t": 2, "u": 6, "v": 6}, [{"s", "t", "u", "v"}])
        assert check_main_hypothesis(c) is None

    def test_exceptional_multiset_violates(self):
        c = single_facet((4, 8, 8, 12))
        assert check_main_hypothesis(c) == HypothesisViolated(("g1_8", "g2_8"), 8)

    def test_least_pair_whatever_the_facet_order(self):
        c = make_complex({"a": 8, "b": 8, "c": 4, "d": 4, "e": 4},
                         [{"c", "e"}, {"b", "d"}, {"a", "b"}, {"c", "d"}])
        assert check_main_hypothesis(c) == HypothesisViolated(("a", "b"), 8)

    @PROPERTY
    @given(complexes())
    def test_same_pair_as_testing_every_pair(self, c):
        assert check_main_hypothesis(c) == pairwise_main_hypothesis(c)
        # decide_main has no Exceptional branch: under the hypothesis no
        # poset element classifies as Exceptional
        if check_main_hypothesis(c) is None:
            assert not any(isinstance(classify(ms), Exceptional)
                           for ms in c.poset.multisets), c


class TestDecideMain:
    def test_worked_example_realizable(self):
        v = decide_main(ring_468())
        assert isinstance(v, Realizable)
        assert v.partition == (("x4", "x6", "x8"),)
        assert v.per_sigma == (
            (frozenset({"x4"}), SpType(1, 0)),
            (frozenset({"x4", "x6"}), SUType(2, 0)),
            (frozenset({"x4", "x8"}), SpType(2, 0)),
        )

    def test_split_4_6_not_realizable(self):
        v = decide_main(ring_split46())
        assert v == NotRealizable(frozenset({"x6"}), TableMiss())

    def test_pure_torus_realizable(self):
        c = make_complex({"t": 2, "u": 2}, [{"t", "u"}])
        v = decide_main(c)
        assert isinstance(v, Realizable)
        assert all(isinstance(cls, Torus) for _, cls in v.per_sigma)

    def test_hypothesis_violation_short_circuits(self):
        assert decide_main(pair_of_4s()) == HypothesisViolated(("a", "b"), 4)
        assert decide_main(single_facet((4, 8, 8, 12))) == HypothesisViolated(
            ("g1_8", "g2_8"), 8
        )

    def test_realizable_lists_every_poset_element(self):
        v = decide_main(ring_double_fan())
        assert isinstance(v, Realizable)
        assert [s for s, _ in v.per_sigma] == list(pmax(ring_double_fan()).elements)


class TestNecessaryCondition:
    def test_passes_on_realizable_input(self):
        assert necessary_condition(ring_468()) is None

    def test_witness_on_split_4_6(self):
        assert necessary_condition(ring_split46()) == NotRealizable(
            frozenset({"x6"}), TableMiss()
        )

    def test_exceptional_is_allowed(self):
        assert necessary_condition(single_facet((4, 8, 8, 12))) is None

    def test_disjoint_degree_4_vertices_do_not_raise(self):
        c = make_complex({"a": 4, "b": 4}, [{"a"}, {"b"}])
        assert necessary_condition(c) is None


class TestFindPartition:
    def test_splits_two_4s(self):
        assert find_partition(pair_of_4s()) == (("a",), ("b",))

    def test_single_block_when_already_constructible(self):
        assert find_partition(ring_468()) == (("x4", "x6", "x8"),)

    def test_no_partition_for_split_4_6(self):
        assert find_partition(ring_split46()) is None

    def test_no_partition_for_exceptional(self):
        assert find_partition(single_facet((4, 8, 8, 12))) is None

    def test_degree_2_vertices_join_block_0(self):
        c = make_complex({"t": 2, "a": 4, "b": 4}, [{"t", "a", "b"}])
        assert find_partition(c) == (("a", "t"), ("b",))

    def test_partition_is_valid_and_rechecks(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(120):
            c = random_complex(rng)
            part = find_partition(c)
            if part is None:
                continue
            checked += 1
            ids = [v for block in part for v in block]
            assert sorted(ids) == list(c.sorted_ids)
            assert all(block for block in part)
            for s in pmax(c).elements:
                for block in part:
                    ms = tuple(sorted(c.degree_map[v] for v in block if v in s))
                    assert isinstance(classify(ms), (Torus, SUType, SpType)), (c, part, s)
        assert checked >= 20  # the generator must exercise the success path

    def test_succeeds_whenever_the_main_decision_does(self):
        rng = random.Random(8)
        for _ in range(120):
            c = random_complex(rng)
            if isinstance(decide_main(c), Realizable):
                assert find_partition(c) is not None


def pigeonhole(k):
    """k degree-4 and k + 1 degree-6 vertices on one facet: no partition."""
    degrees = {f"a{i}": 4 for i in range(k)} | {f"b{i}": 6 for i in range(k + 1)}
    return make_complex(degrees, [set(degrees)])


def planted(k):
    """A core facet of k degree-4 and k degree-6 vertices, and one facet per
    planted pair {a_i, b_(k-1-i)} with a fresh degree-2 vertex.  On the
    pair's element a 6 needs its own 4, so the planted pairs form the only
    partition of the vertices of degree >= 4."""
    pairs = [(f"a{i}", f"b{k - 1 - i}") for i in range(k)]
    degrees = {v: d for a, b in pairs for v, d in ((a, 4), (b, 6))}
    degrees.update({f"e{i}": 2 for i in range(k)})
    facets = [{v for pair in pairs for v in pair}] + [
        {a, b, f"e{i}"} for i, (a, b) in enumerate(pairs)
    ]
    return make_complex(degrees, facets)


class TestPartitionCountingRules:
    """find_partition's root and completion rules cut only branches that
    hold no partition, and they refute the families that hung the plain
    search."""

    @PROPERTY
    @given(complexes())
    def test_same_partition_as_the_unpruned_search(self, c):
        assert find_partition(c) == unpruned_find_partition(c)

    @PROPERTY
    @given(complexes())
    def test_none_exactly_when_no_set_partition_works(self, c):
        assert (find_partition(c) is None) == (not brute_partition_exists(c))

    def _timed(self, c, monkeypatch):
        calls = []

        def counting(ms):
            calls.append(ms)
            return classify(ms)

        monkeypatch.setattr(decide, "classify", counting)
        start = time.perf_counter()
        part = find_partition(c)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, elapsed
        return part, calls

    @pytest.mark.parametrize("c", [
        pigeonhole(8), single_facet((4, 6, 10) * 5),
    ], ids=["pigeonhole_8", "4_6_10_x5"])
    def test_root_rule_refutes_without_classifying(self, c, monkeypatch):
        assert self._timed(c, monkeypatch) == (None, [])

    def test_completion_rule_refutes_4_6_8_12_x4(self, monkeypatch):
        # every root count holds: 4 twelves against 4 eights, 4 eights
        # against 4 sixes and 4 fours; the twelves take Sp chains
        # {4, 8, 12}, which leaves no 4 for the sixes
        assert self._timed(single_facet((4, 6, 8, 12) * 4), monkeypatch) == (None, [])

    def test_planted_7_returns_its_partition(self, monkeypatch):
        part, calls = self._timed(planted(7), monkeypatch)
        assert calls == []  # the completion rule is the whole test
        # the rebinding is live: decide_main classifies every element of a
        # complex under the main hypothesis (planted(7) violates it)
        decide_main(ring_468())
        assert len(calls) > 0
        twos = tuple(f"e{i}" for i in range(7))
        assert part == (
            (tuple(sorted(("a0", "b6") + twos)),)
            + tuple((f"a{i}", f"b{6 - i}") for i in range(1, 7))
        )


class TestFullReport:
    def test_fixture_verdicts(self):
        assert isinstance(full_report(ring_468()), Realizable)
        assert full_report(pair_of_4s()) == SufficientOnly((("a",), ("b",)))
        assert full_report(ring_split46()) == NotRealizable(
            frozenset({"x6"}), TableMiss()
        )
        assert full_report(single_facet((4, 8, 8, 12))) == Unknown()

    def test_refuted_despite_hypothesis_violation(self):
        # the 16s share the facet, so the main decision bails out; no
        # partition exists ({4,16} is the Adem shape, {16} misses the
        # table), and the necessary condition still refutes the facet
        c = single_facet((4, 16, 16))
        assert full_report(c) == NotRealizable(
            frozenset({"g0_4", "g1_16", "g2_16"}), TableMiss()
        )

    def test_equal_non_4_powers_still_refutable(self):
        # the 16s block the main decision but not the necessary condition,
        # whose hypothesis only concerns degree-4 pairs
        c = make_complex({"p": 16, "q": 16}, [{"p", "q"}])
        assert full_report(c) == NotRealizable(frozenset({"p", "q"}), TableMiss())

    def test_violation_reported_when_nothing_else_applies(self):
        # two 4s share the facet and the 16 poisons every block it could
        # join, so neither fallback tool has anything to say
        c = make_complex({"a": 4, "b": 4, "c": 16}, [{"a", "b", "c"}])
        assert full_report(c) == HypothesisViolated(("a", "b"), 4)

    def test_600_isolated_degree_4_vertices_in_under_1_s(self):
        c = make_complex({f"v{i}": 4 for i in range(600)},
                         [{f"v{i}"} for i in range(600)])
        start = time.perf_counter()
        verdict = full_report(c)
        elapsed = time.perf_counter() - start
        assert isinstance(verdict, Realizable)
        assert elapsed < 1.0, elapsed

    def test_all_degree_2_is_always_realizable(self):
        rng = random.Random(9)
        for _ in range(40):
            base = random_complex(rng)
            c = make_complex(
                {v: 2 for v in base.sorted_ids}, base.facets
            )
            v = full_report(c)
            assert isinstance(v, Realizable)
            assert all(isinstance(cls, Torus) for _, cls in v.per_sigma)

    def test_never_unknown_under_the_hypothesis(self):
        rng = random.Random(10)
        for _ in range(200):
            c = random_complex(rng)
            if check_main_hypothesis(c) is None:
                assert not isinstance(full_report(c), Unknown)

    def test_refutation_under_the_hypothesis_is_final(self):
        # full_report trusts decide_main whenever the hypothesis holds: no
        # partition rescues a refuted complex, and the necessary condition
        # names the same witness
        rng = random.Random(13)
        refuted = 0
        for _ in range(300):
            c = random_complex(rng)
            verdict = decide_main(c)
            if check_main_hypothesis(c) is None and isinstance(verdict, NotRealizable):
                refuted += 1
                assert find_partition(c) is None, c
                assert necessary_condition(c) == verdict, c
                assert full_report(c) == verdict
        assert refuted >= 100  # the generator must exercise the refuted path

    def test_verdict_invariant_under_facet_order(self):
        rng = random.Random(11)
        for _ in range(80):
            c = random_complex(rng)
            assert full_report(c) == full_report(shuffled_facets(c, rng))

    def test_verdict_equivariant_under_renaming(self):
        rng = random.Random(12)

        def rename_verdict(v, f):
            if isinstance(v, Realizable):
                return Realizable(
                    tuple(tuple(f(x) for x in b) for b in v.partition),
                    tuple((frozenset(f(x) for x in s), cls) for s, cls in v.per_sigma),
                )
            if isinstance(v, SufficientOnly):
                return SufficientOnly(
                    tuple(tuple(f(x) for x in b) for b in v.partition)
                )
            if isinstance(v, NotRealizable):
                return NotRealizable(frozenset(f(x) for x in v.witness), v.reason)
            if isinstance(v, HypothesisViolated):
                return HypothesisViolated(
                    (f(v.pair[0]), f(v.pair[1])), v.shared_power_degree
                )
            return v

        for _ in range(60):
            c = random_complex(rng)
            f = lambda x: "r_" + x  # order-preserving on the "v<i>" ids
            renamed = make_complex(
                {f(v): c.degree_map[v] for v in c.sorted_ids},
                [{f(v) for v in facet} for facet in c.facets],
            )
            assert full_report(renamed) == rename_verdict(full_report(c), f)
