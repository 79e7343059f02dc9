"""Dimension-level verification: gluing recurrence, oracle, mutation checks."""
import dataclasses
import json
import random
import time

import pytest
from hypothesis import given, strategies as st

from srrealize import (
    Realizable,
    SufficientOnly,
    build_diagram,
    full_report,
    make_complex,
    verify_construction,
)
from srrealize.complexes import bitmasks, pmax
from srrealize.decide import find_partition
from srrealize.diagram import BSp, BSU, BlockLabel, BlockMap, Iota2Power, Point
from srrealize import verify
from srrealize.hilbert import mobius_hilbert, sr_hilbert
from srrealize.verify import _label_degrees, pushout_recurrence_check

from helpers import (
    PROPERTY,
    brute_oracle_hilbert,
    complexes,
    degree2_complex,
    intersection_complex,
    naive_sr_count,
    prefix_recurrence_check,
    random_complex,
    reference_recurrence_check,
    report_to_json_dict,
    ring_468,
    ring_double_fan,
    ring_fan6,
    shuffled_facets,
)


def simplex_complex(degrees, ids):
    return make_complex(dict(zip(ids, degrees)), [set(ids)])


def diagram_for(c):
    verdict = full_report(c)
    assert isinstance(verdict, (Realizable, SufficientOnly))
    return build_diagram(c, verdict.partition)


class TestIntersectionComplex:
    def test_common_faces_of_two_simplices(self):
        k1 = simplex_complex((4, 6), ("x4", "x6"))
        k2 = simplex_complex((4, 8), ("x4", "x8"))
        inter = intersection_complex(k1, k2)
        assert inter.facets == (frozenset({"x4"}),)
        assert inter.degree_map["x4"] == 4

    def test_disjoint_simplices_meet_in_the_empty_complex(self):
        k1 = simplex_complex((4,), ("a",))
        k2 = simplex_complex((6,), ("b",))
        inter = intersection_complex(k1, k2)
        assert inter.facets == ()
        assert sr_hilbert(inter, 8)[0] == 1

    def test_degree_conflict_rejected(self):
        k1 = simplex_complex((4,), ("a",))
        k2 = simplex_complex((6,), ("a",))
        with pytest.raises(ValueError):
            intersection_complex(k1, k2)


class TestPushoutRecurrence:
    def test_worked_example_row(self):
        report = pushout_recurrence_check(ring_468(), 40)
        assert report.passed
        step2 = report.steps[1]
        assert step2.facet == ("x4", "x8")
        row12 = next(r for r in step2.rows() if r[0] == 12)
        assert row12 == (12, 3, 2, 2, 1, True)

    def test_previous_side_is_the_last_union(self):
        steps = pushout_recurrence_check(ring_double_fan(), 16).steps
        assert steps[0].previous == (1, 0, 0, 0, 0, 0, 0, 0, 0)
        for j in range(1, len(steps)):
            assert steps[j].previous is steps[j - 1].union

    def test_passes_under_any_facet_order(self):
        rng = random.Random(22)
        for _ in range(30):
            c = random_complex(rng)
            for _ in range(3):
                report = pushout_recurrence_check(shuffled_facets(c, rng), 24)
                assert report.passed, c

    def test_step_count_matches_facets(self):
        report = pushout_recurrence_check(ring_double_fan(), 16)
        assert [s.index for s in report.steps] == [1, 2, 3, 4]

    @PROPERTY
    @given(complexes())
    def test_rows_match_the_prefix_rebuilding_oracle(self, c):
        # complexes() draws the facets in any order
        assert pushout_recurrence_check(c, 24).steps == \
            prefix_recurrence_check(c, 24).steps

    @PROPERTY
    @given(complexes(), st.randoms(use_true_random=False))
    def test_report_matches_the_from_scratch_oracle(self, c, rng):
        c = shuffled_facets(c, rng)
        d = 6 * max(c.degree_map.values(), default=2)
        assert report_to_json_dict(pushout_recurrence_check(c, d)) == \
            report_to_json_dict(reference_recurrence_check(c, d))

    def test_poset_shaped_complex_matches_the_from_scratch_oracle(self):
        # the shape of the bench's poset workload: 18 degree-2 vertices and
        # 40 facets of 5 to 7 of them, |P| = 341
        c = degree2_complex(random.Random(4), 18, 40, 5, 7)
        assert len(c.poset.elements) == 341
        report = pushout_recurrence_check(c, 12)
        assert report.passed
        assert report_to_json_dict(report) == \
            report_to_json_dict(reference_recurrence_check(c, 12))

    def test_intersection_side_off_by_one_fails_its_step(self, monkeypatch):
        # The union side is its own sum, not prev + free - inter: a wrong
        # intersection sum at step 3 must fail step 3, and only step 3.
        c = ring_double_fan()
        assert [sorted(f) for f in c.facets[:3]] == [
            ["x4", "y1", "z1"], ["x4", "y1", "z2"], ["x4", "y2", "z1"]]
        q3 = set(bitmasks(c, [set(), {"x4"}, {"x4", "z1"}]))

        def skewed(c, family, truncation):
            h = mobius_hilbert(c, family, truncation)
            if set(family) == q3:
                h = h[:4] + (h[4] + 1,) + h[5:]  # degree 8
            return h

        monkeypatch.setattr(verify, "mobius_hilbert", skewed)
        report = pushout_recurrence_check(c, 16)
        assert [s.ok for s in report.steps] == [True, True, False, True]
        assert report.first_discrepancy.startswith("step 3 (facet")
        assert [d for d, *_, ok in report.steps[2].rows() if not ok] == [8]

    def test_torus_recurrence_wall_time(self):
        # |P| = 4584; reweighing the whole family at every step took about
        # 10-13 s on a shared 2-vCPU host
        c = degree2_complex(random.Random(9), 18, 90, 9, 9)
        start = time.perf_counter()
        report = pushout_recurrence_check(c, 12)
        assert time.perf_counter() - start < 4.0
        assert report.passed

    def test_sparse_verify_wall_time(self):
        # 1000 disjoint degree-2 edges, |P| = 1001; decoding vertex bits
        # through a {bit: degree} map rebuilt per Moebius sum took about
        # 3-4 s on a shared 2-vCPU host
        c = make_complex({f"v{i}": 2 for i in range(2000)},
                         [{f"v{2 * i}", f"v{2 * i + 1}"} for i in range(1000)])
        d = diagram_for(c)
        start = time.perf_counter()
        report = verify_construction(c, d, 12)
        assert time.perf_counter() - start < 2.0
        assert report.passed

    def test_sparse_face_test_wall_time(self):
        # 4000 disjoint degree-2 edges; testing each facet against every
        # facet took 0.5-0.6 s on a shared 2-vCPU host
        c = make_complex({f"v{i}": 2 for i in range(8000)},
                         [{f"v{2 * i}", f"v{2 * i + 1}"} for i in range(4000)])
        start = time.perf_counter()
        for f in c.facets:
            c.degree_multiset(f)
        assert time.perf_counter() - start < 0.2

    @PROPERTY
    @given(complexes())
    def test_last_union_column_is_the_brute_oracle(self, c):
        steps = pushout_recurrence_check(c, 24).steps
        assert len(steps) == len(c.facets)
        if steps:
            oracle = brute_oracle_hilbert(c, 24)
            assert tuple(union for _, union, *_ in steps[-1].rows()) == oracle


def close_under_intersection(family):
    family = set(family)
    while True:
        new = {a & b for a in family for b in family} - family
        if not new:
            return family
        family |= new


class TestMobiusHilbert:
    @PROPERTY
    @given(complexes(), st.data())
    def test_any_covering_intersection_closed_family(self, c, data):
        # pmax plus the empty face plus faces cut from the facets, closed
        # under intersection: not minimal, still exact
        facets = bitmasks(c, c.facets)
        cuts = [f & data.draw(st.integers(0, 63)) for f in facets]
        family = close_under_intersection(
            {0, *bitmasks(c, pmax(c).elements), *cuts}
        )
        assert mobius_hilbert(c, family, 24) == sr_hilbert(c, 24)


class TestBruteOracle:
    def test_matches_per_face_counting(self):
        rng = random.Random(23)
        for _ in range(40):
            c = random_complex(rng)
            h = sr_hilbert(c, 24)
            o = brute_oracle_hilbert(c, 24)
            assert h == o, c

    def test_matches_naive_enumeration(self):
        c = ring_468()
        o = brute_oracle_hilbert(c, 16)
        for d in range(0, 17, 2):
            assert o[d // 2] == naive_sr_count(c, d)

    def test_rejects_odd_truncation(self):
        with pytest.raises(ValueError):
            brute_oracle_hilbert(ring_468(), 5)


def mutate_node(diagram, index, factor):
    node = diagram.nodes[index]
    blocks = tuple(
        dataclasses.replace(bl, factor=factor) if i == 0 else bl
        for i, bl in enumerate(node.blocks)
    )
    nodes = tuple(
        dataclasses.replace(n, blocks=blocks) if k == index else n
        for k, n in enumerate(diagram.nodes)
    )
    return dataclasses.replace(diagram, nodes=nodes)


class TestVerifyConstruction:
    @PROPERTY
    @given(complexes())
    def test_every_found_partition_constructs_and_verifies(self, c):
        # build_diagram classifies every block met with every element
        # (label_node raises on a non-constructible one), an oracle that
        # shares nothing with the search's chain state
        part = find_partition(c)
        if part is not None:
            top = max((c.degree_map[v] for v in c.sorted_ids), default=2)
            assert verify_construction(c, build_diagram(c, part), 6 * top).passed

    def test_passes_on_the_worked_example(self):
        c = ring_468()
        report = verify_construction(c, diagram_for(c), 40)
        assert report.passed
        assert report.first_discrepancy is None
        assert [n.ok for n in report.node_checks] == [True, True, True]
        assert [e.ok for e in report.edge_checks] == [True, True]
        assert json.loads(report.to_json())["passed"] is True
        assert report.to_text().startswith("verification up to degree 40: PASS")

    def test_label_degrees_stop_at_the_truncation(self):
        blocks = (
            BlockLabel(0, BSU(3), ("u", "v"), ("a", "b")),
            BlockLabel(1, BSp(2), (), ("c", "d")),
        )
        assert _label_degrees(blocks, 8) == (2, 2, 4, 4, 6, 8)
        assert _label_degrees(blocks, 6) == (2, 2, 4, 4, 6)
        assert _label_degrees((BlockLabel(0, Point(), (), ()),), 8) == ()
        huge = (BlockLabel(0, BSU(10**30), (), ()),)
        assert _label_degrees(huge, 100) == tuple(range(4, 101, 2))

    def test_passes_on_fixtures(self):
        for c in (ring_fan6(3), ring_double_fan()):
            assert verify_construction(c, diagram_for(c), 40).passed

    def test_node_mutation_caught_with_degrees(self):
        c = ring_468()
        mutated = mutate_node(diagram_for(c), 2, BSp(3))  # sigma_x4_x8
        report = verify_construction(c, mutated, 40)
        assert not report.passed
        bad = next(n for n in report.node_checks if not n.ok)
        assert bad.name == "sigma_x4_x8"
        assert bad.first_bad_degree == 12
        assert (bad.expected, bad.got) == (2, 3)
        assert "sigma_x4_x8" in report.first_discrepancy

    def test_node_hilbert_check_stands_alone(self, monkeypatch):
        # _binding_issues flags a wrong rank first; without it the node's
        # own Hilbert check must still fail the report
        monkeypatch.setattr(verify, "_binding_issues", lambda *args: [])
        c = ring_468()
        mutated = mutate_node(diagram_for(c), 2, BSp(3))  # sigma_x4_x8
        report = verify_construction(c, mutated, 40)
        assert report.structure_issues == []
        assert report.first_discrepancy == (
            "node sigma_x4_x8: label dimension 3 != 2 at degree 12"
        )

    def test_node_mutation_breaks_edge_maps_too(self):
        c = ring_468()
        mutated = mutate_node(diagram_for(c), 0, BSU(2))  # sigma_x4
        report = verify_construction(c, mutated, 40)
        assert not report.passed
        # BSU(2) has the right Hilbert function but the stored maps no
        # longer match the expected composites out of a unitary factor
        assert all(n.ok for n in report.node_checks)
        assert not all(e.ok for e in report.edge_checks)

    def test_wrong_generator_map_caught(self):
        c = ring_468()
        d = diagram_for(c)
        edge = d.edges[0]
        edges = (dataclasses.replace(
            edge, generator_map=(("x4", "x4"), ("x6", "x4"))
        ),) + d.edges[1:]
        report = verify_construction(c, dataclasses.replace(d, edges=edges), 20)
        assert not report.passed
        bad = next(e for e in report.edge_checks if not e.ok)
        assert "projection" in bad.detail

    def test_wrong_stored_map_caught(self):
        c = ring_468()
        d = diagram_for(c)
        edge = d.edges[1]  # sigma_x4 -> sigma_x4_x8, iota2
        edges = d.edges[:1] + (dataclasses.replace(
            edge, maps=(BlockMap(0, Iota2Power(2), None),)
        ),)
        report = verify_construction(c, dataclasses.replace(d, edges=edges), 20)
        assert not report.passed
        bad = next(e for e in report.edge_checks if not e.ok)
        assert "disagree" in bad.detail

    def test_missing_node_is_a_structure_issue(self):
        c = ring_468()
        d = diagram_for(c)
        report = verify_construction(
            c, dataclasses.replace(d, nodes=d.nodes[1:]), 20
        )
        assert not report.passed
        assert report.structure_issues

    def test_partition_coverage_checked(self):
        c = ring_468()
        d = diagram_for(c)
        report = verify_construction(
            c, dataclasses.replace(d, partition=(("x4",),)), 20
        )
        assert not report.passed
        assert "diagram partition does not cover the vertex set" in \
            report.structure_issues

    def test_every_node_mutation_of_the_double_fan_fails(self):
        c = ring_double_fan()
        d = diagram_for(c)
        for i, node in enumerate(d.nodes):
            factor = node.blocks[0].factor
            bumped = BSp(factor.n + 1) if isinstance(factor, BSp) else BSU(factor.n + 1)
            report = verify_construction(c, mutate_node(d, i, bumped), 40)
            assert not report.passed, node.name

    def test_text_report_marks_mismatch_rows(self):
        c = ring_468()
        mutated = mutate_node(diagram_for(c), 2, BSp(3))
        text = verify_construction(c, mutated, 20).to_text()
        assert text.startswith("verification up to degree 20: FAIL")
        assert "mismatch at degree 12" in text

    def test_json_report_shape(self):
        c = ring_468()
        obj = json.loads(verify_construction(c, diagram_for(c), 12).to_json())
        assert set(obj) == {
            "D", "passed", "first_discrepancy", "structure", "nodes", "edges",
            "steps",
        }
        assert obj["D"] == 12
        assert obj["steps"][1]["rows"][6] == [12, 3, 2, 2, 1]
