from __future__ import annotations

import itertools
import json
import random
import re
import time

import pytest
from hypothesis import given

from srrealize import complex_from_json, make_complex
from srrealize.complexes import (
    MAX_POSET_ELEMENTS,
    ComplexError,
    ComplexWithDegrees,
    all_faces,
    pmax,
    simplex_key,
)

from helpers import (
    PROPERTY,
    brute_is_face,
    brute_pmax,
    complexes,
    degree2_complex,
    naive_covers,
    random_complex,
    ring_468,
    ring_double_fan,
    run_child,
)


def test_validate_accepts_good_complex():
    ring_468().validate()


def test_duplicate_vertex_rejected():
    text = json.dumps({
        "vertices": [{"id": "a", "degree": 4}, {"id": "a", "degree": 6}],
        "facets": [["a"]],
    })
    with pytest.raises(ComplexError, match=re.escape("duplicate vertex id 'a'")):
        complex_from_json(text)


@pytest.mark.parametrize("vertices, facets, message", [
    ([{"id": "a", "degree": 4}, {"id": "a", "degree": 6},
      {"id": 5, "degree": 4}], [["a"]], "vertex id 5 must be a string"),
    ([{"id": "a", "degree": 4}, {"id": "a", "degree": 6}], [["a", 5]],
     "facet ['a', 5] must be a list of vertex ids"),
    ([{"id": "a", "degree": 3}, {"id": "a", "degree": 4}], [["a"]],
     "duplicate vertex id 'a'"),
    ([{"id": "a", "degree": 4}, {"id": "a", "degree": 6}], [["a", "b"]],
     "duplicate vertex id 'a'"),
    ([{"id": v, "degree": 4} for v in "abba"], [["a", "b"]],
     "duplicate vertex id 'b'"),
    ({"a": 4}, "a", '"vertices" must be a list'),
    ([{"id": "a", "degree": 4}, 5], "a", "vertex entry 5 must be an object"),
    ([{"id": "a", "degree": 4}, {"id": "a", "degree": 4}], {"a": ["a"]},
     '"facets" must be a list of lists'),
], ids=["parse_error_first", "facet_error_first", "duplicate_before_degree",
        "duplicate_before_facet_check", "first_repeat_named",
        "vertices_not_a_list", "vertex_entry_not_an_object",
        "facets_not_a_list_before_duplicate"])
def test_error_precedence(vertices, facets, message):
    # parse errors, then a duplicate id, then validate's checks
    text = json.dumps({"vertices": vertices, "facets": facets})
    with pytest.raises(ComplexError, match="^" + re.escape(message) + "$"):
        complex_from_json(text)


def test_unknown_vertex_in_facet_rejected():
    c = ComplexWithDegrees({"a": 4}, (frozenset({"a", "b"}),))
    with pytest.raises(ComplexError, match=re.escape(
        "facet ['a', 'b'] mentions undeclared vertex 'b'"
    )):
        c.validate()


def test_non_maximal_facet_rejected():
    with pytest.raises(ComplexError, match=re.escape(
        "facet ['a'] is contained in facet ['a', 'b']"
    )):
        make_complex({"a": 4, "b": 6}, [{"a"}, {"a", "b"}])


def test_duplicate_facet_rejected():
    with pytest.raises(ComplexError, match=re.escape(
        "facet ['a'] is contained in facet ['a']"
    )):
        make_complex({"a": 4}, [{"a"}, {"a"}])


@pytest.mark.parametrize("facets, message", [
    ([{"c"}, {"a", "b"}, {"a", "b", "c"}, {"a", "b", "c", "d"}],
     "facet ['c'] is contained in facet ['a', 'b', 'c']"),
    ([{"a", "b", "c", "d"}, {"b", "c"}, {"a", "b", "c"}, {"b"}],
     "facet ['b', 'c'] is contained in facet ['a', 'b', 'c', 'd']"),
    ([{"x", "y"}, {"a", "b", "c"}, {"a", "c"}, {"a", "b"}],
     "facet ['a', 'c'] is contained in facet ['a', 'b', 'c']"),
], ids=["lowest_holder_after", "lowest_holder_before", "least_contained"])
def test_containment_precedence(facets, message):
    # two or more containments, and an orphan vertex z: the message names
    # the first contained facet and the first facet holding it, as a scan
    # of every ordered pair of facets does (recorded from that scan)
    degrees = {v: 2 for f in facets for v in f} | {"z": 2}
    with pytest.raises(ComplexError, match="^" + re.escape(message) + "$"):
        make_complex(degrees, facets)


def test_4000_disjoint_edges_validate_in_under_0_2_s():
    # comparing every pair of facets took about 1 s on a shared 2-vCPU host
    ids = [f"v{i}" for i in range(8000)]
    text = json.dumps({
        "vertices": [{"id": v, "degree": 2} for v in ids],
        "facets": [ids[i:i + 2] for i in range(0, 8000, 2)],
    })
    start = time.perf_counter()
    c = complex_from_json(text)
    assert time.perf_counter() - start < 0.2
    assert len(c.facets) == 4000


def boundary(n):
    """n degree-2 vertices and the n facets that each omit one: |P| = 2^n - 1."""
    ids = [f"v{i:02d}" for i in range(n)]
    return make_complex({v: 2 for v in ids}, [set(ids) - {v} for v in ids])


def test_poset_cap():
    # above the largest poset the tests build (|P| = 4584, the torus)
    assert len(pmax(boundary(14)).elements) == 2**14 - 1 <= MAX_POSET_ELEMENTS
    for n in (15, 30):
        start = time.perf_counter()
        with pytest.raises(ComplexError, match=re.escape(
            f"facet-intersection poset exceeds the cap of {MAX_POSET_ELEMENTS}"
        )):
            pmax(boundary(n))
        assert time.perf_counter() - start < 1.0


def test_orphan_vertex_rejected():
    c = ComplexWithDegrees({"a": 4, "b": 6}, (frozenset({"a"}),))
    with pytest.raises(ComplexError, match=re.escape("vertex 'b' appears in no facet")):
        c.validate()


def test_odd_degree_rejected():
    with pytest.raises(ComplexError, match=re.escape(
        "vertex 'a' has degree 3; degrees must be positive even integers"
    )):
        make_complex({"a": 3}, [{"a"}])


def test_nonpositive_degree_rejected():
    with pytest.raises(ComplexError, match=re.escape(
        "vertex 'a' has degree 0; degrees must be positive even integers"
    )):
        make_complex({"a": 0}, [{"a"}])


def test_empty_facet_rejected():
    with pytest.raises(ComplexError):
        make_complex({"a": 4}, [{"a"}, set()])


def test_is_face():
    # degree_multiset is the one face test: a face passes, anything else raises
    c = ring_468()
    c.degree_multiset({"x4", "x6"})
    c.degree_multiset({"x4"})
    c.degree_multiset(set())
    with pytest.raises(ComplexError, match=re.escape("['x6', 'x8'] is not a face")):
        c.degree_multiset({"x6", "x8"})
    with pytest.raises(ComplexError, match=re.escape("unknown vertex 'zz'")):
        c.degree_multiset({"zz"})


def test_unknown_vertex_is_the_least_under_every_hash_seed():
    # frozenset order follows the per-process hash seed; the message names
    # the least unknown id whatever it is
    code = (
        "from srrealize import make_complex\n"
        "try:\n"
        "    make_complex({'a': 2}, [{'a'}]).degree_multiset({'zz', 'yy', 'xx'})\n"
        "except ValueError as e:\n"
        "    print(e)\n"
    )
    for seed in ("1", "5"):
        r = run_child(["-c", code], hashseed=seed)
        assert (r.stdout, r.stderr) == ("unknown vertex 'xx'\n", ""), seed


def accepts_as_face(c, s):
    try:
        c.degree_multiset(s)
    except ComplexError as e:
        assert str(e) == f"{sorted(s)} is not a face"
        return False
    return True


@PROPERTY
@given(complexes())
def test_face_test_is_the_brute_oracle(c):
    # every subset of the at most 6 vertices, so every union of a face of
    # one facet with a face of another is tried too
    for r in range(len(c.sorted_ids) + 1):
        for s in itertools.combinations(c.sorted_ids, r):
            assert accepts_as_face(c, s) == brute_is_face(c, s), s
    # facets are pairwise uncontained, so no facet holds two of them
    for f, g in itertools.combinations(c.facets, 2):
        assert not accepts_as_face(c, f | g)


def test_faces_are_downward_closed():
    rng = random.Random(7)
    for _ in range(30):
        c = random_complex(rng)
        for face in all_faces(c):
            for v in face:
                assert len(c.degree_multiset(face - {v})) == len(face) - 1


def test_degree_multiset():
    c = ring_468()
    assert c.degree_multiset({"x4", "x6"}) == (4, 6)
    assert c.degree_multiset({"x4"}) == (4,)
    assert c.degree_multiset(set()) == ()


def test_pmax_two_facet_example():
    els = pmax(ring_468()).elements
    assert [sorted(s) for s in els] == [["x4"], ["x4", "x6"], ["x4", "x8"]]


def test_pmax_empty_intersection():
    c = make_complex({"a": 4, "b": 4}, [{"a"}, {"b"}])
    els = pmax(c).elements
    assert [sorted(s) for s in els] == [[], ["a"], ["b"]]


def test_pmax_double_fan_has_nine_elements():
    els = pmax(ring_double_fan()).elements
    assert len(els) == 9
    assert frozenset({"x4"}) in els
    assert frozenset({"x4", "y1"}) in els
    assert frozenset({"x4", "z2"}) in els


def test_pmax_matches_subset_oracle():
    rng = random.Random(11)
    for _ in range(60):
        c = random_complex(rng)
        poset = pmax(c)
        assert list(poset.elements) == brute_pmax(c)
        assert len(poset.keys) == len(poset.multisets) == len(poset.elements)
        for e, key, ms in zip(poset.elements, poset.keys, poset.multisets):
            assert key == simplex_key(e)
            assert ms == c.degree_multiset(e)


def test_pmax_keys_follow_id_order_not_declaration_order():
    # bit i of an element stands for the i-th sorted id, so its set bits,
    # lowest first, are its key; ids declared out of order, with "_", an
    # upper-case letter and a non-ASCII one
    ids = ["z", "b_", "b", "A", "é", "a10", "a2"]
    facets = [["z", "b", "A", "a10"], ["b_", "b", "é", "a2", "A"],
              ["z", "é", "a10", "a2"], ["b_", "z", "A"]]
    c = complex_from_json(json.dumps({
        "vertices": [{"id": v, "degree": 2 + 2 * i} for i, v in enumerate(ids)],
        "facets": facets,
    }))
    poset = pmax(c)
    assert list(poset.elements) == brute_pmax(c)
    assert frozenset() in poset.elements
    assert poset.keys == tuple(simplex_key(e) for e in poset.elements)
    assert poset.multisets == tuple(c.degree_multiset(e) for e in poset.elements)


def test_pmax_closed_under_intersection_and_facets_maximal():
    rng = random.Random(13)
    for _ in range(40):
        c = random_complex(rng)
        poset = pmax(c)
        els = set(poset.elements)
        assert all(a & b in els for a in els for b in els)
        assert {s for s in els if not any(s < t for t in els)} == set(c.facets)
        # every element is the intersection of the facets containing it
        for s in els:
            over = [f for f in c.facets if s <= f]
            inter = over[0]
            for f in over[1:]:
                inter = inter & f
            assert inter == s


def test_covers_have_nothing_between():
    poset = pmax(ring_double_fan())
    els = set(poset.elements)
    for s, t in poset.covers():
        assert s < t
        assert not any(s < r < t for r in els)


@PROPERTY
@given(complexes())
def test_covers_match_triple_loop_oracle(c):
    poset = pmax(c)
    assert poset.covers() == naive_covers(poset.elements)


@pytest.mark.parametrize("degrees, facets", [
    ({}, []),
    ({"a": 2, "b": 4}, [{"a", "b"}]),
    ({"a": 2, "b": 2, "c": 4}, [{"a"}, {"b", "c"}]),
    ({"a": 2, "b": 2, "c": 2, "d": 4}, [{"a", "b"}, {"b", "c"}, {"d"}]),
    ({"h": 4, "a": 2, "b": 2, "c": 2},
     [{"h", "a", "b"}, {"h", "b", "c"}, {"h", "c", "a"}]),
    ({"a": 2, "b": 2, "a_b": 2, "b_": 4},
     [{"a", "b"}, {"a_b", "b"}, {"a", "a_b", "b_"}]),
], ids=["no_facets", "one_facet", "two_disjoint", "disjoint_and_meeting",
        "vertex_in_every_facet", "underscore_ids"])
def test_covers_edge_cases_match_triple_loop_oracle(degrees, facets):
    c = make_complex(degrees, facets)
    assert c.covers == naive_covers(c.poset.elements)


def test_covers_from_the_empty_face_reach_each_vertex_closure():
    # {a,b} and {b,c} meet in {b}, {d} meets neither: the empty face is an
    # element, the vertex closures are {a,b}, {b}, {b,c} and {d}, and the
    # empty face is covered by the minimal ones
    c = make_complex({v: 2 for v in "abcd"}, [{"a", "b"}, {"b", "c"}, {"d"}])
    e, ab, b, bc, d = (frozenset(x) for x in ("", "ab", "b", "bc", "d"))
    assert c.poset.elements == (e, ab, b, bc, d)
    assert c.covers == ((e, b), (e, d), (b, ab), (b, bc))


def test_torus_covers_wall_time():
    # |P| = 4584; comparing every pair of elements took about 2-4 s on a
    # shared 2-vCPU host
    c = degree2_complex(random.Random(9), 18, 90, 9, 9)
    c.poset
    start = time.perf_counter()
    covers = c.covers
    assert time.perf_counter() - start < 1.0
    assert len(covers) == 20644


def test_complex_from_json_roundtrip():
    text = """
    {"vertices": [{"id": "x4", "degree": 4}, {"id": "x6", "degree": 6}],
     "facets": [["x4"], ["x6"]]}
    """
    c = complex_from_json(text)
    assert c.degree_map["x4"] == 4
    assert [sorted(f) for f in c.facets] == [["x4"], ["x6"]]


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"vertices": []}',
        '{"vertices": [], "facets": [], "extra": 1}',
        '{"vertices": [{"id": "a", "degree": 4, "color": "red"}], "facets": [["a"]]}',
        '{"vertices": [{"id": "a", "degree": 4.0}], "facets": [["a"]]}',
        '{"vertices": [{"id": "a", "degree": true}], "facets": [["a"]]}',
        '{"vertices": [{"id": "a", "degree": 4}], "facets": ["a"]}',
    ],
)
def test_complex_from_json_rejects_malformed(text):
    with pytest.raises(ComplexError):
        complex_from_json(text)


def test_simplex_key_sorts_ids():
    assert simplex_key({"b", "a"}) == ("a", "b")
