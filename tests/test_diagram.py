"""Diagram construction: node labels, edge maps, DOT and JSON emission."""
import json
import random
import re

import pytest
from hypothesis import given

from srrealize import (
    Realizable,
    SufficientOnly,
    build_diagram,
    full_report,
    make_complex,
)
from srrealize.complexes import ComplexError, pmax
from srrealize.diagram import (
    BSU,
    BlockLabel,
    BlockMap,
    BSp,
    ColimitDiagram,
    CPInclusion,
    CPInfPower,
    DiagramEdge,
    DiagramNode,
    FACTOR_KINDS,
    FromPoint,
    Iota1Power,
    Iota2Power,
    MAP_KINDS,
    NoCanonicalMap,
    Point,
    diagram_from_json,
    emit_dot,
    emit_json,
    expected_block_maps,
    label_node,
    node_name,
    partition_issues,
    edge_text,
    node_text,
)

from helpers import (
    HOSTILE_IDS,
    PROPERTY,
    complexes,
    naive_covers,
    random_complex,
    reference_emit_json,
    ring_468,
    ring_double_fan,
    ring_fan6,
    ring_split46,
)

RING_468_DOT = (
    "digraph colimit {\n"
    "  rankdir=LR;\n"
    '  "sigma_x4" [label="BSp(1)"];\n'
    '  "sigma_x4_x6" [label="BSU(3)"];\n'
    '  "sigma_x4_x8" [label="BSp(2)"];\n'
    '  "sigma_x4" -> "sigma_x4_x6" [label="iota1 . iota3"];\n'
    '  "sigma_x4" -> "sigma_x4_x8" [label="iota2"];\n'
    "}\n"
)


def diagram_for(c):
    verdict = full_report(c)
    assert isinstance(verdict, (Realizable, SufficientOnly))
    return build_diagram(c, verdict.partition)


def single_block(c):
    return (c.sorted_ids,)


class TestNames:
    def test_node_name(self):
        assert node_name(frozenset({"x6", "x4"})) == "sigma_x4_x6"
        assert node_name(frozenset()) == "sigma_"


class TestCheckPartition:
    """partition_issues is verify's partition rule, and build_diagram
    refuses every partition it names."""

    def test_accepts_valid(self):
        assert partition_issues(ring_468(), single_block(ring_468())) == []

    @pytest.mark.parametrize("partition", [
        (("x4", "x6", "x8"), ()),
        (("x4", "x6"), ("x6", "x8")),
        (("x4", "x6"),),
        (("x4", "x6", "x8", "zz"),),
        (("x8", "x6", "x4"),),
    ], ids=["empty_block", "duplicate", "missing_vertex", "unknown_vertex",
            "descending_block"])
    def test_rejects(self, partition):
        c = ring_468()
        issues = partition_issues(c, partition)
        assert issues
        with pytest.raises(ValueError) as info:
            build_diagram(c, partition)
        assert str(info.value) == issues[0]


class TestLabelNode:
    def test_worked_example(self):
        c = ring_468()
        p = single_block(c)
        assert label_node(c, frozenset({"x4"}), p) == (
            BlockLabel(0, BSp(1), (), ("x4",)),
        )
        assert label_node(c, frozenset({"x4", "x6"}), p) == (
            BlockLabel(0, BSU(3), (), ("x4", "x6")),
        )
        assert label_node(c, frozenset({"x4", "x8"}), p) == (
            BlockLabel(0, BSp(2), (), ("x4", "x8")),
        )

    def test_torus_and_point_factors(self):
        c = make_complex({"s": 2, "t": 2}, [{"s", "t"}])
        p = single_block(c)
        assert label_node(c, frozenset({"s", "t"}), p) == (
            BlockLabel(0, CPInfPower(2), ("s", "t"), ()),
        )
        assert label_node(c, frozenset(), p) == (
            BlockLabel(0, Point(), (), ()),
        )

    def test_multi_block_with_2s(self):
        c = make_complex({"t": 2, "a": 4, "b": 4}, [{"t", "a", "b"}])
        p = (("a", "t"), ("b",))
        assert label_node(c, frozenset({"t", "a", "b"}), p) == (
            BlockLabel(0, BSp(1), ("t",), ("a",)),
            BlockLabel(1, BSp(1), (), ("b",)),
        )

    def test_lie_vertices_in_ascending_degree(self):
        c = make_complex({"hi": 8, "lo": 4}, [{"hi", "lo"}])
        (bl,) = label_node(c, frozenset({"hi", "lo"}), single_block(c))
        assert bl.factor == BSp(2)
        assert bl.lie_vertices == ("lo", "hi")

    def test_inadmissible_simplex_raises(self):
        c = ring_split46()
        with pytest.raises(ValueError, match=re.escape("simplex ['x6'] meets block 0")):
            label_node(c, frozenset({"x6"}), single_block(c))


class TestBlockMaps:
    def test_sp_to_sp(self):
        bs = BlockLabel(0, BSp(1), (), ("x4",))
        bt = BlockLabel(0, BSp(2), (), ("x4", "x8"))
        assert expected_block_maps((bs,), (bt,)) == (
            BlockMap(0, Iota2Power(1), None),
        )

    def test_sp_to_su(self):
        bs = BlockLabel(0, BSp(1), (), ("x4",))
        bt = BlockLabel(0, BSU(3), (), ("x4", "x6"))
        assert expected_block_maps((bs,), (bt,)) == (
            BlockMap(0, Iota1Power(1, True), None),
        )

    def test_su_to_su(self):
        bs = BlockLabel(0, BSU(3), (), ("x4", "x6"))
        bt = BlockLabel(0, BSU(4), (), ("x4", "x6", "x8"))
        assert expected_block_maps((bs,), (bt,)) == (
            BlockMap(0, Iota1Power(1, False), None),
        )

    def test_identity_block(self):
        b = BlockLabel(0, BSp(2), (), ("x4", "x8"))
        assert expected_block_maps((b,), (b,)) == (
            BlockMap(0, Iota2Power(0), None),
        )

    def test_from_point(self):
        bs = BlockLabel(0, Point(), (), ())
        bt = BlockLabel(0, BSp(1), (), ("x4",))
        assert expected_block_maps((bs,), (bt,)) == (
            BlockMap(0, FromPoint(), None),
        )

    def test_torus_coordinates(self):
        bs = BlockLabel(0, CPInfPower(1), ("s",), ())
        bt = BlockLabel(0, CPInfPower(2), ("s", "t"), ())
        assert expected_block_maps((bs,), (bt,)) == (
            BlockMap(0, None, CPInclusion(("s",), ("s", "t"))),
        )

    def test_refuses_rank_drops_and_wrong_direction(self):
        sp1 = BlockLabel(0, BSp(1), (), ("a",))
        sp2 = BlockLabel(0, BSp(2), (), ("a", "b"))
        su3 = BlockLabel(0, BSU(3), (), ("a", "b"))
        su4 = BlockLabel(0, BSU(4), (), ("a", "b", "c"))
        with pytest.raises(NoCanonicalMap):
            expected_block_maps((sp2,), (sp1,))
        with pytest.raises(NoCanonicalMap):
            expected_block_maps((su4,), (su3,))
        with pytest.raises(NoCanonicalMap):
            expected_block_maps((su3,), (sp2,))
        # BSp(2) needs BSU(4) or larger
        with pytest.raises(NoCanonicalMap):
            expected_block_maps((sp2,), (su3,))
        with pytest.raises(NoCanonicalMap):
            expected_block_maps((sp1, sp2), (sp2,))
        # a Lie factor into a torus, decided by its kind, so even BSp(0)
        cp2 = BlockLabel(0, CPInfPower(2), ("u", "v"), ())
        for lie in (BSp(0), BSp(1), BSU(2)):
            with pytest.raises(NoCanonicalMap, match="torus"):
                expected_block_maps((BlockLabel(0, lie, ("u",), ()),), (cp2,))

    def test_refuses_missing_cp_coordinate(self):
        bs = BlockLabel(0, CPInfPower(1), ("u",), ())
        bt = BlockLabel(0, CPInfPower(1), ("t",), ())
        with pytest.raises(NoCanonicalMap):
            expected_block_maps((bs,), (bt,))

    def test_nonempty_source_over_empty_target(self):
        bs = BlockLabel(0, BSp(1), (), ("a",))
        bt = BlockLabel(0, Point(), (), ())
        with pytest.raises(NoCanonicalMap):
            expected_block_maps((bs,), (bt,))


class TestBuildDiagram:
    def test_first_edge_maps_and_generator_map(self):
        c = ring_468()
        e = build_diagram(c, single_block(c)).edges[0]
        assert (e.source, e.target) == ("sigma_x4", "sigma_x4_x6")
        assert e.source_simplex == ("x4",)
        assert e.target_simplex == ("x4", "x6")
        assert e.maps == (BlockMap(0, Iota1Power(1, True), None),)
        assert e.generator_map == (("x4", "x4"), ("x6", None))

    def test_worked_example_exactly(self):
        d = diagram_for(ring_468())
        assert [n.name for n in d.nodes] == ["sigma_x4", "sigma_x4_x6", "sigma_x4_x8"]
        assert [node_text(n.blocks) for n in d.nodes] == ["BSp(1)", "BSU(3)", "BSp(2)"]
        assert [(e.source, e.target, edge_text(e)) for e in d.edges] == [
            ("sigma_x4", "sigma_x4_x6", "iota1 . iota3"),
            ("sigma_x4", "sigma_x4_x8", "iota2"),
        ]

    def test_fan_counts(self):
        d = diagram_for(ring_fan6(3))
        assert len(d.nodes) == 4 and len(d.edges) == 3
        texts = sorted(node_text(n.blocks) for n in d.nodes)
        assert texts == ["BSU(4)", "BSU(4)", "BSU(4)", "BSp(2)"]
        assert all(edge_text(e) == "iota3" for e in d.edges)

    def test_double_fan_counts(self):
        d = diagram_for(ring_double_fan())
        assert len(d.nodes) == 9 and len(d.edges) == 12
        node_counts = {}
        for n in d.nodes:
            t = node_text(n.blocks)
            node_counts[t] = node_counts.get(t, 0) + 1
        assert node_counts == {"BSp(1)": 1, "BSU(3)": 2, "BSp(2)": 2, "BSU(4)": 4}
        edge_counts = {}
        for e in d.edges:
            t = edge_text(e)
            edge_counts[t] = edge_counts.get(t, 0) + 1
        assert edge_counts == {
            "iota1": 4,
            "iota1 . iota3": 2,
            "iota2": 2,
            "iota3": 4,
        }

    def test_disjoint_facets_get_a_point_node(self):
        c = make_complex({"a": 4, "b": 4}, [{"a"}, {"b"}])
        d = diagram_for(c)
        assert [n.name for n in d.nodes] == ["sigma_", "sigma_a", "sigma_b"]
        assert node_text(d.nodes[0].blocks) == "pt"
        assert [(e.source, e.target, edge_text(e)) for e in d.edges] == [
            ("sigma_", "sigma_a", "const"),
            ("sigma_", "sigma_b", "const"),
        ]
        # each edge also has a block that is empty at both ends, with
        # neither a Lie nor a CP part, which adds nothing to the text
        c = make_complex({"a": 4, "b": 6, "c": 4}, [{"a", "b"}, {"c"}])
        d = build_diagram(c, (("a", "b"), ("c",)))
        assert [(e.source, e.target, edge_text(e)) for e in d.edges] == [
            ("sigma_", "sigma_a_b", "const"),
            ("sigma_", "sigma_c", "const"),
        ]
        assert all(
            any(bm.lie is None and bm.cp is None for bm in e.maps)
            for e in d.edges
        )

    def test_mixed_product_node_text(self):
        c = make_complex({"t": 2, "u": 2, "a": 4, "b": 8}, [{"t", "u", "a", "b"}])
        d = diagram_for(c)
        assert len(d.nodes) == 1
        assert node_text(d.nodes[0].blocks) == "BSp(2) x CP^inf^2"

    def test_rejects_bad_partition(self):
        with pytest.raises(ValueError, match="unconstructible multiset"):
            build_diagram(ring_split46(), single_block(ring_split46()))

    def test_functoriality_of_generator_maps(self):
        # composing the generator maps along covering edges agrees with the
        # direct projection for any comparable pair
        for c in (ring_double_fan(), ring_fan6(3), ring_468()):
            d = diagram_for(c)
            gm = {(e.source, e.target): dict(e.generator_map) for e in d.edges}
            simplex_of = {n.name: frozenset(n.simplex) for n in d.nodes}
            for (a, b), m_ab in gm.items():
                for (b2, cname), m_bc in gm.items():
                    if b2 != b:
                        continue
                    composed = {
                        v: (m_ab.get(w) if w is not None else None)
                        for v, w in m_bc.items()
                    }
                    s = simplex_of[a]
                    direct = {
                        v: (v if v in s else None) for v in sorted(simplex_of[cname])
                    }
                    assert composed == direct, (a, b, cname)


class TestEmission:
    def test_dot_bytes(self):
        assert emit_dot(diagram_for(ring_468())) == RING_468_DOT

    def test_json_round_trip(self):
        for c in (ring_468(), ring_double_fan(), ring_fan6(2)):
            d = diagram_for(c)
            assert diagram_from_json(emit_json(d)) == d

    def test_round_trip_with_torus_blocks(self):
        c = make_complex({"t": 2, "a": 4, "b": 4}, [{"t", "a", "b"}])
        d = diagram_for(c)
        assert diagram_from_json(emit_json(d)) == d

    def test_dot_escapes_quotes_and_backslashes_in_ids(self):
        c = make_complex({'x"4': 4, "x\\6": 6}, [{'x"4', "x\\6"}])
        dot = emit_dot(diagram_for(c))
        assert dot.splitlines()[2] == r'  "sigma_x\"4_x\\6" [label="BSU(3)"];'

    def test_every_kind_round_trips(self):
        factors = [
            (BSp(2), {"kind": "BSp", "n": 2}),
            (BSU(3), {"kind": "BSU", "n": 3}),
            (CPInfPower(2), {"kind": "CP", "k": 2}),
            (Point(), {"kind": "point"}),
        ]
        maps = [
            (FromPoint(), {"kind": "from_point"}),
            (Iota2Power(1), {"kind": "iota2", "power": 1}),
            (Iota1Power(2, True), {"kind": "iota1", "power": 2, "after_iota3": True}),
        ]
        assert FACTOR_KINDS == {j["kind"]: type(f) for f, j in factors}
        assert MAP_KINDS == {j["kind"]: type(m) for m, j in maps}
        node = DiagramNode("n", (), tuple(
            BlockLabel(i, f, (), ()) for i, (f, _) in enumerate(factors)
        ))
        maps_label = tuple(BlockMap(i, m, None) for i, (m, _) in enumerate(maps))
        edge = DiagramEdge("n", "n", (), (), maps_label, ())
        d = ColimitDiagram((("a",),), (node,), (edge,))
        text = emit_json(d)
        obj = json.loads(text)
        # key order too: the bytes of emit_json are part of its format
        assert [list(f["factor"].items()) for f in obj["nodes"][0]["factors"]] == [
            list(j.items()) for _, j in factors
        ]
        assert [list(m["lie"].items()) for m in obj["edges"][0]["maps"]] == [
            list(j.items()) for _, j in maps
        ]
        assert diagram_from_json(text) == d

    def test_json_shape(self):
        obj = json.loads(emit_json(diagram_for(ring_468())))
        assert set(obj) == {"partition", "nodes", "edges"}
        assert obj["partition"] == [["x4", "x6", "x8"]]
        assert obj["nodes"][0] == {
            "name": "sigma_x4",
            "simplex": ["x4"],
            "factors": [
                {
                    "block": 0,
                    "factor": {"kind": "BSp", "n": 1},
                    "cp_vertices": [],
                    "lie_vertices": ["x4"],
                }
            ],
        }
        first_edge = obj["edges"][0]
        assert first_edge["from"] == "sigma_x4"
        assert first_edge["generator_map"] == {"x4": "x4", "x6": None}

    def test_malformed_diagram_json(self):
        def raises(message):
            return pytest.raises(ComplexError, match="^" + re.escape(message) + "$")

        with raises("invalid JSON: Expecting value: line 1 column 1 (char 0)"):
            diagram_from_json("not json")
        with raises("diagram file must be an object"):
            diagram_from_json("[]")
        with raises("diagram file is missing 'nodes'"):
            diagram_from_json('{"partition": []}')
        with raises("unknown factor kind 'wat'"):
            diagram_from_json(
                '{"partition": [], "nodes": [{"name": "n", "simplex": [],'
                ' "factors": [{"block": 0, "factor": {"kind": "wat"},'
                ' "cp_vertices": [], "lie_vertices": []}]}], "edges": []}'
            )

    def test_random_constructible_diagrams_round_trip(self):
        rng = random.Random(13)
        done = 0
        for _ in range(120):
            c = random_complex(rng)
            verdict = full_report(c)
            if not isinstance(verdict, (Realizable, SufficientOnly)):
                continue
            d = build_diagram(c, verdict.partition)
            assert diagram_from_json(emit_json(d)) == d
            assert emit_dot(d).startswith("digraph colimit {")
            done += 1
        assert done >= 30


# One of each escape json applies: quote, backslash, newline, tab, another
# control character, plain ASCII, a Latin-1 letter and a character outside
# the BMP, which becomes a surrogate pair.
AWKWARD_IDS = ('a"q', "b\\s", "c\nl", "d\tt", "e\x01c", "f_u", "g\u00e9", "h\U0001f600")


class TestJsonBytes:
    """emit_json writes the JSON text itself; json.dumps(obj, indent=2) on
    the same object (reference_emit_json) fixes what its bytes must be."""

    @PROPERTY
    @given(complexes())
    def test_matches_the_reference_on_every_found_partition(self, c):
        verdict = full_report(c)
        if isinstance(verdict, (Realizable, SufficientOnly)):
            d = build_diagram(c, verdict.partition)
            text = emit_json(d)
            assert text == reference_emit_json(d)
            assert diagram_from_json(text) == d

    def test_awkward_ids(self):
        a, b, c4, d6, e, f4, g8, h = AWKWARD_IDS
        c = make_complex(dict(zip(AWKWARD_IDS, (2, 2, 4, 6, 2, 4, 8, 2))),
                         [{a, b, c4, d6}, {e, f4, g8, h}, {a, e}])
        d = build_diagram(c, ((a,), (b,), (c4, d6), (e,), (f4, g8), (h,)))
        assert d.edges
        text = emit_json(d)
        assert text == reference_emit_json(d)
        assert text.isascii()
        for escaped in ('"a\\"q"', '"b\\\\s"', '"c\\nl"', '"d\\tt"',
                        '"e\\u0001c"', '"f_u"', '"g\\u00e9"', '"h\\ud83d\\ude00"'):
            assert escaped in text
        assert diagram_from_json(text) == d

    def test_empty_pieces(self):
        # a node on the empty simplex, a point factor with no vertices, an
        # edge whose maps are all null, and no generators at all
        point = BlockLabel(0, Point(), (), ())
        d = ColimitDiagram(
            ((),),
            (DiagramNode("sigma_", (), (point,)),),
            (DiagramEdge(
                "sigma_", "sigma_", (), (), (BlockMap(0, None, None),), ()),),
        )
        text = emit_json(d)
        assert text == reference_emit_json(d)
        for piece in ('"partition": [\n    []\n  ]', '"simplex": []',
                      '"cp_vertices": []', '"lie_vertices": []', '"lie": null',
                      '"cp": null', '"generator_map": {}'):
            assert piece in text
        assert diagram_from_json(text) == d

    def test_no_edges_and_no_nodes(self):
        empty = ColimitDiagram((), (), ())
        assert emit_json(empty) == reference_emit_json(empty) == (
            '{\n  "partition": [],\n  "nodes": [],\n  "edges": []\n}\n'
        )
        c = make_complex({"a": 4, "b": 6}, [{"a", "b"}])
        d = build_diagram(c, (("a", "b"),))
        assert d.edges == ()
        assert emit_json(d) == reference_emit_json(d)
        assert '"edges": []' in emit_json(d)

    def test_every_kind_and_both_iota3_flags(self):
        factors = [BSp(2), BSU(3), CPInfPower(2), Point()]
        maps = [FromPoint(), Iota2Power(0), Iota2Power(3), Iota1Power(2, True),
                Iota1Power(1, False), None]
        assert {type(f) for f in factors} == set(FACTOR_KINDS.values())
        assert {type(m) for m in maps} - {type(None)} == set(MAP_KINDS.values())
        node = DiagramNode("n", ("a", "b"), tuple(
            BlockLabel(i, f, ("a",) if i % 2 else (), ("b",))
            for i, f in enumerate(factors)
        ))
        edge = DiagramEdge("n", "n", ("a",), ("a", "b"), tuple(
            BlockMap(i, m, CPInclusion(("a",), ("a", "b")) if i % 2 else None)
            for i, m in enumerate(maps)
        ), (("a", "a"), ("b", None)))
        d = ColimitDiagram((("a", "b"),), (node,), (edge,))
        text = emit_json(d)
        assert text == reference_emit_json(d)
        assert '"after_iota3": true' in text and '"after_iota3": false' in text
        assert diagram_from_json(text) == d




def _hostile_built():
    p, q, r, s, t, u, v = HOSTILE_IDS
    c = make_complex(dict(zip(HOSTILE_IDS, (4, 6, 2, 2, 4, 8, 2))),
                     [{p, q, r}, {p, u, s}, {t, v}])
    return build_diagram(c, full_report(c).partition)


def _hostile_every_kind():
    # every factor kind, and every map kind: iota1 with and without iota3,
    # iota2 of power 0 and above, from_point and a null lie
    p, q, r, s, t, u, v = HOSTILE_IDS
    factors = [BSp(2), BSU(3), CPInfPower(2), Point()]
    maps = [Iota1Power(2, True), Iota1Power(1, False), Iota2Power(0),
            Iota2Power(3), FromPoint(), None]
    node = DiagramNode(node_name(HOSTILE_IDS), HOSTILE_IDS, tuple(
        BlockLabel(i, f, (r, s) if i % 2 else (), (p, q))
        for i, f in enumerate(factors)
    ))
    edge = DiagramEdge(node.name, "sigma_%s", (t, u), HOSTILE_IDS, tuple(
        BlockMap(i, m, CPInclusion((t,), (t, v)) if i % 2 else None)
        for i, m in enumerate(maps)
    ), tuple((x, x if x in (t, u) else None) for x in HOSTILE_IDS))
    return ColimitDiagram(((p, q, r), (s, t), (u, v)), (node,), (edge,))


def _empty_complex_diagram():
    c = make_complex({}, [])
    return build_diagram(c, full_report(c).partition)


class TestHostileIds:
    """Format directives, quotes, backslashes and non-ASCII letters in ids
    pass through the record templates as data, for every kind."""

    @pytest.mark.parametrize("make", [
        _hostile_built, _hostile_every_kind, _empty_complex_diagram,
    ], ids=["built", "every_kind", "empty_complex"])
    def test_matches_the_reference_and_round_trips(self, make):
        d = make()
        text = emit_json(d)
        assert text == reference_emit_json(d)
        assert diagram_from_json(text) == d

    def test_directives_come_out_as_written(self):
        text = emit_json(_hostile_every_kind())
        for written in ('"p%"', '"q%s"', '"r%%"', '"s\\""', '"t\\\\"',
                        '"u_"', '"v\\u00e9"', '"to": "sigma_%s"'):
            assert written in text

    def test_every_kind_is_drawn(self):
        d = _hostile_every_kind()
        assert {type(bl.factor) for bl in d.nodes[0].blocks} == set(
            FACTOR_KINDS.values())
        lies = [bm.lie for bm in d.edges[0].maps]
        assert {type(m) for m in lies if m} == set(MAP_KINDS.values())
        assert None in lies
        assert {(m.power > 0, getattr(m, "after_iota3", None))
                for m in lies if isinstance(m, (Iota1Power, Iota2Power))} == {
            (True, True), (True, False), (False, None), (True, None)}

    def test_empty_complex_is_three_empty_lists(self):
        assert emit_json(_empty_complex_diagram()) == (
            '{\n  "partition": [],\n  "nodes": [],\n  "edges": []\n}\n'
        )


@PROPERTY
@given(complexes())
def test_edges_are_the_triple_loop_covering_pairs(c):
    # build_diagram reads c.covers; the oracle keeps covers from vouching
    # for itself.  With every degree set to 2 each element is a torus, so
    # every drawn complex has a diagram.
    c = make_complex({v: 2 for v in c.sorted_ids}, c.facets)
    d = build_diagram(c, full_report(c).partition)
    assert [(frozenset(e.source_simplex), frozenset(e.target_simplex))
            for e in d.edges] == list(naive_covers(c.poset.elements))
