"""Command line interface: subcommands, formats, exit codes, determinism."""
import hashlib
import importlib
import json
import pkgutil
import sys
import time
from functools import cached_property

import pytest
from hypothesis import given, strategies as st

from helpers import (
    HOSTILE_IDS,
    PROPERTY,
    RING_468,
    complex_json,
    complexes as complex_draws,
    naive_congruence_prime,
    report_to_json_dict,
    ring_double_fan,
    run_child,
    run_cli,
    run_seeded,
    verdict_to_json,
)
import srrealize
from srrealize import (
    Realizable,
    SufficientOnly,
    build_diagram,
    classify,
    complexes,
    full_report,
    make_complex,
    verify_construction,
)
from srrealize.admissible import dirichlet_prime, sp_degrees
from srrealize.cli import class_to_json
from srrealize.decide import find_partition
from srrealize.diagram import diagram_from_json

SPLIT_46 = json.dumps({
    "vertices": [{"id": "x4", "degree": 4}, {"id": "x6", "degree": 6}],
    "facets": [["x4"], ["x6"]],
})

PAIR_44 = json.dumps({
    "vertices": [{"id": "a", "degree": 4}, {"id": "b", "degree": 4}],
    "facets": [["a", "b"]],
})

EXCEPTIONAL = json.dumps({
    "vertices": [
        {"id": "w", "degree": 4},
        {"id": "x", "degree": 8},
        {"id": "y", "degree": 8},
        {"id": "z", "degree": 12},
    ],
    "facets": [["w", "x", "y", "z"]],
})

BLOCKED_PAIR = json.dumps({
    "vertices": [
        {"id": "a", "degree": 4},
        {"id": "b", "degree": 4},
        {"id": "c", "degree": 16},
    ],
    "facets": [["a", "b", "c"]],
})

# Eight degree-2 vertices, |P| = 20; the second facet meets nothing before it.
TORUS_20 = json.dumps({
    "vertices": [{"id": v, "degree": 2} for v in "abcdefgh"],
    "facets": [
        ["a", "b", "c"], ["g", "h"], ["b", "c", "d"], ["c", "d", "e"],
        ["a", "d", "e"], ["e", "f", "g"], ["a", "f", "h"], ["b", "e", "h"],
    ],
})


# Degree-2 vertices beside a symplectic generator in one block.
TORUS_AND_SP = json.dumps({
    "vertices": [
        {"id": "t", "degree": 2}, {"id": "u", "degree": 2}, {"id": "x4", "degree": 4},
    ],
    "facets": [["t", "u", "x4"]],
})

# A CP^inf^2 node, a CP^inf node and a BSp(1) x CP^inf node.
TORUS_BESIDE_SP = json.dumps({
    "vertices": [
        {"id": "t", "degree": 2}, {"id": "u", "degree": 2}, {"id": "a", "degree": 4},
    ],
    "facets": [["t", "u"], ["u", "a"]],
})

# {4, 16} passes the rank test and is killed mod 3; {4, 12} fails it.
ADEM_416 = json.dumps({
    "vertices": [{"id": "a", "degree": 4}, {"id": "b", "degree": 16}],
    "facets": [["a", "b"]],
})

THOMAS_412 = json.dumps({
    "vertices": [{"id": "a", "degree": 4}, {"id": "b", "degree": 12}],
    "facets": [["a", "b"]],
})

# node_name joins ids with "_", so {a, b} and {a_b} are both sigma_a_b.
COLLIDING_NAMES = json.dumps({
    "vertices": [{"id": v, "degree": 2} for v in "abcd"]
    + [{"id": "a_b", "degree": 4}],
    "facets": [["a", "b", "c"], ["a", "b", "d"], ["a_b", "c"], ["a_b", "d"]],
})


def diagram_args(tmp_path, obj):
    """`--diagram PATH`, with the diagram object obj written to PATH."""
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(obj))
    return ["--diagram", str(path)]


class TestCheck:
    def test_realizable(self):
        r = run_cli(["check"], RING_468)
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert obj["verdict"] == "Realizable"
        assert obj["partition"] == [["x4", "x6", "x8"]]
        assert [e["simplex"] for e in obj["per_sigma"]] == [
            ["x4"], ["x4", "x6"], ["x4", "x8"]
        ]
        assert obj["per_sigma"][2]["class"] == {
            "family": "Sp", "n": 2, "k2": 0, "degrees": [4, 8]
        }

    def test_sufficient_only(self):
        r = run_cli(["check"], PAIR_44)
        assert r.returncode == 10
        obj = json.loads(r.stdout)
        assert obj == {"verdict": "SufficientOnly", "partition": [["a"], ["b"]]}

    def test_not_realizable(self):
        r = run_cli(["check"], SPLIT_46)
        assert r.returncode == 20
        obj = json.loads(r.stdout)
        assert obj == {
            "verdict": "NotRealizable",
            "witness": ["x6"],
            "reason": {"kind": "TableMiss"},
        }

    @pytest.mark.parametrize("degree", [100000, 10**12])
    def test_huge_degree_is_not_realizable_within_1_gb(self, degree):
        stdin = json.dumps({
            "vertices": [{"id": "a", "degree": 4}, {"id": "b", "degree": degree}],
            "facets": [["a", "b"]],
        })
        r = run_child(["-m", "srrealize.cli", "check"], stdin, address_space=1 << 30)
        assert r.returncode == 20
        assert "Traceback" not in r.stderr
        assert json.loads(r.stdout)["verdict"] == "NotRealizable"

    def test_one_long_facet_misses_the_table_in_under_1_s(self):
        # 2001 degrees on one facet: reading the table must stay linear in
        # them (a search over unions of rows takes about 20 s on this input)
        degrees = sp_degrees(2000) + (10**12,)
        ids = [f"v{i:04d}" for i in range(len(degrees))]
        text = json.dumps({
            "vertices": [{"id": v, "degree": d} for v, d in zip(ids, degrees)],
            "facets": [ids],
        })
        start = time.perf_counter()
        r = run_cli(["check"], text)
        elapsed = time.perf_counter() - start
        obj = json.loads(r.stdout)
        assert (r.returncode, obj["verdict"], obj["reason"]) == (
            20, "NotRealizable", {"kind": "TableMiss"})
        assert elapsed < 1.0, elapsed

    def test_600_degree_4_pairs_partition_without_recursion(self):
        # the partition search places one vertex per depth: 1200 of them
        # would overflow a recursive search
        a = [f"a{i:03d}" for i in range(600)]
        b = [f"b{i:03d}" for i in range(600)]
        r = run_cli(["check"], json.dumps({
            "vertices": [{"id": v, "degree": 4} for v in a + b],
            "facets": [list(pair) for pair in zip(a, b)],
        }))
        assert r.returncode == 10, r.stderr
        assert json.loads(r.stdout) == {"verdict": "SufficientOnly", "partition": [a, b]}

    def test_unknown(self):
        r = run_cli(["check"], EXCEPTIONAL)
        assert r.returncode == 30
        assert json.loads(r.stdout) == {"verdict": "Unknown"}

    def test_hypothesis_violated(self):
        r = run_cli(["check"], BLOCKED_PAIR)
        assert r.returncode == 40
        obj = json.loads(r.stdout)
        assert obj == {
            "verdict": "HypothesisViolated",
            "pair": ["a", "b"],
            "shared_power_degree": 4,
        }

    def test_text_format(self):
        r = run_cli(["check", "--format", "text"], SPLIT_46)
        assert r.returncode == 20
        assert r.stdout.splitlines()[0] == "NotRealizable"
        assert "witness: ['x6']" in r.stdout

    def test_malformed_input(self):
        for bad in ("{", '{"vertices": [], "facets": [], "x": 1}', "[]"):
            r = run_cli(["check"], bad)
            assert r.returncode == 2
            assert r.stderr.startswith("error:")

    def test_invalid_complex(self):
        bad = json.dumps({
            "vertices": [{"id": "a", "degree": 3}],
            "facets": [["a"]],
        })
        r = run_cli(["check"], bad)
        assert r.returncode == 2

    def test_file_input_and_output(self, tmp_path):
        src = tmp_path / "c.json"
        src.write_text(RING_468)
        dst = tmp_path / "out.json"
        r = run_cli(["check", str(src), "-o", str(dst)])
        assert r.returncode == 0
        assert r.stdout == ""
        assert json.loads(dst.read_text())["verdict"] == "Realizable"

    def test_missing_file(self):
        r = run_cli(["check", "/nonexistent/path.json"])
        assert r.returncode == 2


class TestConstruct:
    def test_dot_output(self):
        r = run_cli(["construct", "--format", "dot"], RING_468)
        assert r.returncode == 0
        assert r.stdout == (
            "digraph colimit {\n"
            "  rankdir=LR;\n"
            '  "sigma_x4" [label="BSp(1)"];\n'
            '  "sigma_x4_x6" [label="BSU(3)"];\n'
            '  "sigma_x4_x8" [label="BSp(2)"];\n'
            '  "sigma_x4" -> "sigma_x4_x6" [label="iota1 . iota3"];\n'
            '  "sigma_x4" -> "sigma_x4_x8" [label="iota2"];\n'
            "}\n"
        )

    def test_json_output(self):
        r = run_cli(["construct"], RING_468)
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert [n["name"] for n in obj["nodes"]] == [
            "sigma_x4", "sigma_x4_x6", "sigma_x4_x8"
        ]

    def test_sufficient_only_still_constructs(self):
        r = run_cli(["construct"], PAIR_44)
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert obj["partition"] == [["a"], ["b"]]

    def test_no_diagram_when_refuted(self):
        r = run_cli(["construct"], SPLIT_46)
        assert r.returncode == 20
        assert r.stdout == ""
        assert "no diagram: verdict is NotRealizable" in r.stderr

    def test_no_diagram_when_unknown(self):
        r = run_cli(["construct"], EXCEPTIONAL)
        assert r.returncode == 30
        assert "no diagram: verdict is Unknown" in r.stderr


class TestVerify:
    def test_default_truncation_passes(self):
        r = run_cli(["verify"], RING_468)
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert obj["passed"] is True
        assert obj["D"] == 48  # six times the top degree

    def test_text_format(self):
        r = run_cli(["verify", "--format", "text", "--max-degree", "20"], RING_468)
        assert r.returncode == 0
        assert r.stdout.startswith("verification up to degree 20: PASS")

    def test_verdict_exit_when_no_diagram(self):
        r = run_cli(["verify"], SPLIT_46)
        assert r.returncode == 20

    def test_colliding_node_names_pass(self, tmp_path):
        assert run_cli(["check"], COLLIDING_NAMES).returncode == 0
        r = run_cli(["verify"], COLLIDING_NAMES)
        assert r.returncode == 0, json.loads(r.stdout)["first_discrepancy"]
        obj = json.loads(run_cli(["construct"], COLLIDING_NAMES).stdout)
        r = run_cli(["verify", *diagram_args(tmp_path, obj)], COLLIDING_NAMES)
        assert r.returncode == 0, json.loads(r.stdout)["first_discrepancy"]

    def test_external_diagram_mutation_fails(self, tmp_path):
        obj = json.loads(run_cli(["construct"], RING_468).stdout)
        for node in obj["nodes"]:
            if node["name"] == "sigma_x4_x8":
                node["factors"][0]["factor"]["n"] = 3
        r = run_cli(["verify", *diagram_args(tmp_path, obj)], RING_468)
        assert r.returncode == 1
        report = json.loads(r.stdout)
        assert report["passed"] is False
        assert "sigma_x4_x8" in report["first_discrepancy"]

    @pytest.mark.parametrize("kind", ["BSp", "BSU"])
    @pytest.mark.parametrize("rank", [10**9, 10**30])
    def test_huge_factor_rank_is_a_discrepancy_within_1_gb(self, kind, rank, tmp_path):
        obj = json.loads(run_cli(["construct"], RING_468).stdout)
        for node in obj["nodes"]:
            if node["name"] == "sigma_x4_x8":
                node["factors"][0]["factor"] = {"kind": kind, "n": rank}
        r = run_child(["-m", "srrealize.cli", "verify", *diagram_args(tmp_path, obj)],
                      RING_468, address_space=1 << 30)
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        assert "sigma_x4_x8" in json.loads(r.stdout)["first_discrepancy"]

    def test_external_diagram_unmutated_passes(self, tmp_path):
        obj = json.loads(run_cli(["construct"], RING_468).stdout)
        r = run_cli(["verify", *diagram_args(tmp_path, obj), "--max-degree", "24"],
                    RING_468)
        assert r.returncode == 0


# each _diagram_mutation case and the exact error it exits 2 with
_WRONG_TYPE_ERRORS = {
    "string_partition": "diagram file 'partition' must be a JSON list",
    "bool_block": "diagram node factor 'block' must be a JSON int",
    "float_block": "diagram node factor 'block' must be a JSON int",
    "string_rank": "diagram factor 'n' must be a JSON int",
    "int_after_iota3": "diagram map 'after_iota3' must be a JSON bool",
    "int_vertex_id": "diagram node 'simplex' must be a list of vertex ids",
    "node_not_object": "diagram node must be an object",
    "list_generator_map":
        "diagram generator_map must map vertex ids to ids or null",
    "int_generator_image":
        "diagram generator_map must map vertex ids to ids or null",
}


def _diagram_mutation(obj, case):
    node = next(n for n in obj["nodes"] if n["name"] == "sigma_x4_x6")
    iota1 = next(
        m for e in obj["edges"] for m in e["maps"]
        if m["lie"] and m["lie"]["kind"] == "iota1"
    )
    if case == "string_partition":
        obj["partition"] = "x4x6x8"
    elif case == "bool_block":
        node["factors"][0]["block"] = False
    elif case == "float_block":
        node["factors"][0]["block"] = 0.0
    elif case == "string_rank":
        node["factors"][0]["factor"]["n"] = str(node["factors"][0]["factor"]["n"])
    elif case == "int_after_iota3":
        iota1["lie"]["after_iota3"] = 1
    elif case == "int_vertex_id":
        node["simplex"] = [4, 6]
    elif case == "node_not_object":
        obj["nodes"][0] = 5
    elif case == "list_generator_map":
        obj["edges"][0]["generator_map"] = ["x4"]
    elif case == "int_generator_image":
        obj["edges"][0]["generator_map"]["x4"] = 4
    return obj


class TestInputHardening:
    """Malformed, deep or oversized input exits 2, never with a traceback
    or with exit 1 (the code for a verify discrepancy)."""

    # The nesting tests run in a child: pytest's stack is deeper than a
    # fresh interpreter's, so depth 995 in-process would hit another branch.
    @pytest.mark.parametrize("depth", [995, 100_000])
    def test_deeply_nested_complex(self, depth):
        text = '{"vertices": [' + "[" * depth + "]" * depth + '], "facets": []}'
        r = run_child(["-m", "srrealize.cli", "check"], text)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("depth", [995, 100_000])
    def test_deeply_nested_diagram(self, depth, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"partition": ' + "[" * depth + "]" * depth + "}")
        r = run_child(["-m", "srrealize.cli", "verify", "--diagram", str(path)],
                      RING_468)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("case", list(_WRONG_TYPE_ERRORS))
    def test_diagram_field_of_wrong_type(self, case, tmp_path):
        obj = json.loads(run_cli(["construct"], RING_468).stdout)
        obj = _diagram_mutation(obj, case)
        r = run_cli(["verify", *diagram_args(tmp_path, obj)], RING_468)
        assert (r.returncode, r.stderr) == (2, f"error: {_WRONG_TYPE_ERRORS[case]}\n")

    @pytest.mark.parametrize("where, value, stderr", [
        ("factor", {"kind": "iota2", "power": 1}, "unknown factor kind 'iota2'"),
        ("factor", {"kind": "from_point"}, "unknown factor kind 'from_point'"),
        ("map", {"kind": "BSp", "n": 1}, "unknown map kind 'BSp'"),
        ("map", {"kind": "point"}, "unknown map kind 'point'"),
        ("factor", {"kind": ["BSp"], "n": 1}, "unknown factor kind ['BSp']"),
        ("factor", {"kind": {"BSp": 1}, "n": 1}, "unknown factor kind {'BSp': 1}"),
        ("map", {"kind": ["iota2"], "power": 1}, "unknown map kind ['iota2']"),
        ("map", {"kind": {}, "power": 1}, "unknown map kind {}"),
        ("map", {"kind": "iota1", "power": 1},
         "diagram map is missing 'after_iota3'"),
    ], ids=[
        "map_kind_as_factor", "from_point_as_factor", "factor_kind_as_map",
        "point_as_map", "list_factor_kind", "dict_factor_kind", "list_map_kind",
        "dict_map_kind", "iota1_without_after_iota3",
    ])
    def test_kind_outside_its_table(self, where, value, stderr, tmp_path):
        obj = json.loads(run_cli(["construct"], RING_468).stdout)
        if where == "factor":
            obj["nodes"][0]["factors"][0]["factor"] = value
        else:
            obj["edges"][0]["maps"][0]["lie"] = value
        r = run_cli(["verify", *diagram_args(tmp_path, obj)], RING_468)
        assert (r.returncode, r.stderr) == (2, f"error: {stderr}\n")

    def test_edge_map_without_cp(self, tmp_path):
        obj = json.loads(run_cli(["construct"], RING_468).stdout)
        del obj["edges"][0]["maps"][0]["cp"]
        r = run_cli(["verify", *diagram_args(tmp_path, obj)], RING_468)
        assert (r.returncode, r.stderr) == (2, "error: diagram edge map is missing 'cp'\n")

    def test_every_package_error_is_a_value_error(self):
        # main's one `except (ValueError, OSError)` turns these into exit 2;
        # an error class outside ValueError would end in a traceback
        errors = [
            obj for module in (
                importlib.import_module(f"srrealize.{m.name}")
                for m in pkgutil.iter_modules(srrealize.__path__)
            )
            for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        ]
        assert errors
        assert [e for e in errors if not issubclass(e, ValueError)] == []

    def test_max_degree_above_cap(self):
        r = run_cli(["verify", "--max-degree", "10002"], RING_468)
        assert r.returncode == 2
        assert r.stderr == "error: truncation degree 10002 exceeds the cap of 10000\n"

    def test_default_truncation_above_cap(self):
        huge = json.dumps({
            "vertices": [{"id": "a", "degree": 10**12}], "facets": [["a"]],
        })
        r = run_cli(["verify"], huge)
        assert r.returncode == 2
        assert "exceeds the cap of 10000" in r.stderr

    @pytest.mark.parametrize("args", [
        ["check"], ["construct"], ["verify"], ["verify", "--diagram"],
        ["partition"], ["obstruct"],
    ])
    def test_poset_above_the_cap(self, args, tmp_path):
        # boundary(30): a few KB of input, |P| = 2^30 - 1
        ids = [f"v{i:02d}" for i in range(30)]
        text = json.dumps({
            "vertices": [{"id": v, "degree": 2} for v in ids],
            "facets": [[w for w in ids if w != v] for v in ids],
        })
        if args[-1] == "--diagram":
            empty = {"partition": [], "nodes": [], "edges": []}
            args = ["verify", *diagram_args(tmp_path, empty)]
        start = time.perf_counter()
        r = run_cli(args, text)
        elapsed = time.perf_counter() - start
        assert r.returncode == 2
        assert r.stderr == (
            "error: facet-intersection poset exceeds the cap of "
            f"{complexes.MAX_POSET_ELEMENTS} elements\n"
        )
        assert elapsed < 1.0, elapsed


def _vertex_ids(obj):
    return sorted({v for block in obj["partition"] for v in block}) + ["nope"]


def _id_list_mutations(value, ids):
    """value, a list of vertex ids, reversed, with an id added, or with one
    entry dropped, repeated or swapped for another id."""
    values = [value[::-1]] + [value + [w] for w in ids]
    for j in range(len(value)):
        values.append(value[:j] + value[j + 1:])
        values.append(value + [value[j]])
        values += [value[:j] + [w] + value[j + 1:] for w in ids]
    return values


def _binding_mutations(obj):
    """(label, diagram) for every diagram that differs from obj in one
    binding field of one node factor: its block index, a vertex of
    cp_vertices or lie_vertices swapped for another id (a nonexistent one
    too), dropped, repeated or added, the list reversed, or the torus rank
    of a CP^inf or point factor."""
    ids = _vertex_ids(obj)
    for n, node in enumerate(obj["nodes"]):
        for f, factor in enumerate(node["factors"]):
            where = f"{node['name']} factor {f}"
            changes = [("block", factor["block"] + 1)]
            for key in ("cp_vertices", "lie_vertices"):
                changes += [(key, v) for v in _id_list_mutations(factor[key], ids)]
            if factor["factor"]["kind"] in ("CP", "point"):
                k = len(factor["cp_vertices"])
                changes += [("factor", {"kind": "point"})] + [
                    ("factor", {"kind": "CP", "k": j}) for j in (k - 1, k + 1) if j >= 0
                ]
            for key, value in changes:
                if value == factor[key]:
                    continue
                mutated = json.loads(json.dumps(obj))
                mutated["nodes"][n]["factors"][f][key] = value
                yield f"{where} {key}={value}", mutated


def _lie_maps():
    yield None
    yield {"kind": "from_point"}
    for power in range(3):
        yield {"kind": "iota2", "power": power}
        for after in (False, True):
            yield {"kind": "iota1", "power": power, "after_iota3": after}


def _field_mutations(obj):
    """(label, diagram) for every diagram that differs from obj in one node
    or edge field: a node's name (another node's or none), its simplex (as
    in _id_list_mutations), the kind or rank of a node factor (rank 0 to
    one above the original), an edge's from/to name, its source/target
    simplex, one of its block maps (block index, Lie map, CP^inf inclusion;
    one map dropped or repeated, or the list reversed) or one entry of its
    generator_map (a new image, dropped or added)."""
    ids = _vertex_ids(obj)
    names = [node["name"] for node in obj["nodes"]] + ["sigma_nope"]
    changes = []
    for n, node in enumerate(obj["nodes"]):
        changes += [(("nodes", n, "name"), w) for w in names]
        changes += [(("nodes", n, "simplex"), v)
                    for v in _id_list_mutations(node["simplex"], ids)]
        for f, factor in enumerate(node["factors"]):
            rank = factor["factor"].get("n", factor["factor"].get("k", 0))
            factors = [{"kind": "point"}] + [
                {"kind": kind, key: r}
                for r in (rank - 1, rank, rank + 1) if r >= 0
                for kind, key in (("BSp", "n"), ("BSU", "n"), ("CP", "k"))
            ]
            if factor["factor"] == {"kind": "BSp", "n": 1} and not any(
                node["name"] in (edge["from"], edge["to"]) for edge in obj["edges"]
            ):
                # Sp(1) = SU(2), so on a node without edges BSU(2) is another
                # true label for this factor, not a corruption
                factors.remove({"kind": "BSU", "n": 2})
            changes += [(("nodes", n, "factors", f, "factor"), v) for v in factors]
    for e, edge in enumerate(obj["edges"]):
        at = ("edges", e)
        changes += [(at + (key,), w) for key in ("from", "to") for w in names]
        changes += [(at + (key,), v) for key in ("source", "target")
                    for v in _id_list_mutations(edge[key], ids)]
        maps = edge["maps"]
        changes += [(at + ("maps",), maps[::-1])]
        for m, bm in enumerate(maps):
            changes += [(at + ("maps",), maps[:m] + maps[m + 1:]),
                        (at + ("maps",), maps + [bm]),
                        (at + ("maps", m, "block"), bm["block"] + 1)]
            changes += [(at + ("maps", m, "lie"), v) for v in _lie_maps()]
            changes += [(at + ("maps", m, "cp"), v)
                        for v in (None, {"source": [], "target": []})]
            if bm["cp"]:
                changes += [(at + ("maps", m, "cp", key), v)
                            for key in ("source", "target")
                            for v in _id_list_mutations(bm["cp"][key], ids)]
        gmap = edge["generator_map"]
        for v in ids:
            changes += [(at + ("generator_map",), {**gmap, v: w})
                        for w in [None, *ids]]
            changes.append((at + ("generator_map",),
                            {w: x for w, x in gmap.items() if w != v}))
    for path, value in changes:
        mutated = json.loads(json.dumps(obj))
        parent = mutated
        for key in path[:-1]:
            parent = parent[key]
        if parent[path[-1]] == value:
            continue
        parent[path[-1]] = value
        yield f"{'/'.join(map(str, path))}={value}", mutated


def _partition_mutations(obj):
    """(label, diagram) for every diagram that differs from obj in one
    partition field: one block changed as in _id_list_mutations (reversed,
    an entry dropped, repeated or swapped for another id, an id added), two
    neighbouring entries of a block swapped, or one vertex moved to another
    block or to a new one."""
    blocks = obj["partition"]
    ids = _vertex_ids(obj)
    changes = []
    for i, block in enumerate(blocks):
        changes += [(f"block {i}={v}", blocks[:i] + [v] + blocks[i + 1:])
                    for v in _id_list_mutations(block, ids)]
        for j, v in enumerate(block):
            if j + 1 < len(block):
                swapped = block[:j] + [block[j + 1], v] + block[j + 2:]
                changes.append((f"block {i} swap {j}",
                                blocks[:i] + [swapped] + blocks[i + 1:]))
            for k in range(len(blocks) + 1):
                if k == i:
                    continue
                moved = [[w for w in b if w != v] for b in blocks] + [[]]
                moved[k].append(v)
                moved[k].sort()
                changes.append((f"{v} to block {k}", [b for b in moved if b]))
    for label, partition in changes:
        if partition == blocks:
            continue
        mutated = json.loads(json.dumps(obj))
        mutated["partition"] = partition
        yield label, mutated


MUTATION_FIXTURES = {
    "RING_468": RING_468, "PAIR_44": PAIR_44,
    "double_fan": complex_json(ring_double_fan()),
    "TORUS_AND_SP": TORUS_AND_SP, "TORUS_BESIDE_SP": TORUS_BESIDE_SP,
}


class TestBindingMutations:
    """verify checks everything a diagram claims: each single-field
    corruption of a node factor's binding exits 1, and each one of any
    other node or edge field exits 1 or, where it cannot be parsed, 2."""

    def _mutations_passing_verify(self, name, mutations, codes, tmp_path):
        text = MUTATION_FIXTURES[name]
        built = run_cli(["construct"], text)
        assert built.returncode == 0
        obj = json.loads(built.stdout)
        assert run_cli(["verify", *diagram_args(tmp_path, obj)], text).returncode == 0
        passed, count = [], 0
        for label, mutated in mutations(obj):
            count += 1
            r = run_cli(["verify", *diagram_args(tmp_path, mutated)], text)
            if r.returncode not in codes:
                passed.append(label)
        assert count >= 10
        return passed

    @pytest.mark.parametrize("name", list(MUTATION_FIXTURES))
    def test_every_binding_mutation_fails(self, name, tmp_path):
        assert self._mutations_passing_verify(
            name, _binding_mutations, (1,), tmp_path) == []

    @pytest.mark.parametrize("name", list(MUTATION_FIXTURES))
    def test_every_node_and_edge_mutation_fails(self, name, tmp_path):
        assert self._mutations_passing_verify(
            name, _field_mutations, (1, 2), tmp_path) == []

    @pytest.mark.parametrize("name", list(MUTATION_FIXTURES))
    def test_every_partition_mutation_fails(self, name, tmp_path):
        assert self._mutations_passing_verify(
            name, _partition_mutations, (1, 2), tmp_path) == []

    def test_reversed_block_fails(self, tmp_path):
        obj = json.loads(run_cli(["construct"], RING_468).stdout)
        assert obj["partition"] == [["x4", "x6", "x8"]]
        obj["partition"] = [["x8", "x6", "x4"]]
        r = run_cli(["verify", *diagram_args(tmp_path, obj)], RING_468)
        assert r.returncode == 1
        assert json.loads(r.stdout)["first_discrepancy"] == (
            "diagram partition blocks are not in strictly ascending id order"
        )

    def test_empty_block_fails(self, tmp_path):
        # an extra empty block, a point factor for it at every node and no
        # map on every edge agree with everything else the diagram claims
        obj = json.loads(run_cli(["construct"], RING_468).stdout)
        obj["partition"].append([])
        for node in obj["nodes"]:
            node["factors"].append({"block": 1, "factor": {"kind": "point"},
                                    "cp_vertices": [], "lie_vertices": []})
        for edge in obj["edges"]:
            edge["maps"].append({"block": 1, "lie": None, "cp": None})
        r = run_cli(["verify", *diagram_args(tmp_path, obj)], RING_468)
        assert r.returncode == 1
        assert json.loads(r.stdout)["first_discrepancy"] == (
            "diagram partition has an empty block"
        )

    @pytest.mark.parametrize("degree", ["0", "2"])
    def test_overlapping_blocks_fail(self, degree, tmp_path):
        # a second block {x4} with a BSp(1) factor at every node and an
        # identity map on every edge is consistent with everything below
        # degree 4, so only the partition itself can give it away
        obj = json.loads(run_cli(["construct"], RING_468).stdout)
        obj["partition"].append(["x4"])
        for node in obj["nodes"]:
            node["factors"].append({"block": 1, "factor": {"kind": "BSp", "n": 1},
                                    "cp_vertices": [], "lie_vertices": ["x4"]})
        for edge in obj["edges"]:
            edge["maps"].append(
                {"block": 1, "lie": {"kind": "iota2", "power": 0}, "cp": None})
        r = run_cli(["verify", *diagram_args(tmp_path, obj), "--max-degree", degree],
                    RING_468)
        assert r.returncode == 1
        assert json.loads(r.stdout)["first_discrepancy"] == (
            "diagram partition blocks are not disjoint"
        )

    def test_named_cp_bindings_fail(self, tmp_path):
        obj = json.loads(run_cli(["construct"], TORUS_AND_SP).stdout)
        assert obj["nodes"][0]["factors"][0]["cp_vertices"] == ["t", "u"]
        for cp in (["t", "zz"], ["u", "t"], ["t", "t"]):
            obj["nodes"][0]["factors"][0]["cp_vertices"] = cp
            r = run_cli(["verify", *diagram_args(tmp_path, obj)], TORUS_AND_SP)
            assert r.returncode == 1, cp
            report = json.loads(r.stdout)
            assert report["first_discrepancy"] == (
                "node sigma_t_u_x4 factor 0 does not bind the generators of "
                "partition block 0"
            )


def _unknown_id_mutations(obj):
    """(label, diagram) for every diagram that differs from obj in one id,
    replaced by the undeclared "zz": in a partition block, a node simplex,
    a node factor's cp_vertices or lie_vertices ("zz" alone when the list
    is empty), an edge's source or target simplex, or a generator_map key
    or image."""
    lists = [("partition", i) for i in range(len(obj["partition"]))]
    for n, node in enumerate(obj["nodes"]):
        lists.append(("nodes", n, "simplex"))
        lists += [("nodes", n, "factors", f, key)
                  for f in range(len(node["factors"]))
                  for key in ("cp_vertices", "lie_vertices")]
    lists += [("edges", e, key)
              for e in range(len(obj["edges"])) for key in ("source", "target")]

    def at(o, path):
        for key in path:
            o = o[key]
        return o

    for path in lists:
        for j in range(max(len(at(obj, path)), 1)):
            mutated = json.loads(json.dumps(obj))
            at(mutated, path)[j:j + 1] = ["zz"]
            yield f"{'/'.join(map(str, path))}/{j}", mutated
    for e, edge in enumerate(obj["edges"]):
        gmap = edge["generator_map"]
        for v, img in gmap.items():
            maps = [("key", {("zz" if w == v else w): x for w, x in gmap.items()})]
            if img is not None:
                maps.append(("image", {**gmap, v: "zz"}))
            for what, value in maps:
                mutated = json.loads(json.dumps(obj))
                mutated["edges"][e]["generator_map"] = value
                yield f"edges/{e}/generator_map {what} {v}", mutated


class TestUnknownIds:
    """An id the complex does not declare, in any id-bearing field of a
    diagram, is a verification failure (exit 1), not an input error, and
    so is a node on declared ids that span no face."""

    def test_every_field_gives_a_failing_report(self, tmp_path):
        built = run_cli(["construct"], RING_468)
        assert built.returncode == 0
        labels = []
        for label, mutated in _unknown_id_mutations(json.loads(built.stdout)):
            r = run_cli(["verify", *diagram_args(tmp_path, mutated)], RING_468)
            assert r.returncode == 1, label
            assert json.loads(r.stdout)["passed"] is False, label
            labels.append(label)
        assert len(labels) == 28
        assert any(label.startswith("nodes/0/simplex") for label in labels)

    def test_node_simplex_is_not_a_face(self, tmp_path):
        obj = json.loads(run_cli(["construct"], RING_468).stdout)
        assert obj["nodes"][0]["name"] == "sigma_x4"
        obj["nodes"][0]["simplex"] = ["zz"]
        r = run_cli(["verify", *diagram_args(tmp_path, obj), "--format", "text"],
                    RING_468)
        assert (r.returncode, r.stderr) == (1, "")
        assert "\n  structure: node sigma_x4 is not a face\n" in r.stdout

    def test_node_on_a_hollow_triangle_is_not_a_face(self, tmp_path):
        # each pair of a, b, c spans a facet, so a face test that ORs the
        # vertices' facets where it should AND them takes [a, b, c] for a face
        text = json.dumps({
            "vertices": [{"id": v, "degree": 2} for v in "abc"],
            "facets": [["a", "b"], ["b", "c"], ["a", "c"]],
        })
        built = run_cli(["construct"], text)
        assert built.returncode == 0
        obj = json.loads(built.stdout)
        node = next(n for n in obj["nodes"] if n["name"] == "sigma_a_b")
        obj["nodes"].append({**node, "name": "sigma_a_b_c", "simplex": ["a", "b", "c"]})
        r = run_cli(["verify", *diagram_args(tmp_path, obj), "--format", "text"], text)
        assert (r.returncode, r.stderr) == (1, "")
        assert "\n  structure: node sigma_a_b_c is not a face\n" in r.stdout


class TestOnePosetPerCommand:
    """Every command builds the facet index and the facet-intersection
    poset once, and its covering pairs at most once: pmax is rebound in
    every srrealize module and MaxIntersectionPoset.covers on its class, the
    way the bench tracer wraps them, the vertex_facets property is replaced
    by a counting one, and all three are counted around one cli main call."""

    @pytest.mark.parametrize("args, text, ncovers", [
        (["check"], RING_468, 0),
        (["construct"], RING_468, 1),
        (["verify"], RING_468, 1),  # build_diagram and verify_construction
        (["verify", "--diagram"], RING_468, 1),
        (["partition"], RING_468, 0),
        (["obstruct"], RING_468, 0),
        (["construct"], PAIR_44, 1),
        (["check"], json.dumps({
            "vertices": [{"id": "a", "degree": 8}, {"id": "b", "degree": 8}],
            "facets": [["a", "b"]],
        }), 0),
    ], ids=[
        "check-RING_468", "construct-RING_468", "verify-RING_468",
        "verify_diagram-RING_468", "partition-RING_468", "obstruct-RING_468",
        "construct-PAIR_44", "check-one_facet_88",
    ])
    def test_one_pmax_call(self, args, text, ncovers, tmp_path, monkeypatch):
        if "--diagram" in args:
            obj = json.loads(run_cli(["construct"], text).stdout)
            args = ["verify", *diagram_args(tmp_path, obj)]
        pmax, covers = complexes.pmax, complexes.MaxIntersectionPoset.covers
        build_index = complexes.ComplexWithDegrees.vertex_facets.func
        calls, cover_calls, index_builds = [], [], []

        def counted(c):
            calls.append(c)
            return pmax(c)

        def counted_covers(poset):
            cover_calls.append(poset)
            return covers(poset)

        def counted_index(c):
            index_builds.append(c)
            return build_index(c)

        index = cached_property(counted_index)
        index.__set_name__(complexes.ComplexWithDegrees, "vertex_facets")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "srrealize" and (
                getattr(module, "pmax", None) is pmax
            ):
                monkeypatch.setattr(module, "pmax", counted)
        monkeypatch.setattr(complexes.MaxIntersectionPoset, "covers", counted_covers)
        monkeypatch.setattr(complexes.ComplexWithDegrees, "vertex_facets", index)
        run_cli(args, text)
        assert len(calls) == 1
        assert len(cover_calls) == ncovers
        assert len(index_builds) == 1


class TestPartition:
    def test_found(self):
        r = run_cli(["partition", "--format", "text"], PAIR_44)
        assert r.returncode == 0
        assert r.stdout == "a | b\n"

    def test_json(self):
        r = run_cli(["partition"], PAIR_44)
        assert json.loads(r.stdout) == {"partition": [["a"], ["b"]]}

    def test_none(self):
        r = run_cli(["partition", "--format", "text"], SPLIT_46)
        assert r.returncode == 1
        assert r.stdout == "none\n"


class TestObstruct:
    def test_text_lines(self):
        r = run_cli(["obstruct", "--format", "text"], SPLIT_46)
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            "sigma []: multiset [] -> Torus degrees []",
            "sigma ['x4']: multiset [4] -> Sp degrees [4]",
            "sigma ['x6']: multiset [6] -> inadmissible: TableMiss",
        ]

    def test_json_classes(self):
        r = run_cli(["obstruct"], RING_468)
        obj = json.loads(r.stdout)
        got = {tuple(e["simplex"]): e["class"]["family"] for e in obj["sigmas"]}
        assert got == {("x4",): "Sp", ("x4", "x6"): "SU", ("x4", "x8"): "Sp"}

    def test_thomas_reason_serialization(self):
        src = THOMAS_412
        r = run_cli(["obstruct"], src)
        obj = json.loads(r.stdout)
        facet_entry = next(
            e for e in obj["sigmas"] if e["simplex"] == ["a", "b"]
        )
        assert facet_entry["class"]["reason"] == {
            "kind": "ThomasRank", "target": 12, "i": 2,
            "source": 8, "dimSource": 0, "dimTarget": 1,
        }
        text = run_cli(["obstruct", "--format", "text"], src)
        assert "ThomasRank target 12 source 8 dims 0<1" in text.stdout


class TestPrime:
    def test_default(self):
        r = run_cli(["prime"])
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert obj["prime"] == 983
        assert obj["residues"] == {"16": 7, "3": 2, "5": 3, "7": 3}

    def test_lower_bound(self):
        r = run_cli(["prime", "--gt", "1000"])
        assert json.loads(r.stdout)["prime"] == 2663

    def test_extra_primes(self):
        r = run_cli(["prime", "--extra", "11", "--extra", "13"])
        p = json.loads(r.stdout)["prime"]
        assert p == naive_congruence_prime([11, 13], 0)

    def test_text_format(self):
        r = run_cli(["prime", "--format", "text"])
        assert r.stdout == "983 (mod 16 = 7, mod 3 = 2, mod 5 = 3, mod 7 = 3)\n"

    def test_invalid_extra(self):
        r = run_cli(["prime", "--extra", "9"])
        assert r.returncode == 2

    def test_extra_at_the_miller_rabin_bound(self):
        # 399165290221 * 798330580441 passes Miller-Rabin on bases 2..37
        r = run_cli(["prime", "--extra", "318665857834031151167461"])
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith("error:")


class TestVerifyGoldenBytes:
    """sha256 of `verify` stdout at the default truncation, recorded from
    the recurrence that rebuilt every prefix complex; any change to a
    report byte shows here."""

    @pytest.mark.parametrize("name, fmt, digest", [
        ("double_fan", "json", "a743d0fe28c4205cf5e5e2326e61c8009ba8556eec275946970445e8b9f19a5f"),
        ("double_fan", "text", "5fae59ea851b268e98225631707884fac4c73bfdc78d9aaefb976d70e04021ec"),
        ("torus_20", "json", "5b24ca1283941c64c2c93ee973668e11059f7f936bb4f9f423d33422fd0cfe23"),
        ("torus_20", "text", "ef0654c929b32968c99be71ce8e359dcaf7a76f2d3768c7d723fc1d729c3191d"),
    ])
    def test_stdout_digest(self, name, fmt, digest):
        stdin = {"double_fan": complex_json(ring_double_fan()),
                 "torus_20": TORUS_20}[name]
        r = run_cli(["verify", "--format", fmt], stdin)
        assert r.returncode == 0
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


def _failing_mutation(obj, case):
    if case == "factor_rank":
        obj["nodes"][1]["factors"][0]["factor"]["n"] += 1
    elif case == "generator_null":
        obj["edges"][0]["generator_map"]["x4"] = None
    elif case == "lie_power":
        obj["edges"][1]["maps"][0]["lie"]["power"] += 1
    elif case == "partition_missing_x8":
        obj["partition"] = [["x4", "x6"]]
    elif case == "last_edge_dropped":
        obj["edges"].pop()
    return obj


class TestFailingVerifyGoldenBytes:
    """sha256 of `verify --diagram` stdout for five single mutations of
    RING_468's diagram, recorded while NodeCheck and EdgeCheck still stored
    ok beside the reason it restates; a failing report's bytes show here."""

    @pytest.mark.parametrize("case, fmt, digest", [
        ("factor_rank", "json",
         "a227a2b53548ee98b55b7a48ec28b8b6c541b68d7e5b9a4d3d44cdc6352f2436"),
        ("factor_rank", "text",
         "b8dbb0cfdc7c30a6d329c7e0d8ec11cd3b0e3ad070a0100b91b9338bc0d3967c"),
        ("generator_null", "json",
         "45f3adfc334b69f3a30a44a3256435644a5a1711f557050ff5fb15f81f19e29c"),
        ("generator_null", "text",
         "832f7310a57d7c083c1ecef434243c98db74554c8a510867b6e33dc609be5efb"),
        ("lie_power", "json",
         "68e4076cd2a17c7d8df891ae0f5a7243173d1d788b9d5ae7d416e3637162843f"),
        ("lie_power", "text",
         "ac57bec7ea279593ca142527a22765b2bbac6f8751ecf6c811ff3f1fa0ff5204"),
        ("partition_missing_x8", "json",
         "21b8d4213c9a05a0a8fd6cd75945b608939b1e1c81b2ee281ce2cc844b4f0af3"),
        ("partition_missing_x8", "text",
         "b039f8270b321e9f428688769a9b9d12e71144197941e330e7a1392212a82a91"),
        ("last_edge_dropped", "json",
         "27965e94b999eb495a531af94a57a3c4da1ac970e39a0e602f4d3f329546b392"),
        ("last_edge_dropped", "text",
         "890bda3800a1edb3645157172e5ee3ec18937d11e1b01fee0fee143f1873efa4"),
    ])
    def test_stdout_digest(self, case, fmt, digest, tmp_path):
        obj = json.loads(run_cli(["construct"], RING_468).stdout)
        obj = _failing_mutation(obj, case)
        r = run_cli(["verify", *diagram_args(tmp_path, obj), "--format", fmt], RING_468)
        assert (r.returncode, r.stderr) == (1, "")
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


class TestCheckConstructGoldenBytes:
    """sha256 of stdout, the stderr text and the exit code of `check` and
    `construct` (and of `verify` where no diagram is built), recorded while
    full_report still ran the partition search after every refutation and
    build_diagram still relabelled both ends of every edge."""

    EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

    @pytest.mark.parametrize("cmd, name, fmt, code, stderr, digest", [
        ("check", "RING_468", "json", 0, "",
         "d989bc4fc35aa82cac86544cf22759b6da16ca145a485559aeaab1f1de5f778a"),
        ("check", "RING_468", "text", 0, "",
         "c02d68d490ae6e425a5f39d61835acf47f558bbc9c586de2bee2c62a6fcba09a"),
        ("check", "SPLIT_46", "json", 20, "",
         "cf9e0178d864e3fcfc46072adfbcbb02f894d000b237bb0971b8b0b5ee18e3bc"),
        ("check", "SPLIT_46", "text", 20, "",
         "948d70932323828213ac80186f0234b80ba8291b1a48fbd62c205b44764c7a35"),
        ("check", "PAIR_44", "json", 10, "",
         "1dd80eab3a8f4ce5e2977ba67f8b85e5fecfeaa8729b04fd0d171bb223aa761e"),
        ("check", "PAIR_44", "text", 10, "",
         "25f79a333f204e55ef6b036dfb5fc4039911b14835ae95bc7154204e86c04159"),
        ("check", "EXCEPTIONAL", "json", 30, "",
         "11ec94c36d2230302aa3c812e21f6b863c3a34d5c6a02b845ce0991747365e42"),
        ("check", "EXCEPTIONAL", "text", 30, "",
         "c80c3db2b2cb606bacf75bac6c2e4b9221e58958b5c800a6b0031b726c3f4bc1"),
        ("check", "BLOCKED_PAIR", "json", 40, "",
         "3f5299ae2e15c35491ace65340bff9affba04ab37c92b69db93692b76dc1a691"),
        ("check", "BLOCKED_PAIR", "text", 40, "",
         "f997c9d748233a6d1b427b09f21aefb3142591bea251cea1caf37faaf5dee64e"),
        ("construct", "RING_468", "json", 0, "",
         "b1b0e96bc2544313e42f23fd9fa187799d92b20c4568121f707da1e1aa07415d"),
        ("construct", "RING_468", "dot", 0, "",
         "7e38fcfbb4e53daacd46adbcf0bd0601fada803e7cbb2b4a6dbfd1154aca8eae"),
        ("construct", "PAIR_44", "json", 0, "",
         "9ea3ab6e28e1025fcd835f023b7c4995510be9ebb47ff0fadb482e6f473159f0"),
        ("construct", "PAIR_44", "dot", 0, "",
         "db9a39b27b7839b6e5212a0d2a8efb55e847debbe5a03f0ea514d25e2a7ca2d3"),
        ("construct", "double_fan", "json", 0, "",
         "45278d52ea864a9db92f58ee543c7ae68ba797064d8a89bd7fa2d94dc2fe7b39"),
        ("construct", "double_fan", "dot", 0, "",
         "f799c90b8685656b55eab2c54e24080dc1508a244446fb8e213bacec571fdfee"),
        ("construct", "TORUS_20", "json", 0, "",
         "afcba2cd657f3d799eaa79eefda17924baa517ce6e0627f248bd2db4ef2168b2"),
        ("construct", "TORUS_20", "dot", 0, "",
         "3d85c9a29c8cfab11ef7fa533e1ca730bca22ba79f339703a9958b80c1eae7ee"),
        ("construct", "SPLIT_46", "json", 20,
         "no diagram: verdict is NotRealizable\n", EMPTY),
        ("construct", "EXCEPTIONAL", "json", 30,
         "no diagram: verdict is Unknown\n", EMPTY),
        ("construct", "BLOCKED_PAIR", "json", 40,
         "no diagram: verdict is HypothesisViolated\n", EMPTY),
        ("verify", "SPLIT_46", "json", 20,
         "no diagram: verdict is NotRealizable\n", EMPTY),
        ("verify", "EXCEPTIONAL", "json", 30,
         "no diagram: verdict is Unknown\n", EMPTY),
        ("verify", "BLOCKED_PAIR", "json", 40,
         "no diagram: verdict is HypothesisViolated\n", EMPTY),
    ])
    def test_stdout_stderr_and_exit(self, cmd, name, fmt, code, stderr, digest):
        stdin = {
            "RING_468": RING_468, "SPLIT_46": SPLIT_46, "PAIR_44": PAIR_44,
            "EXCEPTIONAL": EXCEPTIONAL, "BLOCKED_PAIR": BLOCKED_PAIR,
            "TORUS_20": TORUS_20, "double_fan": complex_json(ring_double_fan()),
        }[name]
        r = run_cli([cmd, "--format", fmt], stdin)
        assert r.returncode == code
        assert r.stderr == stderr
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


class TestPartitionObstructPrimeGoldenBytes:
    """sha256 of stdout and the exit code of `partition`, `obstruct` and
    `prime`, recorded while every command still wrote its own JSON and
    text branches; stderr stays empty."""

    @pytest.mark.parametrize("cmd, name, fmt, code, digest", [
        ("partition", "RING_468", "json", 0,
         "ca4a6d6d2845eb22937e4c3223f133f967e1d27a477f59fb77193280dac6c07e"),
        ("partition", "RING_468", "text", 0,
         "4f20a3488ca8602c2142cb001c82b1467714f1a613e09eedb1d64d5f63484e6b"),
        ("partition", "PAIR_44", "json", 0,
         "ede60392b48be583d73332cb1ba946e0a7ab45a2ca7abef1192ff8fd55539986"),
        ("partition", "PAIR_44", "text", 0,
         "f206c6435a91879789774e7cc80d4cf092d146af29514b34c7506df94a41a2d4"),
        ("partition", "SPLIT_46", "json", 1,
         "c9cccbd7e184e2959380fce713752794443faba4ea2c13d4cc907c703c938a1e"),
        ("partition", "SPLIT_46", "text", 1,
         "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
        ("partition", "BLOCKED_PAIR", "json", 1,
         "c9cccbd7e184e2959380fce713752794443faba4ea2c13d4cc907c703c938a1e"),
        ("partition", "BLOCKED_PAIR", "text", 1,
         "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
        ("obstruct", "RING_468", "json", 0,
         "174a998ec7f2f168cda9a7cf7f305c3a28901eb10f62f9b3cdf9399deaf68d1e"),
        ("obstruct", "RING_468", "text", 0,
         "30bc700b3fe4353d673f4173245dd075f2dcd079190aa697e84dfbd91979f17b"),
        ("obstruct", "PAIR_44", "json", 0,
         "d1948003738ff4100e1ed5e4d288e837f91eb679db12dff83226503d1c38072b"),
        ("obstruct", "PAIR_44", "text", 0,
         "831738d3a5e68add519a1b44ccc70ce316e4032db796000dba3d8c9f2c31a3a9"),
        ("obstruct", "SPLIT_46", "json", 0,
         "54ebe4c469d70b80583ce3b7e8d101889771d46ca4937b8ae546f7d993af0165"),
        ("obstruct", "SPLIT_46", "text", 0,
         "74e81705e1bcfb8b7d7acf456180ec7ab9a74cb81b37fde8b1e493787eef5bba"),
        ("obstruct", "BLOCKED_PAIR", "json", 0,
         "12aa51ef8d86ad536c7129560968d977ca067983e819d6f110f0502197740453"),
        ("obstruct", "BLOCKED_PAIR", "text", 0,
         "4d512f7ce7f4f486b4a94d35900d1fbbe0ada121cdc7770c0b0a475d91838764"),
        ("obstruct", "EXCEPTIONAL", "json", 0,
         "8f045b678d2a5ea0594cf7c8c1488273359b64529b369e2315bdfdcae5f656e7"),
        ("obstruct", "EXCEPTIONAL", "text", 0,
         "3d30c035a34082e5b6dc5cc74fb1be3a4d73034cc1a923ed262e4a356e41dcc2"),
        ("obstruct", "ADEM_416", "json", 0,
         "86cba6e94dc5d875e7c8c9b744c3bdc5032275ef64bc831d08b108d5fcc47310"),
        ("obstruct", "ADEM_416", "text", 0,
         "35aa9bdbc97f4648cb3805999578585106c070f52b6f71c93ee99999a580fd8f"),
        ("obstruct", "THOMAS_412", "json", 0,
         "70ff8318584da619b5217267b0fd9983b17656cf88b629602a213f6d4a411346"),
        ("obstruct", "THOMAS_412", "text", 0,
         "852e011c7ee7f9fbf3e973adc6163ba8677e97467f05c0ca807ea4a8d46e6f85"),
        ("prime", None, "json", 0,
         "6235ea367ea8484349965355ed2d75e2aeaf0776bf7dc0b3af8954c593912e38"),
        ("prime", None, "text", 0,
         "2e37d580b0d9283aa400afb184b2cc1094eb00a05ffbbfa799e29f98fad6535b"),
    ])
    def test_stdout_and_exit(self, cmd, name, fmt, code, digest):
        if cmd == "prime":
            r = run_cli(["prime", "--gt", "1000", "--extra", "11", "--format", fmt])
        else:
            stdin = {
                "RING_468": RING_468, "SPLIT_46": SPLIT_46, "PAIR_44": PAIR_44,
                "EXCEPTIONAL": EXCEPTIONAL, "BLOCKED_PAIR": BLOCKED_PAIR,
                "ADEM_416": ADEM_416, "THOMAS_412": THOMAS_412,
            }[name]
            r = run_cli([cmd, "--format", fmt], stdin)
        assert r.returncode == code
        assert r.stderr == ""
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


class TestDeterminism:
    def test_byte_identical_across_hash_seeds(self):
        for args, stdin in (
            (["check"], RING_468),
            (["construct"], RING_468),
            (["construct", "--format", "dot"], RING_468),
            (["verify", "--max-degree", "24"], RING_468),
            (["check"], EXCEPTIONAL),
        ):
            outs = {run_seeded(("-m", "srrealize.cli", *args), stdin, s).stdout
                    for s in ("0", "1", "2")}
            assert len(outs) == 1, args

    def test_facet_order_does_not_change_check_or_construct(self):
        flipped = json.dumps({
            "vertices": [
                {"id": "x8", "degree": 8},
                {"id": "x6", "degree": 6},
                {"id": "x4", "degree": 4},
            ],
            "facets": [["x8", "x4"], ["x6", "x4"]],
        })
        for args in (["check"], ["construct"]):
            assert run_cli(args, RING_468).stdout == run_cli(args, flipped).stdout


class TestProcessExitStatus:
    """`python -m srrealize.cli` exits with main's return value, or argparse's
    usage error, and writes the bytes the in-process run writes."""

    @pytest.mark.parametrize("args, stdin, code", [
        (["check"], RING_468, 0),
        (["verify"], RING_468, 1),
        (["check"], "{", 2),
        (["nosuch"], "", 2),
        (["check"], PAIR_44, 10),
        (["check"], SPLIT_46, 20),
        (["check"], EXCEPTIONAL, 30),
        (["check"], BLOCKED_PAIR, 40),
    ], ids=["realizable", "discrepancy", "malformed", "usage", "sufficient_only",
            "not_realizable", "unknown", "hypothesis_violated"])
    def test_exit_status(self, args, stdin, code, tmp_path):
        if code == 1:  # a mutated diagram
            obj = json.loads(run_cli(["construct"], RING_468).stdout)
            args = args + diagram_args(tmp_path, _failing_mutation(obj, "factor_rank"))
        r = run_child(["-m", "srrealize.cli", *args], stdin)
        assert r.returncode == code
        assert r == run_cli(args, stdin)


def dumps_indented(obj):
    return json.dumps(obj, indent=2) + "\n"


def oracle_outputs(c):
    """What check, partition, obstruct and (when there is a partition)
    verify must print for c: json.dumps(obj, indent=2) + "\\n" on the
    object each command used to hand to json.dumps."""
    verdict = full_report(c)
    part = find_partition(c)
    out = {
        "check": verdict_to_json(verdict),
        "partition": {"partition": None if part is None else [list(b) for b in part]},
        "obstruct": {"sigmas": [
            {"simplex": list(k), "multiset": list(ms),
             "class": class_to_json(classify(ms))}
            for k, ms in zip(c.poset.keys, c.poset.multisets)
        ]},
    }
    if isinstance(verdict, (Realizable, SufficientOnly)):
        d = 6 * max(c.degree_map.values(), default=2)
        report = verify_construction(c, build_diagram(c, verdict.partition), d)
        out["verify"] = report_to_json_dict(report)
    return {cmd: dumps_indented(obj) for cmd, obj in out.items()}


class TestJsonWriterBytes:
    """Every command writes its JSON through one writer (diagram's layout
    helpers), with exactly the bytes json.dumps(obj, indent=2) + "\\n"
    writes for the object the command used to build."""

    @PROPERTY
    @given(complex_draws())
    def test_every_command_matches_json_dumps(self, c):
        text = complex_json(c)
        for cmd, want in oracle_outputs(c).items():
            assert run_cli([cmd], text).stdout == want, cmd

    @pytest.mark.parametrize("text", [
        RING_468, SPLIT_46, PAIR_44, EXCEPTIONAL, BLOCKED_PAIR, TORUS_20,
        TORUS_AND_SP, TORUS_BESIDE_SP, ADEM_416, THOMAS_412, COLLIDING_NAMES,
    ])
    def test_every_fixture_matches_json_dumps(self, text):
        # between them the fixtures give every verdict kind and every
        # obstruction reason
        for cmd, want in oracle_outputs(srrealize.complex_from_json(text)).items():
            assert run_cli([cmd], text).stdout == want, cmd

    def test_fixtures_cover_every_verdict(self):
        verdicts = {
            json.loads(run_cli(["check"], text).stdout)["verdict"]
            for text in (RING_468, PAIR_44, EXCEPTIONAL, BLOCKED_PAIR,
                         ADEM_416, THOMAS_412)
        }
        assert verdicts == {"Realizable", "SufficientOnly", "NotRealizable",
                            "Unknown", "HypothesisViolated"}

    @PROPERTY
    @given(st.integers(0, 10**6),
           st.lists(st.sampled_from([11, 13, 17, 19, 23]), unique=True,
                    max_size=3))
    def test_prime_matches_json_dumps(self, gt, extras):
        argv = ["prime", "--gt", str(gt)]
        for q in extras:
            argv += ["--extra", str(q)]
        p = dirichlet_prime(extras, gt)
        want = {"prime": p,
                "residues": {str(m): p % m for m in [16, 3, 5, 7, *extras]}}
        assert run_cli(argv) == (0, dumps_indented(want), "")

    def _hostile(self):
        p, q, r, s, t, u, v = HOSTILE_IDS
        return make_complex(dict(zip(HOSTILE_IDS, (4, 6, 2, 2, 4, 8, 2))),
                            [{p, q, r}, {p, u, s}, {t, v}])

    def test_hostile_ids_through_check_and_verify(self):
        c = self._hostile()
        outputs = oracle_outputs(c)
        assert set(outputs) == {"check", "partition", "obstruct", "verify"}
        for cmd, want in outputs.items():
            assert run_cli([cmd], complex_json(c)).stdout == want, cmd
        for written in ('"p%"', '"q%s"', '"r%%"', '"s\\""', '"t\\\\"', '"u_"',
                        '"v\\u00e9"'):
            assert written in outputs["check"]
            assert written in outputs["verify"]

    def test_hostile_ids_in_a_failing_report(self, tmp_path):
        # failing nodes and edges, structure issues and the first
        # discrepancy all quote hostile ids
        c = self._hostile()
        built = run_cli(["construct"], complex_json(c))
        assert built.returncode == 0
        obj = json.loads(built.stdout)
        obj["nodes"][-1]["factors"][0]["factor"] = {"kind": "BSU", "n": 9}
        obj["edges"][0]["generator_map"] = {"q%s": None}
        obj["nodes"][0]["simplex"] = ["w%s", 'x"']
        obj["partition"] = [["p%", "q%s"], ["r%%"]]
        report = verify_construction(c, diagram_from_json(json.dumps(obj)), 48)
        assert not report.passed
        assert any(not n.ok for n in report.node_checks)
        assert any(not e.ok for e in report.edge_checks)
        assert report.structure_issues
        code, out, _ = run_cli(["verify", *diagram_args(tmp_path, obj)],
                               complex_json(c))
        assert code == 1
        assert out == dumps_indented(report_to_json_dict(report))
        assert "'w%s'" in out and '"sigma_p%_q%s_r%%"' in out
