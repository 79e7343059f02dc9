"""Command line interface: subcommands, formats, exit codes, determinism."""
import hashlib
import json
import os
import resource
import subprocess
import sys

import pytest

from helpers import naive_congruence_prime, ring_double_fan

RING_468 = json.dumps({
    "vertices": [
        {"id": "x4", "degree": 4},
        {"id": "x6", "degree": 6},
        {"id": "x8", "degree": 8},
    ],
    "facets": [["x4", "x6"], ["x4", "x8"]],
})

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


def complex_json(c):
    return json.dumps({
        "vertices": [{"id": v.id, "degree": v.degree} for v in c.vertices],
        "facets": [sorted(f) for f in c.facets],
    })


def run(args, stdin="", hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-m", "srrealize.cli", *args],
        input=stdin, capture_output=True, text=True, env=env,
    )


class TestCheck:
    def test_realizable(self):
        r = run(["check"], RING_468)
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
        r = run(["check"], PAIR_44)
        assert r.returncode == 10
        obj = json.loads(r.stdout)
        assert obj == {"verdict": "SufficientOnly", "partition": [["a"], ["b"]]}

    def test_not_realizable(self):
        r = run(["check"], SPLIT_46)
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
        limit = (1 << 30, 1 << 30)
        r = subprocess.run(
            [sys.executable, "-m", "srrealize.cli", "check"],
            input=stdin, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
        )
        assert r.returncode == 20
        assert "Traceback" not in r.stderr
        assert json.loads(r.stdout)["verdict"] == "NotRealizable"

    def test_unknown(self):
        r = run(["check"], EXCEPTIONAL)
        assert r.returncode == 30
        assert json.loads(r.stdout) == {"verdict": "Unknown"}

    def test_hypothesis_violated(self):
        r = run(["check"], BLOCKED_PAIR)
        assert r.returncode == 40
        obj = json.loads(r.stdout)
        assert obj == {
            "verdict": "HypothesisViolated",
            "pair": ["a", "b"],
            "shared_power_degree": 4,
        }

    def test_text_format(self):
        r = run(["check", "--format", "text"], SPLIT_46)
        assert r.returncode == 20
        assert r.stdout.splitlines()[0] == "NotRealizable"
        assert "witness: ['x6']" in r.stdout

    def test_malformed_input(self):
        for bad in ("{", '{"vertices": [], "facets": [], "x": 1}', "[]"):
            r = run(["check"], bad)
            assert r.returncode == 2
            assert r.stderr.startswith("error:")

    def test_invalid_complex(self):
        bad = json.dumps({
            "vertices": [{"id": "a", "degree": 3}],
            "facets": [["a"]],
        })
        r = run(["check"], bad)
        assert r.returncode == 2

    def test_file_input_and_output(self, tmp_path):
        src = tmp_path / "c.json"
        src.write_text(RING_468)
        dst = tmp_path / "out.json"
        r = run(["check", str(src), "-o", str(dst)])
        assert r.returncode == 0
        assert r.stdout == ""
        assert json.loads(dst.read_text())["verdict"] == "Realizable"

    def test_missing_file(self):
        r = run(["check", "/nonexistent/path.json"])
        assert r.returncode == 2


class TestConstruct:
    def test_dot_output(self):
        r = run(["construct", "--format", "dot"], RING_468)
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
        r = run(["construct"], RING_468)
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert [n["name"] for n in obj["nodes"]] == [
            "sigma_x4", "sigma_x4_x6", "sigma_x4_x8"
        ]

    def test_sufficient_only_still_constructs(self):
        r = run(["construct"], PAIR_44)
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert obj["partition"] == [["a"], ["b"]]

    def test_no_diagram_when_refuted(self):
        r = run(["construct"], SPLIT_46)
        assert r.returncode == 20
        assert r.stdout == ""
        assert "no diagram: verdict is NotRealizable" in r.stderr

    def test_no_diagram_when_unknown(self):
        r = run(["construct"], EXCEPTIONAL)
        assert r.returncode == 30
        assert "no diagram: verdict is Unknown" in r.stderr


class TestVerify:
    def test_default_truncation_passes(self):
        r = run(["verify"], RING_468)
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert obj["passed"] is True
        assert obj["D"] == 48  # six times the top degree

    def test_text_format(self):
        r = run(["verify", "--format", "text", "--max-degree", "20"], RING_468)
        assert r.returncode == 0
        assert r.stdout.startswith("verification up to degree 20: PASS")

    def test_verdict_exit_when_no_diagram(self):
        r = run(["verify"], SPLIT_46)
        assert r.returncode == 20

    def test_external_diagram_mutation_fails(self, tmp_path):
        built = run(["construct"], RING_468)
        obj = json.loads(built.stdout)
        for node in obj["nodes"]:
            if node["name"] == "sigma_x4_x8":
                node["factors"][0]["factor"]["n"] = 3
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(obj))
        r = run(["verify", "--diagram", str(path)], RING_468)
        assert r.returncode == 1
        report = json.loads(r.stdout)
        assert report["passed"] is False
        assert "sigma_x4_x8" in report["first_discrepancy"]

    def test_external_diagram_unmutated_passes(self, tmp_path):
        built = run(["construct"], RING_468)
        path = tmp_path / "d.json"
        path.write_text(built.stdout)
        r = run(["verify", "--diagram", str(path), "--max-degree", "24"], RING_468)
        assert r.returncode == 0


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
    return obj


class TestInputHardening:
    """Malformed, deep or oversized input exits 2, never with a traceback
    or with exit 1 (the code for a verify discrepancy)."""

    @pytest.mark.parametrize("depth", [995, 100_000])
    def test_deeply_nested_complex(self, depth):
        text = '{"vertices": [' + "[" * depth + "]" * depth + '], "facets": []}'
        r = run(["check"], text)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("depth", [995, 100_000])
    def test_deeply_nested_diagram(self, depth, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"partition": ' + "[" * depth + "]" * depth + "}")
        r = run(["verify", "--diagram", str(path)], RING_468)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("case", [
        "string_partition", "bool_block", "float_block", "string_rank",
        "int_after_iota3", "int_vertex_id", "node_not_object",
    ])
    def test_diagram_field_of_wrong_type(self, case, tmp_path):
        obj = _diagram_mutation(json.loads(run(["construct"], RING_468).stdout), case)
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(obj))
        r = run(["verify", "--diagram", str(path)], RING_468)
        assert r.returncode == 2, (case, r.stdout, r.stderr)
        assert r.stderr.startswith("error: diagram")

    def test_max_degree_above_cap(self):
        r = run(["verify", "--max-degree", "10002"], RING_468)
        assert r.returncode == 2
        assert r.stderr == "error: truncation degree 10002 exceeds the cap of 10000\n"

    def test_default_truncation_above_cap(self):
        huge = json.dumps({
            "vertices": [{"id": "a", "degree": 10**12}], "facets": [["a"]],
        })
        r = run(["verify"], huge)
        assert r.returncode == 2
        assert "exceeds the cap of 10000" in r.stderr


class TestPartition:
    def test_found(self):
        r = run(["partition", "--format", "text"], PAIR_44)
        assert r.returncode == 0
        assert r.stdout == "a | b\n"

    def test_json(self):
        r = run(["partition"], PAIR_44)
        assert json.loads(r.stdout) == {"partition": [["a"], ["b"]]}

    def test_none(self):
        r = run(["partition", "--format", "text"], SPLIT_46)
        assert r.returncode == 1
        assert r.stdout == "none\n"


class TestObstruct:
    def test_text_lines(self):
        r = run(["obstruct", "--format", "text"], SPLIT_46)
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            "sigma []: multiset [] -> Torus degrees []",
            "sigma ['x4']: multiset [4] -> Sp degrees [4]",
            "sigma ['x6']: multiset [6] -> inadmissible: TableMiss",
        ]

    def test_json_classes(self):
        r = run(["obstruct"], RING_468)
        obj = json.loads(r.stdout)
        got = {tuple(e["simplex"]): e["class"]["family"] for e in obj["sigmas"]}
        assert got == {("x4",): "Sp", ("x4", "x6"): "SU", ("x4", "x8"): "Sp"}

    def test_thomas_reason_serialization(self):
        src = json.dumps({
            "vertices": [{"id": "a", "degree": 4}, {"id": "b", "degree": 12}],
            "facets": [["a", "b"]],
        })
        r = run(["obstruct"], src)
        obj = json.loads(r.stdout)
        facet_entry = next(
            e for e in obj["sigmas"] if e["simplex"] == ["a", "b"]
        )
        assert facet_entry["class"]["reason"] == {
            "kind": "ThomasRank", "target": 12, "i": 2,
            "source": 8, "dimSource": 0, "dimTarget": 1,
        }
        text = run(["obstruct", "--format", "text"], src)
        assert "ThomasRank target 12 source 8 dims 0<1" in text.stdout


class TestPrime:
    def test_default(self):
        r = run(["prime"])
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert obj["prime"] == 983
        assert obj["residues"] == {"16": 7, "3": 2, "5": 3, "7": 3}

    def test_lower_bound(self):
        r = run(["prime", "--gt", "1000"])
        assert json.loads(r.stdout)["prime"] == 2663

    def test_extra_primes(self):
        r = run(["prime", "--extra", "11", "--extra", "13"])
        p = json.loads(r.stdout)["prime"]
        assert p == naive_congruence_prime([11, 13], 0)

    def test_text_format(self):
        r = run(["prime", "--format", "text"])
        assert r.stdout == "983 (mod 16 = 7, mod 3 = 2, mod 5 = 3, mod 7 = 3)\n"

    def test_invalid_extra(self):
        r = run(["prime", "--extra", "9"])
        assert r.returncode == 2


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
        r = run(["verify", "--format", fmt], stdin)
        assert r.returncode == 0
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
            outs = {run(args, stdin, hashseed=s).stdout for s in ("0", "1", "2")}
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
        assert run(["check"], RING_468).stdout == run(["check"], flipped).stdout
        assert run(["construct"], RING_468).stdout == run(["construct"], flipped).stdout
