"""Tests of the benchmark itself: python3 -m pytest bench"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
from workloads import WORKLOADS, rounds

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

FINGERPRINT = (
    "import hashlib, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from workloads import WORKLOADS, rounds\n"
    "for name in WORKLOADS:\n"
    "    h = hashlib.sha256()\n"
    "    gen = rounds(name, int(sys.argv[2]))\n"
    "    for _ in range(2):\n"
    "        for case in next(gen):\n"
    "            h.update(case.text.encode() + repr(case.expect).encode())\n"
    "    print(name, h.hexdigest())\n"
)


def fingerprint(seed: int, hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-c", FINGERPRINT, str(BENCH), str(seed)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout


def test_generators_are_deterministic_for_a_seed():
    # string hashing differs between the two interpreters
    assert fingerprint(7, "1") == fingerprint(7, "2")
    assert fingerprint(7, "1") != fingerprint(8, "1")


def test_rounds_hold_distinct_complexes():
    for name in WORKLOADS:
        gen = rounds(name, 3)
        texts = [case.text for _ in range(3) for case in next(gen)]
        assert len(texts) == len(set(texts)), name


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_known_answers_hold_on_a_small_seed(workload, cli, tmp_path):
    runner = run.CliRunner(cli, tmp_path, None)
    cases = next(rounds(workload, 2))
    if workload == "small":
        cases = cases[:60]
    for case in cases:
        results, _, diagram = runner.run_case(case)
        assert runner.problems(case, results, diagram, None) == [None] * len(results)
        if case.expect is not None:
            assert len(results) == (1 if case.expect == "no_partition" else 3)


def test_a_wrong_answer_is_caught(cli, tmp_path):
    runner = run.CliRunner(cli, tmp_path, None)
    case = next(rounds("search", 2))[0]
    flipped = run.Case(case.text, "partition" if case.expect == "no_partition"
                       else "no_partition")
    results, _, diagram = runner.run_case(flipped)
    assert runner.problems(flipped, results, diagram, None)[0] is not None


def bindings() -> dict[tuple[str, str], int]:
    snap = {}
    for m in tracer.package_modules():
        for key, value in vars(m).items():
            snap[(m.__name__, key)] = id(value)
    poset = sys.modules["srrealize.complexes"].MaxIntersectionPoset
    for key, value in vars(poset).items():
        snap[("MaxIntersectionPoset", key)] = id(value)
    return snap


def test_tracer_restores_every_binding(cli):
    before = bindings()
    decide = sys.modules["srrealize.decide"]
    original = decide.classify
    t = tracer.Tracer()
    with t.installed():
        assert decide.classify is not original
        assert sys.modules["srrealize"].classify is decide.classify
        assert bindings() != before
    assert bindings() == before
    assert not t.missing


def test_tracer_reports_missing_functions(cli, monkeypatch, tmp_path):
    gone = (
        tracer.Target("complexes.gone", "complexes", "gone", ("calls",)),
        tracer.Target("nowhere.f", "nowhere", "f", ("calls",)),
        tracer.Target("complexes.covers2", "complexes", "MaxIntersectionPoset.gone",
                      ("calls",)),
    )
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + gone)
    t = tracer.Tracer()
    runner = run.CliRunner(cli, tmp_path, None)
    with t.installed():
        runner.run_case(next(rounds("hilbert", 1))[0])
    assert t.missing == ["complexes.gone", "nowhere.f", "complexes.covers2"]
    values = t.metrics()
    assert "complexes.gone.calls" not in values
    assert values["cli.main.calls"] == (3, "count")
    assert values["hilbert.sr_hilbert.calls"][0] > 0


def printed_metrics(capsys, *argv: str) -> dict:
    assert run.main(list(argv)) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return {k: v["unit"] for k, v in result["metrics"].items()}


def test_printed_metrics_match_the_declared_ones(capsys):
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = printed_metrics(capsys, "--workload", "hilbert", "--seed", "4",
                          "--seconds", "0.5", "--trace", "0")
    assert got == declared
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = printed_metrics(capsys, "--workload", "search", "--seed", "4", "--trace", "1")
    assert got == declared


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(99.0, [5000, 700, 700]) == 98.0
    assert run.tail_percentile(90.0, [5000]) == 90.0
    assert run.tail_percentile(80.0, [30]) == 50.0
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0
