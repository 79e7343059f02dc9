"""Acceptance suite.

Ten criteria, one test each, run in file order; every test prints a single
``criterion N: PASS``/``FAIL`` line (visible with ``pytest -s``).  The random
family is generated once with a fixed seed and shared by criteria 5, 6 and 9.
A last test pins the package's exports to the README's Library section.
"""
import inspect
import json
import random
from collections import Counter

from srrealize import (
    NotRealizable,
    Realizable,
    SufficientOnly,
    build_diagram,
    classify,
    full_report,
    verify_construction,
)
from srrealize.admissible import (
    AdemP3,
    Exceptional,
    Inadmissible,
    SpType,
    SUType,
    TableMiss,
    ThomasRank,
    dirichlet_prime,
    exceptional_degrees,
    sp_degrees,
    su_degrees,
)
from srrealize.decide import find_partition
from srrealize.diagram import BSp, BSU, edge_text, node_text
from srrealize.hilbert import sr_hilbert
from srrealize.verify import pushout_recurrence_check

from helpers import (
    RING_468,
    antichain_complexes_24,
    brute_oracle_hilbert,
    naive_congruence_prime,
    random_complex,
    ring_468,
    ring_double_fan,
    ring_fan6,
    ring_split46,
    run_cli,
    run_seeded,
    shuffled_facets,
    single_facet,
)

RNG = random.Random(468)
FAMILY = [random_complex(RNG) for _ in range(200)]


def report(n: int, ok: bool) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed"


def constructible_diagram(c):
    verdict = full_report(c)
    if isinstance(verdict, (Realizable, SufficientOnly)):
        return build_diagram(c, verdict.partition)
    return None


def test_criterion_01_first_worked_example_diagram():
    c = ring_468()
    verdict = full_report(c)
    ok = isinstance(verdict, Realizable)
    d = build_diagram(c, verdict.partition)
    ok = ok and [(n.name, node_text(n.blocks)) for n in d.nodes] == [
        ("sigma_x4", "BSp(1)"),
        ("sigma_x4_x6", "BSU(3)"),
        ("sigma_x4_x8", "BSp(2)"),
    ]
    ok = ok and [(e.source, e.target, edge_text(e)) for e in d.edges] == [
        ("sigma_x4", "sigma_x4_x6", "iota1 . iota3"),
        ("sigma_x4", "sigma_x4_x8", "iota2"),
    ]
    report(1, ok)


def test_criterion_02_fan_examples_node_and_edge_multisets():
    d2 = constructible_diagram(ring_fan6(3))
    ok = d2 is not None
    if ok:
        ok = Counter(node_text(n.blocks) for n in d2.nodes) == Counter(
            {"BSU(4)": 3, "BSp(2)": 1}
        )
        ok = ok and Counter(edge_text(e) for e in d2.edges) == Counter(
            {"iota3": 3}
        )
    d3 = constructible_diagram(ring_double_fan())
    ok = ok and d3 is not None
    if ok:
        ok = Counter(node_text(n.blocks) for n in d3.nodes) == Counter(
            {"BSp(1)": 1, "BSU(3)": 2, "BSp(2)": 2, "BSU(4)": 4}
        )
        ok = ok and Counter(edge_text(e) for e in d3.edges) == Counter(
            {"iota1 . iota3": 2, "iota2": 2, "iota1": 4, "iota3": 4}
        )
    report(2, ok)


def test_criterion_03_split_4_6_refuted_with_witness():
    verdict = full_report(ring_split46())
    ok = verdict == NotRealizable(frozenset({"x6"}), TableMiss())
    ok = ok and classify((6,)) == Inadmissible(TableMiss())
    report(3, ok)


def test_criterion_04_obstruction_suite():
    thomas_rows = [
        (4, 12),
        (4, 12, 16, 24),
        (4, 10, 12, 16, 18, 24),
        (4, 12, 16, 20, 24, 28, 36),
        (4, 16, 24, 28, 36, 40, 48, 60),
        (4, 24),
        (4, 48),
        (4, 8, 12, 16, 20, 12),
    ]
    ok = all(
        isinstance(cls, Inadmissible) and isinstance(cls.reason, ThomasRank)
        for cls in map(classify, thomas_rows)
    )
    adem = classify((4, 16))
    ok = ok and isinstance(adem, Inadmissible) and isinstance(adem.reason, AdemP3)
    for n in range(1, 9):
        su = classify(su_degrees(n))
        sp = classify(sp_degrees(n))
        ok = ok and isinstance(su, (SUType, SpType)) and isinstance(sp, SpType)
        if n >= 2:
            ok = ok and su == SUType(n, 0) and sp == SpType(n, 0)
    ok = ok and classify(exceptional_degrees(3)) == Exceptional(3, 0)
    ok = ok and classify(exceptional_degrees(4)) == Exceptional(4, 0)
    report(4, ok)


def test_criterion_05_hilbert_oracle_equivalence():
    ok = all(
        sr_hilbert(c, 40) == brute_oracle_hilbert(c, 40)
        for c in FAMILY
    )
    report(5, ok)


def test_criterion_06_pushout_recurrence():
    rng = random.Random(1680)
    ok = True
    for c in FAMILY:
        for _ in range(3):
            ok = ok and pushout_recurrence_check(shuffled_facets(c, rng), 40).passed
    rep = pushout_recurrence_check(ring_468(), 12)
    row = next(r for r in rep.steps[1].rows() if r[0] == 12)
    ok = ok and row == (12, 3, 2, 2, 1, True)
    report(6, ok)


def test_criterion_07_partition_search():
    verdict = full_report(single_facet((4, 4)))
    ok = verdict == SufficientOnly((("g0_4",), ("g1_4",)))
    total = 0
    for c in antichain_complexes_24(4, 4):
        total += 1
        ok = ok and find_partition(c) is not None
    ok = ok and total > 1000  # the enumeration must be genuinely exhaustive
    report(7, ok)


def test_criterion_08_dirichlet_primes():
    ok = dirichlet_prime([], 0) == 983 == naive_congruence_prime([], 0)
    ok = ok and dirichlet_prime([], 1000) == 2663 == naive_congruence_prime([], 1000)
    report(8, ok)


def test_criterion_09_end_to_end_soundness():
    verified = 0
    ok = True
    for c in FAMILY:
        d = constructible_diagram(c)
        if d is None:
            continue
        verified += 1
        ok = ok and verify_construction(c, d, 40).passed
    ok = ok and verified >= 30  # the family must exercise the verifier

    import dataclasses

    c = ring_double_fan()
    d = constructible_diagram(c)
    for i, node in enumerate(d.nodes):
        factor = node.blocks[0].factor
        bumped = BSp(factor.n + 1) if isinstance(factor, BSp) else BSU(factor.n + 1)
        blocks = (dataclasses.replace(node.blocks[0], factor=bumped),)
        nodes = tuple(
            dataclasses.replace(n, blocks=blocks) if k == i else n
            for k, n in enumerate(d.nodes)
        )
        mutated = dataclasses.replace(d, nodes=nodes)
        ok = ok and not verify_construction(c, mutated, 40).passed
    report(9, ok)


def test_criterion_10_determinism():
    ok = True
    for args in (["check"], ["construct"], ["verify", "--max-degree", "24"]):
        outs = {run_seeded(("-m", "srrealize.cli", *args), RING_468, s).stdout
                for s in ("0", "1", "2")}
        ok = ok and len(outs) == 1

    base = json.loads(RING_468)
    flipped = dict(base, facets=[list(reversed(f)) for f in reversed(base["facets"])])
    for args in (["check"], ["construct"], ["construct", "--format", "dot"]):
        a = run_cli(args, RING_468).stdout
        b = run_cli(args, json.dumps(flipped)).stdout
        ok = ok and a == b and a != ""
    report(10, ok)


def test_package_exports_the_readme_library_names():
    import srrealize

    exported = {
        n for n, v in vars(srrealize).items()
        if not n.startswith("_") and not inspect.ismodule(v)
    }
    assert exported == {
        "make_complex", "complex_from_json", "full_report", "Realizable",
        "SufficientOnly", "NotRealizable", "HypothesisViolated", "Unknown",
        "build_diagram", "verify_construction", "classify",
    }
    assert srrealize.__version__ == "0.1.0"
