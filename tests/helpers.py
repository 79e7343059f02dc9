"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the package's fast paths: counting is done by
plain recursion over exponents or face by face, poset elements by
intersecting every facet subset, covering pairs by testing every triple, the
pushout recurrence by rebuilding every prefix complex and by reweighing the
whole growing family of facet intersections at every step, partitions by
listing every set partition, table membership by searching every disjoint
union of table rows, the main hypothesis by testing every vertex pair for a
face, diagram JSON, the check verdict and the verify report by building
the object and handing it to json.dumps, and primes by trial division.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter, namedtuple
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

from hypothesis import HealthCheck, settings, strategies as st

from srrealize import classify, make_complex
from srrealize.admissible import (
    _FIXED_TABLE_ROWS,
    AdemP3,
    AdmissibleClass,
    Exceptional,
    Inadmissible,
    MultipleDegree4,
    SpType,
    SUType,
    TableMiss,
    Torus,
    _normalize,
    adem_p3_check,
    exceptional_degrees,
    sp_degrees,
    su_degrees,
    thomas_rank_check,
)
from srrealize.complexes import (
    ComplexWithDegrees,
    DegreeMultiset,
    Simplex,
    all_faces,
    bitmasks,
    simplex_key,
)
from srrealize.cli import class_to_json, main as cli_main, reason_to_json
from srrealize.decide import (
    HypothesisViolated,
    NotRealizable,
    Partition,
    Realizable,
    SufficientOnly,
    Verdict,
)
from srrealize.diagram import FACTOR_KINDS, MAP_KINDS, ColimitDiagram
from srrealize.hilbert import (
    Hilbert,
    check_truncation,
    free_hilbert,
    mobius_hilbert,
    sr_hilbert,
)
from srrealize.verify import StepRecord, VerificationReport

# Property tests run a fixed example sequence, so a run is repeatable, and
# take no timing into account, so a loaded host cannot fail them.
PROPERTY = settings(
    max_examples=200, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


# Ids that read as format directives, beside the escapes json applies: a
# record template filled with % must write each of them as it stands.
HOSTILE_IDS = ("p%", "q%s", "r%%", 's"', "t\\", "u_", "v\u00e9")


# What a CLI run gives back, under subprocess.CompletedProcess's names.
CliResult = namedtuple("CliResult", "returncode stdout stderr")


def run_cli(argv: Sequence[str], stdin: str = "") -> CliResult:
    """cli.main in-process on stdin text, with stdout and stderr captured.
    argparse's SystemExit becomes its exit code; every other exception
    propagates, so a crash fails the calling test."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as e:
        code = 0 if e.code is None else e.code
    finally:
        sys.stdin = saved
    return CliResult(code, out.getvalue(), err.getvalue())


def run_child(
    args: Sequence[str], stdin: str = "", hashseed: str | None = None,
    address_space: int | None = None,
) -> CliResult:
    """[sys.executable, *args] in a child with this checkout's src on
    PYTHONPATH, and PYTHONHASHSEED and RLIMIT_AS (bytes) set when given.
    Only for tests whose subject is the process: a hash seed, an address
    space limit, a fresh stack's depth, or `python -m` and its exit status."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=(src + os.pathsep + path) if path else src)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    r = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        timeout=120, env=env,
        preexec_fn=None if address_space is None else lambda: resource.setrlimit(
            resource.RLIMIT_AS, (address_space, address_space)),
    )
    return CliResult(r.returncode, r.stdout, r.stderr)


@lru_cache(maxsize=None)
def run_seeded(args: tuple[str, ...], stdin: str, hashseed: str) -> CliResult:
    """run_child under a hash seed, memoized: tests that compare outputs
    across hash seeds share the children they have in common."""
    return run_child(args, stdin, hashseed)


def ring_468() -> ComplexWithDegrees:
    """Z[x4,x6,x8] with the single relation x6*x8 = 0."""
    return make_complex({"x4": 4, "x6": 6, "x8": 8}, [{"x4", "x6"}, {"x4", "x8"}])


def complex_json(c: ComplexWithDegrees) -> str:
    """c as the commands read it on stdin."""
    return json.dumps({
        "vertices": [{"id": v, "degree": d} for v, d in c.degree_map.items()],
        "facets": [sorted(f) for f in c.facets],
    })


RING_468 = complex_json(ring_468())


def ring_fan6(n: int) -> ComplexWithDegrees:
    """Z[x4, y1..yn, x8] with yj*yk = 0 for j != k; the yj have degree 6."""
    degrees = {"x4": 4, "x8": 8}
    degrees.update({f"y{j}": 6 for j in range(1, n + 1)})
    facets = [{"x4", f"y{j}", "x8"} for j in range(1, n + 1)]
    return make_complex(degrees, facets)


def ring_double_fan() -> ComplexWithDegrees:
    """Two degree-6 and two degree-8 generators, each pair multiplying to 0."""
    degrees = {"x4": 4, "y1": 6, "y2": 6, "z1": 8, "z2": 8}
    facets = [{"x4", y, z} for y in ("y1", "y2") for z in ("z1", "z2")]
    return make_complex(degrees, facets)


def ring_split46() -> ComplexWithDegrees:
    """Z[x4,x6] with x4*x6 = 0."""
    return make_complex({"x4": 4, "x6": 6}, [{"x4"}, {"x6"}])


def single_facet(degrees: Sequence[int]) -> ComplexWithDegrees:
    ids = {f"g{i}_{d}": d for i, d in enumerate(degrees)}
    return make_complex(ids, [set(ids)])


def naive_count(degrees: Sequence[int], d: int) -> int:
    """Exponent vectors with the given total degree, by plain recursion."""
    if d < 0:
        return 0
    if not degrees:
        return 1 if d == 0 else 0
    head, rest = degrees[0], list(degrees[1:])
    return sum(naive_count(rest, d - k * head) for k in range(d // head + 1))


def brute_is_face(c: ComplexWithDegrees, s: Iterable[str]) -> bool:
    """s is a face: the empty simplex, or a set some facet contains, found
    by testing every facet.  The oracle for the package's face test."""
    s = frozenset(s)
    return not s or any(s <= f for f in c.facets)


def naive_sr_count(c: ComplexWithDegrees, d: int) -> int:
    """Basis monomials of the Stanley-Reisner ring in degree d, counted by
    enumerating exponent vectors vertex by vertex and keeping those whose
    support is a face.  Independent of the per-face dynamic programming in
    the package, and of its face test."""
    ids = list(c.sorted_ids)

    def walk(idx: int, remaining: int, support: frozenset[str]) -> int:
        if idx == len(ids):
            if remaining != 0:
                return 0
            return 1 if brute_is_face(c, support) else 0
        v = ids[idx]
        step = c.degree_map[v]
        total = walk(idx + 1, remaining, support)
        used = step
        while used <= remaining:
            total += walk(idx + 1, remaining - used, support | {v})
            used += step
        return total

    return walk(0, d, frozenset())


def face_sum_hilbert(c: ComplexWithDegrees, truncation: int) -> Hilbert:
    """Stanley-Reisner Hilbert function summed face by face: for every face,
    the monomials whose support is exactly that face (every exponent at
    least 1).  Lists every face, so it is exponential in the facet size."""
    dims = {d: 0 for d in range(0, truncation + 1, 2)}
    for face in all_faces(c):
        degs = [c.degree_map[v] for v in face]
        base = sum(degs)
        if base > truncation:
            continue
        # ways[d]: exponent vectors over the face's generators of degree d
        ways = [1] + [0] * (truncation - base)
        for deg in degs:
            for d in range(deg, truncation - base + 1):
                ways[d] += ways[d - deg]
        for off in range(0, truncation - base + 1, 2):
            dims[base + off] += ways[off]
    return tuple(dims[d] for d in range(0, truncation + 1, 2))


def brute_oracle_hilbert(c: ComplexWithDegrees, truncation: int) -> Hilbert:
    """Count basis monomials by enumerating exponent vectors directly,
    pruning branches whose support already fails to be a face.  It shares
    no counting code with sr_hilbert and exists to cross-check it."""
    check_truncation(truncation)
    ids = sorted(c.sorted_ids, key=lambda v: -c.degree_map[v])
    degs = [c.degree_map[v] for v in ids]
    dims = {d: 0 for d in range(0, truncation + 1, 2)}

    def walk(idx: int, total: int, support: frozenset[str]) -> None:
        if idx == len(ids):
            dims[total] += 1
            return
        walk(idx + 1, total, support)
        bumped = support | {ids[idx]}
        if not brute_is_face(c, bumped):
            return
        for t in range(total + degs[idx], truncation + 1, degs[idx]):
            walk(idx + 1, t, bumped)
    walk(0, 0, frozenset())
    return tuple(dims[d] for d in range(0, truncation + 1, 2))


def naive_covers(
    elements: Sequence[Simplex],
) -> tuple[tuple[Simplex, Simplex], ...]:
    """Covering pairs by testing every triple, in element order."""
    return tuple(
        (s, t)
        for s in elements
        for t in elements
        if s < t and not any(s < r < t for r in elements)
    )


def pairwise_main_hypothesis(c: ComplexWithDegrees) -> HypothesisViolated | None:
    """decide.check_main_hypothesis by testing every pair of distinct
    vertices x < y in id order: the first with equal degree 2^i (i >= 2)
    that spans a face, with that degree."""
    ids = c.sorted_ids
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            x, y = ids[a], ids[b]
            d = c.degree_map[x]
            if d == c.degree_map[y] and d >= 4 and d & (d - 1) == 0:
                if brute_is_face(c, {x, y}):
                    return HypothesisViolated((x, y), d)
    return None


_KIND_OF = {cls: kind for t in (FACTOR_KINDS, MAP_KINDS) for kind, cls in t.items()}


def _kind_obj(value) -> dict:
    return {"kind": _KIND_OF[type(value)], **vars(value)}


def reference_emit_json(d: ColimitDiagram) -> str:
    """diagram.emit_json as it was first written: the whole document as a
    dict, laid out by json.dumps(obj, indent=2)."""
    obj = {
        "partition": [list(b) for b in d.partition],
        "nodes": [
            {
                "name": n.name,
                "simplex": list(n.simplex),
                "factors": [
                    {
                        "block": bl.block,
                        "factor": _kind_obj(bl.factor),
                        "cp_vertices": list(bl.cp_vertices),
                        "lie_vertices": list(bl.lie_vertices),
                    }
                    for bl in n.blocks
                ],
            }
            for n in d.nodes
        ],
        "edges": [
            {
                "from": e.source,
                "to": e.target,
                "source": list(e.source_simplex),
                "target": list(e.target_simplex),
                "maps": [
                    {
                        "block": bm.block,
                        "lie": None if bm.lie is None else _kind_obj(bm.lie),
                        "cp": None
                        if bm.cp is None
                        else {
                            "source": list(bm.cp.source),
                            "target": list(bm.cp.target),
                        },
                    }
                    for bm in e.maps
                ],
                "generator_map": {v: img for v, img in e.generator_map},
            }
            for e in d.edges
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def verdict_to_json(v: Verdict) -> dict:
    """The object `check` prints, as cli built it before its JSON writer:
    laid out by json.dumps(obj, indent=2), it fixes check's bytes."""
    j: dict = {"verdict": type(v).__name__}
    if isinstance(v, (Realizable, SufficientOnly)):
        j["partition"] = [list(b) for b in v.partition]
    if isinstance(v, Realizable):
        j["per_sigma"] = [
            {"simplex": sorted(s), "class": class_to_json(cls)}
            for s, cls in v.per_sigma
        ]
    elif isinstance(v, NotRealizable):
        j["witness"] = sorted(v.witness)
        j["reason"] = reason_to_json(v.reason)
    elif isinstance(v, HypothesisViolated):
        j["pair"] = list(v.pair)
        j["shared_power_degree"] = v.shared_power_degree
    return j


def report_to_json_dict(report: VerificationReport) -> dict:
    """The object `verify` prints, as VerificationReport built it before
    its JSON writer: laid out by json.dumps(obj, indent=2), it fixes
    verify's bytes."""
    return {
        "D": report.truncation,
        "passed": report.passed,
        "first_discrepancy": report.first_discrepancy,
        "structure": list(report.structure_issues),
        "nodes": [
            {
                "name": n.name,
                "ok": n.ok,
                "first_bad_degree": n.first_bad_degree,
                "expected": n.expected,
                "got": n.got,
            }
            for n in report.node_checks
        ],
        "edges": [
            {"from": e.source, "to": e.target, "ok": e.ok, "detail": e.detail}
            for e in report.edge_checks
        ],
        "steps": [
            {
                "index": s.index,
                "facet": list(s.facet),
                "ok": s.ok,
                "rows": [list(row[:5]) for row in s.rows()],
            }
            for s in report.steps
        ],
    }


def brute_pmax(c: ComplexWithDegrees) -> list[Simplex]:
    """Intersections of every nonempty facet subset, canonically ordered."""
    out: set[Simplex] = set()
    for r in range(1, len(c.facets) + 1):
        for combo in itertools.combinations(c.facets, r):
            inter = combo[0]
            for f in combo[1:]:
                inter = inter & f
            out.add(inter)
    return sorted(out, key=simplex_key)


def _subcomplex_on_facets(
    parent: ComplexWithDegrees, facets: tuple[Simplex, ...]
) -> ComplexWithDegrees:
    used = set().union(*facets) if facets else set()
    return ComplexWithDegrees(
        {v: parent.degree_map[v] for v in sorted(used)}, facets
    )


def _maximalize(candidates: set[Simplex]) -> tuple[Simplex, ...]:
    kept = [
        s for s in candidates if s and not any(s < t for t in candidates)
    ]
    return tuple(sorted(kept, key=simplex_key))


def intersection_complex(
    c1: ComplexWithDegrees, c2: ComplexWithDegrees
) -> ComplexWithDegrees:
    """The complex whose faces are common to both inputs."""
    for v in set(c1.degree_map) & set(c2.degree_map):
        if c1.degree_map[v] != c2.degree_map[v]:
            raise ValueError(f"vertex {v!r} has conflicting degrees")
    candidates = {f1 & f2 for f1 in c1.facets for f2 in c2.facets}
    return _subcomplex_on_facets(c1, _maximalize(candidates))


def prefix_recurrence_check(
    c: ComplexWithDegrees, truncation: int
) -> VerificationReport:
    """The pushout recurrence with every side from sr_hilbert of a rebuilt
    complex: the prefix complex K_j on the first j facets, and the
    intersection complex of K_{j-1} with the new facet."""
    report = VerificationReport(truncation)
    prev = ComplexWithDegrees({}, ())
    prev_h = sr_hilbert(prev, truncation)
    for j, facet in enumerate(c.facets, start=1):
        current = _subcomplex_on_facets(c, c.facets[:j])
        cur_h = sr_hilbert(current, truncation)
        free_h = free_hilbert(c.degree_multiset(facet), truncation)
        facet_complex = _subcomplex_on_facets(c, (facet,))
        inter_h = sr_hilbert(intersection_complex(prev, facet_complex), truncation)
        report.steps.append(
            StepRecord(j, simplex_key(facet), cur_h, prev_h, free_h, inter_h))
        prev, prev_h = current, cur_h
    return report


def reference_recurrence_check(
    c: ComplexWithDegrees, truncation: int
) -> VerificationReport:
    """verify.pushout_recurrence_check as it was first written: at step j,
    every side is its own Moebius sum from scratch, the union side over the
    whole family F_j and the intersection side over Q_j."""
    report = VerificationReport(truncation)
    family = {0}  # F_0
    prev_h = mobius_hilbert(c, family, truncation)
    for j, (facet, s) in enumerate(zip(c.facets, bitmasks(c, c.facets)), start=1):
        meet = {s & t for t in family}  # Q_j
        family = family | meet | {s}  # F_j
        cur_h = mobius_hilbert(c, family, truncation)
        free_h = free_hilbert(c.degree_multiset(facet), truncation)
        inter_h = mobius_hilbert(c, meet, truncation)
        report.steps.append(
            StepRecord(j, simplex_key(facet), cur_h, prev_h, free_h, inter_h))
        prev_h = cur_h
    return report


def _table_families_up_to(top: int, size: int) -> tuple[DegreeMultiset, ...]:
    """The table rows with no degree above top and at most size entries:
    the only rows that fit inside a multiset of size entries whose largest
    degree is top.  Both bounds keep the table small for huge degrees."""
    fams: set[DegreeMultiset] = set()
    n = 2
    while 2 * n <= top and n - 1 <= size:  # {4, 6, ..., 2n}
        fams.add(tuple(range(4, 2 * n + 1, 2)))
        n += 1
    n = 1
    while 4 * n <= top and n <= size:  # {4, 8, ..., 4n}
        fams.add(tuple(range(4, 4 * n + 1, 4)))
        n += 1
    n = 4
    # {4, 8, ..., 4(n-1)} + {2n}
    while max(4 * (n - 1), 2 * n) <= top and n <= size:
        fams.add(tuple(sorted(list(range(4, 4 * n - 3, 4)) + [2 * n])))
        n += 1
    for row in _FIXED_TABLE_ROWS:
        if max(row) <= top and len(row) <= size:
            fams.add(row)
    return tuple(sorted(fams))


def _sub_multiset(small: Counter, big: Counter) -> bool:
    return all(big.get(k, 0) >= v for k, v in small.items())


def union_table_member(ms: Sequence[int]) -> bool:
    """Membership in the classification table, allowing disjoint unions of
    table rows (a product of admissible spaces realizes the union of their
    degree sequences).  Degree-2 entries are units and are ignored."""
    rest = tuple(d for d in _normalize(ms) if d != 2)
    if not rest:
        return True
    fams = [Counter(f) for f in _table_families_up_to(max(rest), len(rest))]

    @lru_cache(maxsize=None)
    def decompose(remaining: DegreeMultiset) -> bool:
        if not remaining:
            return True
        rem = Counter(remaining)
        for fam in fams:
            if _sub_multiset(fam, rem):
                left = rem - fam
                if decompose(tuple(sorted(left.elements()))):
                    return True
        return False

    return decompose(rest)


def _reference_match_exceptional(rest: DegreeMultiset) -> int | None:
    if not rest:
        return None
    top = max(rest)
    n = 3
    # exceptional_degrees(n) has 2^(n-1) entries, the largest 2^(n+1) - 4
    while 2 ** (n + 1) - 4 <= top and 2 ** (n - 1) <= len(rest):
        if rest == exceptional_degrees(n):
            return n
        n += 1
    return None


def reference_classify(ms: Sequence[int]) -> AdmissibleClass:
    """admissible.classify as it was with the union search: the exceptional
    family found by trying every n up to the top degree, and table
    membership by union_table_member."""
    norm = _normalize(ms)
    k2 = sum(1 for d in norm if d == 2)
    rest = tuple(d for d in norm if d != 2)
    if not rest:
        return Torus(k2)
    n = len(rest)
    if rest == sp_degrees(n):
        return SpType(n, k2)  # {4} lands here, not in the unitary chain
    if rest == su_degrees(n):
        return SUType(n, k2)
    exc = _reference_match_exceptional(rest)
    if exc is not None:
        return Exceptional(exc, k2)
    if rest.count(4) >= 2:
        return Inadmissible(MultipleDegree4())
    if not union_table_member(rest):
        return Inadmissible(TableMiss())
    violation = thomas_rank_check(rest)
    if violation is not None:
        return Inadmissible(violation)
    if adem_p3_check(rest) is not None:
        return Inadmissible(AdemP3())
    # in the table, passes both computed checks: the remaining row is
    # {4, 8, ..., 4(n-1), 2n} with n odd >= 5, excluded by the table rule
    return Inadmissible(TableMiss())


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def naive_congruence_prime(extras: Iterable[int], lower_bound: int) -> int:
    """Scan upward checking all congruences and trial-division primality."""
    p = lower_bound + 1
    while True:
        if (
            p % 16 == 7
            and p % 3 == 2
            and p % 5 == 3
            and p % 7 == 3
            and all(p % q == 2 for q in extras)
            and naive_is_prime(p)
        ):
            return p
        p += 1


def random_complex(rng: random.Random) -> ComplexWithDegrees:
    """Complex on at most 6 vertices with degrees in {2,...,12} and at most 5
    facets; facets stored in canonical order so callers can reshuffle."""
    nv = rng.randint(1, 6)
    ids = [f"v{i}" for i in range(nv)]
    degrees = {v: rng.choice([2, 4, 6, 8, 10, 12]) for v in ids}
    cand: set[Simplex] = set()
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(1, nv)
        cand.add(frozenset(rng.sample(ids, size)))
    facets = sorted(
        (s for s in cand if not any(s < t for t in cand)), key=simplex_key
    )
    used = sorted(set().union(*facets))
    return make_complex({v: degrees[v] for v in used}, facets)


def degree2_complex(
    rng: random.Random, nv: int, nf: int, lo: int, hi: int
) -> ComplexWithDegrees:
    """nv degree-2 vertices and the maximal sets among nf distinct random
    facets of lo to hi vertices, in canonical order.  Every poset element is
    a torus, so the verdict is Realizable.  With lo == hi no size is drawn:
    18, 90, 9, 9 from random.Random(9) is the torus with |P| = 4584."""
    ids = [f"p{i}" for i in range(nv)]
    cand: set[Simplex] = set()
    while len(cand) < nf:
        size = lo if lo == hi else rng.randint(lo, hi)
        cand.add(frozenset(rng.sample(ids, size)))
    facets = sorted(
        (s for s in cand if not any(s < t for t in cand)), key=simplex_key
    )
    used = sorted(set().union(*facets))
    return make_complex({v: 2 for v in used}, facets)


def shuffled_facets(
    c: ComplexWithDegrees, rng: random.Random
) -> ComplexWithDegrees:
    order = list(c.facets)
    rng.shuffle(order)
    return make_complex(c.degree_map, order)


def antichain_complexes_24(
    max_vertices: int, max_facets: int
) -> Iterable[ComplexWithDegrees]:
    """Every complex whose degrees lie in {2, 4}, with at most max_vertices
    vertices and at most max_facets facets (facet families are antichains
    covering the vertex set)."""
    for nv in range(1, max_vertices + 1):
        ids = [f"w{i}" for i in range(nv)]
        subsets = [
            frozenset(combo)
            for r in range(1, nv + 1)
            for combo in itertools.combinations(ids, r)
        ]
        for nf in range(1, max_facets + 1):
            for family in itertools.combinations(subsets, nf):
                if any(
                    a <= b for a, b in itertools.permutations(family, 2)
                ):
                    continue
                if set().union(*family) != set(ids):
                    continue
                for degs in itertools.product((2, 4), repeat=nv):
                    yield make_complex(dict(zip(ids, degs)), family)


@st.composite
def complexes(draw) -> ComplexWithDegrees:
    """Complexes on at most 6 vertices with degrees in {2,...,12}: random
    antichains, pairwise-disjoint facets (so the empty simplex is a poset
    element), a single facet, and no facets at all; facets in any order."""
    shape = draw(st.sampled_from(["antichain", "disjoint", "one", "none"]))
    if shape == "none":
        return make_complex({}, [])
    ids = [f"v{i}" for i in range(draw(st.integers(1 if shape == "one" else 2, 6)))]
    degree = st.sampled_from([2, 4, 6, 8, 10, 12])
    if shape == "one":
        facets = [frozenset(ids)]
    elif shape == "disjoint":
        order = draw(st.permutations(ids))
        cuts = sorted(draw(st.sets(st.integers(1, len(ids) - 1), min_size=1)))
        facets = [
            frozenset(order[a:b]) for a, b in zip([0] + cuts, cuts + [len(ids)])
        ]
    else:
        # distinct sets of one size form an antichain; a few sets at most
        # one larger mix the sizes
        k = draw(st.integers(1, len(ids) - 1))
        cand = draw(st.sets(
            st.frozensets(st.sampled_from(ids), min_size=k, max_size=k),
            min_size=2, max_size=5,
        )) | set(draw(st.lists(
            st.frozensets(st.sampled_from(ids), min_size=1, max_size=k + 1),
            max_size=2,
        )))
        facets = sorted(
            (s for s in cand if not any(s < t for t in cand)), key=simplex_key
        )
    facets = draw(st.permutations(facets))
    used = sorted(set().union(*facets))
    return make_complex({v: draw(degree) for v in used}, facets)


def unpruned_find_partition(c: ComplexWithDegrees) -> Partition | None:
    """decide.find_partition as it was before its counting rules: the same
    backtracking search, pruned only by repeated degrees and by elements
    that classify badly once fully assigned.  The rules must not change
    which partition it returns."""
    ids2 = tuple(v for v in c.sorted_ids if c.degree_map[v] == 2)
    ids4 = tuple(v for v in c.sorted_ids if c.degree_map[v] >= 4)
    elements = c.poset.elements

    idx_of = {v: k for k, v in enumerate(ids4)}
    twos_in = {s: sum(1 for v in s if c.degree_map[v] == 2) for s in elements}
    high_in = {s: tuple(v for v in sorted(s) if c.degree_map[v] >= 4) for s in elements}
    complete_at: dict[int, list[Simplex]] = {}
    for s in elements:
        if high_in[s]:
            complete_at.setdefault(max(idx_of[v] for v in high_in[s]), []).append(s)

    assign: dict[str, int] = {}
    base_blocks = 1 if ids2 else 0
    nblocks = base_blocks

    def block_multiset(s: Simplex, b: int) -> tuple[int, ...]:
        degs = [c.degree_map[v] for v in high_in[s] if assign.get(v) == b]
        if b == 0:
            degs.extend([2] * twos_in[s])
        return tuple(sorted(degs))

    def admissible_so_far(s: Simplex) -> bool:
        return all(
            isinstance(classify(block_multiset(s, b)), (Torus, SUType, SpType))
            for b in range(nblocks)
        )

    def duplicate_degree(v: str, b: int) -> bool:
        dv = c.degree_map[v]
        for s in elements:
            if v in s and any(
                w != v and assign.get(w) == b and c.degree_map[w] == dv
                for w in high_in[s]
            ):
                return True
        return False

    def dfs(k: int) -> bool:
        nonlocal nblocks
        if k == len(ids4):
            return True
        v = ids4[k]
        for b in range(nblocks + 1):
            if duplicate_degree(v, b):
                continue
            assign[v] = b
            grew = b == nblocks
            if grew:
                nblocks += 1
            ok = all(admissible_so_far(s) for s in complete_at.get(k, ()))
            if ok and dfs(k + 1):
                return True
            del assign[v]
            if grew:
                nblocks -= 1
        return False

    if not dfs(0):
        return None
    blocks: list[list[str]] = [[] for _ in range(nblocks)]
    if ids2:
        blocks[0].extend(ids2)
    for v in ids4:
        blocks[assign[v]].append(v)
    return tuple(tuple(sorted(b)) for b in blocks)


def _set_partitions(items: Sequence[str]) -> Iterable[list[list[str]]]:
    """Every partition of items into nonempty blocks, each listed once."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[head]] + part
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]


def brute_partition_exists(c: ComplexWithDegrees) -> bool:
    """Whether some partition of the vertices of degree >= 4 meets every
    facet intersection in a constructible multiset in every block, found by
    listing all set partitions.  Degree-2 vertices never change a class, so
    they are left out; poset elements come from brute_pmax."""
    high = [v for v in c.sorted_ids if c.degree_map[v] >= 4]
    elements = brute_pmax(c)
    return any(
        all(
            isinstance(
                classify([c.degree_map[v] for v in block if v in s]),
                (Torus, SUType, SpType),
            )
            for s in elements
            for block in part
        )
        for part in _set_partitions(high)
    )
