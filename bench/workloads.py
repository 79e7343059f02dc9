"""Seeded input generators for the benchmark workloads.

Every workload is an endless sequence of rounds.  A round is a list of
cases; each case is a complex as JSON text (the only thing the program under
test sees) plus the answer known by construction, when there is one.  The
same seed gives the same rounds, and within one seed no JSON text repeats.

Rounds keep each workload's mix of sizes fixed: a run measures whole rounds,
so two runs differ in how many rounds they finish, not in what a round holds.
Except in `small`, a round is a fixed list of size classes, and the seed
decides what each class holds (vertex names, facet choice, orders), not its
size.  Percentiles over such a mix jump where one class ends and the next
begins, so class counts are chosen to put the median and the tail
percentile inside a class.

The generators share no code with the package, so a change to the package
cannot change the inputs.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

# Known answers, checked against the verdict printed by `check`.
REALIZABLE = "realizable"  # verdict Realizable
PARTITION = "partition"  # some verdict carrying a partition (a diagram exists)
NO_PARTITION = "no_partition"  # a verdict without a partition


@dataclass(frozen=True)
class Case:
    text: str
    expect: str | None


def complex_text(degrees: dict[str, int], facets: Sequence[Sequence[str]]) -> str:
    return json.dumps({
        "vertices": [{"id": v, "degree": d} for v, d in degrees.items()],
        "facets": [list(f) for f in facets],
    })


def _maximal(cands: set[frozenset[str]]) -> list[frozenset[str]]:
    """The inclusion-maximal sets, in set order: sort before drawing from
    the rng, or the inputs would depend on the string hash seed."""
    return [s for s in cands if not any(s < t for t in cands)]


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    """n distinct ids in random order; id order drives the search order."""
    ids = rng.sample(range(10 * n + 10), n)
    return [f"{prefix}{i}" for i in ids]


def small_round(rng: random.Random) -> list[Case]:
    """Random complexes on at most 6 vertices, at most 5 facets, degrees in
    {2,...,12}: the shape of the acceptance family's random complexes."""
    out = []
    for _ in range(250):
        nv = rng.randint(1, 6)
        ids = [f"v{i}" for i in range(nv)]
        degrees = {v: rng.choice((2, 4, 6, 8, 10, 12)) for v in ids}
        cands = {
            frozenset(rng.sample(ids, rng.randint(1, nv)))
            for _ in range(rng.randint(1, 5))
        }
        facets = sorted(sorted(f) for f in _maximal(cands))
        used = sorted({v for f in facets for v in f})
        out.append(Case(complex_text({v: degrees[v] for v in used}, facets), None))
    return out


# Slots of a poset round: (|P| wanted, within POSET_TOLERANCE; vertices;
# facets drawn).  The facet counts are the ones that reach the wanted |P|
# most often.
POSET_SLOTS = (
    (100, 12, 13), (150, 13, 18), (200, 14, 23), (250, 15, 28),
    (300, 16, 33), (350, 17, 38), (400, 18, 44),
)
POSET_TOLERANCE = 0.05


def _poset_size(facets: list[list[str]]) -> int:
    """|P|: the number of intersections of nonempty sets of facets."""
    sets = [frozenset(f) for f in facets]
    elements, frontier = set(sets), set(sets)
    while frontier:
        frontier = {a & f for a in frontier for f in sets} - elements
        elements |= frontier
    return len(elements)


def poset_round(rng: random.Random) -> list[Case]:
    """Dense degree-2 complexes: 13 to 44 facets of 5 to 7 vertices over 12
    to 18 vertices.  Every element of the facet-intersection poset is a
    torus, so the verdict is Realizable.  Each slot redraws its facets until
    |P| is within 5% of the slot's size: the cost of a complex follows |P|,
    and a narrow size per slot keeps the median and the tail of a run inside
    one slot.  The slot count is odd, and 0.8 x 7 is near a half, so in a
    run of whole rounds the median and the 80th percentile fall inside a
    slot rather than on the step between two."""
    out = []
    for size, nv, nf in POSET_SLOTS:
        ids = _names(rng, "p", nv)
        while True:
            cands: set[frozenset[str]] = set()
            while len(cands) < nf:
                cands.add(frozenset(rng.sample(ids, rng.randint(5, 7))))
            facets = sorted(sorted(f) for f in _maximal(cands))
            if abs(_poset_size(facets) - size) <= POSET_TOLERANCE * size:
                break
        rng.shuffle(facets)
        used = sorted({v for f in facets for v in f})
        rng.shuffle(used)
        out.append(Case(complex_text({v: 2 for v in used}, facets), REALIZABLE))
    return out


# (family, n, number of degree-2 vertices); one facet each, so |P| = 1.  The
# cost of `verify` follows the vertex count (2^v faces).  The three costliest
# classes all have 14 vertices and cost about twice the next one, so in a run
# of whole rounds the 90th percentile (rank 13.5 of every 15) is the middle
# of that block of three, near the median of the middle class.  In a block of
# two it would be the block's lower quarter, which follows how much of a run
# the host spends in its fast spells: calls of half a second average over
# those spells, so none of them stands out.  The median falls in the
# 10-vertex SU 8 class.
HILBERT_CLASSES = (
    [("SU", n, n % 3) for n in range(6, 12)]
    + [("SU", 12, 2), ("SU", 13, 1), ("SU", 14, 0)]
    + [("Sp", n, n % 3) for n in range(5, 11)]
)


def hilbert_round(rng: random.Random) -> list[Case]:
    """One facet carrying a whole SU chain {4,6,...,2n+2} or Sp chain
    {4,8,...,4n}, plus up to two degree-2 vertices.  The main hypothesis holds
    and the facet classifies as the chain, so the verdict is Realizable with a
    single block.  The classes are fixed; the seed names the vertices and
    orders the round."""
    out = []
    for family, n, k2 in HILBERT_CLASSES:
        if family == "SU":
            degs = list(range(4, 2 * n + 3, 2))
        else:
            degs = list(range(4, 4 * n + 1, 4))
        degs += [2] * k2
        ids = _names(rng, "h", len(degs))
        degrees = dict(zip(ids, degs))
        order = list(degrees)
        rng.shuffle(order)
        out.append(Case(
            complex_text({v: degrees[v] for v in order}, [sorted(ids)]), REALIZABLE
        ))
    rng.shuffle(out)
    return out


# (pigeonhole?, k, extra facets, degree-2 vertices in the core).  The classes
# are fixed because the search cost swings by orders of magnitude with the
# facet structure; each is one whose cost varies little with the seed.  There
# are 15 planted and 25 classes in all, odd counts with 0.9 x count halfway
# between integers, so that in a run of whole rounds the median and the 90th
# percentile fall inside one class rather than on the step between two.
SEARCH_CLASSES = (
    (True, 2, 0, 0), (True, 2, 0, 1), (True, 2, 1, 2), (True, 3, 1, 0),
    (True, 3, 0, 1), (True, 3, 0, 2), (True, 4, 0, 0), (True, 4, 0, 1),
    (True, 4, 0, 2), (True, 5, 0, 0),
    (False, 2, 0, 0), (False, 2, 1, 1), (False, 2, 2, 2), (False, 3, 0, 0),
    (False, 3, 1, 2), (False, 3, 2, 2), (False, 4, 0, 1), (False, 4, 2, 0),
    (False, 5, 0, 0), (False, 5, 0, 1), (False, 5, 0, 2), (False, 6, 0, 1),
    (False, 7, 0, 0), (False, 6, 0, 2), (False, 7, 0, 1),
)


def _search_case(
    rng: random.Random, pigeonhole: bool, k: int, extra: int, ntwos: int
) -> Case:
    """A core facet holding k degree-4 and k+1 (pigeonhole) or k (planted)
    degree-6 vertices plus ntwos degree-2 vertices, and `extra` more facets.

    Two degree-4 vertices share the core, so the main hypothesis fails and
    only the partition search can certify realizability.  In the core every
    block holding a 6 needs its own 4 ({6} alone is inadmissible and a block
    cannot repeat a degree), so k+1 sixes admit no partition: the verdict
    carries none.  With k sixes the planted pairs {4, 6} = SU(2) form a
    partition; each extra facet is a union of whole planted pairs plus a
    fresh degree-2 vertex, so every poset element stays a union of pairs and
    the planted partition stays admissible."""
    fours = _names(rng, "a", k)
    sixes = _names(rng, "b", k + 1 if pigeonhole else k)
    twos = _names(rng, "t", ntwos)
    degrees = {v: 4 for v in fours} | {v: 6 for v in sixes} | {v: 2 for v in twos}
    facets = [fours + sixes + twos]
    for i in range(extra):
        if pigeonhole:
            pool = fours + sixes
            part = rng.sample(pool, rng.randint(1, len(pool) - 1))
        else:
            pairs = rng.sample(list(zip(fours, sixes)), rng.randint(1, k - 1))
            part = [v for p in pairs for v in p]
        facets.append(part + [f"e{i}"])
        degrees[f"e{i}"] = 2
    order = list(degrees)
    rng.shuffle(order)
    return Case(
        complex_text({v: degrees[v] for v in order}, [sorted(f) for f in facets]),
        NO_PARTITION if pigeonhole else PARTITION,
    )


def search_round(rng: random.Random) -> list[Case]:
    """Hypothesis-violating complexes whose verdict rests on the partition
    search: pigeonhole instances (no partition) and planted ones (a
    partition exists).  k stays at most 5 for pigeonholes, so no single check
    takes much more than half a second at the seed commit."""
    out = [_search_case(rng, *cls) for cls in SEARCH_CLASSES]
    rng.shuffle(out)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random], list[Case]]
    # The tail percentile.  It keeps at least 10 samples beyond it in every
    # run of the benchmark's length, and it is fixed: one that moved with the
    # sample count would jump between runs.  In `small` it is p95, not p98:
    # construct and verify take about 2 ms there, and host stalls of a few ms
    # decide their 98th percentile (of the 15 slowest constructs in one 30 s
    # run, 10 took under half as long when run again at once).
    tail_pct: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small", small_round, 95.0),
        Workload("poset", poset_round, 80.0),
        Workload("hilbert", hilbert_round, 90.0),
        Workload("search", search_round, 90.0),
    )
}


def rounds(workload: str, seed: int) -> Iterator[list[Case]]:
    """Endless rounds of distinct cases for one workload and seed.  A case
    whose text was already generated is replaced from a fresh batch, so every
    round keeps its size."""
    rng = random.Random(f"{workload}:{seed}")
    make = WORKLOADS[workload].make_round
    seen: set[bytes] = set()
    while True:
        batch = make(rng)
        size, fresh = len(batch), []
        while True:
            for case in batch:
                key = hashlib.blake2b(case.text.encode(), digest_size=12).digest()
                if key not in seen and len(fresh) < size:
                    seen.add(key)
                    fresh.append(case)
            if len(fresh) == size:
                break
            batch = make(rng)
        yield fresh
