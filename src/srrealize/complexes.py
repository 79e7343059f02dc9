"""Simplicial complexes with even vertex degrees, and their facet-intersection poset.

A complex is described by its facets (the maximal simplices) together with a
degree map sending every vertex to a positive even integer.  Faces are exactly
the subsets of facets; the empty simplex is always a face.  The poset of all
intersections of nonempty sets of facets, ordered by inclusion, drives both
the realizability decision and the diagram construction.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

Simplex = frozenset[str]
DegreeMultiset = tuple[int, ...]

EMPTY_SIMPLEX: Simplex = frozenset()

# pmax stops past this many elements, as |P| can reach 2^(facets) - 1
MAX_POSET_ELEMENTS = 2**14


class ComplexError(ValueError):
    """Invalid complex data; the message names the offending item."""


def simplex_key(s: Iterable[str]) -> tuple[str, ...]:
    """Canonical ordering key for simplices: the sorted id tuple."""
    return tuple(sorted(s))


@dataclass(frozen=True)
class ComplexWithDegrees:
    """Degrees plus facets.  The degree map keeps declaration order, the
    order validate reports in; facet order matters for the step-by-step
    pushout verification, nowhere else."""

    degree_map: Mapping[str, int]
    facets: tuple[Simplex, ...]

    @cached_property
    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.degree_map))

    @cached_property
    def vertex_facets(self) -> dict[str, int]:
        """Each vertex's facets as a bitset, bit i for the i-th facet."""
        out: dict[str, int] = {}
        for i, f in enumerate(self.facets):
            for v in f:
                out[v] = out.get(v, 0) | 1 << i
        return out

    @cached_property
    def poset(self) -> MaxIntersectionPoset:
        """The facet-intersection poset, built once per complex."""
        return pmax(self)

    @cached_property
    def covers(self) -> tuple[tuple[Simplex, Simplex], ...]:
        """The poset's covering pairs, computed once per complex."""
        return self.poset.covers()

    def validate(self) -> None:
        """Checks degrees and facets.  Facet containment and vertices on no
        facet are read through facets_containing."""
        for v, d in self.degree_map.items():
            if d <= 0 or d % 2 != 0:
                raise ComplexError(
                    f"vertex {v!r} has degree {d}; "
                    "degrees must be positive even integers"
                )
        for f in self.facets:
            if not f:
                raise ComplexError("facets must be nonempty")
            for x in sorted(f):
                if x not in self.degree_map:
                    raise ComplexError(
                        f"facet {sorted(f)} mentions undeclared vertex {x!r}"
                    )
        for i, a in enumerate(self.facets):
            others = facets_containing(self.vertex_facets, a) & ~(1 << i)
            if others:
                b = self.facets[(others & -others).bit_length() - 1]
                raise ComplexError(
                    f"facet {sorted(a)} is contained in facet {sorted(b)}"
                )
        for v in self.degree_map:
            if not facets_containing(self.vertex_facets, (v,)):
                raise ComplexError(f"vertex {v!r} appears in no facet")

    def degree_multiset(self, s: Iterable[str]) -> DegreeMultiset:
        """The sorted degrees of s, which must be a face: the empty
        simplex, or ids of declared vertices that lie in one facet, which
        facets_containing finds in O(|s|)."""
        s = frozenset(s)
        unknown = [x for x in s if x not in self.degree_map]
        if unknown:  # the least, so the message does not follow hash order
            raise ComplexError(f"unknown vertex {min(unknown)!r}")
        if not facets_containing(self.vertex_facets, s):
            raise ComplexError(f"{sorted(s)} is not a face")
        return tuple(sorted(self.degree_map[x] for x in s))


def facets_containing(vertex_facets: Mapping[str, int], s: Iterable[str]) -> int:
    """The facets that hold all of s, as a bitset: the AND of its vertices'
    bitsets in a complex's vertex_facets.  It is 0 when s is no face, and
    -1, every bit, for the empty simplex, which every facet holds."""
    key = -1
    for v in s:
        key &= vertex_facets.get(v, 0)
    return key


def bitmasks(c: ComplexWithDegrees, faces: Iterable[Simplex]) -> list[int]:
    """The faces as vertex bitmasks: bit i stands for c.sorted_ids[i]."""
    bit = {v: 1 << i for i, v in enumerate(c.sorted_ids)}
    return [sum(map(bit.__getitem__, s)) for s in faces]


def mask_ids(ids: Sequence[str], mask: int) -> tuple[str, ...]:
    """The ids of a bitmask's set bits, lowest first: ids[i] for bit i, so
    in sorted order when ids is c.sorted_ids."""
    out = []
    while mask:
        low = mask & -mask
        out.append(ids[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def make_complex(
    degrees: Mapping[str, int], facets: Iterable[Iterable[str]]
) -> ComplexWithDegrees:
    """Build and validate a complex from a degree map and facet list."""
    c = ComplexWithDegrees(
        dict(sorted(degrees.items())), tuple(frozenset(f) for f in facets)
    )
    c.validate()
    return c


def all_faces(c: ComplexWithDegrees) -> frozenset[Simplex]:
    """Every face of the complex, including the empty simplex."""
    faces: set[Simplex] = {EMPTY_SIMPLEX}
    for f in c.facets:
        ids = sorted(f)
        for r in range(1, len(ids) + 1):
            for combo in itertools.combinations(ids, r):
                faces.add(frozenset(combo))
    return frozenset(faces)


@dataclass(frozen=True)
class MaxIntersectionPoset:
    """All intersections of nonempty sets of facets, ordered by inclusion.

    Elements are stored in canonical order (lexicographic on sorted id
    lists).  The maximal elements are the facets themselves; the poset is
    closed under pairwise intersection.  keys and multisets run parallel to
    elements: each element's sorted ids and sorted degrees, computed once
    for every stage.  vertex_facets is the complex's own facet index; no
    reference back to the complex, so a complex is freed without the GC.
    """

    elements: tuple[Simplex, ...]
    vertex_facets: Mapping[str, int]
    keys: tuple[tuple[str, ...], ...]
    multisets: tuple[DegreeMultiset, ...]

    def covers(self) -> tuple[tuple[Simplex, Simplex], ...]:
        """Covering pairs (s, t) with s properly below t and nothing between,
        in element order: for each s, its covering t in element order.

        They are found through closures.  The closure cl(x) of a face x is
        the least element containing it: the intersection of the facets
        containing x (of all facets when x is empty), an element because
        the poset is closed under intersection.  An element t above s holds
        a vertex v outside s, so t contains cl(s | {v}), an element above s.
        So a cover t of s is cl(s | {v}) for every v in t - s, and
        conversely a t that is cl(s | {v}) for every v in t - s is a cover:
        an element r with s < r < t would hold some v in r - s, and
        cl(s | {v}) <= r would differ from t.  The covers of s are therefore
        read off at most one closure per vertex outside s.  A closure is
        named by its set of facets, facets_containing of its vertices, and
        s | {v} has none when that set is empty."""
        if len(self.elements) < 2:
            return ()  # no pair, and no per-vertex set-up for one facet
        keys = [facets_containing(self.vertex_facets, s) for s in self.elements]
        index = {key: i for i, key in enumerate(keys)}
        bitsets = tuple(self.vertex_facets.values())
        out = []
        for s, key in zip(self.elements, keys):
            # hits[i]: the vertices v outside s with cl(s | {v}) element i.
            # v lies in s exactly when its bits hold all of s's key, since s
            # is the intersection of the facets containing it.
            hits: dict[int, int] = {}
            for bits in bitsets:
                k = key & bits
                if k and k != key:
                    i = index[k]
                    hits[i] = hits.get(i, 0) + 1
            out.extend(
                (s, self.elements[i]) for i in sorted(hits)
                if hits[i] == len(self.elements[i]) - len(s)
            )
        return tuple(out)


def pmax(c: ComplexWithDegrees) -> MaxIntersectionPoset:
    """Compute the facet-intersection poset one facet at a time, on vertex
    bitmasks: with the intersections of every nonempty subset of the
    earlier facets in els, those that use facet f too are f itself and
    f & e for e in els.  A step at most doubles els, which raises once past
    MAX_POSET_ELEMENTS.  An element's set bits, lowest first, are its
    sorted ids."""
    els: set[int] = set()
    for f in bitmasks(c, c.facets):
        els |= {f & e for e in els}
        els.add(f)
        if len(els) > MAX_POSET_ELEMENTS:
            raise ComplexError(f"facet-intersection poset exceeds the cap "
                               f"of {MAX_POSET_ELEMENTS} elements")
    ids = c.sorted_ids
    keys = tuple(sorted(mask_ids(ids, e) for e in els))
    return MaxIntersectionPoset(
        tuple(map(frozenset, keys)), c.vertex_facets, keys,
        tuple(tuple(sorted(c.degree_map[v] for v in k)) for k in keys),
    )


def complex_from_json(text: str) -> ComplexWithDegrees:
    """Parse the input JSON format.

    {"vertices": [{"id": "x4", "degree": 4}, ...], "facets": [["x4","x6"], ...]}

    Unknown keys are rejected; degrees must be JSON integers.  Nesting too
    deep to decode or to report is malformed input too.  The result is
    validated before being returned.
    """
    try:
        c = _complex_from_obj(json.loads(text))
    except json.JSONDecodeError as e:
        raise ComplexError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise ComplexError("input JSON nests too deeply") from None
    c.validate()
    return c


def _complex_from_obj(obj: object) -> ComplexWithDegrees:
    if not isinstance(obj, dict):
        raise ComplexError("top-level value must be an object")
    extra = set(obj) - {"vertices", "facets"}
    if extra:
        raise ComplexError(f"unknown top-level keys: {sorted(extra)}")
    if "vertices" not in obj or "facets" not in obj:
        raise ComplexError('both "vertices" and "facets" are required')
    if not isinstance(obj["vertices"], list):
        raise ComplexError('"vertices" must be a list')
    degrees: dict[str, int] = {}
    duplicates = []
    for entry in obj["vertices"]:
        if not isinstance(entry, dict):
            raise ComplexError(f"vertex entry {entry!r} must be an object")
        extra = set(entry) - {"id", "degree"}
        if extra:
            raise ComplexError(
                f"vertex entry {entry!r} has unknown keys: {sorted(extra)}"
            )
        vid = entry.get("id")
        deg = entry.get("degree")
        if not isinstance(vid, str):
            raise ComplexError(f"vertex id {vid!r} must be a string")
        if not isinstance(deg, int) or isinstance(deg, bool):
            raise ComplexError(f"degree of vertex {vid!r} must be an integer")
        if vid in degrees:
            duplicates.append(vid)
        degrees[vid] = deg
    if not isinstance(obj["facets"], list):
        raise ComplexError('"facets" must be a list of lists')
    facets = []
    for f in obj["facets"]:
        if not isinstance(f, list) or not all(isinstance(x, str) for x in f):
            raise ComplexError(f"facet {f!r} must be a list of vertex ids")
        facets.append(frozenset(f))
    # reported once every entry has parsed, and before validate's checks
    if duplicates:
        raise ComplexError(f"duplicate vertex id {duplicates[0]!r}")
    return ComplexWithDegrees(degrees, tuple(facets))
