"""Homotopy colimit diagrams over the facet-intersection poset.

Each poset element s gets the space prod_i X(s, i), one factor per partition
block: BSp(n) for a symplectic chain {4,...,4n}, BSU(n+1) for a unitary chain
{4,...,2n+2} on n generators, a power of CP^inf for degree-2 vertices, and a
point for an empty intersection.  Edges follow covering relations upward and
are labeled by compositions of the three standard inclusions

    iota1: BSU(n) -> BSU(n+1),   iota2: BSp(n) -> BSp(n+1),
    iota3: BSp(n) -> BSU(2n),

together with coordinate inclusions of CP^inf powers.  On cohomology every
generator of the target pulls back to the generator bound to the same vertex,
or to zero when that vertex is absent, which is exactly the Stanley-Reisner
projection; the verifier re-checks this rather than assuming it.

Generators are bound to vertices by ascending degree.  Inside one block and
one poset element the admissible families never repeat a degree above 2, so
the binding is unambiguous.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, get_type_hints

from .admissible import SpType, SUType, Torus, classify
from .complexes import ComplexError, ComplexWithDegrees, Simplex
from .decide import Partition


class NoCanonicalMap(ValueError):
    """No standard inclusion exists between the two factors; unreachable for
    labels produced from an admissible partition."""


@dataclass(frozen=True)
class CPInfPower:
    k: int


@dataclass(frozen=True)
class BSp:
    n: int


@dataclass(frozen=True)
class BSU:
    n: int


@dataclass(frozen=True)
class Point:
    pass


FactorLabel = CPInfPower | BSp | BSU | Point


@dataclass(frozen=True)
class BlockLabel:
    """One factor of a node space: the Lie-type or CP^inf part for one
    partition block, with the vertices bound to its generators."""

    block: int
    factor: FactorLabel
    cp_vertices: tuple[str, ...]  # degree-2 vertices, id order
    lie_vertices: tuple[str, ...]  # degree >= 4 vertices, ascending degree


SpaceLabel = tuple[BlockLabel, ...]


@dataclass(frozen=True)
class Iota1Power:
    power: int
    after_iota3: bool


@dataclass(frozen=True)
class Iota2Power:
    power: int


@dataclass(frozen=True)
class FromPoint:
    pass


LieMap = Iota1Power | Iota2Power | FromPoint

# The JSON "kind" of each factor and map; emit_json and diagram_from_json
# both read these tables, and a value's other JSON keys are its fields.
FACTOR_KINDS: dict[str, type] = {
    "BSp": BSp, "BSU": BSU, "CP": CPInfPower, "point": Point,
}
MAP_KINDS: dict[str, type] = {
    "from_point": FromPoint, "iota2": Iota2Power, "iota1": Iota1Power,
}
_KIND_NAMES = {cls: kind for t in (FACTOR_KINDS, MAP_KINDS) for kind, cls in t.items()}
_FIELDS = {cls: tuple(get_type_hints(cls).items()) for cls in _KIND_NAMES}


@dataclass(frozen=True)
class CPInclusion:
    source: tuple[str, ...]
    target: tuple[str, ...]


@dataclass(frozen=True)
class BlockMap:
    block: int
    lie: LieMap | None
    cp: CPInclusion | None


@dataclass(frozen=True)
class DiagramNode:
    name: str
    simplex: tuple[str, ...]
    blocks: SpaceLabel


@dataclass(frozen=True)
class DiagramEdge:
    source: str  # node names
    target: str
    source_simplex: tuple[str, ...]
    target_simplex: tuple[str, ...]
    maps: tuple[BlockMap, ...]
    # target vertex -> source vertex carrying the same generator, or None
    generator_map: tuple[tuple[str, str | None], ...]


@dataclass(frozen=True)
class ColimitDiagram:
    partition: Partition
    nodes: tuple[DiagramNode, ...]
    edges: tuple[DiagramEdge, ...]


def node_name(s: Simplex | tuple[str, ...]) -> str:
    return "sigma_" + "_".join(sorted(s))


def partition_issues(c: ComplexWithDegrees, partition: Partition) -> list[str]:
    """What keeps a partition from being canonical for c: its blocks must
    cover the vertex set, be disjoint, list their ids in strictly ascending
    order and be nonempty."""
    covered = {v for b in partition for v in b}
    issues = []
    if covered != set(c.sorted_ids):
        issues.append("diagram partition does not cover the vertex set")
    if sum(len(set(b)) for b in partition) != len(covered):
        issues.append("diagram partition blocks are not disjoint")
    if any(a >= b for block in partition for a, b in zip(block, block[1:])):
        issues.append(
            "diagram partition blocks are not in strictly ascending id order"
        )
    if not all(partition):
        issues.append("diagram partition has an empty block")
    return issues


def label_node(
    c: ComplexWithDegrees, s: Simplex, partition: Partition
) -> SpaceLabel:
    out: list[BlockLabel] = []
    deg = c.degree_map
    for bi, block in enumerate(partition):
        inter = [v for v in block if v in s]
        cp = tuple(v for v in inter if deg[v] == 2)
        lie = tuple(sorted((v for v in inter if deg[v] >= 4), key=deg.get))
        cls = classify(tuple(sorted(deg[v] for v in inter)))
        if isinstance(cls, Torus):
            factor: FactorLabel = CPInfPower(cls.k2) if cls.k2 else Point()
        elif isinstance(cls, SpType):
            factor = BSp(cls.n)
        elif isinstance(cls, SUType):
            factor = BSU(cls.n + 1)
        else:  # no space for a multiset outside Torus, SUType and SpType
            raise ValueError(
                f"simplex {sorted(s)} meets block {bi} in an "
                f"unconstructible multiset ({cls})"
            )
        out.append(BlockLabel(bi, factor, cp, lie))
    return tuple(out)


def lie_degrees(f: FactorLabel) -> range:
    """Ascending degrees of the generators of a factor's Lie part."""
    if isinstance(f, BSp):
        return range(4, 4 * f.n + 1, 4)
    if isinstance(f, BSU):
        return range(4, 2 * f.n + 1, 2)
    return range(0)


def _block_map(bs: BlockLabel, bt: BlockLabel) -> BlockMap:
    src_empty = not bs.cp_vertices and not bs.lie_vertices
    tgt_empty = not bt.cp_vertices and not bt.lie_vertices
    if tgt_empty:
        if not src_empty:
            raise NoCanonicalMap("source block exceeds target block")
        return BlockMap(bs.block, None, None)
    if src_empty:
        return BlockMap(bs.block, FromPoint(), None)
    # decided by the factors' kinds, not their ranks: a BSp(0) source is
    # still a Lie factor
    s, t = bs.factor, bt.factor
    sn = s.n if isinstance(s, (BSp, BSU)) else 0
    lie: LieMap | None
    if isinstance(t, BSp):
        if isinstance(s, BSU):
            raise NoCanonicalMap("no standard map from a unitary factor into BSp")
        if t.n < sn:
            raise NoCanonicalMap("symplectic rank cannot drop")
        lie = Iota2Power(t.n - sn)  # sn = 0 when the source has no Lie factor
    elif isinstance(t, BSU):
        if isinstance(s, BSp):
            if t.n < 2 * sn:
                raise NoCanonicalMap("unitary rank below twice the symplectic rank")
            lie = Iota1Power(t.n - 2 * sn, True)
        else:
            if t.n < sn:
                raise NoCanonicalMap("unitary rank cannot drop")
            lie = Iota1Power(t.n - sn, False)  # sn = 0 for a torus-only source
    elif isinstance(s, (BSp, BSU)):
        raise NoCanonicalMap("Lie factor cannot map to a torus factor")
    else:
        lie = None
    cp = CPInclusion(bs.cp_vertices, bt.cp_vertices) if bt.cp_vertices else None
    if cp and not set(bs.cp_vertices) <= set(bt.cp_vertices):
        raise NoCanonicalMap("source coordinates missing from target")
    return BlockMap(bs.block, lie, cp)


def expected_block_maps(src: SpaceLabel, tgt: SpaceLabel) -> tuple[BlockMap, ...]:
    if len(src) != len(tgt):
        raise NoCanonicalMap("labels have different block counts")
    return tuple(_block_map(bs, bt) for bs, bt in zip(src, tgt))


def build_diagram(c: ComplexWithDegrees, partition: Partition) -> ColimitDiagram:
    """Nodes for every facet-intersection poset element, edges for covering
    relations, all in canonical order; each element is labelled and named
    once, and every edge reads its two nodes.  A partition that verify
    would reject (partition_issues) raises ValueError."""
    issues = partition_issues(c, partition)
    if issues:
        raise ValueError(issues[0])
    poset = c.poset
    nodes = {
        s: DiagramNode(node_name(k), k, label_node(c, s, partition))
        for s, k in zip(poset.elements, poset.keys)
    }
    edges = []
    for s, t in c.covers:
        a, b = nodes[s], nodes[t]
        edges.append(DiagramEdge(
            a.name, b.name, a.simplex, b.simplex,
            expected_block_maps(a.blocks, b.blocks),
            tuple((v, v if v in s else None) for v in b.simplex),
        ))
    return ColimitDiagram(partition, tuple(nodes.values()), tuple(edges))


def _factor_pieces(bl: BlockLabel) -> list[str]:
    pieces = []
    if isinstance(bl.factor, (BSp, BSU)):
        pieces.append(f"{_KIND_NAMES[type(bl.factor)]}({bl.factor.n})")
    k = len(bl.cp_vertices)
    if k == 1:
        pieces.append("CP^inf")
    elif k > 1:
        pieces.append(f"CP^inf^{k}")
    return pieces


def node_text(blocks: SpaceLabel) -> str:
    pieces = [p for bl in blocks for p in _factor_pieces(bl)]
    return " x ".join(pieces) if pieces else "pt"


def _lie_text(m: Iota1Power | Iota2Power) -> str:
    kind = _KIND_NAMES[type(m)]
    head = "" if m.power == 0 else (kind if m.power == 1 else f"{kind}^{m.power}")
    if isinstance(m, Iota1Power) and m.after_iota3:
        return f"{head} . iota3" if head else "iota3"
    return head or "id"


def edge_text(edge: DiagramEdge) -> str:
    pieces = []
    for bm in edge.maps:  # a block empty at both ends adds nothing
        if isinstance(bm.lie, FromPoint):
            pieces.append("const")
            continue
        if bm.lie is not None:
            pieces.append(_lie_text(bm.lie))
        if bm.cp is not None:
            pieces.append("incl")
    return " x ".join(pieces) if pieces else "id"


def _dot_id(name: str) -> str:
    """A node name as a quoted DOT id, its backslashes and quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(d: ColimitDiagram) -> str:
    lines = ["digraph colimit {", "  rankdir=LR;"]
    for node in d.nodes:
        lines.append(f'  {_dot_id(node.name)} [label="{node_text(node.blocks)}"];')
    for edge in d.edges:
        lines.append(
            f'  {_dot_id(edge.source)} -> {_dot_id(edge.target)} '
            f'[label="{edge_text(edge)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# JSON text as json.dumps(obj, indent=2) lays it out: a container at depth d
# puts each item on its own line at depth d + 1 and its closing bracket on a
# line at depth d; an empty one is "[]" or "{}".
_NEWLINE = tuple("\n" + "  " * depth for depth in range(8))
_ITEM_SEP = tuple("," + nl for nl in _NEWLINE)


def json_container(open_: str, items: list[str], close: str, depth: int) -> str:
    """Encoded items in a JSON container whose closing bracket sits at depth."""
    if not items:
        return open_ + close
    return (open_ + _NEWLINE[depth + 1] + _ITEM_SEP[depth + 1].join(items)
            + _NEWLINE[depth] + close)


def json_record(depth: int, *keys: str) -> str:
    """An object at depth with these keys, as a template: one %s per value."""
    return json_container(
        "{", [encode_basestring_ascii(k) + ": %s" for k in keys], "}", depth
    )


# Each record's layout, built once; a slot takes a value already encoded at
# the slot's depth.  Filling slots is one % pass, so data never becomes a
# template.  A kind's head is filled in here and its field slots put back.
_FILE = json_record(0, "partition", "nodes", "edges") + "\n"
_NODE = json_record(2, "name", "simplex", "factors")
_FACTOR = json_record(4, "block", "factor", "cp_vertices", "lie_vertices")
_EDGE = json_record(2, "from", "to", "source", "target", "maps", "generator_map")
_MAP = json_record(4, "block", "lie", "cp")
_CP = json_record(5, "source", "target")
_KIND = {
    cls: json_record(5, "kind", *(name for name, _ in _FIELDS[cls]))
    % (encode_basestring_ascii(kind), *["%s"] * len(_FIELDS[cls]))
    for cls, kind in _KIND_NAMES.items()
}


def json_strings(strs: Iterable[str], depth: int) -> str:
    return json_container("[", [encode_basestring_ascii(v) for v in strs], "]", depth)


def json_value(value: object, depth: int = 0) -> str:
    """A bool, int, str, None, dict with str keys, list or tuple at depth,
    as json.dumps(value, indent=2) writes it: the writer of every output
    small enough to need no template."""
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        return json_container("{", [
            encode_basestring_ascii(k) + ": " + json_value(v, depth + 1)
            for k, v in value.items()
        ], "}", depth)
    if isinstance(value, (list, tuple)):
        return json_container(
            "[", [json_value(v, depth + 1) for v in value], "]", depth
        )
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _kind_json(value: FactorLabel | LieMap) -> str:
    cls = type(value)
    return _KIND[cls] % tuple(
        json_value(getattr(value, name)) for name, _ in _FIELDS[cls]
    )


def _node_json(n: DiagramNode) -> str:
    factors = [
        _FACTOR % (int.__repr__(bl.block), _kind_json(bl.factor),
                   json_strings(bl.cp_vertices, 5), json_strings(bl.lie_vertices, 5))
        for bl in n.blocks
    ]
    return _NODE % (encode_basestring_ascii(n.name), json_strings(n.simplex, 3),
                    json_container("[", factors, "]", 3))


def _edge_json(e: DiagramEdge) -> str:
    maps = [
        _MAP % (
            int.__repr__(bm.block),
            "null" if bm.lie is None else _kind_json(bm.lie),
            "null" if bm.cp is None else
            _CP % (json_strings(bm.cp.source, 6), json_strings(bm.cp.target, 6)),
        )
        for bm in e.maps
    ]
    # through a dict, as json.dumps saw it: a repeated vertex keeps its
    # first position and its last image
    generators = [
        encode_basestring_ascii(v) + ": "
        + ("null" if img is None else encode_basestring_ascii(img))
        for v, img in dict(e.generator_map).items()
    ]
    return _EDGE % (
        encode_basestring_ascii(e.source), encode_basestring_ascii(e.target),
        json_strings(e.source_simplex, 3), json_strings(e.target_simplex, 3),
        json_container("[", maps, "]", 3), json_container("{", generators, "}", 3),
    )


def emit_json(d: ColimitDiagram) -> str:
    """The diagram as JSON text: byte for byte what json.dumps(obj,
    indent=2) + "\n" writes for the object the record templates lay out,
    a factor or non-null lie map being {"kind": <its FACTOR_KINDS or
    MAP_KINDS name>, then its fields}.  That is: every id and key escaped to
    ASCII by json's own encode_basestring_ascii, ": " after a key, a comma
    and a newline between items, a two-space indent per level, and "[]" or
    "{}" for an empty list or object.  Each record is one template filled
    by %, not json.dumps, whose indented encoder is pure Python.
    diagram_from_json reads it back."""
    return _FILE % (
        json_container("[", [json_strings(b, 2) for b in d.partition], "]", 1),
        json_container("[", [_node_json(n) for n in d.nodes], "]", 1),
        json_container("[", [_edge_json(e) for e in d.edges], "]", 1),
    )


def _need(obj: object, key: str, ctx: str) -> object:
    if not isinstance(obj, dict):
        raise ComplexError(f"diagram {ctx} must be an object")
    if key not in obj:
        raise ComplexError(f"diagram {ctx} is missing {key!r}")
    return obj[key]


def _typed(obj: object, key: str, ctx: str, typ: type):
    """obj[key], which must be a typ; a JSON true/false is no int."""
    value = _need(obj, key, ctx)
    if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
        raise ComplexError(f"diagram {ctx} {key!r} must be a JSON {typ.__name__}")
    return value


def _id_tuple(value: object, what: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ComplexError(f"diagram {what} must be a list of vertex ids")
    return tuple(value)


def _ids(obj: object, key: str, ctx: str) -> tuple[str, ...]:
    return _id_tuple(_need(obj, key, ctx), f"{ctx} {key!r}")


def _kind_from_json(
    obj: object, kinds: dict[str, type], what: str
) -> FactorLabel | LieMap:
    """The kinds[obj["kind"]] value whose fields obj holds, each of its
    declared JSON type."""
    kind = _need(obj, "kind", what)
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ComplexError(f"unknown {what} kind {kind!r}")
    return cls(*(_typed(obj, name, what, typ) for name, typ in _FIELDS[cls]))


def _block_map_from_json(m: object) -> BlockMap:
    block = _typed(m, "block", "edge map", int)
    lie = _need(m, "lie", "edge map")
    if lie is not None:
        lie = _kind_from_json(lie, MAP_KINDS, "map")
    cp = _need(m, "cp", "edge map")
    if cp is not None:
        cp = CPInclusion(_ids(cp, "source", "cp map"), _ids(cp, "target", "cp map"))
    return BlockMap(block, lie, cp)


def _generator_map(obj: object) -> tuple[tuple[str, str | None], ...]:
    if not isinstance(obj, dict) or not all(
        v is None or isinstance(v, str) for v in obj.values()
    ):
        raise ComplexError(
            "diagram generator_map must map vertex ids to ids or null"
        )
    return tuple((v, obj[v]) for v in sorted(obj))


def diagram_from_json(text: str) -> ColimitDiagram:
    """Parse emit_json's format.  Every field must have the JSON type that
    emit_json writes; nothing is coerced.  Nesting too deep to decode or to
    report is malformed input too."""
    try:
        return _diagram_from_obj(json.loads(text))
    except json.JSONDecodeError as e:
        raise ComplexError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise ComplexError("diagram JSON nests too deeply") from None


def _diagram_from_obj(obj: object) -> ColimitDiagram:
    partition = tuple(
        _id_tuple(b, "partition block")
        for b in _typed(obj, "partition", "file", list)
    )
    nodes = []
    for n in _typed(obj, "nodes", "file", list):
        blocks = tuple(
            BlockLabel(
                _typed(f, "block", "node factor", int),
                _kind_from_json(
                    _need(f, "factor", "node factor"), FACTOR_KINDS, "factor"
                ),
                _ids(f, "cp_vertices", "node factor"),
                _ids(f, "lie_vertices", "node factor"),
            )
            for f in _typed(n, "factors", "node", list)
        )
        nodes.append(DiagramNode(
            _typed(n, "name", "node", str), _ids(n, "simplex", "node"), blocks
        ))
    edges = []
    for e in _typed(obj, "edges", "file", list):
        maps = tuple(
            _block_map_from_json(m) for m in _typed(e, "maps", "edge", list)
        )
        # read in this order, which fixes the first error a file reports
        source, target = _ids(e, "source", "edge"), _ids(e, "target", "edge")
        generator_map = _generator_map(_need(e, "generator_map", "edge"))
        edges.append(DiagramEdge(
            _typed(e, "from", "edge", str), _typed(e, "to", "edge", str),
            source, target, maps, generator_map,
        ))
    return ColimitDiagram(partition, tuple(nodes), tuple(edges))
