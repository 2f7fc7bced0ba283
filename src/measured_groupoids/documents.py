"""Bit-exact document serialization.

Documents are JSON-compatible objects with an explicit format_version and a
"kind" discriminator. All weights travel as reduced fraction strings
("num/den", denominator omitted when 1); unquoted decimal literals are
rejected outright. Serialization is canonical (sorted keys, fixed layout), so
serializing the same value twice is byte-identical and round-trips are exact.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING

from .errors import DanglingReference, EmptySpace, MalformedInput, ParseError, UnsupportedVersion
from .groupoid import FiniteGroupoid, GroupoidHom, Record, check_ids, check_map, check_references
from .haar import HaarGroupoid
from .measures import FiniteMeasure, MeasureSystem, over_one_denominator
from .pullback import Cospan, WeakPullbackResult

if TYPE_CHECKING:  # for annotations: `families` is imported where example parameters are parsed
    from .families import CechCospanData, FiniteCover, GroupAction, TransformationCospanData

FORMAT_VERSION = 1

_WEIGHT_RE = re.compile(r"^([0-9]+)(?:/([1-9][0-9]*))?$")


def weight_to_str(w: Fraction) -> str:
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def str_to_weight(s: str, path: str) -> Fraction:
    if not isinstance(s, str):
        raise ParseError(f"{path}: weights must be fraction strings, got {type(s).__name__}")
    m = _WEIGHT_RE.match(s)
    if not m:
        raise ParseError(f"{path}: bad weight {s!r} (expected nonnegative 'num' or 'num/den')")
    num, den = m.group(1), m.group(2)
    return Fraction(int(num), int(den) if den else 1)


# ---------------------------------------------------------------------------
# document types


class GroupoidDocument(Record):
    __slots__ = _fields = ("groupoid", "haar", "unit_measure")

    def __init__(self, groupoid: FiniteGroupoid, haar: MeasureSystem | None = None, unit_measure: FiniteMeasure | None = None):
        self._set(groupoid, haar, unit_measure)

    def to_haar_groupoid(self, where: str = "") -> HaarGroupoid:
        """Raises MalformedInput naming the first missing measure field, as
        `where` (the path of this groupoid in its document) plus the field."""
        for name, value in (("haar", self.haar), ("unit_measure", self.unit_measure)):
            if value is None:
                raise MalformedInput(f"document lacks {where}{name}")
        return HaarGroupoid(self.groupoid, self.haar, self.unit_measure)

    @staticmethod
    def of(h: HaarGroupoid) -> "GroupoidDocument":
        return GroupoidDocument(h.groupoid, h.haar, h.unit_measure)


class CospanDocument(Record):
    __slots__ = _fields = ("left", "base", "right", "left_map", "right_map")

    def __init__(
        self, left: GroupoidDocument, base: GroupoidDocument, right: GroupoidDocument, left_map: dict[str, str],
        right_map: dict[str, str],
    ):
        self._set(left, base, right, left_map, right_map)

    def to_cospan(self, where: str = "") -> Cospan:
        lg, bg, rg = (
            doc.to_haar_groupoid(f"{where}{name}.")
            for name, doc in (("left", self.left), ("base", self.base), ("right", self.right))
        )
        return Cospan(
            lg,
            bg,
            rg,
            GroupoidHom(lg.groupoid, bg.groupoid, self.left_map),
            GroupoidHom(rg.groupoid, bg.groupoid, self.right_map),
        )

    @staticmethod
    def of(c: Cospan) -> "CospanDocument":
        return CospanDocument(
            GroupoidDocument.of(c.left),
            GroupoidDocument.of(c.base),
            GroupoidDocument.of(c.right),
            dict(c.left_map.mapping),
            dict(c.right_map.mapping),
        )


class PullbackDocument(Record):
    __slots__ = _fields = ("cospan", "result", "modular", "proj_left", "proj_right")

    def __init__(
        self, cospan: CospanDocument, result: GroupoidDocument, modular: dict[str, Fraction], proj_left: dict[str, str],
        proj_right: dict[str, str],
    ):
        self._set(cospan, result, modular, proj_left, proj_right)

    @staticmethod
    def of(w: WeakPullbackResult) -> "PullbackDocument":
        return PullbackDocument(
            CospanDocument.of(w.cospan),
            GroupoidDocument(w.groupoid, w.haar, w.unit_measure),
            dict(w.haar_groupoid.modular),
            dict(w.proj_left.mapping),
            dict(w.proj_right.mapping),
        )


class CechExampleDocument(Record):
    __slots__ = _fields = ("data",)

    def __init__(self, data: CechCospanData):
        self._set(data)


class TransformationExampleDocument(Record):
    __slots__ = _fields = ("data",)

    def __init__(self, data: TransformationCospanData):
        self._set(data)


class ExampleResultDocument(Record):
    __slots__ = _fields = (
        "construction", "left", "base", "right", "left_map", "right_map", "pullback", "target", "iso_map", "is_isomorphism"
    )

    def __init__(
        self, construction: str, left: FiniteGroupoid, base: FiniteGroupoid, right: FiniteGroupoid, left_map: dict[str, str],
        right_map: dict[str, str], pullback: FiniteGroupoid, target: FiniteGroupoid, iso_map: dict[str, str],
        is_isomorphism: bool,
    ):
        self._set(construction, left, base, right, left_map, right_map, pullback, target, iso_map, is_isomorphism)


Document = (
    GroupoidDocument
    | CospanDocument
    | PullbackDocument
    | CechExampleDocument
    | TransformationExampleDocument
    | ExampleResultDocument
)


# ---------------------------------------------------------------------------
# emission


def _emit_groupoid(g: FiniteGroupoid) -> dict:
    return {
        "elements": list(g.elements),
        "units": list(g.units),
        "range": {x: g.range_map[x] for x in g.elements},
        "source": {x: g.source_map[x] for x in g.elements},
        "inverse": {x: g.inverse_map[x] for x in g.elements},
        "compose": sorted(g.products()),
    }


def _emit_groupoid_document(doc: GroupoidDocument) -> dict:
    body = _emit_groupoid(doc.groupoid)
    if doc.haar is not None:
        body["haar"] = {
            u: [weight_to_str(doc.haar.weight(u, x)) for x in doc.groupoid.fiber(u)]
            for u in doc.groupoid.units
        }
    if doc.unit_measure is not None:
        body["unit_measure"] = [weight_to_str(doc.unit_measure(u)) for u in doc.groupoid.units]
    return body


def _emit_cospan(doc: CospanDocument) -> dict:
    return {
        "left": _emit_groupoid_document(doc.left),
        "base": _emit_groupoid_document(doc.base),
        "right": _emit_groupoid_document(doc.right),
        "left_map": dict(sorted(doc.left_map.items())),
        "right_map": dict(sorted(doc.right_map.items())),
    }


def _emit_cover(cover: FiniteCover) -> dict:
    return {
        "space": list(cover.space),
        "blocks": {i: sorted(cover.blocks[i]) for i in cover.index_set},
    }


def _emit_action(action: GroupAction) -> dict:
    return {
        "group": _emit_groupoid(action.group),
        "space": list(action.space),
        "act": action.act,
    }


def serialize(doc: Document) -> str:
    """Canonical text form: same value in, same bytes out."""
    if isinstance(doc, GroupoidDocument):
        body = {"kind": "groupoid", **_emit_groupoid_document(doc)}
    elif isinstance(doc, CospanDocument):
        body = {"kind": "cospan", **_emit_cospan(doc)}
    elif isinstance(doc, PullbackDocument):
        body = {
            "kind": "pullback",
            "cospan": _emit_cospan(doc.cospan),
            "result": _emit_groupoid_document(doc.result),
            "modular": {x: weight_to_str(w) for x, w in sorted(doc.modular.items())},
            "proj_left": dict(sorted(doc.proj_left.items())),
            "proj_right": dict(sorted(doc.proj_right.items())),
        }
    elif isinstance(doc, CechExampleDocument):
        d = doc.data
        body = {
            "kind": "cech_example",
            "left_cover": _emit_cover(d.cover_left),
            "right_cover": _emit_cover(d.cover_right),
            "base_space": list(d.base_space),
            "left_map": dict(sorted(d.map_left.items())),
            "right_map": dict(sorted(d.map_right.items())),
        }
    elif isinstance(doc, TransformationExampleDocument):
        d = doc.data
        body = {
            "kind": "transformation_example",
            "left_action": _emit_action(d.action_left),
            "right_action": _emit_action(d.action_right),
            "base_space": list(d.base_space),
            "left_map": dict(sorted(d.map_left.items())),
            "right_map": dict(sorted(d.map_right.items())),
        }
    elif isinstance(doc, ExampleResultDocument):
        body = {
            "kind": "example_result",
            "construction": doc.construction,
            "left": _emit_groupoid(doc.left),
            "base": _emit_groupoid(doc.base),
            "right": _emit_groupoid(doc.right),
            "left_map": dict(sorted(doc.left_map.items())),
            "right_map": dict(sorted(doc.right_map.items())),
            "pullback": _emit_groupoid(doc.pullback),
            "target": _emit_groupoid(doc.target),
            "iso_map": dict(sorted(doc.iso_map.items())),
            "is_isomorphism": doc.is_isomorphism,
        }
    else:
        raise MalformedInput(f"cannot serialize {type(doc).__name__}")
    body["format_version"] = FORMAT_VERSION
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# parsing


def _reject_float(s):
    raise ParseError(f"floating point literal {s!r} is not allowed; use fraction strings")


def _get(obj: dict, key: str, kind, path: str):
    if key not in obj:
        raise ParseError(f"{path}: missing field {key!r}")
    val = obj[key]
    if not isinstance(val, kind):
        raise ParseError(f"{path}.{key}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def _str_list(obj: dict, key: str, path: str) -> list[str]:
    val = _get(obj, key, list, path)
    if not all(isinstance(x, str) for x in val):
        raise ParseError(f"{path}.{key}: expected a list of strings")
    return val


def _str_map(obj: dict, key: str, path: str) -> dict[str, str]:
    val = _get(obj, key, dict, path)
    for k, v in val.items():
        if not isinstance(v, str):
            raise ParseError(f"{path}.{key}[{k!r}]: expected a string")
    return val


@contextmanager
def _reported_at(path: str, kind: type[ParseError] = ParseError):
    """Re-raise the block's MalformedInput or EmptySpace as `kind`, prefixed
    with the path of the document field it came from."""
    try:
        yield
    except (MalformedInput, EmptySpace) as e:
        raise kind(f"{path}: {e}") from e


def _element_map(obj: dict, key: str, path: str, dom: FiniteGroupoid, cod: FiniteGroupoid) -> dict[str, str]:
    """A map field from the elements of `dom` to those of `cod`."""
    mapping = _str_map(obj, key, path)
    with _reported_at(f"{path}.{key}", DanglingReference):
        check_map(mapping, dom.element_set, cod.element_set, "map")
    return dict(mapping)


def _parse_groupoid(obj: dict, path: str) -> FiniteGroupoid:
    elements = _str_list(obj, "elements", path)
    units = _str_list(obj, "units", path)
    range_map = _str_map(obj, "range", path)
    source_map = _str_map(obj, "source", path)
    inverse_map = _str_map(obj, "inverse", path)
    compose_raw = _get(obj, "compose", list, path)
    # every entry a list of three strings, decided in C; the loop names the first that is not
    shapes = {*map(type, compose_raw)} <= {list} and {*map(len, compose_raw)} <= {3}
    if not (shapes and {*map(type, chain.from_iterable(compose_raw))} <= {str}):
        for i, entry in enumerate(compose_raw):
            if not (isinstance(entry, list) and len(entry) == 3 and all(isinstance(e, str) for e in entry)):
                raise ParseError(f"{path}.compose[{i}]: expected a triple of element ids")
    with _reported_at(path):
        g = FiniteGroupoid(elements, units, range_map, source_map, inverse_map, compose_raw)
    if len(g.compose_map) != len(compose_raw):  # a later entry replaced an earlier one
        first: dict[tuple[str, str], int] = {}
        for i, (x, y, _) in enumerate(compose_raw):
            if first.setdefault((x, y), i) != i:
                raise ParseError(f"{path}.compose[{i}]: duplicate entry for ({x!r}, {y!r})")
    with _reported_at(path, DanglingReference):
        check_references(g)
    return g


def _parse_groupoid_document(obj: dict, path: str) -> GroupoidDocument:
    g = _parse_groupoid(obj, path)
    haar = None
    if "haar" in obj:
        table = _get(obj, "haar", dict, path)
        weights: dict[str, dict[str, Fraction]] = {}
        for u in g.units:
            row = table.get(u)
            fiberu = g.fiber(u)
            if not isinstance(row, list) or len(row) != len(fiberu):
                raise ParseError(f"{path}.haar[{u!r}]: expected {len(fiberu)} weights for the fiber")
            weights[u] = {x: str_to_weight(w, f"{path}.haar[{u!r}]") for x, w in zip(fiberu, row)}
        with _reported_at(f"{path}.haar", DanglingReference):
            check_ids(table, g.unit_set, "unknown unit")
        den, rows = over_one_denominator(weights.values())
        haar = MeasureSystem(g.range_map, g.elements, g.units, dict(zip(weights, rows)), den)
    unit_measure = None
    if "unit_measure" in obj:
        row = _get(obj, "unit_measure", list, path)
        if len(row) != len(g.units):
            raise ParseError(f"{path}.unit_measure: expected {len(g.units)} weights")
        ws = {u: str_to_weight(w, f"{path}.unit_measure") for u, w in zip(g.units, row)}
        den, (nums,) = over_one_denominator([ws])
        unit_measure = FiniteMeasure(g.units, nums, den)
    return GroupoidDocument(g, haar, unit_measure)


def _parse_cospan(obj: dict, path: str) -> CospanDocument:
    left = _parse_groupoid_document(_get(obj, "left", dict, path), f"{path}.left")
    base = _parse_groupoid_document(_get(obj, "base", dict, path), f"{path}.base")
    right = _parse_groupoid_document(_get(obj, "right", dict, path), f"{path}.right")
    left_map = _element_map(obj, "left_map", path, left.groupoid, base.groupoid)
    right_map = _element_map(obj, "right_map", path, right.groupoid, base.groupoid)
    return CospanDocument(left, base, right, left_map, right_map)


def _parse_cover(obj: dict, path: str) -> FiniteCover:
    from .families import FiniteCover

    space = _str_list(obj, "space", path)
    blocks_raw = _get(obj, "blocks", dict, path)
    blocks = {}
    for i, pts in blocks_raw.items():
        if not (isinstance(pts, list) and all(isinstance(p, str) for p in pts)):
            raise ParseError(f"{path}.blocks[{i!r}]: expected a list of points")
        blocks[i] = pts
    with _reported_at(path):
        return FiniteCover.build(space, blocks)


def _parse_action(obj: dict, path: str) -> GroupAction:
    from .families import GroupAction

    group = _parse_groupoid(_get(obj, "group", dict, path), f"{path}.group")
    space = _str_list(obj, "space", path)
    act = _get(obj, "act", dict, path)
    for y, row in act.items():
        if not isinstance(row, dict):
            raise ParseError(f"{path}.act[{y!r}]: expected an object")
        for gm, img in row.items():
            if not isinstance(img, str):
                raise ParseError(f"{path}.act[{y!r}][{gm!r}]: expected a point id")
    with _reported_at(path):
        return GroupAction(group, space, act)


def parse_document(text: str) -> Document:
    """Parse any document kind; errors carry the offending field's path."""
    try:
        obj = json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"format_version {version!r} is not supported (expected {FORMAT_VERSION})")
    kind = obj.get("kind")
    if kind == "groupoid":
        return _parse_groupoid_document(obj, "$")
    if kind == "cospan":
        return _parse_cospan(obj, "$")
    if kind == "pullback":
        cospan = _parse_cospan(_get(obj, "cospan", dict, "$"), "$.cospan")
        result = _parse_groupoid_document(_get(obj, "result", dict, "$"), "$.result")
        modular_raw = _get(obj, "modular", dict, "$")
        with _reported_at("$.modular", DanglingReference):
            check_ids(modular_raw, result.groupoid.element_set, "unknown element")
        modular = {x: str_to_weight(w, f"$.modular[{x!r}]") for x, w in modular_raw.items()}
        proj_left = _element_map(obj, "proj_left", "$", result.groupoid, cospan.left.groupoid)
        proj_right = _element_map(obj, "proj_right", "$", result.groupoid, cospan.right.groupoid)
        return PullbackDocument(cospan, result, modular, proj_left, proj_right)
    if kind == "cech_example":
        from .families import CechCospanData

        cover_left = _parse_cover(_get(obj, "left_cover", dict, "$"), "$.left_cover")
        cover_right = _parse_cover(_get(obj, "right_cover", dict, "$"), "$.right_cover")
        base_space = _str_list(obj, "base_space", "$")
        left_map = _str_map(obj, "left_map", "$")
        right_map = _str_map(obj, "right_map", "$")
        with _reported_at("$"):
            data = CechCospanData(cover_left, cover_right, tuple(sorted(set(base_space))), dict(left_map), dict(right_map))
        return CechExampleDocument(data)
    if kind == "transformation_example":
        from .families import TransformationCospanData

        action_left = _parse_action(_get(obj, "left_action", dict, "$"), "$.left_action")
        action_right = _parse_action(_get(obj, "right_action", dict, "$"), "$.right_action")
        base_space = _str_list(obj, "base_space", "$")
        left_map = _str_map(obj, "left_map", "$")
        right_map = _str_map(obj, "right_map", "$")
        with _reported_at("$"):
            data = TransformationCospanData(
                action_left, action_right, tuple(sorted(set(base_space))), dict(left_map), dict(right_map)
            )
        return TransformationExampleDocument(data)
    if kind == "example_result":
        left = _parse_groupoid(_get(obj, "left", dict, "$"), "$.left")
        base = _parse_groupoid(_get(obj, "base", dict, "$"), "$.base")
        right = _parse_groupoid(_get(obj, "right", dict, "$"), "$.right")
        pullback = _parse_groupoid(_get(obj, "pullback", dict, "$"), "$.pullback")
        target = _parse_groupoid(_get(obj, "target", dict, "$"), "$.target")
        left_map = _element_map(obj, "left_map", "$", left, base)
        right_map = _element_map(obj, "right_map", "$", right, base)
        iso_map = _element_map(obj, "iso_map", "$", pullback, target)
        verdict = obj.get("is_isomorphism")
        if not isinstance(verdict, bool):
            raise ParseError("$.is_isomorphism: expected a boolean")
        construction = _get(obj, "construction", str, "$")
        return ExampleResultDocument(
            construction, left, base, right, left_map, right_map, pullback, target, iso_map, verdict
        )
    raise ParseError(f"unknown document kind {kind!r}")
