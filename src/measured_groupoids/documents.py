"""Bit-exact document serialization.

Documents are JSON-compatible objects with an explicit format_version and a
"kind" discriminator. All weights travel as reduced fraction strings
("num/den", denominator omitted when 1); unquoted decimal literals are
rejected outright. Serialization is canonical (sorted keys, fixed layout), so
serializing the same value twice is byte-identical and round-trips are exact.

This module reads and writes the groupoid, cospan and pullback kinds. The
worked examples' kinds are read and written by `families`, which
`serialize` and `parse_document` import for them alone.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain

from .errors import DanglingReference, EmptySpace, MalformedInput, ParseError, UnsupportedVersion
from .groupoid import FiniteGroupoid, GroupoidHom, Record, check_ids, check_map, check_references
from .haar import HaarGroupoid
from .measures import FiniteMeasure, MeasureSystem, over_one_denominator
from .pullback import Cospan, WeakPullbackResult

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


# the worked examples' kinds, which `families` reads and writes
_EXAMPLE_KINDS = ("cech_example", "transformation_example", "example_result")


def _examples():
    """The writer and the reader of the example kinds. `families` is imported
    by the first example document written or read, so that no other process
    loads it."""
    from .families import example_body, parse_example

    return example_body, parse_example


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


def serialize(doc) -> str:
    """Canonical text form: same value in, same bytes out. `doc` is a
    groupoid, cospan or pullback document, or an example document of
    `families`."""
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
    else:
        write, _ = _examples()
        body = write(doc)
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


def parse_document(text: str):
    """Parse any document kind: a groupoid, cospan or pullback document, or
    an example document of `families`. Errors carry the offending field's
    path."""
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
    if kind in _EXAMPLE_KINDS:
        _, read = _examples()
        return read(obj, kind)
    raise ParseError(f"unknown document kind {kind!r}")
