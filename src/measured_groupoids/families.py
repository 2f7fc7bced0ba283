"""Example families of groupoids and the canonical identifications of their
weak pullbacks: open-cover (Čech) groupoids, transformation groupoids of
group actions, cotrivial groupoids, pair groupoids, cyclic groups, disjoint
unions and direct products, and an isomorphism verifier driven by explicit
maps (never by isomorphism search).

The worked examples end to end live here too: their document kinds
(`cech_example`, `transformation_example`, `example_result`), which
`documents.serialize` and `documents.parse_document` hand to this module, the
result record of `mgpd example` and the lines `mgpd validate` prints for an
example document. Only processes that run an example or read one import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Iterator, Mapping

from .documents import _element_map, _emit_groupoid, _get, _parse_groupoid, _reported_at, _str_list, _str_map
from .errors import EmptySpace, ImageMismatch, MalformedInput, NotEquivariant, ParseError, PrecomputedConditionFailed
from .groupoid import FiniteGroupoid, GroupoidHom, Record, ValidationReport, Violation
from .groupoid import check_element_id, check_ids, check_map, validate_groupoid, validate_hom
from .haar import HaarGroupoid, counting_haar_system
from .measures import counting
from .pullback import PullbackGroupoid, weak_pullback_groupoid

# left, base, right and the two legs of a cospan of bare groupoids
CospanGroupoids = tuple[FiniteGroupoid, FiniteGroupoid, FiniteGroupoid, GroupoidHom, GroupoidHom]


def _join(parts: Iterable[str], sep: str) -> str:
    parts = tuple(parts)
    for part in parts:
        check_element_id(part)
    return sep.join(parts)


def _decodable_join(parts: Iterable[str], sep: str) -> str:
    """Join for ids that are split back later: parts may not contain sep."""
    parts = tuple(parts)
    for part in parts:
        check_element_id(part)
        if sep in part:
            raise MalformedInput(f"name {part!r} may not contain {sep!r} in this construction")
    return sep.join(parts)


# ---------------------------------------------------------------------------
# elementary builders


def cotrivial_groupoid(space: Iterable[str]) -> FiniteGroupoid:
    """A bare set seen as a groupoid of units only."""
    pts = tuple(sorted(set(space)))
    if not pts:
        raise EmptySpace("cotrivial groupoid needs a nonempty space")
    ident = {x: x for x in pts}
    return FiniteGroupoid(pts, pts, ident, ident, ident, [(x, x, x) for x in pts])


def trivial_group(unit: str = "e") -> FiniteGroupoid:
    return cotrivial_groupoid([unit])


def cyclic_group(n: int, prefix: str = "g") -> FiniteGroupoid:
    """Z_n as a one-unit groupoid with elements g0..g{n-1} and unit g0."""
    if n < 1:
        raise MalformedInput("cyclic group needs n >= 1")
    els = [f"{prefix}{i}" for i in range(n)]
    unit = els[0]
    const = {x: unit for x in els}
    return FiniteGroupoid(
        els,
        [unit],
        const,
        const,
        {els[i]: els[(-i) % n] for i in range(n)},
        [(els[i], els[j], els[(i + j) % n]) for i in range(n) for j in range(n)],
    )


def pair_id(a: str, b: str) -> str:
    return _join((a, b), "-")


def pair_groupoid(points: Iterable[str]) -> FiniteGroupoid:
    """Elements (a, b) written `pair_id(a, b)` = "a-b"; (a,b)(b,c) = (a,c),
    units on the diagonal."""
    pts = tuple(sorted(set(points)))
    if not pts:
        raise EmptySpace("pair groupoid needs a nonempty point set")
    eid = {(a, b): pair_id(a, b) for a in pts for b in pts}
    if len(set(eid.values())) != len(eid):
        raise MalformedInput("point names collide under the a-b encoding")
    els = sorted(eid.values())
    units = [eid[(a, a)] for a in pts]
    range_map = {eid[(a, b)]: eid[(a, a)] for a in pts for b in pts}
    source_map = {eid[(a, b)]: eid[(b, b)] for a in pts for b in pts}
    inverse_map = {eid[(a, b)]: eid[(b, a)] for a in pts for b in pts}
    products = [(eid[(a, b)], eid[(b, c)], eid[(a, c)]) for a in pts for b in pts for c in pts]
    return FiniteGroupoid(els, units, range_map, source_map, inverse_map, products)


def disjoint_union(parts: Iterable[FiniteGroupoid], prefixes: Iterable[str]) -> tuple[FiniteGroupoid, list[dict[str, str]]]:
    """Disjoint union with prefixed element ids; returns the union and, per
    part, the map from old ids to new ids."""
    parts = tuple(parts)
    prefixes = tuple(prefixes)
    if len(parts) != len(prefixes) or len(set(prefixes)) != len(prefixes):
        raise MalformedInput("need one distinct prefix per part")
    elements: list[str] = []
    units: list[str] = []
    range_map: dict[str, str] = {}
    source_map: dict[str, str] = {}
    inverse_map: dict[str, str] = {}
    products: list[tuple[str, str, str]] = []
    renamings: list[dict[str, str]] = []
    for g, pre in zip(parts, prefixes):
        ren = {x: _join((pre, x), ".") for x in g.elements}
        renamings.append(ren)
        elements.extend(ren.values())
        units.extend(ren[u] for u in g.units)
        range_map.update({ren[x]: ren[g.r(x)] for x in g.elements})
        source_map.update({ren[x]: ren[g.d(x)] for x in g.elements})
        inverse_map.update({ren[x]: ren[g.inv(x)] for x in g.elements})
        products += [(ren[x], ren[y], ren[z]) for x, y, z in g.products()]
    return FiniteGroupoid(elements, units, range_map, source_map, inverse_map, products), renamings


def direct_product(a: FiniteGroupoid, b: FiniteGroupoid) -> tuple[FiniteGroupoid, dict[tuple[str, str], str]]:
    """Componentwise product groupoid on pair ids "x|y"."""
    eid = {(x, y): _join((x, y), "|") for x in a.elements for y in b.elements}
    if len(set(eid.values())) != len(eid):
        raise MalformedInput("element ids collide under the x|y encoding")
    els = sorted(eid.values())
    units = [eid[(u, v)] for u in a.units for v in b.units]
    range_map = {eid[(x, y)]: eid[(a.r(x), b.r(y))] for (x, y) in eid}
    source_map = {eid[(x, y)]: eid[(a.d(x), b.d(y))] for (x, y) in eid}
    inverse_map = {eid[(x, y)]: eid[(a.inv(x), b.inv(y))] for (x, y) in eid}
    b_products = [*b.products()]
    products = [(eid[(x1, x2)], eid[(y1, y2)], eid[(z1, z2)]) for x1, y1, z1 in a.products() for x2, y2, z2 in b_products]
    return FiniteGroupoid(els, units, range_map, source_map, inverse_map, products), eid


def with_counting_haar(g: FiniteGroupoid) -> HaarGroupoid:
    """Default measured structure: counting fiber weights, unit weights one."""
    return HaarGroupoid(g, counting_haar_system(g), counting(g.units))


# ---------------------------------------------------------------------------
# open-cover groupoids


@dataclass(frozen=True)
class FiniteCover:
    """An indexed family of subsets covering a finite space."""

    space: tuple[str, ...]
    blocks: Mapping[str, frozenset[str]]

    @staticmethod
    def build(space: Iterable[str], blocks: Mapping[str, Iterable[str]]) -> "FiniteCover":
        pts = tuple(sorted(set(space)))
        blk = {check_element_id(i): frozenset(b) for i, b in blocks.items()}
        for i, b in blk.items():
            check_ids(sorted(b), frozenset(pts), f"cover block {i!r} contains unknown point")
        check_ids(pts, frozenset().union(*blk.values()), "blocks do not cover the space; missing")
        return FiniteCover(pts, blk)

    @property
    def index_set(self) -> tuple[str, ...]:
        return tuple(sorted(self.blocks))


def cech_id(a: str, y: str, b: str) -> str:
    return _decodable_join((a, y, b), ":")


def cech_groupoid(cover: FiniteCover) -> FiniteGroupoid:
    """Elements (a, y, b) with y in the overlap of blocks a and b; the point
    is carried along, composition glues matching indices. Empty blocks simply
    contribute no elements."""
    triples = [
        (a, y, b)
        for a in cover.index_set
        for b in cover.index_set
        for y in sorted(cover.blocks[a] & cover.blocks[b])
    ]
    ids = {tr: cech_id(*tr) for tr in triples}
    if len(set(ids.values())) != len(ids):
        raise MalformedInput("cover names collide under the a:y:b encoding")
    els = sorted(ids.values())
    units = [ids[(a, y, a)] for (a, y, b) in triples if a == b]
    range_map = {ids[(a, y, b)]: ids[(a, y, a)] for (a, y, b) in triples}
    source_map = {ids[(a, y, b)]: ids[(b, y, b)] for (a, y, b) in triples}
    inverse_map = {ids[(a, y, b)]: ids[(b, y, a)] for (a, y, b) in triples}
    products = [
        (ids[(a, y, b)], ids[(b, y, c)], ids[(a, y, c)]) for (a, y, b) in triples for c in cover.index_set if y in cover.blocks[c]
    ]
    return FiniteGroupoid(els, units, range_map, source_map, inverse_map, products)


def cech_hom(f: Mapping[str, str], cover_dom: FiniteCover, cover_cod: FiniteCover, cod: FiniteGroupoid) -> GroupoidHom:
    """(a, y, b) -> (a, f(y), b); requires f to send each block into the
    correspondingly indexed block of the codomain cover. `cod` is
    `cech_groupoid(cover_cod)`, built once by the caller for every hom into
    it."""
    if cover_dom.index_set != cover_cod.index_set:
        raise ImageMismatch("covers are not matched by a common index set")
    for a in cover_dom.index_set:
        image = {f[y] for y in cover_dom.blocks[a]}
        if not image <= cover_cod.blocks[a]:
            raise ImageMismatch(f"image of block {a!r} leaves the target block")
    dom = cech_groupoid(cover_dom)
    mapping = {}
    for x in dom.elements:
        a, y, b = x.split(":")
        mapping[x] = cech_id(a, f[y], b)
    return GroupoidHom(dom, cod, mapping)


@dataclass
class CechCospanData:
    """Matched covers over a common index set together with the two maps into
    the base space; the base cover is formed from the (equal) block images."""

    cover_left: FiniteCover
    cover_right: FiniteCover
    base_space: tuple[str, ...]
    map_left: dict[str, str]
    map_right: dict[str, str]

    def __post_init__(self):
        if self.cover_left.index_set != self.cover_right.index_set:
            raise MalformedInput("covers must share one index set")
        base = frozenset(self.base_space)
        for name, cover, f in (("left", self.cover_left, self.map_left), ("right", self.cover_right, self.map_right)):
            check_map(f, frozenset(cover.space), base, f"{name} map")
        blocks = {}
        for a in self.cover_left.index_set:
            li = frozenset(self.map_left[y] for y in self.cover_left.blocks[a])
            ri = frozenset(self.map_right[z] for z in self.cover_right.blocks[a])
            if li != ri:
                raise ImageMismatch(f"block {a!r}: images under the two maps differ")
            blocks[a] = li
        self.base_cover = FiniteCover.build(self.base_space, blocks)


def cech_cospan_groupoids(data: CechCospanData) -> CospanGroupoids:
    base = cech_groupoid(data.base_cover)
    hom_left = cech_hom(data.map_left, data.cover_left, data.base_cover, base)
    hom_right = cech_hom(data.map_right, data.cover_right, data.base_cover, base)
    return hom_left.domain, base, hom_right.domain, hom_left, hom_right


def product_cover(data: CechCospanData) -> FiniteCover:
    """Cover of the regular pullback space by pairwise block products."""
    pullback_pts = {
        _join((y, z), ","): (y, z)
        for y in data.cover_left.space
        for z in data.cover_right.space
        if data.map_left[y] == data.map_right[z]
    }
    blocks = {}
    for a in data.cover_left.index_set:
        for b in data.cover_right.index_set:
            blocks[_join((a, b), ",")] = {
                pt
                for pt, (y, z) in pullback_pts.items()
                if y in data.cover_left.blocks[a] and z in data.cover_right.blocks[b]
            }
    return FiniteCover.build(tuple(pullback_pts), blocks)


def canonical_iso_cech(data: CechCospanData) -> tuple[CospanGroupoids, PullbackGroupoid, FiniteGroupoid, GroupoidHom]:
    """The cospan, its weak pullback, and the identification of that with
    the open-cover groupoid of the product cover:
    ((a,y,b), (a,x,e), (e,z,f)) -> ((a,e), (y,z), (b,f)).

    Raises PrecomputedConditionFailed if some pullback triple does not have
    the forced canonical shape, which would signal an upstream bug."""
    cospan = cech_cospan_groupoids(data)
    left, base, right, hom_left, hom_right = cospan
    alg = weak_pullback_groupoid(left, base, right, hom_left.mapping, hom_right.mapping)
    target = cech_groupoid(product_cover(data))
    mapping = {}
    for pid, (s, g, t) in alg.triples.items():
        a, y, b = s.split(":")
        ga, x, ge = g.split(":")
        e, z, f = t.split(":")
        if ga != a or ge != e or x != data.map_left[y] or x != data.map_right[z]:
            raise PrecomputedConditionFailed(
                f"pullback triple {pid!r} is not in canonical cover form"
            )
        mapping[pid] = cech_id(_join((a, e), ","), _join((y, z), ","), _join((b, f), ","))
    return cospan, alg, target, GroupoidHom(alg.groupoid, target, mapping)


# ---------------------------------------------------------------------------
# transformation groupoids


class GroupAction:
    """A right action of a one-unit groupoid (a group) on a nonempty finite
    set, kept as rows act[y][γ] = yγ."""

    def __init__(self, group: FiniteGroupoid, space: Iterable[str], act: Mapping[str, Mapping[str, str]]):
        if len(group.units) != 1:
            raise MalformedInput("acting groupoid must have a single unit")
        report = validate_groupoid(group)
        if not report.ok:
            raise MalformedInput(f"acting group fails the groupoid axioms:\n{report.summary()}")
        self.group = group
        self.space = tuple(sorted(set(space)))
        self.act = {y: dict(row) for y, row in act.items()}
        pairs = frozenset(product(self.space, group.elements))
        keys = [(y, gm) for y, row in self.act.items() for gm in row]
        if not pairs <= set(keys):
            raise MalformedInput(f"action undefined at {min(pairs - set(keys))!r}")
        check_ids(keys, pairs, "action keyed by unknown id")
        check_ids(chain.from_iterable(map(dict.values, self.act.values())), frozenset(self.space), "action takes the unknown value")
        if not self.space:
            raise EmptySpace("group action needs a nonempty space")
        e = group.units[0]
        for y in self.space:
            row = self.act[y]
            if row[e] != y:
                raise MalformedInput(f"unit must act trivially, fails at {y!r}")
            for g1, g2 in product(group.elements, repeat=2):
                if self.act[row[g1]][g2] != row[group.compose(g1, g2)]:
                    raise MalformedInput(f"action is not compatible with the product at ({y!r}, {g1!r}, {g2!r})")

    @property
    def unit(self) -> str:
        return self.group.units[0]


def trivial_action(group: FiniteGroupoid, space: Iterable[str]) -> GroupAction:
    space = tuple(space)
    return GroupAction(group, space, {y: dict.fromkeys(group.elements, y) for y in space})


def transformation_id(y: str, gm: str) -> str:
    return _decodable_join((y, gm), ":")


def transformation_groupoid(action: GroupAction) -> FiniteGroupoid:
    """Elements (y, γ) with (y, γ)(yγ, γ') = (y, γγ'); units (y, e)."""
    group, act = action.group, action.act
    e = action.unit
    pairs = [(y, gm) for y in action.space for gm in group.elements]
    ids = {pr: transformation_id(*pr) for pr in pairs}
    if len(set(ids.values())) != len(ids):
        raise MalformedInput("action names collide under the y:g encoding")
    els = sorted(ids.values())
    units = [ids[(y, e)] for y in action.space]
    range_map = {ids[(y, gm)]: ids[(y, e)] for (y, gm) in pairs}
    source_map = {ids[(y, gm)]: ids[(act[y][gm], e)] for (y, gm) in pairs}
    inverse_map = {ids[(y, gm)]: ids[(act[y][gm], group.inv(gm))] for (y, gm) in pairs}
    # the group has one unit, so the row of gm runs over all its elements
    products = [
        (ids[(y, gm)], ids[(act[y][gm], gm2)], ids[(y, gm3)])
        for (y, gm) in pairs
        for gm2, gm3 in zip(group.elements, group.rows[gm])
    ]
    return FiniteGroupoid(els, units, range_map, source_map, inverse_map, products)


@dataclass
class TransformationCospanData:
    """Two group actions and equivariantly-invariant maps into a base space."""

    action_left: GroupAction
    action_right: GroupAction
    base_space: tuple[str, ...]
    map_left: dict[str, str]
    map_right: dict[str, str]

    def __post_init__(self):
        base = frozenset(self.base_space)
        for name, action, f in (
            ("left", self.action_left, self.map_left),
            ("right", self.action_right, self.map_right),
        ):
            check_map(f, frozenset(action.space), base, f"{name} map")
            for y in action.space:
                for gm in action.group.elements:
                    if f[action.act[y][gm]] != f[y]:
                        raise NotEquivariant(f"{name} map is not invariant under the action at ({y!r}, {gm!r})")


def transformation_cospan_groupoids(data: TransformationCospanData) -> CospanGroupoids:
    left = transformation_groupoid(data.action_left)
    right = transformation_groupoid(data.action_right)
    base = cotrivial_groupoid(data.base_space)
    map_left = {}
    for x in left.elements:
        y, _ = x.split(":")
        map_left[x] = data.map_left[y]
    map_right = {}
    for x in right.elements:
        z, _ = x.split(":")
        map_right[x] = data.map_right[z]
    return left, base, right, GroupoidHom(left, base, map_left), GroupoidHom(right, base, map_right)


def canonical_iso_transformation(
    data: TransformationCospanData,
) -> tuple[CospanGroupoids, PullbackGroupoid, FiniteGroupoid, GroupoidHom]:
    """The cospan, its weak pullback over a cotrivial base, and the
    identification of that with the transformation groupoid of the product
    action on the pullback space: ((y,γ), x, (z,λ)) -> ((y,z), (γ,λ))."""
    cospan = transformation_cospan_groupoids(data)
    left, base, right, hom_left, hom_right = cospan
    alg = weak_pullback_groupoid(left, base, right, hom_left.mapping, hom_right.mapping)
    product_group, gid = direct_product(data.action_left.group, data.action_right.group)
    pull_pts = {
        _join((y, z), ","): (y, z)
        for y in data.action_left.space
        for z in data.action_right.space
        if data.map_left[y] == data.map_right[z]
    }
    act: dict[str, dict[str, str]] = {}
    for pt, (y, z) in pull_pts.items():
        left, right = data.action_left.act[y], data.action_right.act[z]
        act[pt] = {gid[(g1, g2)]: _join((left[g1], right[g2]), ",") for g1, g2 in product(left, right)}
    if pull_pts:
        target = transformation_groupoid(GroupAction(product_group, tuple(pull_pts), act))
    else:  # no points meet over the base: the pullback is empty, and so is the target
        target = FiniteGroupoid([], [], {}, {}, {}, {})
    mapping = {}
    for pid, (s, g, t) in alg.triples.items():
        y, g1 = s.split(":")
        z, g2 = t.split(":")
        if g != data.map_left[y] or g != data.map_right[z]:
            raise PrecomputedConditionFailed(f"pullback triple {pid!r} is not in canonical action form")
        mapping[pid] = transformation_id(_join((y, z), ","), gid[(g1, g2)])
    return cospan, alg, target, GroupoidHom(alg.groupoid, target, mapping)


# ---------------------------------------------------------------------------
# the isomorphism verifier


def is_isomorphism(f: GroupoidHom) -> ValidationReport:
    """f is a valid homomorphism and a bijection on elements: the violations
    of `validate_hom`, plus a `bijection` violation naming two elements with
    one image or an element of the codomain outside the image."""
    bad = list(validate_hom(f).violations)
    preimage: dict[str, str] = {}
    for x in sorted(f.mapping):
        y = f.mapping[x]
        if y in preimage:
            bad.append(Violation("bijection", (preimage[y], x), f"both map to {y}"))
            break
        preimage[y] = x
    else:
        missed = sorted(f.codomain.element_set - preimage.keys())
        if missed:
            bad.append(Violation("bijection", (missed[0],), f"{missed[0]} is not in the image"))
    return ValidationReport(tuple(bad))


# ---------------------------------------------------------------------------
# the example documents


class ExampleResultDocument(Record):
    """What `mgpd example` writes: a worked example's cospan, its weak
    pullback, the target and the canonical map, and the map's verdict."""

    __slots__ = _fields = (
        "construction", "left", "base", "right", "left_map", "right_map", "pullback", "target", "iso_map", "is_isomorphism"
    )

    def __init__(
        self, construction: str, left: FiniteGroupoid, base: FiniteGroupoid, right: FiniteGroupoid, left_map: dict[str, str],
        right_map: dict[str, str], pullback: FiniteGroupoid, target: FiniteGroupoid, iso_map: dict[str, str],
        is_isomorphism: bool,
    ):
        self._set(construction, left, base, right, left_map, right_map, pullback, target, iso_map, is_isomorphism)


_RESULT_GROUPOIDS = ("left", "base", "right", "pullback", "target")


def example_result(family: str, params) -> ExampleResultDocument:
    """The result of the worked example `family` ("cech" or "transformation")
    on its parameters: the cospan, its weak pullback, the target and the
    canonical map, with the verdict of `is_isomorphism` on that map. Raises
    ParseError when `params` are not the family's."""
    data_class, canonical_iso = {
        "cech": (CechCospanData, canonical_iso_cech),
        "transformation": (TransformationCospanData, canonical_iso_transformation),
    }[family]
    if not isinstance(params, data_class):
        raise ParseError(f"expected {family}_example parameters")
    (left, base, right, hl, hr), alg, target, iso = canonical_iso(params)
    return ExampleResultDocument(
        family, left, base, right, dict(hl.mapping), dict(hr.mapping), alg.groupoid, target, dict(iso.mapping),
        is_isomorphism(iso).ok,
    )


def example_report(doc) -> Iterator[str]:
    """The lines that `mgpd validate` prints for an example document, each as
    soon as it is decided; the document fails when one starts with
    `violation:`. Parameters have been checked by parsing them. A result's
    groupoids are checked, then its legs, then that its pullback is the one
    the construction builds, and last its stored verdict."""
    if not isinstance(doc, ExampleResultDocument):
        yield "ok: example parameters are well formed"
        return
    ok = True
    for label in _RESULT_GROUPOIDS:
        report = validate_groupoid(getattr(doc, label))
        ok &= report.ok
        yield from [f"violation: {label} groupoid axioms: {v}" for v in report.violations] or [f"ok: {label} groupoid axioms"]
    if not ok:
        return
    # the legs give only their violations, so that a sound document reads as
    # it did before they were checked
    for name, leg, mapping in (("left_map", doc.left, doc.left_map), ("right_map", doc.right, doc.right_map)):
        for v in validate_hom(GroupoidHom(leg, doc.base, mapping)).violations:
            ok = False
            yield f"violation: {name}: {v}"
    if not ok:
        return
    if weak_pullback_groupoid(doc.left, doc.base, doc.right, doc.left_map, doc.right_map).groupoid != doc.pullback:
        yield "violation: stored pullback is not the weak pullback of the stored cospan"
    elif is_isomorphism(GroupoidHom(doc.pullback, doc.target, doc.iso_map)).ok != doc.is_isomorphism:
        yield "violation: stored isomorphism verdict does not match the stored map"
    else:
        yield "ok: isomorphism verdict"


def _emit_cover(cover: FiniteCover) -> dict:
    return {"space": list(cover.space), "blocks": {i: sorted(cover.blocks[i]) for i in cover.index_set}}


def _emit_action(action: GroupAction) -> dict:
    return {"group": _emit_groupoid(action.group), "space": list(action.space), "act": action.act}


def example_body(doc) -> dict:
    """The fields of an example document, `kind` among them, that
    `documents.serialize` writes."""
    if isinstance(doc, ExampleResultDocument):
        return {
            "kind": "example_result",
            "construction": doc.construction,
            **{name: _emit_groupoid(getattr(doc, name)) for name in _RESULT_GROUPOIDS},
            **{name: dict(sorted(getattr(doc, name).items())) for name in ("left_map", "right_map", "iso_map")},
            "is_isomorphism": doc.is_isomorphism,
        }
    if isinstance(doc, CechCospanData):
        body = {"kind": "cech_example", "left_cover": _emit_cover(doc.cover_left), "right_cover": _emit_cover(doc.cover_right)}
    elif isinstance(doc, TransformationCospanData):
        body = {
            "kind": "transformation_example",
            "left_action": _emit_action(doc.action_left),
            "right_action": _emit_action(doc.action_right),
        }
    else:
        raise MalformedInput(f"cannot serialize {type(doc).__name__}")
    return {
        **body,
        "base_space": list(doc.base_space),
        "left_map": dict(sorted(doc.map_left.items())),
        "right_map": dict(sorted(doc.map_right.items())),
    }


def _parse_cover(obj: dict, path: str) -> FiniteCover:
    space = _str_list(obj, "space", path)
    blocks = _get(obj, "blocks", dict, path)
    for i, pts in blocks.items():
        if not (isinstance(pts, list) and all(isinstance(p, str) for p in pts)):
            raise ParseError(f"{path}.blocks[{i!r}]: expected a list of points")
    with _reported_at(path):
        return FiniteCover.build(space, blocks)


def _parse_action(obj: dict, path: str) -> GroupAction:
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


def parse_example(obj: dict, kind: str):
    """The example document `obj` of one of the kinds above, for
    `documents.parse_document`: parameters as `CechCospanData` or
    `TransformationCospanData`, a result as an `ExampleResultDocument`.
    Errors carry the offending field's path."""
    if kind == "example_result":
        left, base, right, pullback, target = (
            _parse_groupoid(_get(obj, name, dict, "$"), f"$.{name}") for name in _RESULT_GROUPOIDS
        )
        left_map = _element_map(obj, "left_map", "$", left, base)
        right_map = _element_map(obj, "right_map", "$", right, base)
        iso_map = _element_map(obj, "iso_map", "$", pullback, target)
        verdict = obj.get("is_isomorphism")
        if not isinstance(verdict, bool):
            raise ParseError("$.is_isomorphism: expected a boolean")
        construction = _get(obj, "construction", str, "$")
        return ExampleResultDocument(construction, left, base, right, left_map, right_map, pullback, target, iso_map, verdict)
    if kind == "cech_example":
        side, parse_side, data_class = "cover", _parse_cover, CechCospanData
    else:
        side, parse_side, data_class = "action", _parse_action, TransformationCospanData
    left, right = (parse_side(_get(obj, f"{name}_{side}", dict, "$"), f"$.{name}_{side}") for name in ("left", "right"))
    base_space = _str_list(obj, "base_space", "$")
    left_map = _str_map(obj, "left_map", "$")
    right_map = _str_map(obj, "right_map", "$")
    with _reported_at("$"):
        return data_class(left, right, tuple(sorted(set(base_space))), dict(left_map), dict(right_map))
