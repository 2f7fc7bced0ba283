"""Finite groupoids as explicit tables.

A groupoid is a set of opaque string ids together with range/source/inverse
maps and a partial product, defined exactly on pairs (x, y) with d(x) = r(y)
and kept as rows x -> {y: xy}, which `compose_map` views as pairs. Every
axiom is checked exactly against the tables: the compose domain row by row,
associativity by Light's test on a generating set; see :func:`validate_groupoid`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, filterfalse, repeat
from operator import itemgetter
from typing import AbstractSet, Iterable, Iterator

from .errors import MalformedInput

# the generating set of a groupoid that has not been asked for it
_UNDECIDED = object()


def check_element_id(x: str) -> str:
    # str.split() breaks at exactly the code points for which str.isspace()
    # holds, so this is "nonempty and without whitespace", tested in C
    if not isinstance(x, str) or x.split() != [x]:
        raise MalformedInput(f"bad element id {x!r}: ids are nonempty strings without whitespace")
    return x


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance, with the elements that witness it."""

    rule: str
    witnesses: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        where = ", ".join(self.witnesses)
        return f"{self.rule} [{where}]: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    """The verdict of every validator and claim check: its violations, and
    `(name, n)` work counts that the summary shows when there are none."""

    violations: tuple[Violation, ...]
    counts: tuple[tuple[str, int], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if not self.ok:
            return "\n".join(str(v) for v in self.violations)
        return ", ".join(f"{name} {n}" for name, n in self.counts) or "ok"


class FiniteGroupoid:
    """Element set, unit subset, structure maps and product rows.

    Instances are immutable by convention; all derived indexes are built once
    at construction. Construction only checks id hygiene (nonempty, no
    whitespace, no duplicates); referential integrity and the groupoid axioms
    are the business of :func:`validate_groupoid`. Every element has a row.
    """

    def __init__(
        self,
        elements: Iterable[str],
        units: Iterable[str],
        range_map: Mapping[str, str],
        source_map: Mapping[str, str],
        inverse_map: Mapping[str, str],
        rows: Mapping[str, Mapping[str, str]],
    ):
        els = [check_element_id(x) for x in elements]
        if len(els) != len(set(els)):
            raise MalformedInput("duplicate element ids")
        self.elements: tuple[str, ...] = tuple(sorted(els))
        self.element_set = frozenset(self.elements)
        us = [check_element_id(u) for u in units]
        if len(us) != len(set(us)):
            raise MalformedInput("duplicate unit ids")
        self.units: tuple[str, ...] = tuple(sorted(us))
        self.unit_set = frozenset(self.units)
        self.range_map = dict(range_map)
        self.source_map = dict(source_map)
        self.inverse_map = dict(inverse_map)
        self.rows: dict[str, dict[str, str]] = {x: dict(rows.get(x, ())) for x in self.elements}
        self.rows.update({x: dict(row) for x, row in rows.items() if row and x not in self.element_set})
        self.compose_map = ComposeView(self.rows, sum(map(len, self.rows.values())))
        self._r_fibers: dict[str, list[str]] = {}
        for x in self.elements:
            u = self.range_map.get(x)
            if u is not None:
                self._r_fibers.setdefault(u, []).append(x)
        self._generating_set: tuple[str, ...] | None | object = _UNDECIDED

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteGroupoid):
            return NotImplemented
        return (
            self.elements == other.elements
            and self.units == other.units
            and self.range_map == other.range_map
            and self.source_map == other.source_map
            and self.inverse_map == other.inverse_map
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"FiniteGroupoid({len(self.elements)} elements, {len(self.units)} units)"

    def r(self, x: str) -> str:
        return self.range_map[x]

    def d(self, x: str) -> str:
        return self.source_map[x]

    def inv(self, x: str) -> str:
        return self.inverse_map[x]

    def compose(self, x: str, y: str) -> str:
        return self.compose_map[(x, y)]

    def fiber(self, u: str) -> tuple[str, ...]:
        """All x with r(x) = u, in canonical order (no unit check)."""
        return tuple(self._r_fibers.get(u, ()))

    @property
    def generating_set(self) -> tuple[str, ...] | None:
        """The elements, in canonical order, that the earlier ones do not
        reach by right multiplication, when the three stages of
        :func:`validate_groupoid` hold; else None. When it is set, every
        element is a product of generators and the product is associative,
        so a property that holds on the generators and is closed under
        products holds everywhere.

        Decided on first read and kept, which is sound because the
        constructor copies every table; raises MalformedInput, through
        :func:`check_references`, on unknown ids. Kept in an attribute the
        constructor sets: a `functools.cached_property` would write the
        instance `__dict__` and slow every later attribute read.
        """
        if self._generating_set is _UNDECIDED:
            self._generating_set = _generating_set(self)
        return self._generating_set


class ComposeView(Mapping):
    """The rows read in place as pairs (x, y) -> xy, raising KeyError((x, y))
    where no product is given; its length is counted at construction."""

    def __init__(self, rows: Mapping[str, Mapping[str, str]], n: int):
        self._rows, self._len = rows, n

    def __getitem__(self, key: tuple[str, str]) -> str:
        try:
            return self._rows[key[0]][key[1]]
        except KeyError:
            raise KeyError(key) from None

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return chain.from_iterable(map(zip, map(repeat, self._rows), self._rows.values()))

    def __len__(self) -> int:
        return self._len


def check_ids(ids: Iterable[str], known: AbstractSet[str], what: str) -> None:
    """Every id in `ids` is in `known`. Raises MalformedInput with `what`
    followed by the first id that is not; the test runs in one pass in C,
    so `ids` may be an iterator."""
    for x in filterfalse(known.__contains__, ids):
        raise MalformedInput(f"{what} {x!r}")


def check_map(mapping: Mapping[str, str], dom: AbstractSet[str], cod: AbstractSet[str], name: str) -> None:
    """The map is total on `dom`: defined on exactly its ids, with values in
    `cod`. Raises MalformedInput naming the least id of `dom` it misses, or
    else, through :func:`check_ids`, the first key outside `dom` or value
    outside `cod`."""
    keys = mapping.keys()
    if not keys >= dom:
        raise MalformedInput(f"{name} undefined at {min(dom - keys)!r}")
    check_ids(keys, dom, f"{name} keyed by unknown id")
    check_ids(mapping.values(), cod, f"{name} takes the unknown value")


def check_references(g: FiniteGroupoid) -> None:
    """Every id the tables name is an element, and the structure maps are
    defined on every element. Raises MalformedInput naming an offending id."""
    els = g.element_set
    for name, table in (("range", g.range_map), ("source", g.source_map), ("inverse", g.inverse_map)):
        check_map(table, els, els, f"{name} map")
    check_ids(g.units, els, "unit list names unknown id")
    # the ids with a row, then the keys of every row, then the products
    rows = g.rows.values()
    ids = chain(g.rows, chain.from_iterable(rows), chain.from_iterable(map(dict.values, rows)))
    check_ids(ids, els, "compose table references unknown id")


def validate_groupoid(g: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom exactly.

    Raises MalformedInput when tables reference unknown ids; otherwise returns
    a report naming every violated axiom with witnessing elements. Three
    stages are decided without enumeration, once per groupoid, by
    `FiniteGroupoid.generating_set`:

    * Compose domain: the row of every x is keyed by exactly the r-fiber
      over d(x), checked as a set comparison per row.
    * Ends of products: every xy in the row has range r(x) and source d(y).
    * Associativity, by Light's test (Clifford & Preston, The Algebraic Theory
      of Semigroups I, 1961, 1.2), once the domain and the ends of products
      are right. Let S be the set of b with (xb)y = x(by) for all x, y
      composable with b. For b, c in S with bc defined, and such x and y,
        (x(bc))y = ((xb)c)y = (xb)(cy) = x(b(cy)) = x((bc)y),
      using b, c, b, c in S in turn. So S is closed under the product, and
      checking the triples through a generating set proves S = G.

    When a stage fails, the rows and the composable triples are enumerated
    instead, so violations are named, and ordered, as by the exhaustive check.
    """
    generators = g.generating_set
    bad: list[Violation] = []

    for x in g.elements:
        if g.range_map[x] not in g.unit_set:
            bad.append(Violation("range-into-units", (x,), f"r({x}) = {g.range_map[x]} is not a unit"))
        if g.source_map[x] not in g.unit_set:
            bad.append(Violation("source-into-units", (x,), f"d({x}) = {g.source_map[x]} is not a unit"))

    for u in g.units:
        if g.range_map[u] != u or g.source_map[u] != u:
            bad.append(Violation("unit-fixed", (u,), f"r({u}) = {g.range_map[u]}, d({u}) = {g.source_map[u]}, expected both {u}"))

    if generators is None:
        bad.extend(_row_violations(g))
        bad.extend(_associativity_violations(g))

    rows = g.rows
    for x in g.elements:
        if rows[x].get(g.source_map[x]) != x:
            bad.append(Violation("right-unit-law", (x,), f"{x}·d({x}) != {x}"))
        if rows[g.range_map[x]].get(x) != x:
            bad.append(Violation("left-unit-law", (x,), f"r({x})·{x} != {x}"))

    for x in g.elements:
        xi = g.inverse_map[x]
        if g.inverse_map.get(xi) != x:
            bad.append(Violation("inverse-involution", (x,), f"inverse(inverse({x})) = {g.inverse_map.get(xi)}"))
        if g.range_map[xi] != g.source_map[x] or g.source_map[xi] != g.range_map[x]:
            bad.append(Violation("inverse-swaps-ends", (x,), f"r/d of inverse({x}) do not swap r/d of {x}"))
            continue
        if rows[x].get(xi) != g.range_map[x]:
            bad.append(Violation("inverse-law", (x,), f"{x}·{x}⁻¹ != r({x})"))
        if rows[xi].get(x) != g.source_map[x]:
            bad.append(Violation("inverse-law", (x,), f"{x}⁻¹·{x} != d({x})"))

    return ValidationReport(tuple(bad))


def _generating_set(g: FiniteGroupoid) -> tuple[str, ...] | None:
    """The compose domain and the ends row by row, then Light's test."""
    check_references(g)
    rng, src, rows = g.range_map, g.source_map, g.rows
    fiber_sets = {u: frozenset(xs) for u, xs in g._r_fibers.items()}
    d_fibers: dict[str, list[str]] = {}
    for x in g.elements:
        d_fibers.setdefault(src[x], []).append(x)
        row = rows[x]
        zs = row.values()
        if (
            row.keys() != fiber_sets.get(src[x], frozenset())
            or [*map(src.__getitem__, zs)] != [*map(src.__getitem__, row)]
            or [*map(rng.__getitem__, zs)].count(rng[x]) != len(row)
        ):
            return None
    generators = _generators(g)
    return generators if _light_associative(g, d_fibers, generators) else None


def _generators(g: FiniteGroupoid) -> tuple[str, ...]:
    """The elements, in canonical order, that the earlier ones do not reach
    by right multiplication: a generating set under the partial product."""
    rng, src, rows = g.range_map, g.source_map, g.rows
    reached: set[str] = set()
    reached_by_source: dict[str, list[str]] = {}
    gens: list[str] = []
    gens_by_range: dict[str, list[str]] = {}
    for a in g.elements:
        if a in reached:
            continue
        gens.append(a)
        gens_by_range.setdefault(rng[a], []).append(a)
        todo = [a] + [rows[z][a] for z in reached_by_source.get(rng[a], ())]
        while todo:
            w = todo.pop()
            if w not in reached:
                reached.add(w)
                reached_by_source.setdefault(src[w], []).append(w)
                todo.extend(rows[w][b] for b in gens_by_range.get(src[w], ()))
    return tuple(gens)


def _light_associative(g: FiniteGroupoid, d_fibers: Mapping[str, list[str]], generators: tuple[str, ...]) -> bool:
    """(xa)y = x(ay) for every generator a and all x, y composable with it.
    Needs the product defined on exactly the composable pairs, with
    r(xy) = r(x) and d(xy) = d(y): then rows[x] is keyed by r^-1(d(x))."""
    rows = g.rows
    for a in generators:
        ys = g.fiber(g.source_map[a])
        xs = d_fibers.get(g.range_map[a], ())
        if not ys or not xs:
            continue
        row_a = rows[a]
        at_y = itemgetter(*ys)
        at_ay = itemgetter(*[row_a[y] for y in ys])
        for x in xs:
            row_x = rows[x]
            if at_y(rows[row_x[a]]) != at_ay(row_x):
                return False
    return True


def _row_violations(g: FiniteGroupoid) -> list[Violation]:
    """Each row against the r-fiber over d(x): products missing on composable
    pairs or defined on non-composable ones; then r(xy) = r(x) and
    d(xy) = d(y) on every composable key. A stage that holds adds none."""
    domain: list[Violation] = []
    ends: list[Violation] = []
    rng, src = g.range_map, g.source_map
    for x in g.elements:
        row, ys = g.rows[x], set(g.fiber(src[x]))
        for y in sorted(row.keys() | ys):
            if y not in row:
                domain.append(Violation("compose-total", (x, y), "composable pair has no product"))
            elif y not in ys:
                domain.append(Violation("compose-domain", (x, y), "product defined on a non-composable pair"))
            else:
                z = row[y]
                if rng[z] != rng[x]:
                    ends.append(Violation("range-of-product", (x, y, z), f"r({x}{y}) = {rng[z]} != r({x})"))
                if src[z] != src[y]:
                    ends.append(Violation("source-of-product", (x, y, z), f"d({x}{y}) = {src[z]} != d({y})"))
    return domain + ends


def _associativity_violations(g: FiniteGroupoid) -> list[Violation]:
    """Every composable triple, a missing product counting as a failure."""
    bad = []
    rows, src, rng = g.rows, g.source_map, g.range_map
    for x in g.elements:
        row_x = rows[x]
        for y in sorted(row_x):
            if src[x] != rng[y]:
                continue
            row_y, row_xy = rows[y], rows[row_x[y]]
            for z in g.fiber(src[y]):
                lhs = row_xy.get(z)
                yz = row_y.get(z)
                rhs = row_x.get(yz) if yz is not None else None
                if lhs is None or rhs is None or lhs != rhs:
                    bad.append(Violation("associativity", (x, y, z), f"({x}{y}){z} = {lhs}, {x}({y}{z}) = {rhs}"))
    return bad


@dataclass(frozen=True)
class OrbitPartition:
    """Partition of the unit set into orbits, with a unit -> block index map."""

    blocks: tuple[tuple[str, ...], ...]
    index: Mapping[str, int]


def orbits(g: FiniteGroupoid) -> OrbitPartition:
    """Connected components of the unit set under u ~ d(x) for r(x) = u."""
    parent = {u: u for u in g.units}

    def find(u: str) -> str:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for x in g.elements:
        a, b = find(g.range_map[x]), find(g.source_map[x])
        if a != b:
            parent[a] = b
    groups: dict[str, list[str]] = {}
    for u in g.units:
        groups.setdefault(find(u), []).append(u)
    blocks = tuple(sorted((tuple(sorted(b)) for b in groups.values()), key=lambda b: b[0]))
    index = {u: i for i, block in enumerate(blocks) for u in block}
    return OrbitPartition(blocks, index)


class GroupoidHom:
    """Structure-preserving element map between two finite groupoids."""

    def __init__(self, domain: FiniteGroupoid, codomain: FiniteGroupoid, mapping: Mapping[str, str]):
        self.domain = domain
        self.codomain = codomain
        self.mapping = dict(mapping)

    def __call__(self, x: str) -> str:
        return self.mapping[x]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupoidHom):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.mapping == other.mapping
        )

    def __repr__(self) -> str:
        return f"GroupoidHom({len(self.mapping)} elements mapped)"


def identity_hom(g: FiniteGroupoid) -> GroupoidHom:
    return GroupoidHom(g, g, {x: x for x in g.elements})


def validate_hom(p: GroupoidHom) -> ValidationReport:
    """Check unit preservation, compatibility with r/d/inverse and products.

    Units, ends and inverses are checked element by element. Products are
    checked on the domain's generators when the domain and the codomain both
    pass the three stages of `FiniteGroupoid.generating_set`. Let Q(x) mean
    f(xy) = f(x)f(y) for every y composable with x. Q is closed under
    products: for Q(a), Q(b) with d(a) = r(b), and y with r(y) = d(b), the
    arrow by lies over r(b) = d(a), so
        f((ab)y) = f(a(by)) = f(a)(f(b)f(y)) = (f(a)f(b))f(y) = f(ab)f(y),
    using associativity in the domain, Q(a), Q(b), associativity in the
    codomain and Q(a) again. Every element is a product of generators, so Q
    on the generators gives Q everywhere. When a stage fails, a table of
    either end names an unknown id, or a generator fails Q, every composable
    pair is checked as before, so violations keep their order and text.
    """
    dom, cod = p.domain, p.codomain
    check_map(p.mapping, dom.element_set, cod.element_set, "hom")

    bad: list[Violation] = []
    f = p.mapping
    for u in dom.units:
        if f[u] not in cod.unit_set:
            bad.append(Violation("hom-preserves-units", (u,), f"image {f[u]} is not a unit"))
    for x in dom.elements:
        if cod.range_map[f[x]] != f[dom.range_map[x]]:
            bad.append(Violation("hom-commutes-with-range", (x,), f"r(p({x})) != p(r({x}))"))
        if cod.source_map[f[x]] != f[dom.source_map[x]]:
            bad.append(Violation("hom-commutes-with-source", (x,), f"d(p({x})) != p(d({x}))"))
        if cod.inverse_map[f[x]] != f[dom.inverse_map[x]]:
            bad.append(Violation("hom-preserves-inverse", (x,), f"p({x})⁻¹ != p({x}⁻¹)"))
    if _products_preserved_on_generators(p):
        return ValidationReport(tuple(bad))
    # every entry in sorted (x, y) order, rows of unknown ids included
    for x in sorted(dom.rows):
        row = dom.rows[x]
        for y in sorted(row):
            if dom.source_map[x] != dom.range_map[y]:
                continue
            image, z = cod.rows[f[x]].get(f[y]), row[y]
            if image is None:
                bad.append(Violation("hom-preserves-composability", (x, y), f"images {f[x]}, {f[y]} are not composable"))
            elif image != f[z]:
                bad.append(Violation("hom-preserves-product", (x, y), f"p({x})p({y}) = {image} != p({x}{y}) = {f[z]}"))
    return ValidationReport(tuple(bad))


def _products_preserved_on_generators(p: GroupoidHom) -> bool:
    """Q(a) for every generator a of the domain; False when the gate of
    :func:`checked_generators` is closed."""
    dom, cod, f = p.domain, p.codomain, p.mapping
    gens = checked_generators(dom, cod)
    if gens is None:
        return False
    for a in gens:
        row_a, row_fa = dom.rows[a], cod.rows[f[a]]
        for y in dom.fiber(dom.source_map[a]):
            if row_fa.get(f[y]) != f[row_a[y]]:
                return False
    return True


def checked_generators(g: FiniteGroupoid, *codomains: FiniteGroupoid) -> tuple[str, ...] | None:
    """The gate of every check on generators: g's generating set when g and
    each codomain pass the three stages of `FiniteGroupoid.generating_set`,
    else None. Also None when a table names an unknown id, so the caller's
    exhaustive loop runs and reports what it reported before the gate."""
    try:
        if all(h.generating_set is not None for h in codomains):
            return g.generating_set
    except MalformedInput:
        pass
    return None


def generator_work(g: FiniteGroupoid, *codomains: FiniteGroupoid) -> tuple[tuple[str, int], ...]:
    """Work counts of a passing check of a property closed under products on
    g (left invariance in `is_haar`, products in `validate_hom`): its
    generators and the (generator, fiber element) pairs it visits when g and
    every codomain have a generating set, else the compose entries of the
    exhaustive loop."""
    gens = checked_generators(g, *codomains)
    if gens is None:
        return (("compose entries", len(g.compose_map)),)
    return (("generators", len(gens)), ("generator pairs", sum(len(g.fiber(g.source_map[a])) for a in gens)))
