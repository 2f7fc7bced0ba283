"""Finite groupoids as explicit tables.

A groupoid is a set of opaque string ids together with range/source/inverse
maps and a partial product, defined exactly on pairs (x, y) with d(x) = r(y).
The product is kept by position: `rows[x]` holds x·y for y in the r-fiber
over d(x), in canonical order, with None where no product is given, and
`position[y]` is y's index in its r-fiber. Entries a table gives outside the
composable domain (non-composable pairs, rows of ids that are no elements)
are kept apart in `strays`, so that they are named and emitted as given;
`compose_map` reads both as pairs. Every axiom is checked exactly against
the tables: the compose domain row by row, associativity by Light's test on
a generating set; see :func:`validate_groupoid`.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain, filterfalse, repeat
from operator import itemgetter
from typing import AbstractSet, Callable, Iterable, Iterator, Sequence

from .errors import MalformedInput

# the generating set of a groupoid that has not been asked for it
_UNDECIDED = object()
# how a record sets its slots, past the refusal of a frozen one; bound once
_setattr = object.__setattr__


def check_element_id(x: str) -> str:
    # str.split() breaks at exactly the code points for which str.isspace()
    # holds, so this is "nonempty and without whitespace", tested in C
    if not isinstance(x, str) or x.split() != [x]:
        raise MalformedInput(f"bad element id {x!r}: ids are nonempty strings without whitespace")
    return x


class Record:
    """Named fields, listed in `_fields` and set by a written-out constructor,
    compared and printed as a dataclass does: two records are equal when
    they are of one class with equal fields, and a record is unhashable
    unless frozen. Slots past `_fields` hold what a record derives and
    keeps; `_set` fills every slot in order, and the records every check
    builds set theirs one statement each, at about half the cost."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A record that refuses assignment, as a frozen dataclass does, and
    hashes its fields."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class Violation(FrozenRecord):
    """One failed axiom instance, with the elements that witness it."""

    __slots__ = _fields = ("rule", "witnesses", "detail")

    def __init__(self, rule: str, witnesses: tuple[str, ...], detail: str):
        _setattr(self, "rule", rule)
        _setattr(self, "witnesses", witnesses)
        _setattr(self, "detail", detail)

    def __str__(self) -> str:
        where = ", ".join(self.witnesses)
        return f"{self.rule} [{where}]: {self.detail}"


class ValidationReport(FrozenRecord):
    """The verdict of every validator and claim check: its violations, and
    `(name, n)` work counts that the summary shows when there are none."""

    __slots__ = _fields = ("violations", "counts")

    def __init__(self, violations: tuple[Violation, ...], counts: tuple[tuple[str, int], ...] = ()):
        _setattr(self, "violations", violations)
        _setattr(self, "counts", counts)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if not self.ok:
            return "\n".join(str(v) for v in self.violations)
        return ", ".join(f"{name} {n}" for name, n in self.counts) or "ok"


class FiniteGroupoid:
    """Element set, unit subset, structure maps and product rows.

    `products` gives the product as triples (x, y, xy) in any order, a later
    triple for a pair replacing an earlier one: the one conversion of a table
    of pairs into rows. `rows`, given instead, are the positional rows
    themselves, with a product in every slot, as the weak pullback builder
    writes them. Instances are immutable by convention; all derived indexes
    are built once at construction. Construction only checks id hygiene
    (nonempty, no whitespace, no duplicates); referential integrity and the
    groupoid axioms are the business of :func:`validate_groupoid`.
    """

    def __init__(
        self, elements: Iterable[str], units: Iterable[str], range_map: Mapping[str, str], source_map: Mapping[str, str],
        inverse_map: Mapping[str, str], products: Iterable[tuple[str, str, str]] = (), *, rows: Mapping[str, tuple] | None = None,
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
        fibers: dict[str, list[str]] = {}
        for x in self.elements:
            u = self.range_map.get(x)
            if u is not None:
                fibers.setdefault(u, []).append(x)
        self.fibers: dict[str, tuple[str, ...]] = {u: tuple(xs) for u, xs in fibers.items()}
        self.position: dict[str, int] = {x: i for xs in fibers.values() for i, x in enumerate(xs)}
        self.strays: dict[str, dict[str, str]] = {}
        if rows is None:
            # the one conversion of pairs into rows: each triple in the slot of
            # its pair, or else among the strays, whose element owners come in
            # canonical order and the rest, like every row's keys, as given
            src, rng, pos = self.source_map, self.range_map, self.position
            slots = {x: [None] * len(self.fibers.get(src.get(x), ())) for x in self.elements}
            strays: dict[str, dict[str, str]] = {}
            for x, y, z in products:
                row = slots.get(x)
                if row is not None and y in pos and rng[y] == src.get(x):
                    row[pos[y]] = z
                else:
                    strays.setdefault(x, {})[y] = z
            if strays:
                self.strays = {x: strays[x] for x in chain(filter(strays.__contains__, self.elements), strays)}
            self.rows: dict[str, tuple[str | None, ...]] = {x: tuple(row) for x, row in slots.items()}
            missing = sum(map(tuple.count, self.rows.values(), repeat(None)))
        else:
            self.rows, missing = dict(rows), 0
        self._count = sum(map(len, self.rows.values())) - missing + sum(map(len, self.strays.values()))
        self._generating_set: tuple[str, ...] | None | object = _UNDECIDED

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroupoid):
            return NotImplemented
        tables = ("elements", "units", "range_map", "source_map", "inverse_map", "rows", "strays")
        return self is other or all(getattr(self, t) == getattr(other, t) for t in tables)

    def __repr__(self) -> str:
        return f"FiniteGroupoid({len(self.elements)} elements, {len(self.units)} units)"

    def r(self, x: str) -> str:
        return self.range_map[x]

    def d(self, x: str) -> str:
        return self.source_map[x]

    def inv(self, x: str) -> str:
        return self.inverse_map[x]

    def product(self, x: str, y: str) -> str | None:
        """xy as the tables give it, composable or not, or else None."""
        if x in self.rows and y in self.position and self.range_map[y] == self.source_map.get(x):
            return self.rows[x][self.position[y]]
        return self.strays.get(x, {}).get(y)

    def compose(self, x: str, y: str) -> str:
        if (z := self.product(x, y)) is None:
            raise KeyError((x, y))
        return z

    def products(self) -> Iterator[tuple[str, str, str]]:
        """Every (x, y, xy) the tables give: the rows in canonical order, then
        the strays."""
        src, rows = self.source_map, self.rows
        for x in self.elements:
            for y, z in zip(self.fibers.get(src.get(x), ()), rows[x]):
                if z is not None:
                    yield x, y, z
        for x, row in self.strays.items():
            for y, z in row.items():
                yield x, y, z

    @property
    def compose_map(self) -> ComposeView:
        """The products read in place as a mapping (x, y) -> xy."""
        return ComposeView(self)

    def fiber(self, u: str) -> tuple[str, ...]:
        """All x with r(x) = u, in canonical order (no unit check)."""
        return self.fibers.get(u, ())

    @property
    def generating_set(self) -> tuple[str, ...] | None:
        """The elements, offered orbit cycles first and then in canonical
        order, that the earlier ones do not reach by right multiplication
        (see `_candidates`), when the three stages of
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
    """The products as pairs (x, y) -> xy; KeyError((x, y)) where none is given."""

    def __init__(self, g: FiniteGroupoid):
        self._g = g

    def __getitem__(self, key: tuple[str, str]) -> str:
        return self._g.compose(*key)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return map(itemgetter(0, 1), self._g.products())

    def __len__(self) -> int:
        return self._g._count


def picker(idx: Sequence[int]) -> Callable[[Sequence], tuple]:
    """row -> (row[i] for i in idx) as a tuple, read in C for any length."""
    if len(idx) == 1:
        return itemgetter(slice(idx[0], idx[0] + 1))
    return itemgetter(*idx) if idx else lambda row: ()


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


def check_references(g: FiniteGroupoid, products: bool = True) -> None:
    """Every id the tables name is an element, and the structure maps are
    defined on every element. Raises MalformedInput naming an offending id:
    the first in the maps, the unit list, the owners and then the keys of
    the strays, and then the products, which `products=False` leaves to a
    caller that looks each of them up."""
    els = g.element_set
    for name, table in (("range", g.range_map), ("source", g.source_map), ("inverse", g.inverse_map)):
        check_map(table, els, els, f"{name} map")
    check_ids(g.units, els, "unit list names unknown id")
    strays = g.strays.values()
    check_ids(chain(g.strays, chain.from_iterable(strays)), els, "compose table references unknown id")
    if products:
        given = chain(chain.from_iterable(g.rows.values()), chain.from_iterable(map(dict.values, strays)))
        check_ids(given, els | {None}, "compose table references unknown id")


def validate_groupoid(g: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom exactly.

    Raises MalformedInput when tables reference unknown ids; otherwise returns
    a report naming every violated axiom with witnessing elements. Three
    stages are decided without enumeration, once per groupoid, by
    `FiniteGroupoid.generating_set`:

    * Compose domain: no strays, and a product in every slot of every row.
    * Ends of products: every xy in the row of x has range r(x) and source d(y).
    * Associativity, by Light's test (Clifford & Preston, The Algebraic Theory
      of Semigroups I, 1961, 1.2), once the domain and the ends of products
      are right. Let S be the set of b with (xb)y = x(by) for all x, y
      composable with b. For b, c in S with bc defined, and such x and y,
        (x(bc))y = ((xb)c)y = (xb)(cy) = x(b(cy)) = x((bc)y),
      using b, c, b, c in S in turn. So S is closed under the product, and
      checking the triples through a generating set proves S = G.

    When a stage fails, the rows and the composable triples are enumerated
    instead, so violations are named, and ordered, as by the exhaustive check.
    The report counts the work of the path that ran (see `generator_work`).
    """
    generators = g.generating_set
    bad: list[Violation] = []
    rng, src, inv, rows, pos = g.range_map, g.source_map, g.inverse_map, g.rows, g.position

    for x in g.elements:
        if rng[x] not in g.unit_set:
            bad.append(Violation("range-into-units", (x,), f"r({x}) = {rng[x]} is not a unit"))
        if src[x] not in g.unit_set:
            bad.append(Violation("source-into-units", (x,), f"d({x}) = {src[x]} is not a unit"))

    for u in g.units:
        if rng[u] != u or src[u] != u:
            bad.append(Violation("unit-fixed", (u,), f"r({u}) = {rng[u]}, d({u}) = {src[u]}, expected both {u}"))

    if generators is None:
        bad += _row_violations(g)
        bad += _associativity_violations(g)

    for x in g.elements:
        d, r = src[x], rng[x]
        if (rows[x][pos[d]] if rng[d] == d else g.product(x, d)) != x:
            bad.append(Violation("right-unit-law", (x,), f"{x}·d({x}) != {x}"))
        if (rows[r][pos[x]] if src[r] == r else g.product(r, x)) != x:
            bad.append(Violation("left-unit-law", (x,), f"r({x})·{x} != {x}"))

    for x in g.elements:
        xi = inv[x]
        if inv.get(xi) != x:
            bad.append(Violation("inverse-involution", (x,), f"inverse(inverse({x})) = {inv.get(xi)}"))
        if rng[xi] != src[x] or src[xi] != rng[x]:
            bad.append(Violation("inverse-swaps-ends", (x,), f"r/d of inverse({x}) do not swap r/d of {x}"))
            continue
        # xi is in the r-fiber over d(x), and x in that over d(xi)
        if rows[x][pos[xi]] != rng[x]:
            bad.append(Violation("inverse-law", (x,), f"{x}·{x}⁻¹ != r({x})"))
        if rows[xi][pos[x]] != src[x]:
            bad.append(Violation("inverse-law", (x,), f"{x}⁻¹·{x} != d({x})"))

    return ValidationReport(tuple(bad), generator_work(g, generators))


def _generating_set(g: FiniteGroupoid) -> tuple[str, ...] | None:
    """The compose domain and the ends, one pass per row, then Light's test.
    Row x must be as long as the r-fiber over d(x), with products in the
    r-fiber over r(x), which holds exactly the elements of range r(x), and
    with the sources of the r-fiber over d(x). The first test looks every
    product up in the element set, so the products pass of
    `check_references` runs only when a stage fails."""
    check_references(g, products=False)
    els, rng, src, rows, fibers = g.elements, g.range_map, g.source_map, g.rows, g.fibers
    srcs, row_list = [*map(src.__getitem__, els)], [*map(rows.__getitem__, els)]
    fiber_sets = {u: frozenset(xs) for u, xs in fibers.items()}
    sources = {u: tuple(map(src.__getitem__, xs)) for u, xs in fibers.items()}
    held = not g.strays and [*map(len, row_list)] == [*map(len, map(fibers.get, srcs, repeat(())))]
    held = held and all(map(frozenset.issuperset, map(fiber_sets.__getitem__, map(rng.__getitem__, els)), row_list))
    held = held and [*map(tuple, map(map, repeat(src.__getitem__), row_list))] == [*map(sources.get, srcs, repeat(()))]
    if not held:
        check_references(g)
        return None
    d_fibers: dict[str, list[str]] = {}
    for x, d in zip(els, srcs):
        d_fibers.setdefault(d, []).append(x)
    generators = _generators(g)
    return generators if _light_associative(g, d_fibers, generators) else None


def _candidates(g: FiniteGroupoid) -> Iterable[str]:
    """Orbit cycles, then every element in canonical order. An orbit with
    units u_1 < ... < u_k (k >= 2) offers the first arrow with range u_i and
    source u_{i+1}, and the first from u_1 to u_k, which together reach every
    hom-set of the orbit. The orbits are the classes of units that the
    distinct (range, source) pairs join; when an end is not a unit or an
    orbit lacks a cycle arrow, the order is the canonical one alone. Any order
    that offers every element is sound, since the closure search proves
    that its picks generate; the order only decides how many there are."""
    rng, src, rev = g.range_map, g.source_map, g.elements[::-1]
    first = dict(zip(zip(map(rng.__getitem__, rev), map(src.__getitem__, rev)), rev))
    try:
        blocks = _unit_blocks(g.units, first)
        cycles = [first[ends] for us in blocks if len(us) > 1 for ends in (*zip(us, us[1:]), (us[-1], us[0]))]
    except KeyError:
        return g.elements
    return chain(cycles, g.elements)


def _generators(g: FiniteGroupoid) -> tuple[str, ...]:
    """The candidates of `_candidates` that the earlier ones do not reach by
    right multiplication: a generating set under the partial product."""
    rng, src, rows, pos = g.range_map, g.source_map, g.rows, g.position
    reached: set[str] = set()
    reached_by_source: dict[str, list[str]] = {}
    gens: list[str] = []
    # the positions of the generators in their r-fibers, by range
    gen_slots: dict[str, list[int]] = {}
    for a in _candidates(g):
        if a in reached:
            continue
        gens.append(a)
        gen_slots.setdefault(rng[a], []).append(pos[a])
        todo = [a, *map(itemgetter(pos[a]), map(rows.__getitem__, reached_by_source.get(rng[a], ())))]
        while todo:
            w = todo.pop()
            if w not in reached:
                reached.add(w)
                reached_by_source.setdefault(src[w], []).append(w)
                todo += map(rows[w].__getitem__, gen_slots.get(src[w], ()))
    return tuple(gens)


def _light_associative(g: FiniteGroupoid, d_fibers: Mapping[str, list[str]], generators: tuple[str, ...]) -> bool:
    """(xa)y = x(ay) for every generator a and all x, y composable with it,
    read per generator for every x at once. Needs the compose domain and the
    ends: then rows[xa] is over the r-fiber of d(a), and each ay has its
    slot in the row of x."""
    rows, pos = g.rows, g.position
    for a in generators:
        row_xs = [*map(rows.__getitem__, d_fibers.get(g.range_map[a], ()))]
        at_ay = picker([*map(pos.__getitem__, rows[a])])
        if [*map(rows.__getitem__, map(itemgetter(pos[a]), row_xs))] != [*map(at_ay, row_xs)]:
            return False
    return True


def _row_violations(g: FiniteGroupoid) -> list[Violation]:
    """Each row against the r-fiber over d(x): products missing on composable
    pairs or defined on non-composable ones; then r(xy) = r(x) and
    d(xy) = d(y) on every composable key. A stage that holds adds none."""
    domain: list[Violation] = []
    ends: list[Violation] = []
    rng, src, pos = g.range_map, g.source_map, g.position
    for x in g.elements:
        row, stray = g.rows[x], g.strays.get(x, {})
        for y in sorted(chain(g.fiber(src[x]), stray)):
            if y in stray:
                domain.append(Violation("compose-domain", (x, y), "product defined on a non-composable pair"))
            elif (z := row[pos[y]]) is None:
                domain.append(Violation("compose-total", (x, y), "composable pair has no product"))
            else:
                if rng[z] != rng[x]:
                    ends.append(Violation("range-of-product", (x, y, z), f"r({x}{y}) = {rng[z]} != r({x})"))
                if src[z] != src[y]:
                    ends.append(Violation("source-of-product", (x, y, z), f"d({x}{y}) = {src[z]} != d({y})"))
    return domain + ends


def _associativity_violations(g: FiniteGroupoid) -> list[Violation]:
    """Every composable triple, a missing product counting as a failure. For
    each composable (x, y), (xy)z and x(yz) are first compared for all z at
    once, as the row of xy and the row of x read at the products yz, where
    both rows lie over the r-fiber of d(y) and have a product in every slot;
    the triples are enumerated only where that does not settle them."""
    bad = []
    rows, rng, src, pos, product = g.rows, g.range_map, g.source_map, g.position, g.product
    whole = {y for y in g.elements if None not in rows[y]}
    over_r = [y for y in whole if [*map(rng.__getitem__, rows[y])].count(rng[y]) == len(rows[y])]
    at_yz = {y: picker([*map(pos.__getitem__, rows[y])]) for y in over_r}
    for x in g.elements:
        row_x = rows[x]
        for y, xy in zip(g.fiber(src[x]), row_x):
            if xy is None or (x in whole and y in at_yz and src[xy] == src[y] and rows[xy] == at_yz[y](row_x)):
                continue
            for z in g.fiber(src[y]):
                lhs, yz = product(xy, z), product(y, z)
                rhs = product(x, yz) if yz is not None else None
                if lhs is None or rhs is None or lhs != rhs:
                    bad.append(Violation("associativity", (x, y, z), f"({x}{y}){z} = {lhs}, {x}({y}{z}) = {rhs}"))
    return bad


class OrbitPartition(FrozenRecord):
    """Partition of the unit set into orbits, with a unit -> block index map."""

    __slots__ = _fields = ("blocks", "index")

    def __init__(self, blocks: tuple[tuple[str, ...], ...], index: Mapping[str, int]):
        self._set(blocks, index)


def orbits(g: FiniteGroupoid) -> OrbitPartition:
    """Connected components of the unit set under u ~ d(x) for r(x) = u;
    MalformedInput names an end of an element that is not a unit."""
    rng, src = [*map(g.range_map.get, g.elements)], [*map(g.source_map.get, g.elements)]
    check_ids(chain(rng, src), g.unit_set, "an end of an element is not a unit:")
    blocks = tuple(map(tuple, _unit_blocks(g.units, zip(rng, src))))
    index = {u: i for i, block in enumerate(blocks) for u in block}
    return OrbitPartition(blocks, index)


def _unit_blocks(units: Sequence[str], ends: Iterable[tuple[str, str]]) -> list[list[str]]:
    """The classes of `units` joined by each (range, source) pair, each
    sorted, in the order of their first unit in `units`; KeyError on an end
    that is not in `units`. Each unit keeps the list of its class, and a
    merge relabels the units of the smaller class."""
    block = {u: [u] for u in units}
    for r, d in ends:
        a, b = block[r], block[d]
        if a is not b:
            if len(a) < len(b):
                a, b = b, a
            a += b
            for u in b:
                block[u] = a
    return [sorted(b) for b in {id(b): b for b in block.values()}.values()]


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

    Units, ends and inverses are checked element by element, and products
    on the domain's generators when f commutes with r and d and the gate of
    `checked_generators` is open. The gate is read first: open, it vouches
    for the references of both groupoids; closed, they are checked, and
    MalformedInput names an unknown id before any element is looked up, or
    any product before the products are compared.
    Let Q(x) mean f(xy) = f(x)f(y) for every y
    composable with x. Q is closed under products: for Q(a), Q(b) with
    d(a) = r(b), and y with r(y) = d(b), the arrow by lies over r(b) = d(a),
    so
        f((ab)y) = f(a(by)) = f(a)(f(b)f(y)) = (f(a)f(b))f(y) = f(ab)f(y),
    using associativity in the domain, Q(a), Q(b), associativity in the
    codomain and Q(a) again. Every element is a product of generators, so Q
    on the generators gives Q everywhere. When the gate is closed or a
    generator fails Q, both groupoids' products are checked too, and then every
    element, so the violations name every failing composable pair. The
    report counts the work of the path that ran (see `generator_work`).
    """
    dom, cod = p.domain, p.codomain
    check_map(p.mapping, dom.element_set, cod.element_set, "hom")
    gens = checked_generators(dom, cod)
    if gens is None:
        check_references(dom, products=False)
        check_references(cod, products=False)

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
    ends_kept = not any(v.rule.startswith("hom-commutes") for v in bad)
    if ends_kept and gens is not None and not _product_violations(p, gens, ends_kept):
        return ValidationReport(tuple(bad), generator_work(dom, gens))
    check_references(dom)
    check_references(cod)
    bad += _product_violations(p, dom.elements, ends_kept)
    return ValidationReport(tuple(bad), generator_work(dom, None))


def _product_violations(p: GroupoidHom, xs: Iterable[str], ends_kept: bool) -> list[Violation]:
    """Q(x) for each x in `xs`, as violations in (x, y) order. When f
    commutes with r and d, each f(y), y over d(x), has its slot in the row
    of f(x): that row read at the f(y) is compared with the f(xy) at once,
    and only a row that differs is walked pair by pair, past the slots of
    x's row without a product. Else every row is walked."""
    dom, cod, f = p.domain, p.codomain, p.mapping
    bad: list[Violation] = []
    # the slots of the f(y), y over d, found once per unit d
    at_images: dict[str, Callable[[tuple], tuple]] = {}
    for x in xs:
        d, row, fx = dom.source_map[x], dom.rows[x], f[x]
        if ends_kept:
            if d not in at_images:
                at_images[d] = picker([*map(cod.position.__getitem__, map(f.__getitem__, dom.fiber(d)))])
            if at_images[d](cod.rows[fx]) == tuple(map(f.get, row)):
                continue
        for y, z in zip(dom.fiber(d), row):
            if z is None:
                continue
            image = cod.product(fx, f[y])
            if image is None:
                bad.append(Violation("hom-preserves-composability", (x, y), f"images {fx}, {f[y]} are not composable"))
            elif image != f[z]:
                bad.append(Violation("hom-preserves-product", (x, y), f"p({x})p({y}) = {image} != p({x}{y}) = {f[z]}"))
    return bad


def checked_generators(g: FiniteGroupoid, *codomains: FiniteGroupoid) -> tuple[str, ...] | None:
    """The gate of every check on generators: g's generating set when g and
    each codomain pass the three stages of `FiniteGroupoid.generating_set`,
    else None, as when a table names an unknown id."""
    try:
        if all(h.generating_set is not None for h in codomains):
            return g.generating_set
    except MalformedInput:
        pass
    return None


def generator_work(g: FiniteGroupoid, gens: tuple[str, ...] | None) -> tuple[tuple[str, int], ...]:
    """Work counts of a check of a property closed under products on g: the
    generators `gens` it stopped on and their (generator, fiber element)
    pairs, or g's compose entries when it ran on every element (gens None)."""
    if gens is None:
        return (("compose entries", g._count),)
    return (("generators", len(gens)), ("generator pairs", sum(map(len, map(g.rows.__getitem__, gens)))))
