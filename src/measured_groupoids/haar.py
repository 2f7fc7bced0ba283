"""Haar systems, induced measures, quasi-invariance and modular functions.

A Haar system on a finite groupoid is a system of measures over the range map
with full support on every r-fiber and pointwise left invariance
lam^{d(x)}(y) = lam^{r(x)}(x·y). Together with a nonzero quasi-invariant
measure on the unit space this makes the groupoid a Haar groupoid.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import MalformedInput, NotQuasiInvariant
from .groupoid import FiniteGroupoid, FrozenRecord, GroupoidHom, ValidationReport, Violation, check_ids, checked_generators
from .groupoid import generator_work, validate_groupoid, validate_hom
from .measures import FiniteMeasure, MeasureSystem, compose_with_measure, over_one_denominator, class_witness
from .measures import validate_system


class HaarGroupoid(FrozenRecord):
    """An object of HG: a groupoid, a Haar system over its range map, and a
    unit measure. These fix the induced measure and the modular function,
    which are derived on first read and then kept; the instance is frozen so
    that what is kept cannot go stale. `validate_haar_groupoid` checks the
    laws.

    What is kept lives in the slots `_induced` and `_modular`, which the
    constructor sets to None and which take no part in equality. They are
    slots rather than `functools.cached_property`s: writing an instance
    `__dict__` would slow every later attribute read on the object."""

    _fields = ("groupoid", "haar", "unit_measure")
    __slots__ = (*_fields, "_induced", "_modular")

    def __init__(self, groupoid: FiniteGroupoid, haar: MeasureSystem, unit_measure: FiniteMeasure):
        self._set(groupoid, haar, unit_measure, None, None)

    @property
    def induced(self) -> FiniteMeasure:
        """mu(x) = lam^{r(x)}(x) · mu0(r(x)), i.e. the system composed with mu0."""
        if self._induced is None:
            object.__setattr__(self, "_induced", compose_with_measure(self.haar, self.unit_measure))
        return self._induced

    @property
    def modular(self) -> Mapping[str, Fraction]:
        """Delta(x) = mu(x)/mu(x^{-1}), keyed by the support of mu and
        read-only; the two numerators of mu over its one denominator give
        each value. Raises NotQuasiInvariant with the witness of
        `is_quasi_invariant`, on every read, when mu and its inverse image
        differ in support."""
        if self._modular is None:
            report = is_quasi_invariant(self)
            if not report.ok:
                (witness,) = report.violations[0].witnesses
                raise NotQuasiInvariant(f"unit measure is not quasi-invariant, witness {witness!r}", witness=witness)
            nums, inv = self.induced.nums, self.groupoid.inverse_map
            delta = MappingProxyType({x: Fraction(nums[x], nums[inv[x]]) for x in sorted(nums)})
            object.__setattr__(self, "_modular", delta)
        return self._modular


def haar_system_from_source_weights(g: FiniteGroupoid, source_weight: Mapping[str, object]) -> MeasureSystem:
    """The left-invariant system lam^u(x) = c(d(x)) determined by positive
    weights c on the units. Every Haar system on a finite groupoid arises this
    way, so this is also the random-instance parametrisation."""
    c = {u: Fraction(v) for u, v in source_weight.items()}
    check_ids(g.units, c.keys(), "source weight missing at unit")
    for u in g.units:
        if c[u] <= 0:
            raise MalformedInput(f"source weight non-positive at unit {u!r}")
    den, (num,) = over_one_denominator([c])
    nums = {u: {x: num[g.d(x)] for x in g.fiber(u)} for u in g.units}
    return MeasureSystem(g.range_map, g.elements, g.units, nums, den)


def counting_haar_system(g: FiniteGroupoid) -> MeasureSystem:
    return haar_system_from_source_weights(g, dict.fromkeys(g.units, 1))


def is_haar(g: FiniteGroupoid, s: MeasureSystem) -> ValidationReport:
    """Full support on every r-fiber plus pointwise left invariance.

    Left invariance is checked on generators when the gate of
    `checked_generators` is open. Let P(x) mean
    lam^{d(x)}(y) = lam^{r(x)}(xy) for every y in the fiber over d(x). P is
    closed under products: for P(a), P(b) with d(a) = r(b), and y over d(b),
    the arrow by lies over r(b) = d(a), so
        lam^{d(b)}(y) = lam^{r(b)}(by) = lam^{r(a)}(a(by)) = lam^{r(ab)}((ab)y),
    using P(b), P(a), associativity and r(ab) = r(a). Every element is a
    product of generators, so P on the generators gives P everywhere. When
    the gate is closed or a generator fails P, every element is checked, so
    the violations name every failing pair. The report counts the work of
    the path that ran (see `generator_work`). Raises MalformedInput when the
    system is not over the range map, and naming a source that is not a
    unit or a composable pair without a product.
    """
    if s.over != g.range_map or frozenset(s.codomain) != g.unit_set:
        raise MalformedInput("system is not over the range map of the groupoid")
    report = validate_system(s, require_full=True)
    gens = checked_generators(g)
    if gens is not None and not _left_invariance_violations(g, s, gens):
        return ValidationReport(report.violations, generator_work(g, gens))
    bad = report.violations + tuple(_left_invariance_violations(g, s, g.elements))
    return ValidationReport(bad, generator_work(g, None))


def _left_invariance_violations(g: FiniteGroupoid, s: MeasureSystem, xs: Iterable[str]) -> list[Violation]:
    """P(x) for each x in `xs`, as violations in (x, y) order. The two weights
    of P share the system's denominator, so lam^{d(x)} on the fiber over d(x)
    is compared with lam^{r(x)} on the row of x as numerators at once. The
    row's side reads None where a weight is zero or a product is missing, so
    only a row that differs, or has such a slot, is walked pair by pair."""
    nums = s.nums
    bad: list[Violation] = []
    # lam^u on the fiber over u, read once per unit
    at_source: dict[str, list[int]] = {}
    for x in xs:
        d, r, row = g.source_map[x], g.range_map[x], g.rows[x]
        if d not in at_source:
            if d not in nums:  # r(x) is a unit: the system is over the range map
                raise MalformedInput(f"source {d!r} of {x!r} is not a unit")
            at_source[d] = [*map(nums[d].get, g.fiber(d), repeat(0))]
        if at_source[d] == [*map(nums[r].get, row)]:
            continue
        lam_d, lam_r = nums[d], nums[r]
        for y, xy in zip(g.fiber(d), row):
            if xy is None:
                raise MalformedInput(f"composable pair {(x, y)!r} has no product")
            if lam_d.get(y, 0) != lam_r.get(xy, 0):
                detail = f"lam^d(x)({y}) = {s.weight(d, y)} != lam^r(x)({xy}) = {s.weight(r, xy)}"
                bad.append(Violation("left-invariance", (x, y), detail))
    return bad


def is_quasi_invariant(h: HaarGroupoid) -> ValidationReport:
    """Support equality of the induced measure and its inverse image
    x -> mu(x^{-1}); on failure one `quasi-invariance` violation names the
    least element of the symmetric difference of the two supports. Raises
    MalformedInput at the least element the inverse map misses."""
    g = h.groupoid
    mu = h.induced
    if mu.base != g.elements:
        raise MalformedInput("measure does not live on the groupoid's elements")
    support, inv = mu.nums.keys(), g.inverse_map
    try:
        inverse_support = {x for x in g.elements if inv[x] in support}
    except KeyError as missing:
        raise MalformedInput(f"inverse map undefined at {missing.args[0]!r}") from None
    if support == inverse_support:
        return ValidationReport(())
    witness = min(support ^ inverse_support)
    return ValidationReport(
        (Violation("quasi-invariance", (witness,), f"induced measure and its inverse differ in support at {witness}"),)
    )


def validate_unit_measure(h: HaarGroupoid) -> ValidationReport:
    """The unit-space measure is nonzero and quasi-invariant. Needs a groupoid
    that satisfies the axioms and a system over its range map."""
    if tuple(h.unit_measure.base) != h.groupoid.units:
        raise MalformedInput("unit measure does not live on the unit space")
    bad: list[Violation] = []
    if h.unit_measure.is_zero():
        bad.append(Violation("nonzero-unit-measure", (), "the unit-space measure is identically zero"))
    bad.extend(is_quasi_invariant(h).violations)
    return ValidationReport(tuple(bad))


def validate_haar_groupoid(h: HaarGroupoid) -> ValidationReport:
    """Groupoid axioms, then the Haar system and the unit measure. A groupoid
    that fails its axioms is reported as it stands: the later checks compose
    and index by its tables, which are then not to be trusted."""
    report = validate_groupoid(h.groupoid)
    if not report.ok:
        return report
    bad = list(is_haar(h.groupoid, h.haar).violations)
    bad.extend(validate_unit_measure(h).violations)
    return ValidationReport(tuple(bad))


def validate_haar_hom(p: GroupoidHom, dom: HaarGroupoid, cod: HaarGroupoid) -> ValidationReport:
    """Algebraic homomorphism plus measure-class preservation of the induced
    measures; also reports the derived unit-space class check, which can never
    fail on its own when the element-level check passes. Carries the work
    counts of `validate_hom`."""
    if p.domain != dom.groupoid or p.codomain != cod.groupoid:
        raise MalformedInput("hom endpoints do not match the given Haar groupoids")
    hom = validate_hom(p)
    bad = list(hom.violations)
    unit_map = {u: p.mapping[u] for u in dom.groupoid.units if p.mapping.get(u) in cod.groupoid.unit_set}
    checks = [("measure-class", "induced measure", p.mapping, dom.induced, cod.groupoid.elements, cod.induced)]
    if len(unit_map) == len(dom.groupoid.units):
        checks.append(("unit-measure-class", "unit measure", unit_map, dom.unit_measure, cod.groupoid.units, cod.unit_measure))
    for rule, what, f, mu, codomain, nu in checks:
        w = class_witness(f, mu, codomain, nu)
        if w is not None:
            bad.append(Violation(rule, (w,), f"pushforward of the {what} and the target {what} differ at {w}"))
    return ValidationReport(tuple(bad), hom.counts)
