"""Measures and systems of measures on maps between finite sets.

All weights are exact nonnegative rationals (`fractions.Fraction`), so
measure equivalence is support equality and every identity below is decided
with zero tolerance. A system of measures over f: X -> Y is one measure on X
per point of Y, concentrated on the fiber over that point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import BaseMismatch, MalformedInput, NotMeasureClassPreserving
from .groupoid import ValidationReport, Violation, check_ids, check_map

ZERO = Fraction(0)
ONE = Fraction(1)


def as_weight(v) -> Fraction:
    w = Fraction(v)
    if w < 0:
        raise MalformedInput(f"negative weight {w}")
    return w


class FiniteMeasure:
    """Nonnegative rational weights on a finite base set, stored sparsely."""

    def __init__(self, base: Iterable[str], weights: Mapping[str, object] = ()):
        self.base: tuple[str, ...] = tuple(sorted(base))
        check_ids(weights, frozenset(self.base), "weight assigned to unknown point")
        w: dict[str, Fraction] = {}
        for x, v in dict(weights).items():
            fv = as_weight(v)
            if fv:
                w[x] = fv
        self.weights = w

    def __call__(self, x: str) -> Fraction:
        return self.weights.get(x, ZERO)

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.weights)

    def is_zero(self) -> bool:
        return not self.weights

    def scaled(self, c) -> "FiniteMeasure":
        return FiniteMeasure(self.base, {x: v * Fraction(c) for x, v in self.weights.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMeasure):
            return NotImplemented
        return self.base == other.base and self.weights == other.weights

    def __repr__(self) -> str:
        inside = ", ".join(f"{x}: {v}" for x, v in sorted(self.weights.items()))
        return f"FiniteMeasure({{{inside}}} on {len(self.base)} points)"


def counting(base: Iterable[str], subset: Iterable[str] | None = None) -> FiniteMeasure:
    base = tuple(base)
    pts = base if subset is None else tuple(subset)
    return FiniteMeasure(base, {x: ONE for x in pts})


class MeasureSystem:
    """Family {lam^y} over a map f: X -> Y, one finite measure per y in Y.

    `family` may omit points of Y; missing entries denote the zero measure.
    It may not be indexed by any other point. The fibers of the map are
    indexed once, at construction.
    """

    def __init__(
        self,
        over: Mapping[str, str],
        domain: Iterable[str],
        codomain: Iterable[str],
        family: Mapping[str, FiniteMeasure],
    ):
        self.domain: tuple[str, ...] = tuple(sorted(domain))
        self.codomain: tuple[str, ...] = tuple(sorted(codomain))
        self.over = dict(over)
        zero = FiniteMeasure(self.domain)
        fam = dict(family)
        check_ids(fam, frozenset(self.codomain), "family indexed by unknown point")
        self.family: dict[str, FiniteMeasure] = {y: fam.get(y, zero) for y in self.codomain}
        self._fibers: dict[str, list[str]] = {}
        for x in self.domain:
            y = self.over.get(x)
            if y is not None:
                self._fibers.setdefault(y, []).append(x)

    def at(self, y: str) -> FiniteMeasure:
        return self.family[y]

    def weight(self, y: str, x: str) -> Fraction:
        m = self.family.get(y)
        return m(x) if m is not None else ZERO

    def fiber(self, y: str) -> tuple[str, ...]:
        """All x over y, in canonical order."""
        return tuple(self._fibers.get(y, ()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasureSystem):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.over == other.over
            and self.family == other.family
        )

    def __repr__(self) -> str:
        return f"MeasureSystem({len(self.domain)} -> {len(self.codomain)})"


def _system_structural_check(s: MeasureSystem) -> None:
    dom = frozenset(s.domain)
    check_map(s.over, dom, frozenset(s.codomain), "system map")
    for y, m in s.family.items():
        if frozenset(m.base) != dom:
            raise MalformedInput(f"family member at {y!r} lives on the wrong base set")


def validate_system(s: MeasureSystem, require_full: bool = False) -> ValidationReport:
    """Concentration on fibers; optionally full support on every fiber."""
    _system_structural_check(s)
    bad: list[Violation] = []
    for y in s.codomain:
        m = s.family[y]
        fib = frozenset(s.fiber(y))
        for x in sorted(m.support - fib):
            bad.append(Violation("concentration", (y, x), f"lam^{y} charges {x} outside the fiber"))
        if require_full:
            for x in sorted(fib - m.support):
                bad.append(Violation("full-support", (y, x), f"lam^{y} vanishes at {x} inside the fiber"))
    return ValidationReport(tuple(bad))


def push_forward(f: Mapping[str, str], mu: FiniteMeasure, codomain: Iterable[str]) -> FiniteMeasure:
    """(f_* mu)(y) = sum of mu over the fiber of y; total mass is preserved."""
    codomain = tuple(codomain)
    out: dict[str, Fraction] = {}
    check_ids(mu.weights, f.keys(), "pushforward map undefined at")
    for x, v in mu.weights.items():
        y = f[x]
        out[y] = out.get(y, ZERO) + v
    return FiniteMeasure(codomain, out)


def same_measure_class(mu: FiniteMeasure, nu: FiniteMeasure) -> bool:
    """Mutual absolute continuity; exact support equality on a shared base."""
    if mu.base != nu.base:
        raise BaseMismatch("measures live on different base sets")
    return mu.support == nu.support


def class_witness(mu: FiniteMeasure, nu: FiniteMeasure) -> str | None:
    """A point where exactly one of the measures vanishes, if any."""
    diff = sorted(mu.support.symmetric_difference(nu.support))
    return diff[0] if diff else None


def compose_with_measure(s: MeasureSystem, nu: FiniteMeasure) -> FiniteMeasure:
    """mu(E) = sum_y lam^y(E) nu(y), the measure induced by a system."""
    if tuple(nu.base) != s.codomain:
        raise BaseMismatch("measure base does not match the system codomain")
    out: dict[str, Fraction] = {}
    for y, vy in nu.weights.items():
        for x, w in s.family[y].weights.items():
            out[x] = out.get(x, ZERO) + w * vy
    return FiniteMeasure(s.domain, out)


def disintegrate(f: Mapping[str, str], mu: FiniteMeasure, nu: FiniteMeasure) -> MeasureSystem:
    """Split mu along f into fiberwise measures gamma^y with
    sum_y gamma^y(E) nu(y) = mu(E) exactly.

    On nu-positive fibers gamma^y = mu/nu(y); nu-null fibers (necessarily
    mu-null, by the measure-class precondition) carry counting measure so that
    their full fiber support survives downstream support computations.
    """
    pushed = push_forward(f, mu, nu.base)
    if pushed.support != nu.support:
        w = class_witness(pushed, nu)
        raise NotMeasureClassPreserving(
            f"pushforward and target measure differ in support, witness {w!r}", witness=w
        )
    fibers: dict[str, list[str]] = {y: [] for y in nu.base}
    for x in mu.base:
        fibers[f[x]].append(x)
    family: dict[str, FiniteMeasure] = {}
    for y in nu.base:
        if nu(y) > 0:
            family[y] = FiniteMeasure(mu.base, {x: mu(x) / nu(y) for x in fibers[y]})
        else:
            family[y] = counting(mu.base, fibers[y])
    return MeasureSystem(dict(f), mu.base, nu.base, family)
