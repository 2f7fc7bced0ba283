"""Measures and systems of measures on maps between finite sets.

All weights are exact nonnegative rationals, so measure equivalence is
support equality and every identity below is decided with zero tolerance. A
measure keeps its weights as integer numerators over one positive
denominator, in lowest terms, and a system of measures keeps its whole
family over one common denominator. Sums are then integer sums, two weights
of one system compare as integers, and weights of different measures compare
by cross-multiplication. `fractions.Fraction` appears only where weights
come in (the `FiniteMeasure` constructor) and where they are read out
(`FiniteMeasure.__call__`, `MeasureSystem.weight`).

A system of measures over f: X -> Y is one measure on X per point of Y,
concentrated on the fiber over that point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import AbstractSet, Iterable, Mapping

from .errors import BaseMismatch, MalformedInput, NotMeasureClassPreserving
from .groupoid import ValidationReport, Violation, check_ids, check_map

ZERO = Fraction(0)


def as_weight(v) -> Fraction:
    w = Fraction(v)
    if w < 0:
        raise MalformedInput(f"negative weight {w}")
    return w


class FiniteMeasure:
    """Nonnegative rational weights on a finite base set, stored sparsely.

    The weight at x is `nums[x] / den`: `den` is positive, `nums` holds the
    nonzero integer numerators, and gcd(den, all numerators) = 1. That form
    is canonical, so equal measures have equal `den` and `nums`.
    """

    def __init__(self, base: Iterable[str], weights: Mapping[str, object] = ()):
        self.base: tuple[str, ...] = tuple(sorted(base))
        check_ids(weights, frozenset(self.base), "weight assigned to unknown point")
        ws = [(x, as_weight(v)) for x, v in dict(weights).items()]
        # the least common denominator of reduced fractions leaves the
        # numerators without a common factor
        den = lcm(*(w.denominator for _, w in ws))
        self.den = den
        self.nums: dict[str, int] = {x: w.numerator * (den // w.denominator) for x, w in ws if w}

    @classmethod
    def from_numerators(
        cls, base: Iterable[str], nums: Mapping[str, int], den: int, points: AbstractSet[str] | None = None
    ) -> "FiniteMeasure":
        """The measure with weight nums[x] / den at x, for integers nums[x]
        and a positive den, reduced to lowest terms; rejects unknown points
        and negative weights as the constructor does.

        With `points`, `base` must already be a sorted tuple and `points` its
        set of ids. The members of one system pass the system's domain and
        one id set, so each is built in time proportional to its support,
        not to its base."""
        m = cls.__new__(cls)
        if points is None:
            m.base = tuple(sorted(base))
            points = frozenset(m.base)
        else:
            m.base = base
        check_ids(nums, points, "weight assigned to unknown point")
        if min(nums.values(), default=0) < 0:
            n = next(n for n in nums.values() if n < 0)
            raise MalformedInput(f"negative weight {Fraction(n, den)}")
        kept = {x: n for x, n in nums.items() if n}
        common = gcd(den, *kept.values())
        if common > 1:
            kept = {x: n // common for x, n in kept.items()}
        m.den, m.nums = den // common, kept
        return m

    def __call__(self, x: str) -> Fraction:
        n = self.nums.get(x)
        return Fraction(n, self.den) if n else ZERO

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def scaled(self, c) -> "FiniteMeasure":
        c = Fraction(c)
        return FiniteMeasure.from_numerators(
            self.base, {x: n * c.numerator for x, n in self.nums.items()}, self.den * c.denominator
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMeasure):
            return NotImplemented
        return self.base == other.base and self.den == other.den and self.nums == other.nums

    def __repr__(self) -> str:
        inside = ", ".join(f"{x}: {Fraction(n, self.den)}" for x, n in sorted(self.nums.items()))
        return f"FiniteMeasure({{{inside}}} on {len(self.base)} points)"


def counting(base: Iterable[str], subset: Iterable[str] | None = None) -> FiniteMeasure:
    base = tuple(base)
    pts = base if subset is None else tuple(subset)
    return FiniteMeasure.from_numerators(base, dict.fromkeys(pts, 1), 1)


class MeasureSystem:
    """Family {lam^y} over a map f: X -> Y, one finite measure per y in Y.

    `family` may omit points of Y; missing entries denote the zero measure.
    It may not be indexed by any other point. The fibers of the map are
    indexed once, at construction, and so is the family's common
    denominator: lam^y(x) = nums[y][x] / den, with `nums` keyed by every
    point of Y and holding the nonzero numerators.
    """

    def __init__(
        self, over: Mapping[str, str], domain: Iterable[str], codomain: Iterable[str], family: Mapping[str, FiniteMeasure]
    ):
        self.domain: tuple[str, ...] = tuple(sorted(domain))
        self.codomain: tuple[str, ...] = tuple(sorted(codomain))
        self.over = dict(over)
        zero = FiniteMeasure(self.domain)
        fam = dict(family)
        check_ids(fam, frozenset(self.codomain), "family indexed by unknown point")
        self.family: dict[str, FiniteMeasure] = {y: fam.get(y, zero) for y in self.codomain}
        self.den = den = lcm(*(m.den for m in self.family.values()))
        self.nums: dict[str, dict[str, int]] = {
            y: m.nums if m.den == den else {x: n * (den // m.den) for x, n in m.nums.items()}
            for y, m in self.family.items()
        }
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
        # members built for this system share its domain tuple, so the tuple
        # comparison settles them without building a set
        if m.base != s.domain and frozenset(m.base) != dom:
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
    out: dict[str, int] = {}
    check_ids(mu.nums, f.keys(), "pushforward map undefined at")
    for x, n in mu.nums.items():
        y = f[x]
        out[y] = out.get(y, 0) + n
    return FiniteMeasure.from_numerators(codomain, out, mu.den)


def same_measure_class(mu: FiniteMeasure, nu: FiniteMeasure) -> bool:
    """Mutual absolute continuity; exact support equality on a shared base."""
    if mu.base != nu.base:
        raise BaseMismatch("measures live on different base sets")
    return mu.nums.keys() == nu.nums.keys()


def class_witness(mu: FiniteMeasure, nu: FiniteMeasure) -> str | None:
    """A point where exactly one of the measures vanishes, if any."""
    return min(mu.nums.keys() ^ nu.nums.keys(), default=None)


def compose_with_measure(s: MeasureSystem, nu: FiniteMeasure) -> FiniteMeasure:
    """mu(E) = sum_y lam^y(E) nu(y), the measure induced by a system."""
    if tuple(nu.base) != s.codomain:
        raise BaseMismatch("measure base does not match the system codomain")
    out: dict[str, int] = {}
    for y, vy in nu.nums.items():
        for x, w in s.nums[y].items():
            out[x] = out.get(x, 0) + w * vy
    return FiniteMeasure.from_numerators(s.domain, out, s.den * nu.den)


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
    points = frozenset(mu.base)
    family: dict[str, FiniteMeasure] = {}
    for y in nu.base:
        ny = nu.nums.get(y)
        if ny:
            # (mu.nums[x] / mu.den) / (ny / nu.den)
            ws, den = {x: mu.nums.get(x, 0) * nu.den for x in fibers[y]}, mu.den * ny
        else:
            ws, den = dict.fromkeys(fibers[y], 1), 1
        family[y] = FiniteMeasure.from_numerators(mu.base, ws, den, points)
    return MeasureSystem(dict(f), mu.base, nu.base, family)
