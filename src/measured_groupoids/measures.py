"""Measures and systems of measures on maps between finite sets.

All weights are exact nonnegative rationals, so every identity below is
decided with zero tolerance, and measure equivalence is support equality:
f_* mu ~ nu exactly when f(supp mu) = supp nu, decided by `class_witness`.
Weights have one form, which both constructors check: integer numerators over
one positive denominator in lowest terms, one denominator per measure and one
per system of measures, with no measure object per point. Sums are then
integer sums, two weights of one system compare as integers, and weights of
different measures compare by cross-multiplication. `fractions.Fraction`
appears only where rational weights come in, each put over one denominator by
`over_one_denominator` (the document parser, the source weights of a Haar
system and the random generator), and where weights are read out
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


def over_one_denominator(rows: Iterable[Mapping[str, Fraction]]) -> tuple[int, list[dict[str, int]]]:
    """Rows of rational weights as (den, rows of integer numerators over den),
    with den the lcm of the reduced denominators, so that the numerators and
    den have no common factor. The one place where rationals become
    numerators."""
    rows = list(rows)
    den = lcm(*(w.denominator for ws in rows for w in ws.values()))
    return den, [{x: w.numerator * (den // w.denominator) for x, w in ws.items()} for ws in rows]


def _lowest_terms(rows: list[Mapping[str, int]], known: AbstractSet[str], den: int) -> tuple[int, list[dict[str, int]]]:
    """Rows of integer numerators over one positive `den`, in canonical form:
    zeros dropped and the common factor of `den` and all numerators divided
    out, which leaves the least common denominator of the reduced weights.
    Rejects a `den` that is not a positive int and, row by row, a numerator
    off `known`, one that is not an int and a negative one."""
    if not isinstance(den, int):
        raise MalformedInput(f"denominator {den!r} is not an integer")
    if den < 1:
        raise MalformedInput(f"denominator {den} is not positive")
    kept = []
    common = den
    for ws in rows:
        try:  # gcd takes ints only, so it is also the type check
            check_ids(ws, known, "weight assigned to unknown point")
            common = gcd(common, *ws.values())
        except (TypeError, AttributeError):
            if not isinstance(ws, Mapping):
                raise MalformedInput(f"weights {ws!r} are not a mapping of points") from None
            x = next(x for x, n in ws.items() if not isinstance(n, int))
            raise MalformedInput(f"weight at {x!r} is not an integer: {ws[x]!r}") from None
        for n in filter((0).__gt__, ws.values()):
            raise MalformedInput(f"negative weight {Fraction(n, den)}")
        kept.append({x: n for x, n in ws.items() if n})
    if common > 1:
        kept = [{x: n // common for x, n in ws.items()} for ws in kept]
    return den // common, kept


class FiniteMeasure:
    """Nonnegative rational weights on a finite base set, stored sparsely.

    The weight at x is `nums[x] / den`: `den` is positive, `nums` holds the
    nonzero integer numerators, and gcd(den, all numerators) = 1. That form
    is canonical, so equal measures have equal `den` and `nums`. The
    constructor takes integer numerators over any positive int `den`, reduces
    them to that form and rejects weights as `MeasureSystem` does.
    """

    def __init__(self, base: Iterable[str], nums: Mapping[str, int], den: int = 1):
        self.base: tuple[str, ...] = tuple(sorted(base))
        self.den, (self.nums,) = _lowest_terms([nums], frozenset(self.base), den)

    def __call__(self, x: str) -> Fraction:
        n = self.nums.get(x)
        return Fraction(n, self.den) if n else ZERO

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMeasure):
            return NotImplemented
        return self.base == other.base and self.den == other.den and self.nums == other.nums

    def __repr__(self) -> str:
        inside = ", ".join(f"{x}: {Fraction(n, self.den)}" for x, n in sorted(self.nums.items()))
        return f"FiniteMeasure({{{inside}}} on {len(self.base)} points)"


def counting(base: Iterable[str]) -> FiniteMeasure:
    base = tuple(base)
    return FiniteMeasure(base, dict.fromkeys(base, 1))


class MeasureSystem:
    """Family {lam^y} over a map f: X -> Y, one finite measure per y in Y,
    kept as lam^y(x) = nums[y][x] / den in canonical form: `nums` is keyed by
    every point of Y and holds the nonzero numerators, and gcd(den, all
    numerators) = 1, so equal systems have equal `den` and `nums`.

    The constructor takes integer numerators `y -> {x: n}` over any positive
    `den`. It may omit points of Y, whose measures are then zero; it rejects
    any other point of Y, weights at unknown points of X, numerators or a
    `den` that are not ints, and negative weights.
    """

    def __init__(
        self, over: Mapping[str, str], domain: Iterable[str], codomain: Iterable[str], nums: Mapping[str, dict], den: int = 1
    ):
        self.domain: tuple[str, ...] = tuple(sorted(domain))
        self.codomain: tuple[str, ...] = tuple(sorted(codomain))
        self.over = dict(over)
        if not isinstance(nums, Mapping):
            raise MalformedInput(f"family {nums!r} is not a mapping of points")
        check_ids(nums, frozenset(self.codomain), "family indexed by unknown point")
        self.den, rows = _lowest_terms([nums.get(y, {}) for y in self.codomain], frozenset(self.domain), den)
        self.nums: dict[str, dict[str, int]] = dict(zip(self.codomain, rows))

    def weight(self, y: str, x: str) -> Fraction:
        n = self.nums.get(y, {}).get(x)
        return Fraction(n, self.den) if n else ZERO

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasureSystem):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.over == other.over
            and self.den == other.den
            and self.nums == other.nums
        )

    def __repr__(self) -> str:
        return f"MeasureSystem({len(self.domain)} -> {len(self.codomain)})"


def validate_system(s: MeasureSystem, require_full: bool = False) -> ValidationReport:
    """Concentration on fibers; optionally full support on every fiber."""
    check_map(s.over, frozenset(s.domain), frozenset(s.codomain), "system map")
    fibers: dict[str, set[str]] = {y: set() for y in s.codomain}
    for x in s.domain:
        fibers[s.over[x]].add(x)
    bad: list[Violation] = []
    for y in s.codomain:
        support, fib = s.nums[y].keys(), fibers[y]
        for x in sorted(support - fib):
            bad.append(Violation("concentration", (y, x), f"lam^{y} charges {x} outside the fiber"))
        if require_full:
            for x in sorted(fib - support):
                bad.append(Violation("full-support", (y, x), f"lam^{y} vanishes at {x} inside the fiber"))
    return ValidationReport(tuple(bad))


def class_witness(f: Mapping[str, str], mu: FiniteMeasure, codomain: Iterable[str], nu: FiniteMeasure) -> str | None:
    """The least point of f(supp mu) △ supp nu, or None when f_* mu, on
    `codomain`, is in the class of nu: numerators are positive, so no
    pushforward is built. Raises MalformedInput naming a support point of mu
    that f does not map, and BaseMismatch when `codomain` is not nu's base."""
    check_ids(mu.nums, f.keys(), "pushforward map undefined at")
    if tuple(sorted(codomain)) != nu.base:
        raise BaseMismatch("measures live on different base sets")
    return min({f[x] for x in mu.nums} ^ nu.nums.keys(), default=None)


def compose_with_measure(s: MeasureSystem, nu: FiniteMeasure) -> FiniteMeasure:
    """mu(E) = sum_y lam^y(E) nu(y), the measure induced by a system."""
    if tuple(nu.base) != s.codomain:
        raise BaseMismatch("measure base does not match the system codomain")
    out: dict[str, int] = {}
    for y, vy in nu.nums.items():
        for x, w in s.nums[y].items():
            out[x] = out.get(x, 0) + w * vy
    return FiniteMeasure(s.domain, out, s.den * nu.den)


def disintegrate(f: Mapping[str, str], mu: FiniteMeasure, nu: FiniteMeasure) -> MeasureSystem:
    """Split mu along f into fiberwise measures gamma^y with
    sum_y gamma^y(E) nu(y) = mu(E) exactly.

    On nu-positive fibers gamma^y = mu/nu(y); nu-null fibers (necessarily
    mu-null, by the measure-class precondition) carry counting measure so that
    their full fiber support survives downstream support computations.
    """
    check_map(f, frozenset(mu.base), frozenset(nu.base), "disintegration map")
    w = class_witness(f, mu, nu.base, nu)
    if w is not None:
        raise NotMeasureClassPreserving(
            f"pushforward and target measure differ in support, witness {w!r}", witness=w
        )
    fibers: dict[str, list[str]] = {y: [] for y in nu.base}
    for x in mu.base:
        fibers[f[x]].append(x)
    # (mu.nums[x] / mu.den) / (ny / nu.den) over the denominator mu.den * m,
    # where m is the lcm of the positive numerators ny of nu
    m = lcm(*nu.nums.values())
    den = mu.den * m
    nums: dict[str, dict[str, int]] = {}
    for y in nu.base:
        ny = nu.nums.get(y)
        if ny:
            k = nu.den * (m // ny)
            nums[y] = {x: mu.nums.get(x, 0) * k for x in fibers[y]}
        else:
            nums[y] = dict.fromkeys(fibers[y], den)
    return MeasureSystem(f, mu.base, nu.base, nums, den)


def alternate_disintegration(gamma: MeasureSystem, nu: FiniteMeasure, scale=2) -> MeasureSystem:
    """Rescale a disintegration by `scale`, an int or a Fraction, on every
    nu-null fiber. The result is again a disintegration of the same pair, and
    differs from the input exactly when some null fiber is nonempty. Raises
    BaseMismatch when nu does not live on the codomain of gamma, and
    MalformedInput on a scale of another type."""
    if tuple(nu.base) != gamma.codomain:
        raise BaseMismatch("measure base does not match the system codomain")
    if not isinstance(scale, (int, Fraction)):
        raise MalformedInput(f"scale {scale!r} is not an int or a Fraction")
    c = Fraction(scale)
    nums = {
        y: {x: n * (c.denominator if y in nu.nums else c.numerator) for x, n in ws.items()}
        for y, ws in gamma.nums.items()
    }
    return MeasureSystem(gamma.over, gamma.domain, gamma.codomain, nums, gamma.den * c.denominator)
