"""The weak pullback of a cospan of Haar groupoids, with its Haar system,
unit-space measure and modular function, plus one check per structure theorem.

Given homomorphisms p: S -> G <- T: q, the pullback carries triples (s, g, t)
with r(g) = r(p(s)) and d(g) = r(q(t)); g mediates between the legs instead of
the on-the-nose equality of a regular pullback. The measured structure is

    lam_P^{(s,g,t)} = lam_S^s x delta_g x lam_T^t
    eta^x           = gamma_p^{r(x)} x delta_x x gamma_q^{d(x)}
    mu_P0(B)        = sum_x eta^x(B) mu_G(x)

with gamma_p, gamma_q the disintegrations of the leg unit measures along the
unit maps. Every check below is an exact rational identity.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Callable, Mapping

from .errors import InvalidCospan, MalformedInput, NotADisintegration
from .groupoid import FiniteGroupoid, FrozenRecord, GroupoidHom, Record, ValidationReport, Violation, orbits, picker
from .haar import HaarGroupoid, is_haar, is_quasi_invariant, validate_haar_groupoid, validate_haar_hom
from .measures import FiniteMeasure, MeasureSystem, compose_with_measure, disintegrate, validate_system


class Cospan(Record):
    """Two Haar groupoids mapping into a common base via Haar homomorphisms."""

    __slots__ = _fields = ("left", "base", "right", "left_map", "right_map")

    def __init__(self, left: HaarGroupoid, base: HaarGroupoid, right: HaarGroupoid, left_map: GroupoidHom, right_map: GroupoidHom):
        self._set(left, base, right, left_map, right_map)


def validate_cospan(c: Cospan) -> ValidationReport:
    reports = [
        validate_haar_groupoid(c.left),
        validate_haar_groupoid(c.base),
        validate_haar_groupoid(c.right),
    ]
    names = ("left", "base", "right")
    bad: list[Violation] = []
    for name, rep in zip(names, reports):
        for v in rep.violations:
            bad.append(Violation(f"{name}.{v.rule}", v.witnesses, v.detail))
    if not bad:
        for name, hom, leg in (("left_map", c.left_map, c.left), ("right_map", c.right_map, c.right)):
            for v in validate_haar_hom(hom, leg, c.base).violations:
                bad.append(Violation(f"{name}.{v.rule}", v.witnesses, v.detail))
    return ValidationReport(tuple(bad))


def triple_id(s: str, g: str, t: str) -> str:
    return f"{s}|{g}|{t}"


class PullbackGroupoid(Record):
    """The algebraic (measure-free) weak pullback of a cospan of groupoids."""

    __slots__ = _fields = ("groupoid", "triples", "proj_left", "proj_right")

    def __init__(
        self, groupoid: FiniteGroupoid, triples: dict[str, tuple[str, str, str]], proj_left: GroupoidHom, proj_right: GroupoidHom
    ):
        self._set(groupoid, triples, proj_left, proj_right)


def weak_pullback_groupoid(
    s_g: FiniteGroupoid, base: FiniteGroupoid, t_g: FiniteGroupoid, p: Mapping[str, str], q: Mapping[str, str]
) -> PullbackGroupoid:
    """Enumerate the triples and build the structure tables from the legs'
    tables.

    The triples are the (s, g, t) with g in the base fiber over r(p(s)) and
    r(q(t)) = d(g); taken s by s, g by g and t by t, each in canonical order.
    Composition pairs (s,g,t)·(σ,h,τ) = (sσ, g, tτ) exactly when
    d(s) = r(σ), d(t) = r(τ) and h = p(s)^{-1} g q(t); the inverse is
    (s^{-1}, p(s)^{-1} g q(t), t^{-1}). So the positional row of (s, g, t)
    runs over S^{d(s)} x {h} x T^{d(t)} in (σ, τ) order, which is canonical
    unless an id is a prefix of another (the rows are then reordered). Each
    row is read in C from one tuple per (s, g): the ids (sσ, g, t′) for σ
    over S^{d(s)} and the m elements t′ of T above d(g), picked at i·m + j
    for the i-th σ and the place j of each tτ among those t′. On maps that
    are not homomorphisms an entry or a row can name a product that is no
    triple, as a tτ above another base unit than t does, or a row can
    differ in length from its source's r-fiber: either raises
    MalformedInput naming the triple, and no row is cut short.
    """
    b_r, b_d, b_inv, b_rows, b_pos = base.range_map, base.source_map, base.inverse_map, base.rows, base.position
    s_r, s_d, s_inv, s_rows = s_g.range_map, s_g.source_map, s_g.inverse_map, s_g.rows
    t_r, t_d, t_inv, t_rows = t_g.range_map, t_g.source_map, t_g.inverse_map, t_g.rows
    range_map: dict[str, str] = {}
    source_map: dict[str, str] = {}
    inverse_map: dict[str, str] = {}
    units: list[str] = []
    rows: dict[str, tuple[str, ...]] = {}
    pid, table = None, "triples"
    try:
        t_over: dict[str, list[str]] = {}
        for t in t_g.elements:
            t_over.setdefault(b_r[q[t]], []).append(t)
        # name[g][s][t] is the id of the triple (s, g, t); the groups (s, g, name[g][s]) in canonical order
        name: dict[str, dict[str, dict[str, str]]] = {}
        groups: list[tuple[str, str, dict[str, str]]] = []
        triples: list[tuple[str, str, str]] = []
        ids: list[str] = []
        for s in s_g.elements:
            for g in base.fiber(b_r[p[s]]):
                ts = t_over.get(b_d[g])
                if ts:
                    prefix = triple_id(s, g, "")
                    row = name.setdefault(g, {})[s] = {t: prefix + t for t in ts}
                    groups.append((s, g, row))
                    triples += [(s, g, t) for t in ts]
                    ids += row.values()
        if len(set(ids)) != len(ids):
            raise MalformedInput("component ids collide under the s|g|t encoding")
        by_id = dict(zip(ids, triples))

        # each group's shared lookups are named after its first triple
        table = "structure entries"
        for s, g, by_t in groups:
            pid = next(iter(by_t.values()))
            conj = b_rows[b_rows[b_inv[p[s]]][b_pos[g]]]  # the row of p(s)^{-1} g
            to_range, s_unit = name[g][s_r[s]], s in s_g.unit_set
            for t, pid in by_t.items():
                z = conj[b_pos[q[t]]]  # p(s)^{-1} g q(t)
                range_map[pid] = to_range[t_r[t]]
                source_map[pid] = name[z][s_d[s]][t_d[t]]
                inverse_map[pid] = name[z][s_inv[s]][t_inv[t]]
                if s_unit and t in t_g.unit_set:
                    units.append(pid)

        table = "row"
        width = Counter(range_map.values())  # the size of each r-fiber
        # index[u][t] is t's place among the right leg's elements over u
        index = {u: {t: i for i, t in enumerate(ts)} for u, ts in t_over.items()}
        # the slots of the row of (s, g, t) in the ids (sσ, g, ·) of its group, by (t, |S^{d(s)}|)
        slots: dict[tuple[str, int], Callable[[tuple], tuple]] = {}
        for s, g, by_t in groups:
            pid = next(iter(by_t.values()))
            flat = tuple(chain.from_iterable(map(dict.values, map(name[g].__getitem__, s_rows[s]))))
            n = len(s_rows[s])
            for t, pid in by_t.items():
                if (pick := slots.get((t, n))) is None:
                    at, m = index[b_d[g]], len(by_t)
                    pick = slots[t, n] = picker([i + j for i in range(0, n * m, m) for j in map(at.__getitem__, t_rows[t])])
                rows[pid] = row = pick(flat)
                if len(row) != width[source_map[pid]]:
                    raise ValueError(f"{len(row)} products for an r-fiber of {width[source_map[pid]]}")
    except (LookupError, ValueError) as e:
        at = "the triples" if pid is None else f"the {table} of triple {pid!r}"
        raise MalformedInput(f"leg maps are not homomorphisms: {at} cannot be built ({type(e).__name__}: {e})") from None
    if ids != sorted(ids):
        by_range: dict[str, list[str]] = {}
        for pid in ids:
            by_range.setdefault(range_map[pid], []).append(pid)
        order = {u: picker(sorted(range(len(keys)), key=keys.__getitem__)) for u, keys in by_range.items()}
        rows = {pid: order[source_map[pid]](row) for pid, row in rows.items()}
    pg = FiniteGroupoid(ids, units, range_map, source_map, inverse_map, rows=rows)
    proj_left = GroupoidHom(pg, s_g, {pid: tr[0] for pid, tr in by_id.items()})
    proj_right = GroupoidHom(pg, t_g, {pid: tr[2] for pid, tr in by_id.items()})
    return PullbackGroupoid(pg, by_id, proj_left, proj_right)


# the boundedness side conditions of the general theory: automatic on finite
# sets, recorded so that reports can say so explicitly
_ASSUMPTIONS = (
    "disintegrations are bounded (finite fibers)",
    "the base modular function is bounded (finite support)",
)


class WeakPullbackResult(FrozenRecord):
    """The measured weak pullback: groupoid, projections, Haar system,
    disintegrations, the system eta over the base arrow of each unit, the
    unit measure and the side conditions it assumes. Its induced measure and
    modular function are those of `haar_groupoid`, which is built on first
    read and kept in the slot `_haar_groupoid`, as in `HaarGroupoid`."""

    _fields = ("cospan", "algebraic", "haar", "disint_left", "disint_right", "eta", "unit_measure", "assumptions")
    __slots__ = (*_fields, "_haar_groupoid")

    def __init__(
        self, cospan: Cospan, algebraic: PullbackGroupoid, haar: MeasureSystem, disint_left: MeasureSystem,
        disint_right: MeasureSystem, eta: MeasureSystem, unit_measure: FiniteMeasure, assumptions: tuple[str, ...] = _ASSUMPTIONS,
    ):
        self._set(cospan, algebraic, haar, disint_left, disint_right, eta, unit_measure, assumptions, None)

    @property
    def groupoid(self) -> FiniteGroupoid:
        return self.algebraic.groupoid

    @property
    def proj_left(self) -> GroupoidHom:
        return self.algebraic.proj_left

    @property
    def proj_right(self) -> GroupoidHom:
        return self.algebraic.proj_right

    @property
    def haar_groupoid(self) -> HaarGroupoid:
        if self._haar_groupoid is None:
            object.__setattr__(self, "_haar_groupoid", HaarGroupoid(self.algebraic.groupoid, self.haar, self.unit_measure))
        return self._haar_groupoid


def _pullback_haar_system(alg: PullbackGroupoid, c: Cospan) -> MeasureSystem:
    """lam_P^{(s,g,t)}(σ,g,τ) = lam_S^s(σ) · lam_T^t(τ): products of the
    legs' numerators over the product of their denominators."""
    pg = alg.groupoid
    lam_s, lam_t = c.left.haar, c.right.haar
    nums: dict[str, dict[str, int]] = {}
    for u in pg.units:
        s, _, t = alg.triples[u]
        lam_s_s, lam_t_t = lam_s.nums.get(s, {}), lam_t.nums.get(t, {})
        ws = nums[u] = {}
        for pid in pg.fiber(u):
            sigma, _, tau = alg.triples[pid]
            ws[pid] = lam_s_s.get(sigma, 0) * lam_t_t.get(tau, 0)
    return MeasureSystem(pg.range_map, pg.elements, pg.units, nums, lam_s.den * lam_t.den)


def _eta_system(alg: PullbackGroupoid, c: Cospan, gamma_p: MeasureSystem, gamma_q: MeasureSystem) -> MeasureSystem:
    """eta^x(s,g,t) = gamma_p^{r(x)}(s) [g = x] gamma_q^{d(x)}(t), a system on
    the map sending a pullback unit to its mediating base arrow."""
    pg = alg.groupoid
    base = c.base.groupoid
    over = {u: alg.triples[u][1] for u in pg.units}
    by_arrow: dict[str, list[str]] = {}
    for u in pg.units:
        by_arrow.setdefault(over[u], []).append(u)
    nums: dict[str, dict[str, int]] = {}
    for x in base.elements:
        gamma_p_r, gamma_q_d = gamma_p.nums.get(base.r(x), {}), gamma_q.nums.get(base.d(x), {})
        ws = nums[x] = {}
        for u in by_arrow.get(x, ()):
            s, _, t = alg.triples[u]
            ws[u] = gamma_p_r.get(s, 0) * gamma_q_d.get(t, 0)
    return MeasureSystem(over, pg.units, base.elements, nums, gamma_p.den * gamma_q.den)


def _leg_unit_data(c: Cospan) -> tuple[tuple[str, dict[str, str], FiniteMeasure], ...]:
    """(label, unit map, unit measure) of the left leg, then of the right."""
    return tuple(
        (label, {u: hom.mapping[u] for u in leg.groupoid.units}, leg.unit_measure)
        for label, leg, hom in (("left", c.left, c.left_map), ("right", c.right, c.right_map))
    )


def _unit_measure(
    alg: PullbackGroupoid, c: Cospan, gamma_p: MeasureSystem, gamma_q: MeasureSystem
) -> tuple[MeasureSystem, FiniteMeasure]:
    """eta from the disintegrations gamma_p, gamma_q of the legs' unit
    measures, and mu_P0 = eta composed with the base induced measure."""
    eta = _eta_system(alg, c, gamma_p, gamma_q)
    return eta, compose_with_measure(eta, c.base.induced)


def build_weak_pullback(c: Cospan, validate: bool = True) -> WeakPullbackResult:
    """Construct the measured weak pullback of a valid cospan."""
    if validate:
        report = validate_cospan(c)
        if not report.ok:
            raise InvalidCospan("cospan failed validation:\n" + report.summary(), report=report)
    alg = weak_pullback_groupoid(
        c.left.groupoid, c.base.groupoid, c.right.groupoid, c.left_map.mapping, c.right_map.mapping
    )
    lam_p = _pullback_haar_system(alg, c)
    gamma_p, gamma_q = (disintegrate(f, mu, c.base.unit_measure) for _, f, mu in _leg_unit_data(c))
    eta, mu_p0 = _unit_measure(alg, c, gamma_p, gamma_q)
    return WeakPullbackResult(
        cospan=c,
        algebraic=alg,
        haar=lam_p,
        disint_left=gamma_p,
        disint_right=gamma_q,
        eta=eta,
        unit_measure=mu_p0,
    )


def check_fiber_product_lemma(w: WeakPullbackResult) -> ValidationReport:
    """Every r-fiber of the pullback is S^s x {g} x T^t; a violation names
    the unit (s, g, t) and the first element in just one of the two."""
    pg = w.groupoid
    s_g = w.cospan.left.groupoid
    t_g = w.cospan.right.groupoid
    bad: list[Violation] = []
    for u in pg.units:
        s, g, t = w.algebraic.triples[u]
        expected = {
            triple_id(sigma, g, tau) for sigma in s_g.fiber(s) for tau in t_g.fiber(t)
        }
        odd = sorted(expected.symmetric_difference(pg.fiber(u)))
        if odd:
            detail = f"r-fiber and S^{s} x {{{g}}} x T^{t} differ at {odd[0]}"
            bad.append(Violation("fiber-product", (u, odd[0]), detail))
    return ValidationReport(tuple(bad))


def check_haar_theorem(w: WeakPullbackResult) -> ValidationReport:
    """lam_P is a Haar system: the report of `is_haar`, with its work counts."""
    return is_haar(w.groupoid, w.haar)


def check_quasi_invariance_and_modular(
    w: WeakPullbackResult, strict: bool = False
) -> tuple[ValidationReport, ValidationReport]:
    """Two reports: quasi-invariance of the pullback unit measure (without it
    Delta_P is undefined, and both reports are this one), then the modular
    identity Delta_P(σ,x,τ) · Delta_G(q(τ)) = Delta_S(σ) · Delta_T(τ) on every
    support triple whose constituents are all on-support. The others are
    skipped (violations under `strict`), and both kinds are counted.

    Each Delta is mu(x)/mu(x^{-1}) for one induced measure, whose
    denominator cancels, so the identity is checked as one integer equation
    in the numerators of the four induced measures at x and at x^{-1}."""
    h_p = w.haar_groupoid
    quasi = is_quasi_invariant(h_p)
    if not quasi.ok:
        return quasi, quasi
    c = w.cospan
    # reading a leg's or the base's Delta raises NotQuasiInvariant when its
    # measure is not quasi-invariant; the keys are where each Delta is defined
    delta_s = c.left.modular
    delta_t = c.right.modular
    delta_g = c.base.modular
    mu_p, mu_s, mu_t, mu_g = (h.induced.nums for h in (h_p, c.left, c.right, c.base))
    inv_p, inv_s, inv_t, inv_g = (h.groupoid.inverse_map for h in (h_p, c.left, c.right, c.base))
    q = c.right_map.mapping
    checked = skipped = 0
    bad: list[Violation] = []
    for pid in sorted(mu_p):
        sigma, _, tau = w.algebraic.triples[pid]
        x = q[tau]
        if not (sigma in delta_s and tau in delta_t and x in delta_g):
            skipped += 1
            if strict:
                bad.append(Violation("modular-off-support", (pid,), f"a leg or base Delta is undefined at {pid}"))
            continue
        checked += 1
        lhs = mu_p[pid] * mu_g[x] * mu_s[inv_s[sigma]] * mu_t[inv_t[tau]]
        rhs = mu_s[sigma] * mu_t[tau] * mu_p[inv_p[pid]] * mu_g[inv_g[x]]
        if lhs != rhs:
            lhs, rhs = h_p.modular[pid] * delta_g[x], delta_s[sigma] * delta_t[tau]
            bad.append(Violation("modular-formula", (pid,), f"Delta_P·Delta_G = {lhs} != Delta_S·Delta_T = {rhs}"))
    return quasi, ValidationReport(tuple(bad), (("checked", checked), ("skipped", skipped)))


def check_projection_homs(w: WeakPullbackResult) -> ValidationReport:
    """Both projections are homomorphisms of Haar groupoids; carries the
    work counts of each, prefixed with its name."""
    h_p = w.haar_groupoid
    bad: list[Violation] = []
    counts: list[tuple[str, int]] = []
    for name, proj, leg in (("proj_left", w.proj_left, w.cospan.left), ("proj_right", w.proj_right, w.cospan.right)):
        report = validate_haar_hom(proj, h_p, leg)
        bad += [Violation(f"{name}.{v.rule}", v.witnesses, v.detail) for v in report.violations]
        counts += [(f"{name} {what}", n) for what, n in report.counts]
    return ValidationReport(tuple(bad), tuple(counts))


def check_commuting_diamond(w: WeakPullbackResult) -> ValidationReport:
    """Through the orbit space of the base the two composite maps agree; a
    violation names the pullback element whose legs reach different orbits."""
    base = w.cospan.base.groupoid
    part = orbits(base)
    p = w.cospan.left_map.mapping
    q = w.cospan.right_map.mapping
    bad: list[Violation] = []
    for pid in w.groupoid.elements:
        s, _, t = w.algebraic.triples[pid]
        left, right = base.r(p[s]), base.r(q[t])
        if part.index[left] != part.index[right]:
            bad.append(Violation("orbit-diamond", (pid,), f"r(p({s})) = {left} and r(q({t})) = {right} differ in orbit"))
    return ValidationReport(tuple(bad))


def _verified_disintegration(
    system: MeasureSystem, f: Mapping[str, str], mu: FiniteMeasure, nu: FiniteMeasure, label: str
) -> MeasureSystem:
    if system.over != dict(f):
        raise NotADisintegration(f"{label}: system is over the wrong map")
    if not validate_system(system).ok:
        raise NotADisintegration(f"{label}: system is not concentrated on fibers")
    if compose_with_measure(system, nu) != mu:
        raise NotADisintegration(f"{label}: reconstruction identity fails")
    return system


def check_disintegration_independence(
    w: WeakPullbackResult, alt_left: MeasureSystem, alt_right: MeasureSystem
) -> ValidationReport:
    """The pullback unit measure does not depend on the disintegrations used;
    a violation names a unit whose weight moves. Alternates must disintegrate
    the same measures (else NotADisintegration): the only freedom is on null
    fibers, where the null weights wash it out."""
    c = w.cospan
    gamma_p, gamma_q = (
        _verified_disintegration(alt, f, mu, c.base.unit_measure, label)
        for alt, (label, f, mu) in zip((alt_left, alt_right), _leg_unit_data(c))
    )
    _, mu_alt = _unit_measure(w.algebraic, c, gamma_p, gamma_q)
    mu = w.unit_measure
    bad = [
        Violation("disintegration-independence", (u,), f"mu_P0({u}) = {mu(u)}, alternates give {mu_alt(u)}")
        for u in w.groupoid.units
        if mu_alt.nums.get(u, 0) * mu.den != mu.nums.get(u, 0) * mu_alt.den
    ]
    return ValidationReport(tuple(bad))


def _leg_sums(gamma: MeasureSystem, leg: HaarGroupoid) -> tuple[Callable[[str, str], int], int]:
    """(v, σ) -> sum over the leg's units s of gamma^v(s) · lam^s(σ), as a
    numerator over the returned denominator gamma.den · lam.den. Each sum
    is taken from the two systems, over the units that gamma^v charges, and
    each pair is summed once; `cache_info().currsize` of the function counts
    the distinct sums."""
    gamma_nums, lam_nums = gamma.nums, leg.haar.nums

    @cache
    def leg_sum(v: str, sigma: str) -> int:
        total = 0
        for s, n in gamma_nums.get(v, {}).items():
            total += n * lam_nums.get(s, {}).get(sigma, 0)
        return total

    return leg_sum, gamma.den * leg.haar.den


def check_triple_integral_lemma(w: WeakPullbackResult) -> ValidationReport:
    """Exchanging the base integral with the leg double integral is exact for
    every base unit u and every singleton indicator (y0, σ0), on both legs; a
    violation names the indicator as (u, y0, σ0).

    With A(v, σ0) = sum_s lam^s(σ0) · gamma^v(s) over the leg units, the base
    arrow innermost gives lam_G^{r(p(σ0))}(y0) · A(u, σ0) and outermost gives
    A(r(y0), σ0) · lam_G^u(y0). Each A is summed once per (v, σ0); every
    comparison still runs, and the counts give the distinct sums per leg.
    Both sides are numerators over the same denominator, the base system's
    times that of A, so they are compared as integers."""
    c = w.cospan
    base = c.base
    base_g = base.groupoid
    lam_base = base.haar.nums
    bad: list[Violation] = []
    counts: list[tuple[str, int]] = []
    for name, leg, leg_map, gamma in (
        ("left", c.left, c.left_map.mapping, w.disint_left),
        ("right", c.right, c.right_map.mapping, w.disint_right),
    ):
        leg_sum, leg_den = _leg_sums(gamma, leg)
        den = base.haar.den * leg_den
        # pairs (y0, σ0) of a base arrow and a leg arrow with r(y0) = p(r(σ0)),
        # each with lam_G^{r(p(σ0))}(y0)
        pairs = []
        for sigma in leg.groupoid.elements:
            v = base_g.r(leg_map[sigma])
            lam_v = lam_base.get(v, {})
            pairs += [(y, sigma, lam_v.get(y, 0)) for y in base_g.fiber(v)]
        for u in base_g.units:
            lam_u = lam_base.get(u, {})
            for y0, sigma0, inner in pairs:
                lhs = inner * leg_sum(u, sigma0)
                rhs = leg_sum(base_g.r(y0), sigma0) * lam_u.get(y0, 0)
                if lhs != rhs:
                    detail = f"{name} leg: {Fraction(lhs, den)} != {Fraction(rhs, den)}"
                    bad.append(Violation("triple-integral", (u, y0, sigma0), detail))
        counts.append((f"{name} leg sums", leg_sum.cache_info().currsize))
    return ValidationReport(tuple(bad), tuple(counts))


def check_expanding_lemma(w: WeakPullbackResult) -> ValidationReport:
    """The induced measure of the pullback equals the six-fold iterated sum
    over (unit, base arrow, leg units, leg arrows), singleton by singleton; a
    violation names the pullback element.

    At (σ0, x0, τ0) the sum factors as B(x0) · L(r(x0), σ0) · R(d(x0), τ0),
    with B(x0) = sum_u mu_G0(u) · lam_G^u(x0) and L, R the leg sums
    sum_s gamma^v(s) · lam^s(σ). Each factor is summed from the systems,
    never from mu_P, once per key; the counts give the distinct sums. Every
    factor is a numerator over its own denominator, and the two sides are
    compared by cross-multiplication."""
    c = w.cospan
    base = c.base.groupoid
    lam_g = c.base.haar.nums
    mu_g0 = c.base.unit_measure
    left, left_den = _leg_sums(w.disint_left, c.left)
    right, right_den = _leg_sums(w.disint_right, c.right)
    rhs_den = mu_g0.den * c.base.haar.den * left_den * right_den

    @cache
    def base_sum(x0: str) -> int:
        total = 0
        for u, n in mu_g0.nums.items():
            total += n * lam_g.get(u, {}).get(x0, 0)
        return total

    mu_p = w.haar_groupoid.induced
    lhs_nums, lhs_den = mu_p.nums, mu_p.den
    bad: list[Violation] = []
    for pid in w.groupoid.elements:
        sigma0, x0, tau0 = w.algebraic.triples[pid]
        rhs = base_sum(x0) * left(base.r(x0), sigma0) * right(base.d(x0), tau0)
        if lhs_nums.get(pid, 0) * rhs_den != rhs * lhs_den:
            detail = f"mu_P({pid}) = {mu_p(pid)} != six-fold sum {Fraction(rhs, rhs_den)}"
            bad.append(Violation("expanding-integral", (pid,), detail))
    counts = (
        ("base sums", base_sum.cache_info().currsize),
        ("left leg sums", left.cache_info().currsize),
        ("right leg sums", right.cache_info().currsize),
    )
    return ValidationReport(tuple(bad), counts)
