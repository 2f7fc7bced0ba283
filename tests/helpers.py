"""Shared builders and literal-sum oracles used across the test modules.

The oracles deliberately brute-force the stated nested sums with no
concentration shortcuts, so they stay independent of the library's paths.
The regular pullback and its comparison map are a second pullback
construction, kept here as the oracle for cotrivial bases, and
`literal_weak_pullback_groupoid` is the weak pullback built entry by entry
through the groupoid methods, the oracle of the library's row-by-row
builder. The `fraction_`
oracles are the measure layer's bodies in `fractions.Fraction` arithmetic,
the oracles of its integer numerators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from typing import Mapping

from measured_groupoids import (
    BaseMismatch,
    Cospan,
    FiniteGroupoid,
    FiniteMeasure,
    GenerationExhausted,
    MalformedInput,
    NotADisintegration,
    NotMeasureClassPreserving,
    NotQuasiInvariant,
    cotrivial_groupoid,
    cyclic_group,
    disjoint_union,
    pair_groupoid,
    trivial_group,
    validate_cospan,
    with_counting_haar,
)
from measured_groupoids.families import _join
from measured_groupoids.generate import (
    DEFAULT_BOUNDS,
    _measured_leg,
    _random_component,
    _rng,
    attach_random_haar,
)
from measured_groupoids.groupoid import (
    GroupoidHom,
    ValidationReport,
    Violation,
    check_ids,
    check_map,
    check_references,
    identity_hom,
)
from measured_groupoids.haar import HaarGroupoid, counting_haar_system
from measured_groupoids.measures import MeasureSystem, validate_system
from measured_groupoids.pullback import PullbackGroupoid, WeakPullbackResult, triple_id

F = Fraction
ZERO = F(0)


def replace(obj, **changes):
    """A copy of the record `obj` with the named fields changed, built
    through its constructor, as `dataclasses.replace` builds one: what the
    record derives and keeps is derived afresh."""
    return type(obj)(**{**dict(zip(obj._fields, obj._values())), **changes})


def pairs_of(g: FiniteGroupoid) -> dict[tuple[str, str], str]:
    """g's product table as a dict of pairs (x, y) -> xy, read once: the
    oracles index this dict, never the groupoid's rows."""
    return {(x, y): z for x, y, z in g.products()}


def triples_of(pairs: Mapping[tuple[str, str], str]) -> list[tuple[str, str, str]]:
    """The entries (x, y, xy) of a table keyed by pairs (x, y), in the
    table's order: the form in which the oracles' tables enter a
    FiniteGroupoid, through its one conversion of pairs into rows."""
    return [(x, y, z) for (x, y), z in pairs.items()]


def manual_pair_groupoid() -> FiniteGroupoid:
    """The pair groupoid on {1, 2} written out table by table."""
    compose = {}
    for i in "12":
        for j in "12":
            for k in "12":
                compose[(f"{i}-{j}", f"{j}-{k}")] = f"{i}-{k}"
    return FiniteGroupoid(
        ["1-1", "1-2", "2-1", "2-2"],
        ["1-1", "2-2"],
        {"1-1": "1-1", "1-2": "1-1", "2-1": "2-2", "2-2": "2-2"},
        {"1-1": "1-1", "1-2": "2-2", "2-1": "1-1", "2-2": "2-2"},
        {"1-1": "1-1", "1-2": "2-1", "2-1": "1-2", "2-2": "2-2"},
        triples_of(compose),
    )


def z2_cospan() -> Cospan:
    z2 = cyclic_group(2)
    h = with_counting_haar(z2)
    return Cospan(h, h, h, identity_hom(z2), identity_hom(z2))


def pair_trivial_cospan(mu_left=(1, 2), mu_right=(1, 3)) -> Cospan:
    """S = T = pair groupoid on {1, 2} with the given unit weights, base the
    trivial group, both legs collapsing."""
    s = pair_groupoid(["1", "2"])
    t = pair_groupoid(["1", "2"])
    g = trivial_group()
    s_h = HaarGroupoid(s, counting_haar_system(s), FiniteMeasure(s.units, {"1-1": mu_left[0], "2-2": mu_left[1]}))
    t_h = HaarGroupoid(t, counting_haar_system(t), FiniteMeasure(t.units, {"1-1": mu_right[0], "2-2": mu_right[1]}))
    g_h = with_counting_haar(g)
    p = GroupoidHom(s, g, {x: "e" for x in s.elements})
    q = GroupoidHom(t, g, {x: "e" for x in t.elements})
    return Cospan(s_h, g_h, t_h, p, q)


def literal_triple_integral_sides(leg, base, leg_map, gamma, u, y0, sigma0):
    """Both sides of the integral-exchange identity for the indicator of
    (y0, sigma0), as fully nested sums over everything."""
    leg_g = leg.groupoid
    base_g = base.groupoid
    lam_leg = leg.haar
    lam_base = base.haar
    lhs = ZERO
    for s in leg_g.units:
        for sigma in leg_g.elements:
            for y in base_g.elements:
                if (y, sigma) != (y0, sigma0):
                    continue
                lhs += (
                    lam_base.weight(base_g.r(leg_map[sigma]), y)
                    * lam_leg.weight(s, sigma)
                    * gamma.weight(u, s)
                )
    rhs = ZERO
    for y in base_g.elements:
        for s in leg_g.units:
            for sigma in leg_g.elements:
                if (y, sigma) != (y0, sigma0):
                    continue
                rhs += (
                    lam_leg.weight(s, sigma)
                    * gamma.weight(base_g.r(y), s)
                    * lam_base.weight(u, y)
                )
    return lhs, rhs


def literal_expanding_rhs(w, target_triple):
    """The six-fold nested sum for the indicator of one pullback element,
    looping over every unit/arrow combination with no shortcuts."""
    c = w.cospan
    base = c.base.groupoid
    s_g = c.left.groupoid
    t_g = c.right.groupoid
    lam_s = c.left.haar
    lam_t = c.right.haar
    lam_g = c.base.haar
    mu_g0 = c.base.unit_measure
    gamma_p = w.disint_left
    gamma_q = w.disint_right
    total = ZERO
    for u in base.units:
        for y in base.elements:
            for s in s_g.units:
                for sigma in s_g.elements:
                    for t in t_g.units:
                        for tau in t_g.elements:
                            if (sigma, y, tau) != target_triple:
                                continue
                            total += (
                                lam_t.weight(t, tau)
                                * gamma_q.weight(base.d(y), t)
                                * lam_s.weight(s, sigma)
                                * gamma_p.weight(base.r(y), s)
                                * lam_g.weight(u, y)
                                * mu_g0(u)
                            )
    return total


def literal_triple_integral_report(w):
    """check_triple_integral_lemma's comparisons, in its order and with its
    violation text, each side summed by literal_triple_integral_sides."""
    c = w.cospan
    base_g = c.base.groupoid
    bad = []
    for name, leg, leg_map, gamma in (
        ("left", c.left, c.left_map.mapping, w.disint_left),
        ("right", c.right, c.right_map.mapping, w.disint_right),
    ):
        pairs = [(y, sigma) for sigma in leg.groupoid.elements for y in base_g.fiber(base_g.r(leg_map[sigma]))]
        for u in base_g.units:
            for y0, sigma0 in pairs:
                lhs, rhs = literal_triple_integral_sides(leg, c.base, leg_map, gamma, u, y0, sigma0)
                if lhs != rhs:
                    bad.append(Violation("triple-integral", (u, y0, sigma0), f"{name} leg: {lhs} != {rhs}"))
    return ValidationReport(tuple(bad))


def unmemoised_expanding_report(w):
    """check_expanding_lemma with every leg sum and base sum recomputed for
    each pullback element: its violations, in its order and text."""
    c = w.cospan
    base = c.base.groupoid
    s_g = c.left.groupoid
    t_g = c.right.groupoid
    lam_s = c.left.haar
    lam_t = c.right.haar
    lam_g = c.base.haar
    mu_g0 = c.base.unit_measure
    gamma_p = w.disint_left
    gamma_q = w.disint_right
    mu_p = w.haar_groupoid.induced
    bad = []
    for pid in w.groupoid.elements:
        sigma0, x0, tau0 = w.algebraic.triples[pid]
        lhs = mu_p(pid)
        left_sum = ZERO
        for s in s_g.units:
            left_sum += gamma_p.weight(base.r(x0), s) * lam_s.weight(s, sigma0)
        right_sum = ZERO
        for t in t_g.units:
            right_sum += gamma_q.weight(base.d(x0), t) * lam_t.weight(t, tau0)
        rhs = ZERO
        for u in base.units:
            rhs += mu_g0(u) * lam_g.weight(u, x0) * left_sum * right_sum
        if lhs != rhs:
            bad.append(Violation("expanding-integral", (pid,), f"mu_P({pid}) = {lhs} != six-fold sum {rhs}"))
    return ValidationReport(tuple(bad))


def literal_product_haar_weight(c, unit, element):
    """lam_S^s x delta_g x lam_T^t at one pullback element, for the pullback
    unit (s, g, t): a double sum over every pair of leg elements."""
    s, g, t = unit
    lam_s = c.left.haar
    lam_t = c.right.haar
    total = ZERO
    for sigma in c.left.groupoid.elements:
        for tau in c.right.groupoid.elements:
            if (sigma, g, tau) != element:
                continue
            total += lam_s.weight(s, sigma) * lam_t.weight(t, tau)
    return total


def literal_lifted_eta_weight(w, x, unit):
    """gamma_p x gamma_q lifted along the base arrow x -> (r(x), d(x)), at one
    pullback unit: a double sum over every pair of leg units, restricted to
    the corner of the lift, {(s, t) : p(s) = r(x) and q(t) = d(x)}."""
    c = w.cospan
    base = c.base.groupoid
    p = c.left_map.mapping
    q = c.right_map.mapping
    total = ZERO
    for s in c.left.groupoid.units:
        for t in c.right.groupoid.units:
            if (s, x, t) != unit or (p[s], q[t]) != (base.r(x), base.d(x)):
                continue
            total += w.disint_left.weight(base.r(x), s) * w.disint_right.weight(base.d(x), t)
    return total


def literal_orbit_label(g, u):
    """The least unit joined to u by an arrow. In a groupoid the orbit of u
    is the set of sources of the arrows that end at u."""
    return min(g.d(y) for y in g.elements if g.r(y) == u)


def literal_orbits_through(w, leg_map, proj):
    """x -> base orbit of r(leg(proj(x))) for every pullback element, with the
    two homomorphisms composed table by table."""
    base = w.cospan.base.groupoid
    return {x: literal_orbit_label(base, base.r(leg_map[proj[x]])) for x in w.groupoid.elements}


def literal_groupoid_report(g: FiniteGroupoid) -> ValidationReport:
    """The groupoid axioms by exhaustive enumeration: every pair of elements
    for the compose domain and every composable triple for associativity.
    The oracle for validate_groupoid, which must return these same violations."""
    check_references(g)
    bad: list[Violation] = []

    for x in g.elements:
        if g.range_map[x] not in g.unit_set:
            bad.append(Violation("range-into-units", (x,), f"r({x}) = {g.range_map[x]} is not a unit"))
        if g.source_map[x] not in g.unit_set:
            bad.append(Violation("source-into-units", (x,), f"d({x}) = {g.source_map[x]} is not a unit"))

    for u in g.units:
        if g.range_map[u] != u or g.source_map[u] != u:
            bad.append(Violation("unit-fixed", (u,), f"r({u}) = {g.range_map[u]}, d({u}) = {g.source_map[u]}, expected both {u}"))

    # compose defined exactly on composable pairs, with correct range/source
    pairs = pairs_of(g)
    for x in g.elements:
        for y in g.elements:
            if g.source_map[x] == g.range_map[y]:
                if (x, y) not in pairs:
                    bad.append(Violation("compose-total", (x, y), "composable pair has no product"))
            elif (x, y) in pairs:
                bad.append(Violation("compose-domain", (x, y), "product defined on a non-composable pair"))
    for (x, y), z in sorted(pairs.items()):
        if g.source_map[x] != g.range_map[y]:
            continue
        if g.range_map[z] != g.range_map[x]:
            bad.append(Violation("range-of-product", (x, y, z), f"r({x}{y}) = {g.range_map[z]} != r({x})"))
        if g.source_map[z] != g.source_map[y]:
            bad.append(Violation("source-of-product", (x, y, z), f"d({x}{y}) = {g.source_map[z]} != d({y})"))

    # associativity on all composable triples
    for (x, y), xy in sorted(pairs.items()):
        if g.source_map[x] != g.range_map[y]:
            continue
        for z in g.fiber(g.source_map[y]):
            lhs = pairs.get((xy, z))
            yz = pairs.get((y, z))
            rhs = pairs.get((x, yz)) if yz is not None else None
            if lhs is None or rhs is None or lhs != rhs:
                bad.append(Violation("associativity", (x, y, z), f"({x}{y}){z} = {lhs}, {x}({y}{z}) = {rhs}"))

    for x in g.elements:
        if pairs.get((x, g.source_map[x])) != x:
            bad.append(Violation("right-unit-law", (x,), f"{x}·d({x}) != {x}"))
        if pairs.get((g.range_map[x], x)) != x:
            bad.append(Violation("left-unit-law", (x,), f"r({x})·{x} != {x}"))

    for x in g.elements:
        xi = g.inverse_map[x]
        if g.inverse_map.get(xi) != x:
            bad.append(Violation("inverse-involution", (x,), f"inverse(inverse({x})) = {g.inverse_map.get(xi)}"))
        if g.range_map[xi] != g.source_map[x] or g.source_map[xi] != g.range_map[x]:
            bad.append(Violation("inverse-swaps-ends", (x,), f"r/d of inverse({x}) do not swap r/d of {x}"))
            continue
        if pairs.get((x, xi)) != g.range_map[x]:
            bad.append(Violation("inverse-law", (x,), f"{x}·{x}⁻¹ != r({x})"))
        if pairs.get((xi, x)) != g.source_map[x]:
            bad.append(Violation("inverse-law", (x,), f"{x}⁻¹·{x} != d({x})"))

    return ValidationReport(tuple(bad))


def literal_haar_report(g: FiniteGroupoid, s: MeasureSystem) -> ValidationReport:
    """Full support and left invariance at every element and every y in the
    fiber over its source. The oracle for is_haar, which must return this
    same report."""
    if s.over != g.range_map or frozenset(s.codomain) != g.unit_set:
        raise MalformedInput("system is not over the range map of the groupoid")
    report = validate_system(s, require_full=True)
    bad = list(report.violations)
    # each fiber measure read once, as Fractions
    weights = {u: fraction_weights(m) for u, m in members_of(s).items()}
    for x in g.elements:
        lam_d = weights[g.d(x)]
        lam_r = weights[g.r(x)]
        for y in g.fiber(g.d(x)):
            xy = g.compose(x, y)
            if lam_d.get(y, 0) != lam_r.get(xy, 0):
                bad.append(
                    Violation(
                        "left-invariance",
                        (x, y),
                        f"lam^d(x)({y}) = {lam_d.get(y, 0)} != lam^r(x)({xy}) = {lam_r.get(xy, 0)}",
                    )
                )
    return ValidationReport(tuple(bad))


def literal_hom_report(p: GroupoidHom) -> ValidationReport:
    """Units, ends and inverses at every element, products at every
    composable pair. The oracle for validate_hom, which must return this
    same report."""
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
    dom_pairs, cod_pairs = pairs_of(dom), pairs_of(cod)
    for (x, y), z in sorted(dom_pairs.items()):
        if dom.source_map[x] != dom.range_map[y]:
            continue
        image = cod_pairs.get((f[x], f[y]))
        if image is None:
            bad.append(Violation("hom-preserves-composability", (x, y), f"images {f[x]}, {f[y]} are not composable"))
        elif image != f[z]:
            bad.append(Violation("hom-preserves-product", (x, y), f"p({x})p({y}) = {image} != p({x}{y}) = {f[z]}"))
    return ValidationReport(tuple(bad))


def outcome(check, *args):
    """What a check gives: its report, or the type and text of what it raised."""
    try:
        return check(*args)
    except Exception as e:
        return type(e), str(e)


def verdict(check, *args):
    """`outcome` with a report's work counts left out, which the oracles do
    not carry: a report then equals its oracle's when their violations do."""
    result = outcome(check, *args)
    return ValidationReport(result.violations) if isinstance(result, ValidationReport) else result


def fails_closed(got, want) -> bool:
    """`got` raised MalformedInput naming the key of the KeyError that the
    oracle raised in `want`, both as `outcome` gives them."""
    return isinstance(want, tuple) and want[0] is KeyError and got[0] is MalformedInput and want[1] in got[1]


def generator_counts(g: FiniteGroupoid) -> tuple[tuple[str, int], ...]:
    """The work counts of a check that stops on g's generating set: its
    generators, and the y over d(a) for each generator a."""
    gens = g.generating_set
    return (("generators", len(gens)), ("generator pairs", sum(len(g.fiber(g.d(a))) for a in gens)))


def canonical_generators(g: FiniteGroupoid) -> tuple[str, ...]:
    """The greedy generating set in canonical order alone: each element that
    right products of the earlier picks do not reach, looked up pair by pair."""
    gens: list[str] = []
    reached: set[str] = set()
    by_source: dict[str, list[str]] = {}
    gens_by_range: dict[str, list[str]] = {}
    for a in g.elements:
        if a in reached:
            continue
        gens.append(a)
        gens_by_range.setdefault(g.r(a), []).append(a)
        todo = [a, *(g.compose(w, a) for w in by_source.get(g.r(a), ()))]
        while todo:
            w = todo.pop()
            if w not in reached:
                reached.add(w)
                by_source.setdefault(g.d(w), []).append(w)
                todo += [g.compose(w, b) for b in gens_by_range.get(g.d(w), ())]
    return tuple(gens)


def closure_under_products(g: FiniteGroupoid, gens) -> set[str]:
    """Every product of the elements `gens`, by passes over all the products
    the tables give until a pass adds none."""
    reached = set(gens)
    while True:
        new = {z for x, y, z in g.products() if x in reached and y in reached} - reached
        if not new:
            return reached
        reached |= new


def replace_tables(g, inverse_map=None, compose_map=None):
    """g with its inverse map, or its product table given as pairs, replaced."""
    return FiniteGroupoid(
        g.elements,
        g.units,
        g.range_map,
        g.source_map,
        g.inverse_map if inverse_map is None else inverse_map,
        g.products() if compose_map is None else triples_of(compose_map),
    )


def table_mutants(g, rng):
    """(name, mutant) pairs, each with one table entry broken. A kind of
    mutant that g has no room for (say, no non-composable pair) is left out."""
    pairs = pairs_of(g)
    keys = sorted(pairs)
    ranges = set(g.range_map.values())
    hom: dict[tuple[str, str], list[str]] = {}
    for z in g.elements:
        hom.setdefault((g.r(z), g.d(z)), []).append(z)
    out = []

    swappable = [
        k
        for k in keys
        if g.unit_set.isdisjoint((*k, pairs[k])) and len(hom[(g.r(k[0]), g.d(k[1]))]) > 1
    ]
    if swappable:
        k = rng.choice(swappable)
        z = rng.choice([z for z in hom[(g.r(k[0]), g.d(k[1]))] if z != pairs[k]])
        out.append(("swapped-product", replace_tables(g, compose_map={**pairs, k: z})))

    compose = dict(pairs)
    del compose[rng.choice(keys)]
    out.append(("deleted-entry", replace_tables(g, compose_map=compose)))

    if len(ranges) > 1:
        x = rng.choice(g.elements)
        y = rng.choice([y for y in g.elements if g.r(y) != g.d(x)])
        out.append(("non-composable-entry", replace_tables(g, compose_map={**pairs, (x, y): rng.choice(g.elements)})))

        k = rng.choice(keys)
        z = rng.choice([z for z in g.elements if g.r(z) != g.r(k[0])])
        out.append(("wrong-range", replace_tables(g, compose_map={**pairs, k: z})))

    if len(g) > 1:
        x = rng.choice(g.elements)
        y = rng.choice([y for y in g.elements if y != g.inv(x)])
        out.append(("broken-inverse", replace_tables(g, inverse_map={**g.inverse_map, x: y})))
    return out


def dangling_product(g):
    """g with its last product naming an id that is no element: no
    generating set, so checks on generators run on every element."""
    pairs = pairs_of(g)
    return replace_tables(g, compose_map={**pairs, max(pairs): "ghost"})


def literal_weak_pullback_groupoid(
    s_g: FiniteGroupoid,
    base: FiniteGroupoid,
    t_g: FiniteGroupoid,
    p: Mapping[str, str],
    q: Mapping[str, str],
) -> PullbackGroupoid:
    """Enumerate the triples and build the structure tables.

    Composition pairs (s,g,t)·(σ,h,τ) = (sσ, g, tτ) exactly when
    d(s) = r(σ), d(t) = r(τ) and h = p(s)^{-1} g q(t); the inverse is
    (s^{-1}, p(s)^{-1} g q(t), t^{-1}).
    """
    triples: list[tuple[str, str, str]] = []
    for s in s_g.elements:
        for g in base.fiber(base.r(p[s])):
            for t in t_g.elements:
                if base.r(q[t]) == base.d(g):
                    triples.append((s, g, t))
    triples.sort()
    ids = [triple_id(*tr) for tr in triples]
    if len(set(ids)) != len(ids):
        raise MalformedInput("component ids collide under the s|g|t encoding")
    id_of = dict(zip(triples, ids))
    by_id = dict(zip(ids, triples))

    def conjugate(s: str, g: str, t: str) -> str:
        # p(s)^{-1} g q(t)
        return base.compose(base.compose(base.inv(p[s]), g), q[t])

    range_map: dict[str, str] = {}
    source_map: dict[str, str] = {}
    inverse_map: dict[str, str] = {}
    units: list[str] = []
    for pid, (s, g, t) in by_id.items():
        z = conjugate(s, g, t)
        range_map[pid] = id_of[(s_g.r(s), g, t_g.r(t))]
        source_map[pid] = id_of[(s_g.d(s), z, t_g.d(t))]
        inverse_map[pid] = id_of[(s_g.inv(s), z, t_g.inv(t))]
        if s in s_g.unit_set and t in t_g.unit_set:
            units.append(pid)

    by_range: dict[str, list[str]] = {}
    for pid in ids:
        by_range.setdefault(range_map[pid], []).append(pid)
    compose_map: dict[tuple[str, str], str] = {}
    for pid, (s, g, t) in by_id.items():
        for qid in by_range.get(source_map[pid], ()):
            s2, _, t2 = by_id[qid]
            compose_map[(pid, qid)] = id_of[(s_g.compose(s, s2), g, t_g.compose(t, t2))]

    pg = FiniteGroupoid(ids, units, range_map, source_map, inverse_map, triples_of(compose_map))
    proj_left = GroupoidHom(pg, s_g, {pid: tr[0] for pid, tr in by_id.items()})
    proj_right = GroupoidHom(pg, t_g, {pid: tr[2] for pid, tr in by_id.items()})
    return PullbackGroupoid(pg, by_id, proj_left, proj_right)


def regular_pullback(
    s_g: FiniteGroupoid, base: FiniteGroupoid, t_g: FiniteGroupoid, p: Mapping[str, str], q: Mapping[str, str]
) -> tuple[FiniteGroupoid, dict[str, tuple[str, str]]]:
    """{(s, t) : p(s) = q(t)} with componentwise structure."""
    pairs = [(s, t) for s in s_g.elements for t in t_g.elements if p[s] == q[t]]
    ids = {pr: _join(pr, "|") for pr in pairs}
    if len(set(ids.values())) != len(ids):
        raise MalformedInput("element ids collide under the s|t encoding")
    els = sorted(ids.values())
    units = [ids[(u, v)] for (u, v) in pairs if u in s_g.unit_set and v in t_g.unit_set]
    range_map = {ids[(s, t)]: ids[(s_g.r(s), t_g.r(t))] for (s, t) in pairs}
    source_map = {ids[(s, t)]: ids[(s_g.d(s), t_g.d(t))] for (s, t) in pairs}
    inverse_map = {ids[(s, t)]: ids[(s_g.inv(s), t_g.inv(t))] for (s, t) in pairs}
    compose = {}
    pair_set = set(pairs)
    for (s, t) in pairs:
        for (s2, t2) in pairs:
            if s_g.source_map[s] == s_g.range_map[s2] and t_g.source_map[t] == t_g.range_map[t2]:
                target = (s_g.compose(s, s2), t_g.compose(t, t2))
                if target not in pair_set:
                    raise MalformedInput("regular pullback is not closed under composition")
                compose[(ids[(s, t)], ids[(s2, t2)])] = ids[target]
    g = FiniteGroupoid(els, units, range_map, source_map, inverse_map, triples_of(compose))
    return g, {i: pr for pr, i in ids.items()}


def cotrivial_comparison_hom(alg: PullbackGroupoid, regular: FiniteGroupoid, components: dict[str, tuple[str, str]]) -> GroupoidHom:
    """(s, g, t) -> (s, t), the explicit comparison with the regular pullback;
    an isomorphism exactly when the base is cotrivial."""
    reverse = {pr: i for i, pr in components.items()}
    mapping = {}
    for pid, (s, _, t) in alg.triples.items():
        key = (s, t)
        if key not in reverse:
            raise MalformedInput(f"pullback triple {pid!r} has no counterpart in the regular pullback")
        mapping[pid] = reverse[key]
    return GroupoidHom(alg.groupoid, regular, mapping)


# the draws random_cotrivial_cospan makes before it gives up
_COTRIVIAL_TRIES = 50


def random_cotrivial_cospan(seed, bounds=DEFAULT_BOUNDS) -> Cospan:
    """A valid cospan whose base is cotrivial (units only), for comparing the
    weak pullback against the regular pullback."""
    max_units, max_elements = bounds
    for attempt in range(_COTRIVIAL_TRIES):
        rng = _rng(seed, f"cotrivial{attempt}")
        k = rng.randint(1, min(4, max_units))
        base_g = cotrivial_groupoid([f"x{i}" for i in range(k)])
        base_h = attach_random_haar(rng, base_g)

        def leg(tag: str):
            m = rng.randint(k, min(4, max_units))
            comps = []
            for i in range(m):
                comps.append(_random_component(rng, 1, max(1, max_elements // m), f"{tag}{i}q"))
            g, renamings = disjoint_union(comps, [f"{tag}{i}" for i in range(m)])
            targets = [f"x{i}" for i in range(k)] + [f"x{rng.randrange(k)}" for _ in range(m - k)]
            rng.shuffle(targets)
            mapping = {}
            for comp_index, ren in enumerate(renamings):
                for new_id in ren.values():
                    mapping[new_id] = targets[comp_index]
            return g, mapping

        left_g, left_map = leg("s")
        right_g, right_map = leg("t")
        left_h, left_hom = _measured_leg(rng, left_g, left_map, base_h)
        right_h, right_hom = _measured_leg(rng, right_g, right_map, base_h)
        c = Cospan(left_h, base_h, right_h, left_hom, right_hom)
        if validate_cospan(c).ok:
            return c
    raise GenerationExhausted(f"no valid cotrivial cospan for seed {seed!r} within {_COTRIVIAL_TRIES} attempts")


def outer_square_counterexample(w: WeakPullbackResult) -> str | None:
    """First pullback element where p(proj_left) != q(proj_right), if any.
    The outer square famously need not commute; this exhibits the failure."""
    p = w.cospan.left_map.mapping
    q = w.cospan.right_map.mapping
    for pid in w.groupoid.elements:
        s, _, t = w.algebraic.triples[pid]
        if p[s] != q[t]:
            return pid
    return None


# ---------------------------------------------------------------------------
# Measures from rational weights and systems as one measure per point, the
# forms in which tests write them and the oracles below compute them.


def system_of(over, domain, codomain, family: Mapping[str, FiniteMeasure]) -> MeasureSystem:
    """The system whose measure at y is family[y], zero where `family` omits
    y: the members' numerators put over the lcm of their denominators."""
    den = lcm(*(m.den for m in family.values()))
    nums = {y: {x: n * (den // m.den) for x, n in m.nums.items()} for y, m in family.items()}
    return MeasureSystem(over, domain, codomain, nums, den)


def measure_of(base, weights: Mapping[str, object]) -> FiniteMeasure:
    """The measure with rational weights[x] at x: the weights put over the
    lcm of their denominators, the counterpart of `system_of`."""
    ws = {x: Fraction(v) for x, v in weights.items()}
    den = lcm(*(w.denominator for w in ws.values()))
    return FiniteMeasure(base, {x: w.numerator * (den // w.denominator) for x, w in ws.items()}, den)


def members_of(s: MeasureSystem) -> dict[str, FiniteMeasure]:
    """The measure of s at each point of its codomain, on its domain."""
    return {y: FiniteMeasure(s.domain, ws, s.den) for y, ws in s.nums.items()}


# ---------------------------------------------------------------------------
# Fraction oracles of the integer measure layer: the library's bodies as they
# were before measures kept integer numerators, reading every weight as a
# Fraction through `FiniteMeasure.__call__` and `MeasureSystem.weight`.


def fraction_weights(mu: FiniteMeasure) -> dict[str, Fraction]:
    """The nonzero weights of mu, as Fractions."""
    return {x: mu(x) for x in mu.nums}


def fraction_scaled(mu: FiniteMeasure, c) -> FiniteMeasure:
    return measure_of(mu.base, {x: v * Fraction(c) for x, v in fraction_weights(mu).items()})


def fraction_push_forward(f: Mapping[str, str], mu: FiniteMeasure, codomain) -> FiniteMeasure:
    """(f_* mu)(y) = sum of mu over the fiber of y; total mass is preserved."""
    codomain = tuple(codomain)
    out: dict[str, Fraction] = {}
    check_ids(fraction_weights(mu), f.keys(), "pushforward map undefined at")
    for x, v in fraction_weights(mu).items():
        y = f[x]
        out[y] = out.get(y, ZERO) + v
    return measure_of(codomain, out)


def support_witness(mu: FiniteMeasure, nu: FiniteMeasure) -> str | None:
    """The least point where exactly one of two measures on one base
    vanishes, or None when they are in one measure class."""
    if mu.base != nu.base:
        raise BaseMismatch("measures live on different base sets")
    return min(mu.support ^ nu.support, default=None)


def fraction_class_witness(f: Mapping[str, str], mu: FiniteMeasure, codomain, nu: FiniteMeasure) -> str | None:
    """The oracle of `measures.class_witness`: the Fraction
    pushforward of mu along f, built on `codomain`, compared with nu."""
    return support_witness(fraction_push_forward(f, mu, codomain), nu)


def fraction_haar_hom_class_violations(p: GroupoidHom, dom: HaarGroupoid, cod: HaarGroupoid) -> list[Violation]:
    """The `measure-class` and `unit-measure-class` violations of
    `validate_haar_hom`, from Fraction pushforwards of the induced measure
    and of the unit measure (the latter when p maps units to units)."""
    bad = []
    w = fraction_class_witness(p.mapping, fraction_induced(dom), cod.groupoid.elements, fraction_induced(cod))
    if w is not None:
        detail = f"pushforward of the induced measure and the target induced measure differ at {w}"
        bad.append(Violation("measure-class", (w,), detail))
    unit_map = {u: p.mapping[u] for u in dom.groupoid.units if p.mapping.get(u) in cod.groupoid.unit_set}
    if len(unit_map) == len(dom.groupoid.units):
        w = fraction_class_witness(unit_map, dom.unit_measure, cod.groupoid.units, cod.unit_measure)
        if w is not None:
            detail = f"pushforward of the unit measure and the target unit measure differ at {w}"
            bad.append(Violation("unit-measure-class", (w,), detail))
    return bad


def unit_weight_mutants(c: Cospan) -> list[Cospan]:
    """Copies of c, one for each of the left, the base and the right whose
    unit measure is nonzero, with the least unit that measure charges given
    weight zero: the inputs on which the measure-class checks fail."""
    out = []
    for side in ("left", "base", "right"):
        h = getattr(c, side)
        mu = h.unit_measure
        if mu.nums:
            zeroed = FiniteMeasure(mu.base, {**mu.nums, min(mu.nums): 0}, mu.den)
            out.append(replace(c, **{side: HaarGroupoid(h.groupoid, h.haar, zeroed)}))
    return out


def fraction_compose_with_measure(s: MeasureSystem, nu: FiniteMeasure) -> FiniteMeasure:
    """mu(E) = sum_y lam^y(E) nu(y), the measure induced by a system."""
    if tuple(nu.base) != s.codomain:
        raise BaseMismatch("measure base does not match the system codomain")
    out: dict[str, Fraction] = {}
    members = members_of(s)
    for y, vy in fraction_weights(nu).items():
        for x, w in fraction_weights(members[y]).items():
            out[x] = out.get(x, ZERO) + w * vy
    return measure_of(s.domain, out)


def fraction_disintegrate(f: Mapping[str, str], mu: FiniteMeasure, nu: FiniteMeasure) -> MeasureSystem:
    """Split mu along f into fiberwise measures gamma^y with
    sum_y gamma^y(E) nu(y) = mu(E) exactly; counting measure on nu-null
    fibers."""
    w = fraction_class_witness(f, mu, nu.base, nu)
    if w is not None:
        raise NotMeasureClassPreserving(
            f"pushforward and target measure differ in support, witness {w!r}", witness=w
        )
    fibers: dict[str, list[str]] = {y: [] for y in nu.base}
    for x in mu.base:
        fibers[f[x]].append(x)
    family: dict[str, FiniteMeasure] = {}
    for y in nu.base:
        if nu(y) > 0:
            family[y] = measure_of(mu.base, {x: mu(x) / nu(y) for x in fibers[y]})
        else:
            family[y] = FiniteMeasure(mu.base, dict.fromkeys(fibers[y], 1))
    return system_of(f, mu.base, nu.base, family)


def fraction_alternate_disintegration(gamma: MeasureSystem, nu: FiniteMeasure, scale=2) -> MeasureSystem:
    """Rescale a disintegration on every nu-null fiber. The result is again a
    disintegration of the same pair, and differs from the input exactly when
    some null fiber is nonempty."""
    family = {}
    for y, m in members_of(gamma).items():
        if y not in nu.nums and not m.is_zero():
            family[y] = fraction_scaled(m, scale)
        else:
            family[y] = m
    return system_of(gamma.over, gamma.domain, gamma.codomain, family)


def fraction_haar_system_from_source_weights(g: FiniteGroupoid, source_weight) -> MeasureSystem:
    """The left-invariant system lam^u(x) = c(d(x))."""
    c = {u: Fraction(v) for u, v in source_weight.items()}
    check_ids(g.units, c.keys(), "source weight missing at unit")
    for u in g.units:
        if c[u] <= 0:
            raise MalformedInput(f"source weight non-positive at unit {u!r}")
    family = {
        u: measure_of(g.elements, {x: c[g.d(x)] for x in g.fiber(u)}) for u in g.units
    }
    return system_of(g.range_map, g.elements, g.units, family)


def fraction_induced(h: HaarGroupoid) -> FiniteMeasure:
    return fraction_compose_with_measure(h.haar, h.unit_measure)


def inverse_measure(mu: FiniteMeasure, g: FiniteGroupoid) -> FiniteMeasure:
    """Image of mu under inversion: (mu^{-1})(x) = mu(x^{-1})."""
    if mu.base != g.elements:
        raise MalformedInput("measure does not live on the groupoid's elements")
    return measure_of(g.elements, {x: mu(g.inv(x)) for x in g.elements})


def fraction_is_quasi_invariant(h: HaarGroupoid, mu: FiniteMeasure) -> ValidationReport:
    """Support equality of the induced measure mu of h and its inverse
    image; on failure one `quasi-invariance` violation names a witnessing
    element."""
    witness = support_witness(mu, inverse_measure(mu, h.groupoid))
    if witness is None:
        return ValidationReport(())
    return ValidationReport(
        (Violation("quasi-invariance", (witness,), f"induced measure and its inverse differ in support at {witness}"),)
    )


def fraction_modular(h: HaarGroupoid, mu: FiniteMeasure) -> dict[str, Fraction]:
    """Delta(x) = mu(x)/mu(x^{-1}) on the support of the induced measure mu
    of h; raises NotQuasiInvariant as `HaarGroupoid.modular` does."""
    report = fraction_is_quasi_invariant(h, mu)
    if not report.ok:
        (witness,) = report.violations[0].witnesses
        raise NotQuasiInvariant(f"unit measure is not quasi-invariant, witness {witness!r}", witness=witness)
    g = h.groupoid
    return {x: mu(x) / mu(g.inv(x)) for x in sorted(mu.support)}


def fraction_pullback_haar_system(alg: PullbackGroupoid, c: Cospan) -> MeasureSystem:
    pg = alg.groupoid
    lam_s = c.left.haar
    lam_t = c.right.haar
    family: dict[str, FiniteMeasure] = {}
    for u in pg.units:
        s, _, t = alg.triples[u]
        ws: dict[str, Fraction] = {}
        for pid in pg.fiber(u):
            sigma, _, tau = alg.triples[pid]
            w = lam_s.weight(s, sigma) * lam_t.weight(t, tau)
            if w:
                ws[pid] = w
        family[u] = measure_of(pg.elements, ws)
    return system_of(pg.range_map, pg.elements, pg.units, family)


def fraction_eta_system(alg: PullbackGroupoid, c: Cospan, gamma_p: MeasureSystem, gamma_q: MeasureSystem) -> MeasureSystem:
    """eta^x(s,g,t) = gamma_p^{r(x)}(s) [g = x] gamma_q^{d(x)}(t)."""
    pg = alg.groupoid
    base = c.base.groupoid
    over = {u: alg.triples[u][1] for u in pg.units}
    by_arrow: dict[str, list[str]] = {}
    for u in pg.units:
        by_arrow.setdefault(over[u], []).append(u)
    family: dict[str, FiniteMeasure] = {}
    for x in base.elements:
        ws: dict[str, Fraction] = {}
        for u in by_arrow.get(x, ()):
            s, _, t = alg.triples[u]
            w = gamma_p.weight(base.r(x), s) * gamma_q.weight(base.d(x), t)
            if w:
                ws[u] = w
        family[x] = measure_of(pg.units, ws)
    return system_of(over, pg.units, base.elements, family)


def fraction_unit_measure(alg: PullbackGroupoid, c: Cospan, disintegration):
    """gamma_p, gamma_q, eta and mu_P0 = eta composed with the base induced
    measure."""
    gamma_p, gamma_q = (
        disintegration(label, {u: hom.mapping[u] for u in leg.groupoid.units}, leg.unit_measure, c.base.unit_measure)
        for label, leg, hom in (("left", c.left, c.left_map), ("right", c.right, c.right_map))
    )
    eta = fraction_eta_system(alg, c, gamma_p, gamma_q)
    return gamma_p, gamma_q, eta, fraction_compose_with_measure(eta, fraction_induced(c.base))


def fraction_measures_of_pullback(w: WeakPullbackResult):
    """lam_P, gamma_p, gamma_q, eta and mu_P0 of the cospan's weak pullback,
    rebuilt on its algebraic pullback."""
    c = w.cospan
    lam_p = fraction_pullback_haar_system(w.algebraic, c)
    return (lam_p, *fraction_unit_measure(w.algebraic, c, lambda _, f, mu, nu: fraction_disintegrate(f, mu, nu)))


def fraction_quasi_invariance_and_modular(w: WeakPullbackResult, strict: bool = False):
    """check_quasi_invariance_and_modular on Delta = mu(x)/mu(x^{-1}) in
    Fractions."""
    h_p = w.haar_groupoid
    mu_p = fraction_induced(h_p)
    quasi = fraction_is_quasi_invariant(h_p, mu_p)
    if not quasi.ok:
        return quasi, quasi
    c = w.cospan
    delta_p = fraction_modular(h_p, mu_p)
    delta_s, delta_t, delta_g = (fraction_modular(h, fraction_induced(h)) for h in (c.left, c.right, c.base))
    q = c.right_map.mapping
    checked = skipped = 0
    bad: list[Violation] = []
    for pid in sorted(mu_p.support):
        sigma, _, tau = w.algebraic.triples[pid]
        if not (sigma in delta_s and tau in delta_t and q[tau] in delta_g):
            skipped += 1
            if strict:
                bad.append(Violation("modular-off-support", (pid,), f"a leg or base Delta is undefined at {pid}"))
            continue
        checked += 1
        lhs = delta_p[pid] * delta_g[q[tau]]
        rhs = delta_s[sigma] * delta_t[tau]
        if lhs != rhs:
            bad.append(Violation("modular-formula", (pid,), f"Delta_P·Delta_G = {lhs} != Delta_S·Delta_T = {rhs}"))
    return quasi, ValidationReport(tuple(bad), (("checked", checked), ("skipped", skipped)))


def _fraction_verified_disintegration(system, f, mu, nu, label):
    if system.over != dict(f):
        raise NotADisintegration(f"{label}: system is over the wrong map")
    if not validate_system(system).ok:
        raise NotADisintegration(f"{label}: system is not concentrated on fibers")
    if fraction_compose_with_measure(system, nu) != mu:
        raise NotADisintegration(f"{label}: reconstruction identity fails")
    return system


def fraction_disintegration_independence(w: WeakPullbackResult, alt_left, alt_right) -> ValidationReport:
    """check_disintegration_independence in Fractions."""
    alternates = {"left": alt_left, "right": alt_right}
    *_, mu_alt = fraction_unit_measure(
        w.algebraic, w.cospan, lambda label, f, mu, nu: _fraction_verified_disintegration(alternates[label], f, mu, nu, label)
    )
    bad = [
        Violation("disintegration-independence", (u,), f"mu_P0({u}) = {w.unit_measure(u)}, alternates give {mu_alt(u)}")
        for u in w.groupoid.units
        if mu_alt(u) != w.unit_measure(u)
    ]
    return ValidationReport(tuple(bad))


def _fraction_leg_sums(gamma: MeasureSystem, leg: HaarGroupoid):
    """(v, σ) -> sum over the leg's units s of gamma^v(s) · lam^s(σ), each
    pair summed once."""
    units, lam = leg.groupoid.units, leg.haar

    @cache
    def leg_sum(v: str, sigma: str) -> Fraction:
        total = ZERO
        for s in units:
            total += gamma.weight(v, s) * lam.weight(s, sigma)
        return total

    return leg_sum


def fraction_triple_integral_report(w: WeakPullbackResult) -> ValidationReport:
    """check_triple_integral_lemma in Fractions, with its counts."""
    c = w.cospan
    base = c.base
    base_g = base.groupoid
    lam_base = base.haar
    bad: list[Violation] = []
    counts: list[tuple[str, int]] = []
    for name, leg, leg_map, gamma in (
        ("left", c.left, c.left_map.mapping, w.disint_left),
        ("right", c.right, c.right_map.mapping, w.disint_right),
    ):
        leg_sum = _fraction_leg_sums(gamma, leg)
        pairs = []
        for sigma in leg.groupoid.elements:
            v = base_g.r(leg_map[sigma])
            pairs += [(y, sigma, lam_base.weight(v, y)) for y in base_g.fiber(v)]
        for u in base_g.units:
            for y0, sigma0, inner in pairs:
                lhs = inner * leg_sum(u, sigma0)
                rhs = leg_sum(base_g.r(y0), sigma0) * lam_base.weight(u, y0)
                if lhs != rhs:
                    bad.append(Violation("triple-integral", (u, y0, sigma0), f"{name} leg: {lhs} != {rhs}"))
        counts.append((f"{name} leg sums", leg_sum.cache_info().currsize))
    return ValidationReport(tuple(bad), tuple(counts))


def fraction_expanding_report(w: WeakPullbackResult) -> ValidationReport:
    """check_expanding_lemma in Fractions, against the Fraction induced
    measure of the pullback, with its counts."""
    c = w.cospan
    base = c.base.groupoid
    lam_g = c.base.haar
    mu_g0 = c.base.unit_measure
    left = _fraction_leg_sums(w.disint_left, c.left)
    right = _fraction_leg_sums(w.disint_right, c.right)

    @cache
    def base_sum(x0: str) -> Fraction:
        total = ZERO
        for u in base.units:
            total += mu_g0(u) * lam_g.weight(u, x0)
        return total

    mu_p = fraction_induced(w.haar_groupoid)
    bad: list[Violation] = []
    for pid in w.groupoid.elements:
        sigma0, x0, tau0 = w.algebraic.triples[pid]
        lhs = mu_p(pid)
        rhs = base_sum(x0) * left(base.r(x0), sigma0) * right(base.d(x0), tau0)
        if lhs != rhs:
            bad.append(Violation("expanding-integral", (pid,), f"mu_P({pid}) = {lhs} != six-fold sum {rhs}"))
    counts = (
        ("base sums", base_sum.cache_info().currsize),
        ("left leg sums", left.cache_info().currsize),
        ("right leg sums", right.cache_info().currsize),
    )
    return ValidationReport(tuple(bad), counts)
