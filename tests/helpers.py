"""Shared builders and literal-sum oracles used across the test modules.

The oracles deliberately brute-force the stated nested sums with no
concentration shortcuts, so they stay independent of the library's paths.
The regular pullback and its comparison map are a second pullback
construction, kept here as the oracle for cotrivial bases.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from measured_groupoids import (
    Cospan,
    FiniteGroupoid,
    FiniteMeasure,
    GenerationExhausted,
    MalformedInput,
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
    _MAX_TRIES,
    _measured_leg,
    _random_component,
    _rng,
    attach_random_haar,
)
from measured_groupoids.groupoid import (
    GroupoidHom,
    ValidationReport,
    Violation,
    check_map,
    check_references,
    identity_hom,
)
from measured_groupoids.haar import HaarGroupoid, counting_haar_system
from measured_groupoids.measures import MeasureSystem, validate_system
from measured_groupoids.pullback import PullbackGroupoid, WeakPullbackResult

F = Fraction
ZERO = F(0)


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
        compose,
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
    The oracle for validate_groupoid, which must return this same report."""
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
    defined = set(g.compose_map)
    for x in g.elements:
        for y in g.elements:
            if g.source_map[x] == g.range_map[y]:
                if (x, y) not in defined:
                    bad.append(Violation("compose-total", (x, y), "composable pair has no product"))
            elif (x, y) in defined:
                bad.append(Violation("compose-domain", (x, y), "product defined on a non-composable pair"))
    for (x, y), z in sorted(g.compose_map.items()):
        if g.source_map[x] != g.range_map[y]:
            continue
        if g.range_map[z] != g.range_map[x]:
            bad.append(Violation("range-of-product", (x, y, z), f"r({x}{y}) = {g.range_map[z]} != r({x})"))
        if g.source_map[z] != g.source_map[y]:
            bad.append(Violation("source-of-product", (x, y, z), f"d({x}{y}) = {g.source_map[z]} != d({y})"))

    # associativity on all composable triples
    for (x, y), xy in sorted(g.compose_map.items()):
        if g.source_map[x] != g.range_map[y]:
            continue
        for z in g.fiber(g.source_map[y]):
            lhs = g.compose_map.get((xy, z))
            yz = g.compose_map.get((y, z))
            rhs = g.compose_map.get((x, yz)) if yz is not None else None
            if lhs is None or rhs is None or lhs != rhs:
                bad.append(Violation("associativity", (x, y, z), f"({x}{y}){z} = {lhs}, {x}({y}{z}) = {rhs}"))

    for x in g.elements:
        if g.compose_map.get((x, g.source_map[x])) != x:
            bad.append(Violation("right-unit-law", (x,), f"{x}·d({x}) != {x}"))
        if g.compose_map.get((g.range_map[x], x)) != x:
            bad.append(Violation("left-unit-law", (x,), f"r({x})·{x} != {x}"))

    for x in g.elements:
        xi = g.inverse_map[x]
        if g.inverse_map.get(xi) != x:
            bad.append(Violation("inverse-involution", (x,), f"inverse(inverse({x})) = {g.inverse_map.get(xi)}"))
        if g.range_map[xi] != g.source_map[x] or g.source_map[xi] != g.range_map[x]:
            bad.append(Violation("inverse-swaps-ends", (x,), f"r/d of inverse({x}) do not swap r/d of {x}"))
            continue
        if g.compose_map.get((x, xi)) != g.range_map[x]:
            bad.append(Violation("inverse-law", (x,), f"{x}·{x}⁻¹ != r({x})"))
        if g.compose_map.get((xi, x)) != g.source_map[x]:
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
    for x in g.elements:
        lam_d = s.family[g.d(x)]
        lam_r = s.family[g.r(x)]
        for y in g.fiber(g.d(x)):
            if lam_d(y) != lam_r(g.compose(x, y)):
                bad.append(
                    Violation(
                        "left-invariance",
                        (x, y),
                        f"lam^d(x)({y}) = {lam_d(y)} != lam^r(x)({g.compose(x, y)}) = {lam_r(g.compose(x, y))}",
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
    for (x, y), z in sorted(dom.compose_map.items()):
        if dom.source_map[x] != dom.range_map[y]:
            continue
        image = cod.compose_map.get((f[x], f[y]))
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


def replace_tables(g, inverse_map=None, compose_map=None):
    return FiniteGroupoid(
        g.elements,
        g.units,
        g.range_map,
        g.source_map,
        g.inverse_map if inverse_map is None else inverse_map,
        g.compose_map if compose_map is None else compose_map,
    )


def table_mutants(g, rng):
    """(name, mutant) pairs, each with one table entry broken. A kind of
    mutant that g has no room for (say, no non-composable pair) is left out."""
    keys = sorted(g.compose_map)
    ranges = set(g.range_map.values())
    hom: dict[tuple[str, str], list[str]] = {}
    for z in g.elements:
        hom.setdefault((g.r(z), g.d(z)), []).append(z)
    out = []

    swappable = [
        k
        for k in keys
        if g.unit_set.isdisjoint((*k, g.compose_map[k])) and len(hom[(g.r(k[0]), g.d(k[1]))]) > 1
    ]
    if swappable:
        k = rng.choice(swappable)
        z = rng.choice([z for z in hom[(g.r(k[0]), g.d(k[1]))] if z != g.compose_map[k]])
        out.append(("swapped-product", replace_tables(g, compose_map={**g.compose_map, k: z})))

    compose = dict(g.compose_map)
    del compose[rng.choice(keys)]
    out.append(("deleted-entry", replace_tables(g, compose_map=compose)))

    if len(ranges) > 1:
        x = rng.choice(g.elements)
        y = rng.choice([y for y in g.elements if g.r(y) != g.d(x)])
        out.append(("non-composable-entry", replace_tables(g, compose_map={**g.compose_map, (x, y): rng.choice(g.elements)})))

        k = rng.choice(keys)
        z = rng.choice([z for z in g.elements if g.r(z) != g.r(k[0])])
        out.append(("wrong-range", replace_tables(g, compose_map={**g.compose_map, k: z})))

    if len(g) > 1:
        x = rng.choice(g.elements)
        y = rng.choice([y for y in g.elements if y != g.inv(x)])
        out.append(("broken-inverse", replace_tables(g, inverse_map={**g.inverse_map, x: y})))
    return out


def dangling_product(g):
    """g with its last product naming an id that is no element: no
    generating set, so checks on generators take their exhaustive loops."""
    return replace_tables(g, compose_map={**g.compose_map, max(g.compose_map): "ghost"})


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
    g = FiniteGroupoid(els, units, range_map, source_map, inverse_map, compose)
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


def random_cotrivial_cospan(seed, bounds=DEFAULT_BOUNDS) -> Cospan:
    """A valid cospan whose base is cotrivial (units only), for comparing the
    weak pullback against the regular pullback."""
    max_units, max_elements = bounds
    for attempt in range(_MAX_TRIES):
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
    raise GenerationExhausted(f"no valid cotrivial cospan for seed {seed!r} within {_MAX_TRIES} attempts")


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
