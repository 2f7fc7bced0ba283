"""Seeded random instances: Haar groupoids and valid cospans.

Generators are deterministic functions of (seed, bounds). Structures are
mixed from disjoint unions of pair groupoids, cyclic groups and
transformation groupoids; leg homomorphisms are drawn from a fixed menu of
surjective patterns (identity, fold of two copies, thickening by a pair
groupoid, action and pair covers of a group base) that preserve the measure
class by construction. Nothing here validates a cospan: `mgpd check`, `mgpd
validate` and the sweep each do, so a defect in a pattern ends in exit 2
from `check`, with a witness.

`bounds` (max_units, max_elements) steers the sizes drawn without capping
them: a cospan's base has at least two units and an action-cover leg up to
four. The defaults keep pullbacks at desk scale (about a thousand elements
at most), where the structure-theorem checks stay cheap.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import GenerationExhausted
from .families import GroupAction, cyclic_group, direct_product, disjoint_union, pair_groupoid, pair_id
from .families import transformation_groupoid, transformation_id, trivial_action, trivial_group
from .groupoid import FiniteGroupoid, GroupoidHom, orbits
from .haar import HaarGroupoid, haar_system_from_source_weights
from .measures import ZERO, FiniteMeasure, over_one_denominator
from .pullback import Cospan

DEFAULT_BOUNDS = (4, 24)


def _rng(seed, tag: str) -> random.Random:
    return random.Random(f"{seed}/{tag}")


def _weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 6), rng.randint(1, 6))


def _involution_action(rng: random.Random, group: FiniteGroupoid, points: list[str]) -> GroupAction:
    """A Z2 action by a random involution of the point set."""
    e, g = group.elements[0], group.elements[1]
    if group.units[0] != e:
        e, g = g, e
    shuffled = points[:]
    rng.shuffle(shuffled)
    partner = {}
    while len(shuffled) >= 2:
        a, b = shuffled.pop(), shuffled.pop()
        partner[a], partner[b] = b, a
    for y in shuffled:
        partner[y] = y
    return GroupAction(group, points, {y: {e: y, g: partner[y]} for y in points})


def _random_component(rng: random.Random, max_units: int, max_elements: int, tag: str) -> FiniteGroupoid:
    kinds = ["trivial"]
    if max_elements >= 2:
        kinds += ["cyclic", "cyclic"]
    if max_units >= 2 and max_elements >= 4:
        kinds += ["pair", "transformation"]
    kind = rng.choice(kinds)
    if kind == "cyclic":
        return cyclic_group(rng.randint(2, min(4, max_elements)))
    if kind == "pair":
        top = min(max_units, int(max_elements ** 0.5))
        n = rng.randint(2, max(2, top))
        return pair_groupoid([f"{tag}{i}" for i in range(n)])
    if kind == "transformation":
        m = rng.randint(2, min(max_units, max_elements // 2, 4))
        points = [f"{tag}{i}" for i in range(m)]
        group = cyclic_group(2)
        return transformation_groupoid(_involution_action(rng, group, points))
    return trivial_group()


def _checked_bounds(bounds) -> tuple[int, int]:
    max_units, max_elements = bounds
    if max_units < 1 or max_elements < 1:
        raise GenerationExhausted("bounds must be at least (1, 1)")
    return max_units, max_elements


def random_groupoid(seed, bounds=DEFAULT_BOUNDS) -> FiniteGroupoid:
    """A valid finite groupoid: a disjoint union of random components."""
    max_units, max_elements = _checked_bounds(bounds)
    rng = _rng(seed, "structure")
    comps: list[FiniteGroupoid] = []
    units_left, els_left = max_units, max_elements
    for i in range(rng.randint(1, max(1, min(3, max_units)))):
        if units_left < 1 or els_left < 1:
            break
        comp = _random_component(rng, units_left, els_left, f"p{i}x")
        if len(comp.units) > units_left or len(comp.elements) > els_left:
            continue
        comps.append(comp)
        units_left -= len(comp.units)
        els_left -= len(comp.elements)
    if not comps:
        comps = [trivial_group()]
    if len(comps) == 1:
        return comps[0]
    g, _ = disjoint_union(comps, [f"c{i}" for i in range(len(comps))])
    return g


def attach_random_haar(rng: random.Random, g: FiniteGroupoid, null_orbits: bool = False) -> HaarGroupoid:
    """Random positive fiber weights plus a unit measure; with `null_orbits`,
    a proper nonempty union of orbits is given measure zero (null sets must be
    orbit-saturated or quasi-invariance would fail)."""
    c = {u: _weight(rng) for u in g.units}
    haar = haar_system_from_source_weights(g, c)
    part = orbits(g)
    nulled: set[int] = set()
    if null_orbits and len(part.blocks) >= 2:
        k = rng.randint(1, len(part.blocks) - 1)
        nulled = set(rng.sample(range(len(part.blocks)), k))
    mu0 = {u: (ZERO if part.index[u] in nulled else _weight(rng)) for u in g.units}
    den, (nums,) = over_one_denominator([mu0])
    return HaarGroupoid(g, haar, FiniteMeasure(g.units, nums, den))


def random_haar_groupoid(seed, bounds=DEFAULT_BOUNDS, null_orbits: bool = False) -> HaarGroupoid:
    g = random_groupoid(seed, bounds)
    return attach_random_haar(_rng(seed, "haar"), g, null_orbits=null_orbits)


# ---------------------------------------------------------------------------
# cospan legs


def _leg_identity(rng, base: FiniteGroupoid):
    return base, {x: x for x in base.elements}


def _leg_fold(rng, base: FiniteGroupoid):
    doubled, renamings = disjoint_union([base, base], ["a", "b"])
    return doubled, {new: old for ren in renamings for old, new in ren.items()}


def _leg_thicken(rng, base: FiniteGroupoid):
    pair = pair_groupoid(["i", "j"])
    product, eid = direct_product(base, pair)
    return product, {pid: x for (x, _), pid in eid.items()}


def _leg_action_cover(rng, base: FiniteGroupoid):
    # base must be a one-unit group; the leg is a transformation groupoid of a
    # base action and the hom projects onto the acting arrow
    m = rng.randint(2, 4)
    points = [f"y{i}" for i in range(m)]
    if len(base.elements) == 2:
        action = _involution_action(rng, base, points)
    else:
        action = trivial_action(base, points)
    return transformation_groupoid(action), {transformation_id(y, gm): gm for y in points for gm in base.elements}


def _leg_pair_cover(rng, base: FiniteGroupoid):
    # base must be cyclic_group(n) with elements g0..g{n-1}; the leg is the
    # pair groupoid on n points with (i, j) -> g_{(i - j) mod n}
    n = len(base.elements)
    order = base.elements  # sorted g0..g{n-1}, n <= 4 keeps this lexicographic
    leg = pair_groupoid([f"q{i}" for i in range(n)])
    return leg, {pair_id(f"q{i}", f"q{j}"): order[(i - j) % n] for i in range(n) for j in range(n)}


def _leg_inclusion(base: FiniteGroupoid, kept_units) -> tuple[FiniteGroupoid, dict[str, str]]:
    # full subgroupoid over an orbit-saturated unit subset, included as is;
    # measure-class preserving exactly when the dropped part is null
    keep = frozenset(kept_units)
    els = [x for x in base.elements if base.r(x) in keep and base.d(x) in keep]
    keep_els = frozenset(els)
    sub = FiniteGroupoid(
        els,
        [u for u in base.units if u in keep],
        {x: base.r(x) for x in els},
        {x: base.d(x) for x in els},
        {x: base.inv(x) for x in els},
        [entry for entry in base.products() if entry[0] in keep_els],
    )
    return sub, {x: x for x in els}


def _random_leg(rng, base: FiniteGroupoid, max_units: int, max_elements: int, base_is_group: bool, supp_units=None):
    patterns = [("identity", _leg_identity)]
    if 2 * len(base.units) <= max_units and 2 * len(base.elements) <= max_elements:
        patterns.append(("fold", _leg_fold))
    if 2 * len(base.units) <= max_units and 4 * len(base.elements) <= max_elements:
        patterns.append(("thicken", _leg_thicken))
    if base_is_group:
        if 2 * len(base.elements) <= max_elements:
            patterns.append(("action-cover", _leg_action_cover))
        n = len(base.elements)
        if n >= 2 and n <= max_units and n * n <= max_elements:
            patterns.append(("pair-cover", _leg_pair_cover))
    if supp_units is not None and len(supp_units) < len(base.units):
        patterns.append(("inclusion", lambda rng_, b: _leg_inclusion(b, supp_units)))
    _, build = rng.choice(patterns)
    return build(rng, base)


def _measured_leg(rng, leg: FiniteGroupoid, mapping, base_h: HaarGroupoid) -> tuple[HaarGroupoid, GroupoidHom]:
    c = {u: _weight(rng) for u in leg.units}
    haar = haar_system_from_source_weights(leg, c)
    base_supp = base_h.unit_measure.support
    mu0 = {u: _weight(rng) if mapping[u] in base_supp else ZERO for u in leg.units}
    den, (nums,) = over_one_denominator([mu0])
    h = HaarGroupoid(leg, haar, FiniteMeasure(leg.units, nums, den))
    return h, GroupoidHom(leg, base_h.groupoid, dict(mapping))


def random_cospan(seed, bounds=DEFAULT_BOUNDS, with_null_base: bool = False) -> Cospan:
    """A valid cospan of Haar groupoids. With `with_null_base` the base unit
    measure vanishes on a union of orbits and the legs have nonempty fibers
    over the null part, which is what the disintegration-independence theorem
    needs to say anything."""
    max_units, max_elements = _checked_bounds(bounds)
    # the tag "cospan0" pins the bytes of every seed's cospan
    rng = _rng(seed, "cospan0")
    base_is_group = rng.random() < 0.4 and not with_null_base
    if base_is_group:
        base_g = cyclic_group(rng.randint(2, min(4, max(2, max_elements // 3))))
    else:
        comp_units = max(1, min(2, max_units // 2))
        comp_elements = max(1, min(6, max_elements // 3))
        parts = [_random_component(rng, comp_units, comp_elements, f"b{i}x") for i in range(2)]
        base_g, _ = disjoint_union(parts, ["m0", "m1"])
    # a null base is a union of two components, so it has two orbits or
    # more, one nulled and one not, and every weight drawn is positive
    base_h = attach_random_haar(rng, base_g, null_orbits=with_null_base)
    # the left leg always has all of the base's units in range of its unit
    # map, so null-base cospans keep nonempty null fibers there; the right
    # leg may additionally be a plain inclusion of the positive part
    left_g, left_map = _random_leg(rng, base_g, max_units, max_elements, base_is_group)
    supp_units = sorted(base_h.unit_measure.support) if with_null_base else None
    right_g, right_map = _random_leg(rng, base_g, max_units, max_elements, base_is_group, supp_units=supp_units)
    left_h, left_hom = _measured_leg(rng, left_g, left_map, base_h)
    right_h, right_hom = _measured_leg(rng, right_g, right_map, base_h)
    return Cospan(left_h, base_h, right_h, left_hom, right_hom)

