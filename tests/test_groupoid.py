import importlib.util
import pathlib
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from measured_groupoids import (
    DanglingReference,
    FiniteGroupoid,
    MalformedInput,
    cotrivial_groupoid,
    cyclic_group,
    disjoint_union,
    is_isomorphism,
    orbits,
    pair_groupoid,
    random_groupoid,
    trivial_group,
    validate_groupoid,
    validate_hom,
)
from measured_groupoids.documents import GroupoidDocument, parse_document, serialize
from measured_groupoids.generate import _random_component
from measured_groupoids.groupoid import GroupoidHom, _candidates, check_element_id, check_ids, check_map, identity_hom
from measured_groupoids.pullback import weak_pullback_groupoid

from helpers import (
    canonical_generators,
    closure_under_products,
    dangling_product,
    fails_closed,
    generator_counts,
    literal_groupoid_report,
    literal_hom_report,
    manual_pair_groupoid,
    outcome,
    table_mutants,
    triples_of,
    verdict,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_trivial_group_is_valid():
    assert validate_groupoid(trivial_group()).ok


def test_pair_groupoid_manual_tables_valid():
    g = manual_pair_groupoid()
    assert validate_groupoid(g).ok
    assert g == pair_groupoid(["1", "2"])


def test_pair_groupoid_broken_inverse_is_reported():
    g = manual_pair_groupoid()
    broken = dict(g.inverse_map)
    broken["1-2"] = "1-2"
    bad = FiniteGroupoid(g.elements, g.units, g.range_map, g.source_map, broken, rows=g.rows)
    report = validate_groupoid(bad)
    assert not report.ok
    rules = {(v.rule, v.witnesses) for v in report.violations}
    assert any(rule.startswith("inverse") and "1-2" in wit for rule, wit in rules)


def test_dangling_reference_raises():
    g = manual_pair_groupoid()
    broken = dict(g.range_map)
    broken["1-2"] = "ghost"
    bad = FiniteGroupoid(g.elements, g.units, broken, g.source_map, g.inverse_map, g.products())
    with pytest.raises(MalformedInput):
        validate_groupoid(bad)


def test_check_ids_names_the_first_unknown_id():
    check_ids(iter(["a", "b", "a"]), frozenset("ab"), "unknown id")
    with pytest.raises(MalformedInput, match="^table names unknown id 'c'$"):
        check_ids(iter(["a", "c", "d"]), frozenset("ab"), "table names unknown id")


def test_check_map_names_a_missing_key_an_unknown_key_and_an_unknown_value():
    dom, cod = frozenset("ab"), frozenset("xy")
    check_map({"a": "x", "b": "x"}, dom, cod, "map")
    for mapping, message in (
        ({"a": "x"}, "^map undefined at 'b'$"),
        ({"a": "x", "b": "y", "ghost": "x"}, "^map keyed by unknown id 'ghost'$"),
        ({"a": "x", "b": "ghost"}, "^map takes the unknown value 'ghost'$"),
    ):
        with pytest.raises(MalformedInput, match=message):
            check_map(mapping, dom, cod, "map")


def test_validate_hom_names_inverse_and_composability_witnesses():
    # g2 -> g1 keeps the unit and the ends, so only inverses and products break
    z3 = cyclic_group(3)
    report = validate_hom(GroupoidHom(z3, z3, {"g0": "g0", "g1": "g1", "g2": "g1"}))
    assert [v.witnesses for v in report.violations if v.rule == "hom-preserves-inverse"] == [("g1",), ("g2",)]
    # the two units of the pair groupoid go to different points, so the
    # pairs through 2-2 have images that do not compose
    two_points = cotrivial_groupoid(["a", "b"])
    p = GroupoidHom(pair_groupoid(["1", "2"]), two_points, {"1-1": "a", "1-2": "a", "2-1": "a", "2-2": "b"})
    report = validate_hom(p)
    composability = [v.witnesses for v in report.violations if v.rule == "hom-preserves-composability"]
    assert composability == [("1-2", "2-2"), ("2-2", "2-1")]


def test_bad_ids_rejected():
    with pytest.raises(MalformedInput):
        FiniteGroupoid(["a b"], ["a b"], {}, {}, {}, {})
    with pytest.raises(MalformedInput):
        FiniteGroupoid(["a", "a"], ["a"], {}, {}, {}, {})


def test_element_ids_are_rejected_exactly_at_whitespace_code_points():
    # the id check tests "nonempty, no whitespace" through str.split(); over
    # every code point, alone and inside an id, it rejects exactly where
    # str.isspace() holds
    chars = [chr(cp) for cp in range(sys.maxunicode + 1)]
    others = [c for c in chars if not c.isspace()]
    for ids in (others, [f"a{c}b" for c in others]):
        assert list(map(check_element_id, ids)) == ids
    spaces = [c for c in chars if c.isspace()]
    assert spaces
    for x in spaces + [f"a{c}b" for c in spaces] + ["", None]:
        with pytest.raises(MalformedInput):
            check_element_id(x)


def test_r_fiber_trivial():
    g = trivial_group()
    assert set(g.fiber("e")) == {"e"}


def test_r_fiber_pair_groupoid():
    g = manual_pair_groupoid()
    assert set(g.fiber("1-1")) == {"1-1", "1-2"}


def test_r_fiber_group_is_everything():
    z2 = cyclic_group(2)
    assert set(z2.fiber("g0")) == {"g0", "g1"}


def test_orbits_pair_groupoid_single_orbit():
    part = orbits(manual_pair_groupoid())
    assert part.blocks == (("1-1", "2-2"),)


def test_orbits_disjoint_trivial_groups():
    g, _ = disjoint_union([trivial_group(), trivial_group()], ["a", "b"])
    assert len(orbits(g).blocks) == 2


def test_orbits_cotrivial_three_points():
    part = orbits(cotrivial_groupoid(["x", "y", "z"]))
    assert part.blocks == (("x",), ("y",), ("z",))


def test_orbits_names_an_end_that_is_not_a_unit():
    g = FiniteGroupoid(["a"], [], {"a": "a"}, {"a": "a"}, {"a": "a"})
    with pytest.raises(MalformedInput, match="^an end of an element is not a unit: 'a'$"):
        orbits(g)


@pytest.mark.parametrize("entry", [("ghost", "1-1", "1-1"), ("1-1", "ghost", "1-1"), ("1-1", "1-2", "ghost")])
def test_validate_hom_names_an_unknown_id_of_the_domain_table(entry):
    # the first two entries are strays, which no row of the domain holds
    g = pair_groupoid(["1", "2"])
    dom = FiniteGroupoid(g.elements, g.units, g.range_map, g.source_map, g.inverse_map, [*g.products(), entry])
    hom = GroupoidHom(dom, g, {x: x for x in g.elements})
    for check in (validate_hom, is_isomorphism):
        with pytest.raises(MalformedInput, match="^compose table references unknown id 'ghost'$"):
            check(hom)


def test_validate_hom_identity():
    g = manual_pair_groupoid()
    assert validate_hom(identity_hom(g)).ok


def test_validate_hom_collapse_to_trivial():
    z2 = cyclic_group(2)
    t = trivial_group()
    hom = GroupoidHom(z2, t, {"g0": "e", "g1": "e"})
    assert validate_hom(hom).ok


def test_validate_hom_unit_swap_violation():
    z2 = cyclic_group(2)
    hom = GroupoidHom(z2, z2, {"g0": "g1", "g1": "g0"})
    report = validate_hom(hom)
    assert not report.ok
    assert any(v.rule == "hom-preserves-units" for v in report.violations)


def test_orbit_map_identity_on_pair_groupoid_is_constant():
    g = manual_pair_groupoid()
    hom = identity_hom(g)
    part = orbits(g)
    assert {part.index[g.r(hom(x))] for x in g.elements} == {0}


def test_orbit_map_into_one_unit_groupoid_is_constant():
    z2 = cyclic_group(2)
    hom = GroupoidHom(manual_pair_groupoid(), z2, {x: "g0" for x in manual_pair_groupoid().elements})
    part = orbits(z2)
    assert {part.index[z2.r(hom(x))] for x in hom.domain.elements} == {0}


def test_orbit_map_unit_inclusion_into_cotrivial():
    c = cotrivial_groupoid(["x", "y"])
    t = trivial_group("pt")
    hom = GroupoidHom(t, c, {"pt": "y"})
    part = orbits(c)
    assert part.index[c.r(hom("pt"))] == part.index["y"] != part.index["x"]


@given(st.integers(0, 300))
def test_random_groupoids_pass_validation(seed):
    g = random_groupoid(seed)
    assert validate_groupoid(g).ok


@given(st.integers(0, 300))
def test_r_fibers_partition_elements(seed):
    g = random_groupoid(seed)
    seen = []
    for u in g.units:
        fib = g.fiber(u)
        assert u in fib
        seen.extend(fib)
    assert sorted(seen) == list(g.elements)


@given(st.integers(0, 300))
def test_product_endpoints(seed):
    g = random_groupoid(seed)
    for (x, y), z in g.compose_map.items():
        assert g.r(z) == g.r(x)
        assert g.d(z) == g.d(y)


@given(st.integers(0, 200))
def test_orbit_map_respects_composition(seed):
    g = random_groupoid(seed)
    part = orbits(g)
    for (x, y), z in g.compose_map.items():
        assert part.index[g.r(z)] == part.index[g.r(x)]


def test_empty_groupoid_is_a_valid_bare_groupoid():
    g = FiniteGroupoid([], [], {}, {}, {}, {})
    assert validate_groupoid(g).ok
    # but it cannot carry a nonzero unit measure
    from measured_groupoids import FiniteMeasure, MeasureSystem
    from measured_groupoids.haar import HaarGroupoid, validate_haar_groupoid

    empty = HaarGroupoid(g, MeasureSystem({}, [], [], {}), FiniteMeasure([], {}))
    report = validate_haar_groupoid(empty)
    assert any(v.rule == "nonzero-unit-measure" for v in report.violations)


# validate_groupoid against the exhaustive enumeration: the same report, with
# the same violations in the same order

# every leg is mutated, and the pullbacks up to this size: the enumeration
# takes seconds on each mutant of the largest ones
MUTATED_PULLBACK_MAX = 64


def test_validate_groupoid_matches_enumeration_on_small_groupoids():
    empty = FiniteGroupoid([], [], {}, {}, {}, {})
    lone_arrow = FiniteGroupoid(["a"], [], {"a": "a"}, {"a": "a"}, {"a": "a"}, [("a", "a", "a")])
    no_product = FiniteGroupoid(["e"], ["e"], {"e": "e"}, {"e": "e"}, {"e": "e"}, {})
    for g in (empty, trivial_group(), lone_arrow, no_product):
        assert verdict(validate_groupoid, g) == literal_groupoid_report(g)
    assert not validate_groupoid(lone_arrow).ok and not validate_groupoid(no_product).ok


def test_validate_groupoid_matches_enumeration_on_sweep_and_mutants(sweep):
    # the three legs and the pullback groupoid of every property-sweep cospan
    swapped = 0
    assert [seed for seed, _ in sweep.pullbacks] == list(range(200))
    for seed, w in sweep.pullbacks:
        rng = random.Random(seed)
        c = w.cospan
        for g in (c.left.groupoid, c.base.groupoid, c.right.groupoid, w.groupoid):
            report = validate_groupoid(g)
            assert report.ok, seed
            assert report.violations == literal_groupoid_report(g).violations, seed
            assert report.counts == generator_counts(g), seed
            if len(g) > MUTATED_PULLBACK_MAX:
                continue
            for name, mutant in table_mutants(g, rng):
                expected = literal_groupoid_report(mutant)
                assert not expected.ok, (seed, name)
                report = validate_groupoid(mutant)
                assert report.violations == expected.violations, (seed, name)
                # the work of the path that ran: the compose entries, counted
                # from the table's products, when a stage fails
                if mutant.generating_set is None:
                    assert report.counts == (("compose entries", len([*mutant.products()])),), (seed, name)
                else:
                    assert report.counts == generator_counts(mutant), (seed, name)
                if name == "swapped-product":
                    # the domain and every linear law still hold, so the
                    # failure is found by the generating-set stage
                    assert {v.rule for v in expected.violations} == {"associativity"}, seed
                    swapped += 1
    assert swapped > 200


def _bench_ladder_groupoids():
    # the legs and the pullback of every point of the scripts/bench.py ladders
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for family, ns in bench.LADDERS.items():
        for n in ns:
            c = bench.ladder_cospan(family, n)
            legs = (c.left.groupoid, c.base.groupoid, c.right.groupoid, c.left_map.mapping, c.right_map.mapping)
            yield f"{family} {n}", (c.base.groupoid, weak_pullback_groupoid(*legs).groupoid)


def test_orbit_cycles_give_no_more_generators_than_the_canonical_order(sweep):
    # every groupoid of the sweep cospans and of the bench ladders: the set
    # found with orbit cycles offered first is no larger than the greedy set
    # in canonical order alone, and on the sweep pullbacks it is smaller
    cases = [
        (seed, (w.cospan.left.groupoid, w.cospan.base.groupoid, w.cospan.right.groupoid, w.groupoid))
        for seed, w in sweep.pullbacks
    ]
    cases += _bench_ladder_groupoids()
    cycles = canonical = 0
    for label, groupoids in cases:
        for g in groupoids:
            gens, greedy = g.generating_set, canonical_generators(g)
            assert gens is not None and len(gens) <= len(greedy), label
        # each case ends with its pullback
        cycles, canonical = cycles + len(gens), canonical + len(greedy)
    assert cycles < canonical


def _preorder(points, up: bool) -> FiniteGroupoid:
    # the arrows (a, b) of the pair groupoid with a <= b (or a >= b), closed
    # under its product, each its own inverse: an orbit without the arrow
    # from its first unit to its last (or from its second to its first)
    g = pair_groupoid(points)
    keep = [x for x in g.elements if (g.r(x) <= g.d(x)) == up or g.r(x) == g.d(x)]
    kept = set(keep)
    return FiniteGroupoid(
        keep, g.units, {x: g.r(x) for x in keep}, {x: g.d(x) for x in keep}, {x: x for x in keep},
        [entry for entry in g.products() if kept.issuperset(entry)],
    )


def test_orbit_cycles_fall_back_to_the_canonical_order():
    # the row stages hold on each of these, so their generating sets are
    # searched: an orbit lacks a cycle arrow (closing or consecutive), or an
    # end is not a unit (a unit dropped from the unit list). The candidates
    # are then the elements in canonical order, and the report is the
    # exhaustive one
    pair = pair_groupoid(["1", "2", "3"])
    unit_dropped = FiniteGroupoid(pair.elements, pair.units[1:], pair.range_map, pair.source_map, pair.inverse_map, pair.products())
    for g in (_preorder(["1", "2", "3"], True), _preorder(["1", "2", "3", "4"], False), unit_dropped):
        assert _candidates(g) is g.elements
        assert g.generating_set == canonical_generators(g)
        expected = literal_groupoid_report(g)
        assert not expected.ok
        assert verdict(validate_groupoid, g) == expected
    # with the cycle present, the cycle arrows come first
    assert list(_candidates(pair))[:3] == ["1-2", "2-3", "3-1"]


@given(st.integers(0, 300), st.sampled_from([(2, 8), (4, 24), (6, 40)]))
def test_generating_sets_generate_every_element(seed, bounds):
    g = random_groupoid(seed, bounds)
    gens = g.generating_set
    assert gens is not None
    assert closure_under_products(g, gens) == set(g.elements)
    assert len(gens) <= len(canonical_generators(g))


def test_validate_hom_matches_enumeration_on_sweep_and_mutants(sweep):
    # both leg maps and both projections of every sweep cospan; then one
    # projection with one image moved within its hom-set; then identity maps
    # from and to each table mutant and a groupoid with a product naming no
    # element, whose missing generating set has every element checked. The
    # oracle carries no work counts, so violations are compared, and the
    # counts are asserted on their own
    moved = 0
    for seed, w in sweep.pullbacks:
        rng = random.Random(seed)
        c = w.cospan
        for hom in (c.left_map, c.right_map, w.proj_left, w.proj_right):
            report = validate_hom(hom)
            assert report.ok, seed
            assert report.violations == literal_hom_report(hom).violations, seed
            assert report.counts == generator_counts(hom.domain), seed

        proj = w.proj_left if seed % 2 else w.proj_right
        leg = proj.codomain
        hom_sets: dict[tuple[str, str], list[str]] = {}
        for z in leg.elements:
            hom_sets.setdefault((leg.r(z), leg.d(z)), []).append(z)
        movable = [x for x in proj.domain.elements if len(hom_sets[(leg.r(proj(x)), leg.d(proj(x)))]) > 1]
        if movable:
            x = rng.choice(movable)
            z = rng.choice([z for z in hom_sets[(leg.r(proj(x)), leg.d(proj(x)))] if z != proj(x)])
            mutant = GroupoidHom(proj.domain, leg, {**proj.mapping, x: z})
            expected = literal_hom_report(mutant)
            assert not expected.ok, seed
            report = validate_hom(mutant)
            assert report.violations == expected.violations, seed
            assert report.counts == (("compose entries", len(proj.domain.compose_map)),), seed
            moved += 1

        for g in (c.left.groupoid, c.base.groupoid, c.right.groupoid, w.groupoid):
            if len(g) > MUTATED_PULLBACK_MAX:
                continue
            identity = {x: x for x in g.elements}
            for name, mutant in [*table_mutants(g, rng), ("dangling-product", dangling_product(g))]:
                for hom in (GroupoidHom(mutant, g, identity), GroupoidHom(g, mutant, identity)):
                    got, want = verdict(validate_hom, hom), outcome(literal_hom_report, hom)
                    if name == "dangling-product" and hom.domain is mutant:
                        # the oracle's KeyError at the unknown product fails closed
                        assert fails_closed(got, want), seed
                    elif name == "dangling-product":
                        # the oracle names the unknown product in a violation;
                        # the codomain's table is checked, and that fails closed
                        assert any("ghost" in str(v) for v in want.violations), seed
                        assert got[0] is MalformedInput and "'ghost'" in got[1], seed
                    else:
                        assert got == want, (seed, name)
    assert moved > 100


def test_validate_hom_fails_closed_on_unknown_ids_in_either_table():
    # each table names an id the element loops would look up: the reference
    # checks of both ends run first and name it, where a bare KeyError came
    g = pair_groupoid(["1", "2"])
    identity = {x: x for x in g.elements}

    def with_tables(**tables):
        given = dict(elements=g.elements, units=g.units, range_map=g.range_map, source_map=g.source_map, inverse_map=g.inverse_map)
        return FiniteGroupoid(**{**given, **tables}, rows=g.rows)

    no_range = with_tables(range_map={x: u for x, u in g.range_map.items() if x != "1-2"})
    with pytest.raises(MalformedInput, match="range map undefined at '1-2'"):
        validate_hom(GroupoidHom(g, no_range, identity))
    ghost_unit = with_tables(units=[*g.units, "ghost"])
    with pytest.raises(MalformedInput, match="unit list names unknown id 'ghost'"):
        validate_hom(GroupoidHom(ghost_unit, g, identity))
    ghost_inverse = with_tables(inverse_map={**g.inverse_map, "1-2": "ghost"})
    with pytest.raises(MalformedInput, match="inverse map takes the unknown value 'ghost'"):
        is_isomorphism(GroupoidHom(ghost_inverse, g, identity))
    # a product the element loops never look up: the codomain's (1-2, 2-1),
    # which the domain's products are compared with
    ghost_product = FiniteGroupoid(
        g.elements, g.units, g.range_map, g.source_map, g.inverse_map,
        [(x, y, "ghost" if (x, y) == ("1-2", "2-1") else z) for x, y, z in g.products()],
    )
    for check in (validate_hom, is_isomorphism):
        with pytest.raises(MalformedInput, match="compose table references unknown id 'ghost'"):
            check(GroupoidHom(g, ghost_product, identity))


# the one conversion of pairs into rows, under random edits of a pairs table

EDITS = ("delete", "non-composable", "rewrite", "unknown-owner", "unknown-key", "unknown-product")


@st.composite
def edited_groupoids(draw):
    """A disjoint union of one or two of the generator's random components,
    its pairs table edited one to three times, built through the conversion;
    each edit that names an unknown id names one of its own."""
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    parts = [_random_component(rng, 3, 9, f"p{i}x") for i in range(draw(st.integers(1, 2)))]
    g = parts[0] if len(parts) == 1 else disjoint_union(parts, ["a", "b"])[0]
    pairs = dict(g.compose_map)
    for i, kind in enumerate(draw(st.lists(st.sampled_from(EDITS), min_size=1, max_size=3))):
        keys = sorted(pairs)
        if kind == "delete" and keys:
            del pairs[draw(st.sampled_from(keys))]
        elif kind == "non-composable":
            apart = [(x, y) for x in g.elements for y in g.elements if g.d(x) != g.r(y)]
            if apart:
                pairs[draw(st.sampled_from(apart))] = draw(st.sampled_from(g.elements))
        elif kind == "rewrite" and keys:
            pairs[draw(st.sampled_from(keys))] = draw(st.sampled_from(g.elements))
        elif kind == "unknown-owner":
            pairs[(f"ghost-owner{i}", draw(st.sampled_from(g.elements)))] = draw(st.sampled_from(g.elements))
        elif kind == "unknown-key":
            pairs[(draw(st.sampled_from(g.elements)), f"ghost-key{i}")] = draw(st.sampled_from(g.elements))
        elif kind == "unknown-product" and keys:
            pairs[draw(st.sampled_from(keys))] = f"ghost-product{i}"
    return FiniteGroupoid(g.elements, g.units, g.range_map, g.source_map, g.inverse_map, triples_of(pairs)), pairs


@given(edited_groupoids())
def test_conversion_keeps_every_edit_of_a_pairs_table(case):
    # the rows and strays hold the edited table exactly: validation reports
    # what the enumeration over pairs and triples reports, or raises the same
    # text, and the document round trip keeps every entry
    g, pairs = case
    assert dict(g.compose_map) == pairs and len(g.compose_map) == len(pairs)
    got = verdict(validate_groupoid, g)
    assert got == outcome(literal_groupoid_report, g)
    text = serialize(GroupoidDocument(g))
    if isinstance(got, tuple):
        assert got[0] is MalformedInput
        with pytest.raises(DanglingReference) as parsed:
            parse_document(text)
        assert str(parsed.value) == f"$: {got[1]}"
    else:
        doc = parse_document(text)
        assert doc.groupoid == g
        assert serialize(doc) == text
