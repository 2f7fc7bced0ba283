import importlib.util
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from measured_groupoids import (
    Cospan,
    FiniteMeasure,
    InvalidCospan,
    MalformedInput,
    MeasureSystem,
    NotADisintegration,
    NotMeasureClassPreserving,
    alternate_disintegration,
    build_weak_pullback,
    check_commuting_diamond,
    check_disintegration_independence,
    check_expanding_lemma,
    check_fiber_product_lemma,
    check_haar_theorem,
    check_projection_homs,
    check_quasi_invariance_and_modular,
    check_triple_integral_lemma,
    cotrivial_groupoid,
    counting_haar_system,
    cyclic_group,
    direct_product,
    haar_system_from_source_weights,
    is_haar,
    is_isomorphism,
    is_quasi_invariant,
    pair_groupoid,
    random_cospan,
    trivial_group,
    validate_cospan,
    validate_groupoid,
    validate_hom,
    weak_pullback_groupoid,
    with_counting_haar,
)
from measured_groupoids.documents import CospanDocument, GroupoidDocument, parse_document
from measured_groupoids.families import CechCospanData, cech_cospan_groupoids, transformation_cospan_groupoids
from measured_groupoids.groupoid import GroupoidHom, ValidationReport, Violation, identity_hom
from measured_groupoids.haar import HaarGroupoid
from measured_groupoids.measures import class_witness

from helpers import (
    cotrivial_comparison_hom,
    dangling_product,
    fraction_disintegration_independence,
    fraction_expanding_report,
    fraction_haar_system_from_source_weights,
    fraction_induced,
    fraction_is_quasi_invariant,
    fraction_measures_of_pullback,
    fraction_modular,
    fraction_class_witness,
    fraction_haar_hom_class_violations,
    fraction_quasi_invariance_and_modular,
    fraction_triple_integral_report,
    fraction_weights,
    literal_haar_report,
    literal_weak_pullback_groupoid,
    measure_of,
    members_of,
    outcome,
    literal_expanding_rhs,
    literal_lifted_eta_weight,
    literal_orbits_through,
    literal_product_haar_weight,
    literal_triple_integral_report,
    literal_triple_integral_sides,
    outer_square_counterexample,
    pair_trivial_cospan,
    random_cotrivial_cospan,
    regular_pullback,
    replace,
    unit_weight_mutants,
    system_of,
    unmemoised_expanding_report,
    verdict,
    z2_cospan,
)

F = Fraction
ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
BENCH = ROOT / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def z2_result():
    c = z2_cospan()
    return c, build_weak_pullback(c)


def test_z2_cospan_counts(z2_result):
    c, w = z2_result
    assert len(w.groupoid.elements) == 8
    assert len(w.groupoid.units) == 2
    assert validate_groupoid(w.groupoid).ok


def test_z2_unit_space_contents(z2_result):
    _, w = z2_result
    assert set(w.groupoid.units) == {"g0|g0|g0", "g0|g1|g0"}


def test_z2_fiber_lemma_and_size(z2_result):
    _, w = z2_result
    assert check_fiber_product_lemma(w).ok
    assert len(w.groupoid.fiber("g0|g0|g0")) == 4


def test_z2_all_checks(z2_result):
    c, w = z2_result
    assert check_haar_theorem(w).ok
    quasi, modular = check_quasi_invariance_and_modular(w, strict=True)
    assert quasi.ok and modular.ok
    assert modular.counts == (("checked", 8), ("skipped", 0))
    assert set(w.haar_groupoid.modular.values()) == {F(1)}
    assert check_projection_homs(w).ok
    assert check_commuting_diamond(w).ok
    assert check_triple_integral_lemma(w).ok
    assert check_expanding_lemma(w).ok


def test_z2_outer_square_does_not_commute(z2_result):
    _, w = z2_result
    pid = outer_square_counterexample(w)
    assert pid is not None
    s, _, t = w.algebraic.triples[pid]
    assert w.cospan.left_map.mapping[s] != w.cospan.right_map.mapping[t]


def test_trivial_base_gives_direct_product():
    s = pair_groupoid(["1", "2"])
    t = cyclic_group(2)
    g = trivial_group()
    c = Cospan(
        with_counting_haar(s),
        with_counting_haar(g),
        with_counting_haar(t),
        GroupoidHom(s, g, {x: "e" for x in s.elements}),
        GroupoidHom(t, g, {x: "e" for x in t.elements}),
    )
    w = build_weak_pullback(c)
    prod, eid = direct_product(s, t)
    hom = GroupoidHom(
        w.groupoid, prod, {pid: eid[(tr[0], tr[2])] for pid, tr in w.algebraic.triples.items()}
    )
    assert len(w.groupoid.elements) == len(s.elements) * len(t.elements)
    assert is_isomorphism(hom).ok


def test_invalid_cospan_raises_with_report():
    s = pair_groupoid(["1", "2"])
    bad_left = HaarGroupoid(s, counting_haar_system(s), FiniteMeasure(s.units, {"1-1": 1}))
    g = with_counting_haar(trivial_group())
    c = Cospan(
        bad_left,
        g,
        g,
        GroupoidHom(s, g.groupoid, {x: "e" for x in s.elements}),
        identity_hom(g.groupoid),
    )
    with pytest.raises(InvalidCospan) as err:
        build_weak_pullback(c)
    assert any(v.rule == "left.quasi-invariance" for v in err.value.report.violations)


def test_pair_trivial_modular_identity_against_closed_form():
    # base is trivial, so Delta_G == 1 and Delta_P must be Delta_S * Delta_T
    c = pair_trivial_cospan(mu_left=(1, 2), mu_right=(1, 3))
    w = build_weak_pullback(c)
    quasi, modular = check_quasi_invariance_and_modular(w, strict=True)
    assert quasi.ok and modular.ok
    delta_s = c.left.modular
    delta_t = c.right.modular
    for pid in sorted(w.haar_groupoid.induced.support):
        sigma, _, tau = w.algebraic.triples[pid]
        assert w.haar_groupoid.modular[pid] == delta_s[sigma] * delta_t[tau]


def test_pair_trivial_full_suite():
    c = pair_trivial_cospan()
    w = build_weak_pullback(c)
    assert validate_groupoid(w.groupoid).ok
    assert check_fiber_product_lemma(w).ok
    assert check_haar_theorem(w).ok
    assert check_projection_homs(w).ok
    assert check_commuting_diamond(w).ok
    assert check_triple_integral_lemma(w).ok
    assert check_expanding_lemma(w).ok


def test_triple_integral_literal_oracle_on_fixtures():
    for c in (z2_cospan(), pair_trivial_cospan()):
        w = build_weak_pullback(c)
        for leg, leg_map, gamma in (
            (c.left, c.left_map.mapping, w.disint_left),
            (c.right, c.right_map.mapping, w.disint_right),
        ):
            base_g = c.base.groupoid
            pairs = [
                (y, sigma)
                for sigma in leg.groupoid.elements
                for y in base_g.elements
                if base_g.r(y) == base_g.r(leg_map[sigma])
            ]
            for u in base_g.units:
                for y0, sigma0 in pairs:
                    lhs, rhs = literal_triple_integral_sides(leg, c.base, leg_map, gamma, u, y0, sigma0)
                    assert lhs == rhs


def test_expanding_lemma_literal_oracle_on_fixtures():
    for c in (z2_cospan(), pair_trivial_cospan()):
        w = build_weak_pullback(c)
        for pid in w.groupoid.elements:
            assert w.haar_groupoid.induced(pid) == literal_expanding_rhs(w, w.algebraic.triples[pid])


def test_trivial_one_point_cospan_expanding():
    g = with_counting_haar(trivial_group())
    c = Cospan(g, g, g, identity_hom(g.groupoid), identity_hom(g.groupoid))
    w = build_weak_pullback(c)
    assert len(w.groupoid.elements) == 1
    assert check_expanding_lemma(w).ok
    assert w.haar_groupoid.induced("e|e|e") == literal_expanding_rhs(w, ("e", "e", "e"))


def test_corrupted_haar_weight_is_detected():
    c = z2_cospan()
    w = build_weak_pullback(c)
    unit = w.groupoid.units[0]
    victim = w.groupoid.fiber(unit)[0]
    tampered_family = members_of(w.haar)
    weights = fraction_weights(tampered_family[unit])
    weights[victim] = weights[victim] + 1
    tampered_family[unit] = measure_of(w.groupoid.elements, weights)
    tampered = system_of(w.haar.over, w.haar.domain, w.haar.codomain, tampered_family)
    report = is_haar(w.groupoid, tampered)
    assert not report.ok
    assert any(v.rule == "left-invariance" for v in report.violations)


def test_leg_haar_product_system_on_z2_cospan():
    # lam_P is the fibrewise product lam_S x delta_g x lam_T, checked at every
    # (unit, element) pair; the seeded cospans carry non-uniform Haar weights
    c = z2_cospan()
    w = build_weak_pullback(c)
    for u in w.groupoid.units:
        fiber = w.groupoid.fiber(u)
        assert len(fiber) == 4  # 2 x 2 leg fibers
        assert all(w.haar.weight(u, pid) == 1 for pid in fiber)
    for c in (c, pair_trivial_cospan(), random_cospan(3), random_cospan(9, with_null_base=True)):
        w = build_weak_pullback(c, validate=False)
        for u in w.groupoid.units:
            for pid in w.groupoid.elements:
                expected = literal_product_haar_weight(c, w.algebraic.triples[u], w.algebraic.triples[pid])
                assert w.haar.weight(u, pid) == expected


def test_eta_system_is_lift_of_disintegration_product():
    # the unit-space system equals the lift of (gamma_p * gamma_q) along the
    # (range, source) map of the base, up to the pairing of coordinates
    for c in (z2_cospan(), pair_trivial_cospan(), random_cospan(11, with_null_base=True)):
        w = build_weak_pullback(c, validate=False)
        base = c.base.groupoid
        p = c.left_map.mapping
        q = c.right_map.mapping
        # the corner {(x, s, t) : (r(x), d(x)) = (p(s), q(t))} is the unit space
        corner = [
            (s, x, t)
            for x in base.elements
            for s in c.left.groupoid.units
            for t in c.right.groupoid.units
            if (p[s], q[t]) == (base.r(x), base.d(x))
        ]
        assert sorted(corner) == sorted(w.algebraic.triples[u] for u in w.groupoid.units)
        for x in base.elements:
            for u in w.groupoid.units:
                assert w.eta.weight(x, u) == literal_lifted_eta_weight(w, x, w.algebraic.triples[u])


def test_disintegration_independence_on_engineered_null_units():
    c = random_cospan(11, with_null_base=True)
    w = build_weak_pullback(c, validate=False)
    alt_left = alternate_disintegration(w.disint_left, c.base.unit_measure, scale=3)
    alt_right = alternate_disintegration(w.disint_right, c.base.unit_measure, scale=F(1, 2))
    assert alt_left != w.disint_left  # there is genuine freedom
    assert check_disintegration_independence(w, alt_left, alt_right).ok


def test_disintegration_independence_canonical_vs_itself():
    c = z2_cospan()
    w = build_weak_pullback(c)
    assert check_disintegration_independence(w, w.disint_left, w.disint_right).ok


def test_disintegration_independence_rejects_non_disintegration():
    c = z2_cospan()
    w = build_weak_pullback(c)
    # strictly positive base: scaling any fiber breaks reconstruction
    broken = MeasureSystem(
        w.disint_left.over,
        w.disint_left.domain,
        w.disint_left.codomain,
        {y: {x: 2 * n for x, n in ws.items()} for y, ws in w.disint_left.nums.items()},
        w.disint_left.den,
    )
    with pytest.raises(NotADisintegration):
        check_disintegration_independence(w, broken, w.disint_right)


def test_cotrivial_base_matches_regular_pullback():
    for seed in range(6):
        c = random_cotrivial_cospan(seed)
        w = build_weak_pullback(c, validate=False)
        reg, components = regular_pullback(
            c.left.groupoid, c.base.groupoid, c.right.groupoid, c.left_map.mapping, c.right_map.mapping
        )
        assert validate_groupoid(reg).ok
        hom = cotrivial_comparison_hom(w.algebraic, reg, components)
        assert is_isomorphism(hom).ok


def test_shape_invariant_fiber_counts():
    # |P| equals the sum over units of |S^s| * |T^t| fiber sizes
    for seed in (0, 3, 7):
        c = random_cospan(seed)
        w = build_weak_pullback(c, validate=False)
        s_g = c.left.groupoid
        t_g = c.right.groupoid
        total = 0
        for u in w.groupoid.units:
            s, _, t = w.algebraic.triples[u]
            total += len(s_g.fiber(s)) * len(t_g.fiber(t))
        assert total == len(w.groupoid.elements)


def test_random_cospans_small_sweep():
    for seed in range(12):
        c = random_cospan(seed)
        assert validate_cospan(c).ok
        w = build_weak_pullback(c, validate=False)
        assert validate_groupoid(w.groupoid).ok
        assert check_fiber_product_lemma(w).ok
        assert check_haar_theorem(w).ok
        quasi, modular = check_quasi_invariance_and_modular(w)
        assert quasi.ok and modular.ok and dict(modular.counts)["checked"] > 0
        assert check_projection_homs(w).ok
        assert check_commuting_diamond(w).ok
        assert check_triple_integral_lemma(w).ok
        assert check_expanding_lemma(w).ok


def test_commuting_diamond_via_composed_homs():
    # the diamond compares the base orbits reached through the two composites
    for c in (z2_cospan(), *(random_cospan(seed) for seed in range(6))):
        w = build_weak_pullback(c, validate=False)
        through_left = literal_orbits_through(w, c.left_map.mapping, w.proj_left.mapping)
        through_right = literal_orbits_through(w, c.right_map.mapping, w.proj_right.mapping)
        assert through_left == through_right
        assert check_commuting_diamond(w).ok


def test_unit_level_class_preservation_implied_on_generated_legs():
    # whenever the element-level measure-class check passes, the derived
    # unit-level check may never fail
    from measured_groupoids import validate_haar_hom

    for seed in range(10):
        c = random_cospan(seed, with_null_base=(seed % 2 == 1))
        for hom, leg in ((c.left_map, c.left), (c.right_map, c.right)):
            report = validate_haar_hom(hom, leg, c.base)
            rules = {v.rule for v in report.violations}
            if "measure-class" not in rules:
                assert "unit-measure-class" not in rules


def test_build_records_trivially_satisfied_assumptions():
    w = build_weak_pullback(z2_cospan())
    assert len(w.assumptions) == 2


def test_algebraic_pullback_without_measures():
    s = pair_groupoid(["1", "2"])
    alg = weak_pullback_groupoid(s, s, s, {x: x for x in s.elements}, {x: x for x in s.elements})
    assert validate_groupoid(alg.groupoid).ok
    from measured_groupoids.groupoid import validate_hom

    assert validate_hom(alg.proj_left).ok
    assert validate_hom(alg.proj_right).ok


def _assert_builders_agree(s_g, base, t_g, p, q, label, built=None):
    # the row-by-row builder against the entry-by-entry oracle: equal tables
    # in equal insertion order, equal triples and projections
    got = built or weak_pullback_groupoid(s_g, base, t_g, p, q)
    want = literal_weak_pullback_groupoid(s_g, base, t_g, p, q)
    assert got.groupoid == want.groupoid, label
    for table in ("range_map", "source_map", "inverse_map"):
        assert list(getattr(got.groupoid, table).items()) == list(getattr(want.groupoid, table).items()), (label, table)
    # the products are equal above, and the compose pairs come in equal order
    assert list(got.groupoid.compose_map) == list(want.groupoid.compose_map), label
    assert list(got.triples.items()) == list(want.triples.items()), label
    for proj in ("proj_left", "proj_right"):
        assert getattr(got, proj) == getattr(want, proj), (label, proj)
        assert list(getattr(got, proj).mapping.items()) == list(getattr(want, proj).mapping.items()), (label, proj)
    return want


def _legs(c):
    return c.left.groupoid, c.base.groupoid, c.right.groupoid, c.left_map.mapping, c.right_map.mapping


def test_row_builder_matches_the_literal_builder_on_the_sweep(sweep):
    for seed, w in sweep.pullbacks:
        want = _assert_builders_agree(*_legs(w.cospan), seed, built=w.algebraic).groupoid
        # the compose view: the count stored at construction, and its pairs
        assert len(w.groupoid.compose_map) == len(list(want.compose_map)), seed
        assert set(w.groupoid.compose_map) == set(want.compose_map), seed


def test_row_builder_matches_the_literal_builder_on_fixtures_examples_and_ladders():
    # every fixture (a groupoid document as its identity cospan, and the
    # invalid cospan too), the cospans of both worked examples, and every
    # point of the three ladder families of scripts/bench.py
    cases = []
    for path in sorted(FIXTURES.glob("*.json")):
        doc = parse_document(path.read_text(encoding="utf-8"))
        if isinstance(doc, CospanDocument):
            cases.append((path.name, _legs(doc.to_cospan())))
        elif isinstance(doc, GroupoidDocument):
            ident = identity_hom(doc.groupoid).mapping
            cases.append((path.name, (doc.groupoid,) * 3 + (ident, ident)))
        else:
            build = cech_cospan_groupoids if isinstance(doc, CechCospanData) else transformation_cospan_groupoids
            left, base, right, hom_left, hom_right = build(doc)
            cases.append((path.name, (left, base, right, hom_left.mapping, hom_right.mapping)))
    assert len(cases) == 5
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert set(bench.LADDERS) == {"cyclic", "pair", "transformation"}
    for family, ns in bench.LADDERS.items():
        cases += [(f"{family} {n}", _legs(bench.ladder_cospan(family, n))) for n in ns]
    for label, legs in cases:
        _assert_builders_agree(*legs, label)


def test_row_builder_refuses_maps_that_are_not_homomorphisms():
    # p(g1) = y is not over p(r(g1)) = x. Built entry by entry, the row of
    # (g0, x, u) keeps the one key it finds and drops the product g0·g1
    s, t, base = cyclic_group(2), cotrivial_groupoid(["u", "v"]), cotrivial_groupoid(["x", "y"])
    p, q = {"g0": "x", "g1": "y"}, {"u": "x", "v": "x"}
    short = literal_weak_pullback_groupoid(s, base, t, p, q).groupoid
    assert len(short.compose_map) == 2
    with pytest.raises(MalformedInput, match=r"^leg maps are not homomorphisms: the row of triple 'g0\|x\|u' "):
        weak_pullback_groupoid(s, base, t, p, q)


@pytest.mark.parametrize(
    "legs, message",
    [
        # p(v) = y is not over p(r(v)) = p(v): the range entry of (v, y, g1)
        # names (v, y, g0), which is no triple since q(g0) = x
        (
            (cotrivial_groupoid(["u", "v"]), cotrivial_groupoid(["x", "y"]), cyclic_group(2), {"u": "y", "v": "y"}, {"g0": "x", "g1": "y"}),
            r"the structure entries of triple 'u\|y\|g1' cannot be built \(KeyError: 'g0'\)$",
        ),
        # p sends 2-3 and 3-2 to v and the rest of the pair groupoid to u: the
        # row of (1-2, u, g0) has more products than its source's fiber has keys
        (
            (pair_groupoid(["1", "2", "3"]), cotrivial_groupoid(["u", "v"]), cyclic_group(2), None, {"g0": "u", "g1": "u"}),
            r"the row of triple '1-2\|u\|g0' cannot be built \(ValueError: 6 products for an r-fiber of 4\)$",
        ),
        # p names a base id that is no element, before any triple exists
        (
            (cyclic_group(2), cotrivial_groupoid(["x", "y"]), cotrivial_groupoid(["u"]), {"g0": "x", "g1": "z"}, {"u": "x"}),
            r"the triples cannot be built \(KeyError: 'z'\)$",
        ),
    ],
)
def test_builder_names_the_triple_where_maps_that_are_not_homomorphisms_fail(legs, message):
    # the builder fails closed: a KeyError or ValueError from its loops
    # becomes MalformedInput naming the triple, or the triples, it was building
    s, base, t, p, q = legs
    if p is None:
        p = {x: "v" if x in ("2-3", "3-2") else "u" for x in s.elements}
    with pytest.raises(MalformedInput, match="^leg maps are not homomorphisms: " + message):
        weak_pullback_groupoid(s, base, t, p, q)


def test_each_haar_groupoid_derives_its_induced_measure_once(monkeypatch):
    # an induced measure is a Haar system composed with its unit measure;
    # count those compositions, by system, wherever a module binds the
    # function, over the whole verdict on a freshly generated cospan
    import sys

    from measured_groupoids import measures
    from measured_groupoids.cli import run_claims

    original = measures.compose_with_measure
    calls = []

    def counted(s, nu):
        calls.append(s)
        return original(s, nu)

    for name, module in list(sys.modules.items()):
        if name.startswith("measured_groupoids") and getattr(module, "compose_with_measure", None) is original:
            monkeypatch.setattr(module, "compose_with_measure", counted)
    for seed in range(10):
        calls.clear()
        c = random_cospan(seed)
        assert validate_cospan(c).ok
        w = build_weak_pullback(c, validate=False)
        assert all(ok for ok, _ in run_claims(c, w).values())
        for h in (c.left, c.base, c.right, w.haar_groupoid):
            assert sum(s is h.haar for s in calls) <= 1, seed
        assert len(calls) <= 8, seed


def _two_orbit_cospan() -> Cospan:
    """Two points a, b over two base points x, y, on both legs: the base has
    two orbits and every leg fiber is a single point."""
    space = cotrivial_groupoid(["a", "b"])
    base = cotrivial_groupoid(["x", "y"])
    leg = GroupoidHom(space, base, {"a": "x", "b": "y"})
    return Cospan(with_counting_haar(space), with_counting_haar(base), with_counting_haar(space), leg, leg)


def _with_triple(w, pid, triple):
    """The result with the triple recorded for one pullback element replaced."""
    return replace(w, algebraic=replace(w.algebraic, triples={**w.algebraic.triples, pid: triple}))


def _names(report, x) -> bool:
    return not report.ok and any(x in v.witnesses for v in report.violations)


def test_negative_controls_name_the_tampered_element():
    # each former yes/no check fails on a result tampered in one component,
    # and one of its violations names the tampered element
    c = pair_trivial_cospan(mu_left=(1, 2), mu_right=(1, 3))
    w = build_weak_pullback(c)
    u = "1-1|e|1-1"
    assert u in w.groupoid.units
    # a unit's triple: its r-fiber is no longer S^s x {g} x T^t
    assert _names(check_fiber_product_lemma(_with_triple(w, u, ("2-2", "e", "1-1"))), u)
    # an element's triple: Delta_S(1-2) = 1/2 where Delta_P still says 1
    pid = "1-1|e|1-2"
    assert _names(check_quasi_invariance_and_modular(_with_triple(w, pid, ("1-2", "e", "1-2")))[1], pid)
    # the unit measure: the induced measure and the disintegrated one move apart
    weights = fraction_weights(w.unit_measure)
    weights[u] += 1
    heavier = replace(w, unit_measure=measure_of(w.groupoid.units, weights))
    assert _names(check_expanding_lemma(heavier), u)
    assert _names(check_disintegration_independence(heavier, w.disint_left, w.disint_right), u)

    c = _two_orbit_cospan()
    w = build_weak_pullback(c)
    assert w.groupoid.elements == ("a|x|a", "b|y|b")
    assert check_commuting_diamond(w).ok and check_triple_integral_lemma(w).ok
    # a triple whose legs reach the orbits of x and y
    assert _names(check_commuting_diamond(_with_triple(w, "a|x|a", ("b", "x", "a"))), "a|x|a")
    # gamma_p^x given mass off the fiber p^-1(x) = {a}
    family = members_of(w.disint_left)
    family["x"] = FiniteMeasure(w.disint_left.domain, {"a": 1, "b": 1})
    off_fiber = system_of(w.disint_left.over, w.disint_left.domain, w.disint_left.codomain, family)
    report = check_triple_integral_lemma(replace(w, disint_left=off_fiber))
    assert _names(report, "x")
    assert ("x", "y", "b") in {v.witnesses for v in report.violations}


def test_quasi_invariance_failure_is_both_reports():
    # with one unit charged, 1-1|e|1-2 runs from an uncharged unit into it:
    # the induced measure charges it and not its inverse, and Delta_P is
    # undefined, so the modular report is the quasi-invariance one
    w = build_weak_pullback(pair_trivial_cospan())
    lopsided = replace(w, unit_measure=FiniteMeasure(w.groupoid.units, {"1-1|e|1-1": 1}))
    quasi, modular = check_quasi_invariance_and_modular(lopsided)
    assert modular is quasi
    assert [(v.rule, v.witnesses) for v in quasi.violations] == [("quasi-invariance", ("1-1|e|1-2",))]


def test_disintegration_independence_rejects_other_maps_and_off_fiber_mass():
    w = build_weak_pullback(pair_trivial_cospan())
    gamma = w.disint_left
    other_map = MeasureSystem({"1-1": "e"}, gamma.domain, gamma.codomain, gamma.nums, gamma.den)
    with pytest.raises(NotADisintegration, match="^left: system is over the wrong map$"):
        check_disintegration_independence(w, other_map, w.disint_right)
    # gamma_q^y given mass off the fiber q^-1(y) = {b}
    w = build_weak_pullback(_two_orbit_cospan())
    gamma = w.disint_right
    family = {**members_of(gamma), "y": FiniteMeasure(gamma.domain, {"a": 1, "b": 1})}
    off_fiber = system_of(gamma.over, gamma.domain, gamma.codomain, family)
    with pytest.raises(NotADisintegration, match="^right: system is not concentrated on fibers$"):
        check_disintegration_independence(w, w.disint_left, off_fiber)


def test_strict_modular_check_names_skipped_triples():
    # on a valid cospan every support triple has on-support constituents, so
    # a triple is skipped only when it is tampered: here one names the leg
    # point b, where the leg's unit measure vanishes and Delta_S is undefined
    s = cotrivial_groupoid(["a", "b"])
    base = with_counting_haar(trivial_group())
    leg = HaarGroupoid(s, counting_haar_system(s), FiniteMeasure(s.units, {"a": 1}))
    hom = GroupoidHom(s, base.groupoid, {"a": "e", "b": "e"})
    w = build_weak_pullback(Cospan(leg, base, base, hom, identity_hom(base.groupoid)))
    assert w.haar_groupoid.induced.support == {"a|e|e"}
    assert all(r.ok for r in check_quasi_invariance_and_modular(w, strict=True))
    tampered = _with_triple(w, "a|e|e", ("b", "e", "e"))
    quasi, lenient = check_quasi_invariance_and_modular(tampered)
    assert quasi.ok and lenient.ok and lenient.counts == (("checked", 0), ("skipped", 1))
    _, strict = check_quasi_invariance_and_modular(tampered, strict=True)
    assert strict.counts == lenient.counts and _names(strict, "a|e|e")


def test_run_claims_follows_claim_order_and_names_witnesses():
    from measured_groupoids.cli import CLAIMS, run_claims

    c = pair_trivial_cospan()
    w = build_weak_pullback(c)
    assert tuple(run_claims(c, w)) == CLAIMS
    # a failing claim's detail is its report's summary, which names a witness
    weights = fraction_weights(w.unit_measure)
    weights["1-1|e|1-1"] += 1
    results = run_claims(c, replace(w, unit_measure=measure_of(w.groupoid.units, weights)))
    assert tuple(results) == CLAIMS
    ok, detail = results["lemma.expanding_integral"]
    assert not ok and detail.startswith("expanding-integral [1-1|e|1-1]")


def test_memoised_lemmas_match_the_literal_sums_on_the_sweep(sweep):
    for seed, w in sweep.pullbacks:
        triple = check_triple_integral_lemma(w)
        assert triple.ok, seed
        assert triple.violations == literal_triple_integral_report(w).violations, seed
        assert check_expanding_lemma(w).ok, seed
        # the literal six-fold sum at elements that between them meet every
        # memoised base sum and leg sum
        base = w.cospan.base.groupoid
        seen: set[tuple[str, ...]] = set()
        for pid in w.groupoid.elements:
            sigma0, x0, tau0 = w.algebraic.triples[pid]
            keys = {("base", x0), ("left", base.r(x0), sigma0), ("right", base.d(x0), tau0)}
            if keys <= seen:
                continue
            seen |= keys
            assert w.haar_groupoid.induced(pid) == literal_expanding_rhs(w, (sigma0, x0, tau0)), (seed, pid)


def _doubled(system: MeasureSystem, y: str, x: str) -> MeasureSystem:
    family = members_of(system)
    m = family[y]
    family[y] = measure_of(m.base, {**fraction_weights(m), x: 2 * m(x)})
    return system_of(system.over, system.domain, system.codomain, family)


def test_memoised_lemmas_name_the_unmemoised_witnesses_on_tampered_results(sweep):
    # one disint_left weight, then one left or right leg Haar weight, doubled
    # on every tenth sweep seed: the same violations, in the same order and
    # text, as the sums recomputed for every comparison
    failed = 0
    for seed, w in sweep.pullbacks[::10]:
        rng = random.Random(seed)
        gamma = w.disint_left
        v, s = rng.choice(sorted((v, s) for v, m in members_of(gamma).items() for s in m.support))
        side = "left" if seed % 20 else "right"
        leg = getattr(w.cospan, side)
        u, y = rng.choice(sorted((u, y) for u, m in members_of(leg.haar).items() for y in m.support))
        tampered_leg = replace(leg, haar=_doubled(leg.haar, u, y))
        for t in (replace(w, disint_left=_doubled(gamma, v, s)), replace(w, cospan=replace(w.cospan, **{side: tampered_leg}))):
            expanding = check_expanding_lemma(t)
            assert expanding.violations == unmemoised_expanding_report(t).violations, seed
            triple = check_triple_integral_lemma(t)
            assert triple.violations == literal_triple_integral_report(t).violations, seed
            failed += (not expanding.ok) + (not triple.ok)
    assert failed > 20


def _failed(result) -> bool:
    """A claim's `outcome` failed: it raised, or a report of it has
    violations."""
    if isinstance(result, ValidationReport):
        return not result.ok
    return isinstance(result[0], type) or any(_failed(r) for r in result)


def _integer_claims_and_fraction_oracles(w, alt_left, alt_right):
    """Each integer claim check's outcome on w beside its Fraction oracle's:
    the report, or what it raised."""
    return [
        (outcome(check, *args), outcome(oracle, *args))
        for check, oracle, args in (
            (check_quasi_invariance_and_modular, fraction_quasi_invariance_and_modular, (w, True)),
            (check_disintegration_independence, fraction_disintegration_independence, (w, alt_left, alt_right)),
            (check_triple_integral_lemma, fraction_triple_integral_report, (w,)),
            (check_expanding_lemma, fraction_expanding_report, (w,)),
        )
    ]


def test_integer_measures_match_the_fraction_oracles_on_the_sweep(sweep):
    # every measure of the cospan and of its pullback, and every claim that
    # sums or compares weights, against the same code in Fractions
    for seed, w in sweep.pullbacks:
        c = w.cospan
        assert (w.haar, w.disint_left, w.disint_right, w.eta, w.unit_measure) == fraction_measures_of_pullback(w), seed
        for h in (c.left, c.base, c.right):
            # lam^u(u) = c(d(u)) = c(u) recovers the source weights
            source = {u: h.haar.weight(u, u) for u in h.groupoid.units}
            assert haar_system_from_source_weights(h.groupoid, source) == h.haar, seed
            assert fraction_haar_system_from_source_weights(h.groupoid, source) == h.haar, seed
        for h in (c.left, c.base, c.right, w.haar_groupoid):
            mu = fraction_induced(h)
            assert h.induced == mu, seed
            assert is_quasi_invariant(h) == fraction_is_quasi_invariant(h, mu), seed
            assert dict(h.modular) == fraction_modular(h, mu), seed
        for proj, leg in ((w.proj_left, c.left), (w.proj_right, c.right)):
            args = (proj.mapping, w.haar_groupoid.induced, leg.groupoid.elements, leg.induced)
            assert class_witness(*args) == fraction_class_witness(*args), seed
        base_mu0 = c.base.unit_measure
        alternates = (alternate_disintegration(w.disint_left, base_mu0), alternate_disintegration(w.disint_right, base_mu0))
        for got, want in _integer_claims_and_fraction_oracles(w, *alternates):
            assert not _failed(got), seed
            assert got == want, seed


def _class_oracle(named_homs) -> list[Violation]:
    """The measure-class violations of `validate_haar_hom` on each
    (name, hom, domain, codomain), from the Fraction oracle, with the name
    put before the rule as the cospan and projection checks put it."""
    return [
        Violation(f"{name}.{v.rule}", v.witnesses, v.detail)
        for name, hom, dom, cod in named_homs
        for v in fraction_haar_hom_class_violations(hom, dom, cod)
    ]


def _class_violations(report) -> list[Violation]:
    return [v for v in report.violations if v.rule.endswith("measure-class")]


def test_measure_class_checks_match_the_fraction_oracle_on_the_sweep_and_unit_weight_mutants(sweep):
    # each check decided on supports gives the violations and witnesses of a
    # Fraction pushforward compared with its target: the legs of every sweep
    # cospan and of its unit-weight mutants, both disintegrations of the
    # unchecked build, and both projections of each pullback built
    seen = {"measure-class": 0, "unit-measure-class": 0, "disintegration": 0}
    for seed, w in sweep.pullbacks:
        for c in (w.cospan, *unit_weight_mutants(w.cospan)):
            report = validate_cospan(c)
            want = []
            if not any(v.rule.split(".")[0] in ("left", "base", "right") for v in report.violations):
                legs = (("left_map", c.left_map, c.left), ("right_map", c.right_map, c.right))
                want = _class_oracle((name, hom, leg, c.base) for name, hom, leg in legs)
            assert _class_violations(report) == want, seed
            for v in want:
                seen[v.rule.split(".")[1]] += 1
            # disintegrate runs on the left leg's unit measure, then the right's
            nu = c.base.unit_measure
            witness = None
            for leg, hom in ((c.left, c.left_map), (c.right, c.right_map)):
                f = {u: hom.mapping[u] for u in leg.groupoid.units}
                witness = witness or fraction_class_witness(f, leg.unit_measure, nu.base, nu)
            try:
                built = w if c is w.cospan else build_weak_pullback(c, validate=False)
            except NotMeasureClassPreserving as e:
                assert witness is not None and e.witness == witness, seed
                assert str(e) == f"pushforward and target measure differ in support, witness {witness!r}", seed
                seen["disintegration"] += 1
                continue
            assert witness is None, seed
            report = check_projection_homs(built)
            h_p = built.haar_groupoid
            projections = (("proj_left", built.proj_left, h_p, c.left), ("proj_right", built.proj_right, h_p, c.right))
            want = _class_oracle(projections)
            assert _class_violations(report) == want, seed
            for v in want:
                seen[v.rule.split(".")[1]] += 1
    assert all(seen.values()), seen


def test_integer_claims_match_the_fraction_oracles_on_tampered_results(sweep):
    # on every tenth sweep seed: the unit measure one heavier at a unit, one
    # support element's triple moved to another on-support leg arrow, one
    # disintegration weight and one leg Haar weight doubled, and one pullback
    # Haar weight one heavier. Each claim gives its Fraction oracle's report,
    # violations, witnesses and text alike, or raises what it raises
    failed = 0
    for seed, w in sweep.pullbacks[::10]:
        rng = random.Random(seed)
        c = w.cospan
        mu = w.unit_measure
        u = rng.choice(w.groupoid.units)
        heavier = replace(w, unit_measure=measure_of(mu.base, {**fraction_weights(mu), u: mu(u) + 1}))
        pid = rng.choice(sorted(w.haar_groupoid.induced.support))
        sigma, g, tau = w.algebraic.triples[pid]
        moved = _with_triple(w, pid, (rng.choice(sorted(c.left.induced.support)), g, tau))
        v, s = rng.choice(sorted((v, s) for v, m in members_of(w.disint_left).items() for s in m.support))
        side = "left" if seed % 20 else "right"
        leg = getattr(c, side)
        lu, y = rng.choice(sorted((lu, y) for lu, m in members_of(leg.haar).items() for y in m.support))
        y0 = rng.choice(w.groupoid.fiber(u))
        members = members_of(w.haar)
        lam = members[u]
        heavier_haar = replace(
            w,
            haar=system_of(
                w.haar.over, w.haar.domain, w.haar.codomain,
                {**members, u: measure_of(lam.base, {**fraction_weights(lam), y0: lam(y0) + 1})},
            ),
        )
        for t in (
            heavier,
            moved,
            replace(w, disint_left=_doubled(w.disint_left, v, s)),
            replace(w, cospan=replace(c, **{side: replace(leg, haar=_doubled(leg.haar, lu, y))})),
            heavier_haar,
        ):
            outcomes = _integer_claims_and_fraction_oracles(t, w.disint_left, w.disint_right)
            outcomes.append((verdict(is_haar, t.groupoid, t.haar), outcome(literal_haar_report, t.groupoid, t.haar)))
            for got, want in outcomes:
                assert got == want, seed
                failed += _failed(got)
    assert failed > 40


def test_generator_checks_report_the_work_of_the_path_that_ran(sweep):
    # validate_groupoid, is_haar and validate_hom stop on the generators of a
    # sweep pullback and count them, the counts that the axioms claim,
    # check_haar_theorem and check_projection_homs print; with a product
    # naming no element, is_haar checks every element and counts the compose
    # entries, and validate_hom into such a groupoid fails closed on the id
    for seed, w in sweep.pullbacks[:20]:
        g = w.groupoid
        gens = g.generating_set
        work = (("generators", len(gens)), ("generator pairs", sum(len(g.fiber(g.d(a))) for a in gens)))
        assert is_haar(g, w.haar).counts == validate_groupoid(g).counts == work, seed
        assert check_haar_theorem(w).summary() == f"generators {work[0][1]}, generator pairs {work[1][1]}", seed
        assert validate_hom(w.proj_left).counts == validate_hom(w.proj_right).counts == work, seed
        projections = check_projection_homs(w).counts
        assert projections == tuple((f"{name} {what}", n) for name in ("proj_left", "proj_right") for what, n in work), seed
        dangling = dangling_product(g)
        assert is_haar(dangling, w.haar).counts == (("compose entries", len(dangling.compose_map)),), seed
        into_dangling = GroupoidHom(g, dangling, identity_hom(g).mapping)
        with pytest.raises(MalformedInput, match="compose table references unknown id 'ghost'"):
            validate_hom(into_dangling)


def test_sweep_script_summary_parses_with_the_bench_pattern():
    # one stage per claim registry entry, in milliseconds, read as
    # scripts/bench.py reads the summary line
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    from measured_groupoids.cli import REGISTRY

    script = ROOT / "scripts" / "run_property_suite.py"
    proc = subprocess.run([sys.executable, str(script), "3"], capture_output=True, text=True, check=True)
    line = proc.stdout.strip().splitlines()[-1]
    assert line.startswith("3/3 cospans passed every check in ")
    m = bench.SWEEP_LINE.search(line)
    assert m is not None, line
    stages = dict(part.rsplit(" ", 1) for part in m.group(2).split(", "))
    assert list(stages) == ["generate", "validate", "build", *("+".join(ids) for ids, _ in REGISTRY)]
    assert all(re.fullmatch(r"\d+\.\d{3}s", secs) for secs in stages.values()), line



def test_sweep_script_reports_a_rejected_cospan_and_skips_its_build(monkeypatch):
    # the generator does not validate, so the script's validate stage is the
    # one place a defective cospan is caught; its first violation is printed
    spec = importlib.util.spec_from_file_location("run_property_suite", ROOT / "scripts" / "run_property_suite.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    rejected = ValidationReport((Violation("measure-class", ("a",), "first"), Violation("measure-class", ("b",), "second")))
    monkeypatch.setattr(suite, "validate_cospan", lambda c: rejected)
    seconds = dict.fromkeys(suite.STAGES, 0.0)
    assert suite.run_seed(0, seconds) == {"cospan": "measure-class [a]: first"}
    assert seconds["generate"] > 0 and seconds["validate"] > 0
    assert seconds["build"] == 0.0


# the exact work of the sweep, as `scripts/run_property_suite.py` prints it
GENERATOR_WORK = {"generators": 2774, "generator pairs": 36208}
LEDGER = {
    "axioms.pullback_groupoid": GENERATOR_WORK,
    "thm.haar_system": GENERATOR_WORK,
    "prop.projection_homs": {f"{proj} {name}": n for proj in ("proj_left", "proj_right") for name, n in GENERATOR_WORK.items()},
    "remark.modular_formula": {"checked": 31268, "skipped": 0},
    "lemma.triple_integrals": {"left leg sums": 3761, "right leg sums": 3500},
    "lemma.expanding_integral": {"base sums": 1011, "left leg sums": 1644, "right leg sums": 1610},
}


def test_sweep_work_ledger_is_pinned():
    # a change that does more or less work moves these totals; it updates
    # them and records the before and after
    spec = importlib.util.spec_from_file_location("run_property_suite", ROOT / "scripts" / "run_property_suite.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    seconds = dict.fromkeys(suite.STAGES, 0.0)
    counts: dict[str, dict[str, int]] = {}
    for seed in range(200):
        assert suite.run_seed(seed, seconds, counts) == {}, seed
    assert {claim: tally for claim, tally in counts.items() if tally} == LEDGER
