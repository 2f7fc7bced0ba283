import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from measured_groupoids import (
    FiniteGroupoid,
    FiniteMeasure,
    HaarGroupoid,
    MalformedInput,
    NotQuasiInvariant,
    compose_with_measure,
    cotrivial_groupoid,
    counting_haar_system,
    cyclic_group,
    disjoint_union,
    haar_system_from_source_weights,
    is_haar,
    is_quasi_invariant,
    pair_groupoid,
    random_haar_groupoid,
    trivial_group,
    validate_groupoid,
    validate_haar_groupoid,
    validate_haar_hom,
    with_counting_haar,
)
from measured_groupoids.groupoid import GroupoidHom, identity_hom
from measured_groupoids.haar import validate_haar_groupoid as _validate
from measured_groupoids.measures import class_witness
from helpers import dangling_product, fails_closed, fraction_weights, generator_counts, inverse_measure, literal_haar_report
from helpers import fraction_class_witness, measure_of, members_of, outcome, system_of, table_mutants, verdict

F = Fraction


def pair_with_units(w1, w2) -> HaarGroupoid:
    g = pair_groupoid(["1", "2"])
    return HaarGroupoid(g, counting_haar_system(g), FiniteMeasure(g.units, {"1-1": w1, "2-2": w2}))


def test_induced_measure_trivial():
    h = with_counting_haar(trivial_group())
    assert h.induced("e") == 1


def test_induced_measure_pair_groupoid():
    h = pair_with_units(1, 2)
    mu = h.induced
    assert (mu("1-1"), mu("1-2"), mu("2-1"), mu("2-2")) == (1, 1, 2, 2)


def test_induced_measure_group_invariance_forces_constant():
    z2 = cyclic_group(2)
    haar = haar_system_from_source_weights(z2, {"g0": 3})
    h = HaarGroupoid(z2, haar, FiniteMeasure(z2.units, {"g0": 5}))
    mu = h.induced
    assert (mu("g0"), mu("g1")) == (15, 15)


def test_inverse_measure_symmetric_on_group():
    z2 = cyclic_group(2)
    mu = FiniteMeasure(z2.elements, {"g0": 2, "g1": 2})
    assert inverse_measure(mu, z2) == mu


def test_inverse_measure_pair_groupoid():
    h = pair_with_units(1, 2)
    mu_inv = inverse_measure(h.induced, h.groupoid)
    assert mu_inv("1-2") == 2


def test_inverse_measure_on_units_only():
    c = cotrivial_groupoid(["x", "y"])
    mu = FiniteMeasure(c.elements, {"x": 3})
    assert inverse_measure(mu, c) == mu


def test_is_haar_counting_on_pair_groupoid():
    g = pair_groupoid(["1", "2"])
    assert is_haar(g, counting_haar_system(g)).ok


def test_is_haar_rejects_non_invariant_weights():
    z2 = cyclic_group(2)
    s = counting_haar_system(z2)
    lopsided = members_of(s)
    lopsided["g0"] = FiniteMeasure(z2.elements, {"g0": 1, "g1": 2})
    bad = system_of(s.over, s.domain, s.codomain, lopsided)
    report = is_haar(z2, bad)
    assert not report.ok
    assert any(v.rule == "left-invariance" and "g1" in v.witnesses for v in report.violations)


def test_is_haar_names_a_composable_pair_without_a_product():
    g = pair_groupoid(["1", "2"])
    broken = FiniteGroupoid(
        g.elements, g.units, g.range_map, g.source_map, g.inverse_map, [t for t in g.products() if t[:2] != ("1-2", "2-1")]
    )
    with pytest.raises(MalformedInput, match=r"^composable pair \('1-2', '2-1'\) has no product$"):
        is_haar(broken, counting_haar_system(g))


def test_is_haar_units_only_any_full_system():
    c = cotrivial_groupoid(["x", "y", "z"])
    s = haar_system_from_source_weights(c, {"x": F(1, 2), "y": 3, "z": 7})
    assert is_haar(c, s).ok


def test_quasi_invariance_strictly_positive():
    assert is_quasi_invariant(pair_with_units(1, 2)).ok


def test_quasi_invariance_fails_with_documented_witness():
    (violation,) = is_quasi_invariant(pair_with_units(1, 0)).violations
    assert violation.rule == "quasi-invariance"
    assert violation.witnesses == ("1-2",)
    mu = pair_with_units(1, 0).induced
    assert mu("1-2") == 1 and mu("2-1") == 0


def test_validate_haar_groupoid_stops_after_axiom_failure():
    # the Haar checks compose by the table, so a table missing a product
    # gets its axiom report and no further checks
    g = pair_groupoid(["1", "2"])
    products = [entry for entry in g.products() if entry[:2] != ("1-2", "2-1")]
    broken = FiniteGroupoid(g.elements, g.units, g.range_map, g.source_map, g.inverse_map, products)
    h = HaarGroupoid(broken, counting_haar_system(broken), FiniteMeasure(g.units, {"1-1": 1, "2-2": 1}))
    report = validate_haar_groupoid(h)
    assert report == validate_groupoid(broken)
    assert any(v.rule == "compose-total" for v in report.violations)


def test_zero_unit_measure_rejected_upstream():
    g = pair_groupoid(["1", "2"])
    h = HaarGroupoid(g, counting_haar_system(g), FiniteMeasure(g.units, {}))
    report = _validate(h)
    assert any(v.rule == "nonzero-unit-measure" for v in report.violations)


def test_modular_uniform_group_is_one():
    delta = with_counting_haar(cyclic_group(2)).modular
    assert set(delta.values()) == {F(1)}


def test_modular_pair_groupoid_ratios():
    delta = pair_with_units(1, 2).modular
    assert delta["1-2"] == F(1, 2)
    assert delta["2-1"] == F(2)


def test_modular_units_only_is_one():
    h = with_counting_haar(cotrivial_groupoid(["x", "y"]))
    assert set(h.modular.values()) == {F(1)}


def test_modular_requires_quasi_invariance():
    with pytest.raises(NotQuasiInvariant):
        pair_with_units(1, 0).modular


def test_modular_raises_on_every_read():
    # a read that raises is not cached
    h = pair_with_units(1, 0)
    for _ in range(2):
        with pytest.raises(NotQuasiInvariant) as err:
            h.modular
        assert err.value.witness == "1-2"


def test_haar_groupoid_is_frozen():
    h = pair_with_units(1, 2)
    for field in ("groupoid", "haar", "unit_measure"):
        with pytest.raises(AttributeError):
            setattr(h, field, getattr(h, field))
    # the kept modular table is read-only too
    with pytest.raises(TypeError):
        h.modular["1-2"] = F(1)
    assert h.modular["1-2"] == F(1, 2)


@pytest.mark.parametrize("seed", range(20))
def test_derived_measures_match_their_definitions(seed):
    h = random_haar_groupoid(seed)
    g = h.groupoid
    mu = compose_with_measure(h.haar, h.unit_measure)
    assert h.induced == mu and h.induced is h.induced
    assert h.modular == {x: mu(x) / mu(g.inv(x)) for x in mu.support}
    assert h.modular is h.modular


def test_validate_haar_hom_identity():
    h = pair_with_units(1, 2)
    assert validate_haar_hom(identity_hom(h.groupoid), h, h).ok


def test_validate_haar_hom_collapse_pair_to_trivial():
    h = pair_with_units(1, 2)
    t = with_counting_haar(trivial_group())
    hom = GroupoidHom(h.groupoid, t.groupoid, {x: "e" for x in h.groupoid.elements})
    assert validate_haar_hom(hom, h, t).ok


def test_validate_haar_hom_vanishing_codomain_measure():
    # codomain: two disjoint trivial groups, measure only on the one we miss
    dom = with_counting_haar(trivial_group())
    cod_g, renamings = disjoint_union([trivial_group(), trivial_group()], ["a", "b"])
    cod = HaarGroupoid(
        cod_g, counting_haar_system(cod_g), FiniteMeasure(cod_g.units, {"b.e": 1})
    )
    hom = GroupoidHom(dom.groupoid, cod_g, {"e": "a.e"})
    report = validate_haar_hom(hom, dom, cod)
    assert not report.ok
    assert any(v.rule == "measure-class" for v in report.violations)


def test_range_class_check_examples():
    # r_*(mu) is in the class of mu0 on every valid Haar groupoid
    for h in (pair_with_units(1, 2), with_counting_haar(trivial_group())):
        args = (h.groupoid.range_map, h.induced, h.groupoid.units, h.unit_measure)
        assert class_witness(*args) is None
        assert fraction_class_witness(*args) is None


@given(st.integers(0, 300))
def test_random_haar_groupoids_validate(seed):
    h = random_haar_groupoid(seed)
    assert validate_haar_groupoid(h).ok
    args = (h.groupoid.range_map, h.induced, h.groupoid.units, h.unit_measure)
    assert class_witness(*args) is None
    assert fraction_class_witness(*args) is None


@given(st.integers(0, 200))
def test_left_invariance_corollary(seed):
    # lam^{r(x)}(x) = lam^{d(x)}(d(x)) for every element
    h = random_haar_groupoid(seed)
    g = h.groupoid
    for x in g.elements:
        assert h.haar.weight(g.r(x), x) == h.haar.weight(g.d(x), g.d(x))


@given(st.integers(0, 200))
def test_modular_laws_on_random_instances(seed):
    h = random_haar_groupoid(seed)
    g = h.groupoid
    delta = h.modular
    support = delta.keys()
    for x in support:
        assert delta[g.inv(x)] == 1 / delta[x]
    for u in g.units:
        if u in support:
            assert delta[u] == 1
    for (x, y), z in g.compose_map.items():
        if x in support and y in support and z in support:
            assert delta[z] == delta[x] * delta[y]


@given(st.integers(0, 200))
def test_useful_formula_on_singletons(seed):
    # sum_x f(x) Delta^{-1}(x) mu(x) = sum_x f(x^{-1}) mu(x), literal sums
    h = random_haar_groupoid(seed)
    g = h.groupoid
    mu = h.induced
    delta = h.modular
    for x0 in g.elements:
        lhs = sum(((1 / delta[x]) * mu(x) for x in delta if x == x0), F(0))
        rhs = sum((mu(x) for x in g.elements if g.inv(x) == x0), F(0))
        assert lhs == rhs


@given(st.integers(0, 150))
def test_unit_level_class_preservation_follows(seed):
    # element-level measure class implies the unit-level one on random homs
    h = random_haar_groupoid(seed)
    hom = identity_hom(h.groupoid)
    report = validate_haar_hom(hom, h, h)
    assert report.ok


# is_haar against its exhaustive oracle: the same violations in the same
# order, the oracle carrying no work counts. Systems on groupoids up to this
# size are mutated: the oracle takes milliseconds on each larger pullback.
MUTATED_MAX = 64


def test_is_haar_matches_enumeration_on_sweep_and_mutants(sweep):
    # the three legs and the pullback of every sweep cospan; then one Haar
    # weight raised at an element that left invariance constrains; then the
    # system on each table mutant and on a groupoid with a product naming no
    # element, whose missing generating set has every element checked
    changed = 0
    for seed, w in sweep.pullbacks:
        rng = random.Random(seed)
        c = w.cospan
        for g, s in ((c.left.groupoid, c.left.haar), (c.base.groupoid, c.base.haar), (c.right.groupoid, c.right.haar), (w.groupoid, w.haar)):
            report = is_haar(g, s)
            assert report.ok, seed
            assert report.violations == literal_haar_report(g, s).violations, seed
            assert report.counts == generator_counts(g), seed
            if len(g) > MUTATED_MAX:
                continue
            # y over u is constrained by every arrow x with d(x) = u that is
            # not a unit: lam^u(y) = lam^{r(x)}(xy), and xy != y
            constrained = sorted({(g.d(x), y) for x in g.elements if x not in g.unit_set for y in g.fiber(g.d(x))})
            if constrained:
                u, y = rng.choice(constrained)
                family = members_of(s)
                m = family[u]
                family[u] = measure_of(m.base, {**fraction_weights(m), y: m(y) + 1})
                mutant = system_of(s.over, s.domain, s.codomain, family)
                expected = literal_haar_report(g, mutant)
                assert not expected.ok, seed
                report = is_haar(g, mutant)
                assert report.violations == expected.violations, seed
                assert report.counts == (("compose entries", len(g.compose_map)),), seed
                changed += 1
            for name, mutant_g in [*table_mutants(g, rng), ("dangling-product", dangling_product(g))]:
                got, want = verdict(is_haar, mutant_g, s), outcome(literal_haar_report, mutant_g, s)
                if name == "deleted-entry":
                    # the oracle's KeyError at the pair without a product fails closed
                    assert fails_closed(got, want), seed
                else:
                    assert got == want, (seed, name)
    assert changed > 400
