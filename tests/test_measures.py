import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from measured_groupoids import (
    BaseMismatch,
    FiniteMeasure,
    HaarGroupoid,
    MalformedInput,
    MeasureSystem,
    NotMeasureClassPreserving,
    alternate_disintegration,
    compose_with_measure,
    disintegrate,
    identity_hom,
    over_one_denominator,
    pair_groupoid,
    validate_haar_hom,
    validate_system,
)

from measured_groupoids.documents import weight_to_str
from measured_groupoids.measures import class_witness

from helpers import (
    fraction_alternate_disintegration,
    fraction_class_witness,
    fraction_compose_with_measure,
    fraction_disintegrate,
    fraction_push_forward,
    fraction_weights,
    measure_of,
    members_of,
    system_of,
)

F = Fraction

X3 = ("a", "b", "c")
Y2 = ("1", "2")
F32 = {"a": "1", "b": "1", "c": "2"}

weights = st.fractions(min_value=0, max_value=5, max_denominator=6)

# point masses over the identity of X3, and counting measure on the fibers of F32
DIRAC_X3 = system_of({x: x for x in X3}, X3, X3, {x: FiniteMeasure(X3, {x: 1}) for x in X3})
COUNTING_F32 = system_of(
    F32, X3, Y2, {y: FiniteMeasure(X3, {x: 1 for x in X3 if F32[x] == y}) for y in Y2}
)


def test_negative_weight_rejected():
    with pytest.raises(MalformedInput):
        measure_of(X3, {"a": F(-1, 2)})


def test_same_measure_class_examples():
    # through the identity map, the class check compares two measures on Y2
    mu = FiniteMeasure(Y2, {"1": 1})
    ident = {"1": "1", "2": "2"}
    for nu, witness in ((mu, None), (FiniteMeasure(Y2, {"1": 2}), None), (FiniteMeasure(Y2, {"2": 1}), "1")):
        assert class_witness(ident, mu, Y2, nu) == witness
        assert fraction_class_witness(ident, mu, Y2, nu) == witness
    for check in (class_witness, fraction_class_witness):
        with pytest.raises(BaseMismatch, match="^measures live on different base sets$"):
            check(ident, mu, Y2, FiniteMeasure(X3, {"a": 1}))


def test_references_off_the_base_are_rejected_with_the_id():
    with pytest.raises(MalformedInput, match="^weight assigned to unknown point 'd'$"):
        FiniteMeasure(X3, {"a": 1, "d": 1})
    # a Haar system whose domain charges x9, which the hom does not map
    g = pair_groupoid(["1", "2"])
    over = {**g.range_map, "x9": "1-1"}
    nums = {u: {x: 1 for x in g.fiber(u)} for u in g.units}
    nums["1-1"]["x9"] = 1
    h = HaarGroupoid(g, MeasureSystem(over, (*g.elements, "x9"), g.units, nums), FiniteMeasure(g.units, {"1-1": 1}))
    with pytest.raises(MalformedInput, match="^pushforward map undefined at 'x9'$"):
        validate_haar_hom(identity_hom(g), h, h)


def test_system_family_outside_the_codomain_is_rejected():
    # a member at an unknown point used to be dropped without a word
    with pytest.raises(MalformedInput, match="^family indexed by unknown point '3'$"):
        system_of(F32, X3, Y2, {"1": FiniteMeasure(X3, {"a": 1}), "3": FiniteMeasure(X3, {"c": 1})})


def test_validate_system_checks_the_map_is_total_into_the_codomain():
    family = members_of(COUNTING_F32)
    for over, message in (
        ({"a": "1", "b": "1"}, "^system map undefined at 'c'$"),
        ({**F32, "d": "2"}, "^system map keyed by unknown id 'd'$"),
        ({**F32, "c": "3"}, "^system map takes the unknown value '3'$"),
    ):
        with pytest.raises(MalformedInput, match=message):
            validate_system(system_of(over, X3, Y2, family))


def test_validate_system_dirac_and_counting_full():
    assert validate_system(DIRAC_X3, require_full=True).ok
    assert validate_system(COUNTING_F32, require_full=True).ok


def test_system_constructor_runs_the_member_checks():
    # numerators over one denominator, checked as each member's were
    with pytest.raises(MalformedInput, match="^negative weight -1/2$"):
        MeasureSystem(F32, X3, Y2, {"1": {"a": 1, "b": -2}}, 4)
    with pytest.raises(MalformedInput, match="^weight assigned to unknown point 'd'$"):
        MeasureSystem(F32, X3, Y2, {"2": {"c": 1, "d": 1}})
    with pytest.raises(MalformedInput, match="^family indexed by unknown point '3'$"):
        MeasureSystem(F32, X3, Y2, {"1": {"a": 1}, "3": {"c": 1}})
    with pytest.raises(MalformedInput, match="^negative weight -3/2$"):
        alternate_disintegration(MeasureSystem(F32, X3, Y2, {"2": {"c": 3}}, 2), FiniteMeasure(Y2, {"1": 1}), -1)
    for den in (0, -2):
        with pytest.raises(MalformedInput, match=f"^denominator {den} is not positive$"):
            MeasureSystem(F32, X3, Y2, {"1": {"a": 1}}, den)
    # weights are integer numerators over an integer denominator, nothing else
    with pytest.raises(MalformedInput, match="^" + re.escape("weight at 'a' is not an integer: Fraction(1, 2)") + "$"):
        MeasureSystem({"a": "1"}, ["a"], ["1"], {"1": {"a": F(1, 2)}}, 1)
    with pytest.raises(MalformedInput, match="^weight at 'c' is not an integer: 0.5$"):
        MeasureSystem(F32, X3, Y2, {"1": {"a": 1}, "2": {"c": 0.5}})
    with pytest.raises(MalformedInput, match="^denominator 1.5 is not an integer$"):
        MeasureSystem(F32, X3, Y2, {"1": {"a": 1}}, 1.5)
    # zero numerators and an absent point of the codomain read as 0
    s = MeasureSystem(F32, X3, Y2, {"1": {"a": 0, "b": 6}}, 4)
    assert (s.den, s.nums) == (2, {"1": {"b": 3}, "2": {}})
    assert s.weight("1", "a") == s.weight("2", "c") == 0 and s.weight("1", "b") == F(3, 2)
    assert s == system_of(F32, X3, Y2, {"1": measure_of(X3, {"b": F(3, 2)})})


def test_validate_system_concentration_violation():
    bad = system_of(F32, X3, Y2, {"2": FiniteMeasure(X3, {"a": 1, "c": 1})})
    report = validate_system(bad)
    assert not report.ok
    assert any(v.rule == "concentration" and v.witnesses == ("2", "a") for v in report.violations)


def test_compose_with_measure_dirac_keeps_measure():
    nu = measure_of(X3, {"a": 7, "c": F(1, 3)})
    assert compose_with_measure(DIRAC_X3, nu) == nu


def test_compose_with_measure_counting():
    nu = FiniteMeasure(Y2, {"1": 1, "2": 10})
    out = compose_with_measure(COUNTING_F32, nu)
    assert (out("a"), out("b"), out("c")) == (1, 1, 10)


def test_compose_with_zero_measure_is_zero():
    nu = FiniteMeasure(Y2, {})
    assert compose_with_measure(COUNTING_F32, nu).is_zero()


@given(st.lists(weights, min_size=3, max_size=3), st.lists(weights, min_size=2, max_size=2))
def test_compose_with_measure_pointwise_formula(ws, vs):
    # for a concentrated system the sum over fibers collapses to
    # lam^{f(x)}(x) * nu(f(x))
    fam = {y: measure_of(X3, {x: w for x, w in zip(X3, ws) if F32[x] == y}) for y in Y2}
    system = system_of(F32, X3, Y2, fam)
    nu = measure_of(Y2, dict(zip(Y2, vs)))
    out = compose_with_measure(system, nu)
    for x in X3:
        assert out(x) == system.weight(F32[x], x) * nu(F32[x])


def test_disintegrate_worked_example():
    mu = FiniteMeasure(X3, {"a": 2, "b": 3, "c": 5})
    nu = FiniteMeasure(Y2, {"1": 1, "2": 10})
    gamma = disintegrate(F32, mu, nu)
    assert gamma.weight("1", "a") == 2
    assert gamma.weight("1", "b") == 3
    assert gamma.weight("2", "c") == F(1, 2)
    # reconstruction oracle on all singletons
    for x in X3:
        total = sum((gamma.weight(y, x) * nu(y) for y in Y2), F(0))
        assert total == mu(x)
    assert compose_with_measure(gamma, nu) == mu


def test_disintegrate_identity_map_gives_unit_diracs():
    mu = measure_of(X3, {"a": 4, "b": F(2, 7)})
    gamma = disintegrate({x: x for x in X3}, mu, mu)
    for x in ("a", "b"):
        assert gamma.weight(x, x) == 1


def test_disintegrate_null_fiber_gets_counting_measure():
    mu = FiniteMeasure(X3, {"a": 2, "b": 3})
    nu = FiniteMeasure(Y2, {"1": 10})
    gamma = disintegrate(F32, mu, nu)
    assert gamma.weight("2", "c") == 1
    assert compose_with_measure(gamma, nu) == mu


def test_disintegrate_rejects_class_mismatch():
    mu = FiniteMeasure(X3, {"a": 2})
    nu = FiniteMeasure(Y2, {"1": 1, "2": 1})
    with pytest.raises(NotMeasureClassPreserving) as err:
        disintegrate(F32, mu, nu)
    assert err.value.witness == "2"


def test_disintegrate_rejects_a_map_off_the_bases_with_the_id():
    # a map off the bases is named by its id, never a bare KeyError
    mu = FiniteMeasure(("a", "b"), {"a": 1})
    nu = FiniteMeasure(("1",), {"1": 1})
    with pytest.raises(MalformedInput, match="^disintegration map takes the unknown value '9'$"):
        disintegrate({"a": "1", "b": "9"}, mu, nu)
    with pytest.raises(MalformedInput, match="^disintegration map undefined at 'b'$"):
        disintegrate({"a": "1"}, mu, nu)


def test_disintegrations_agree_on_positive_fibers():
    # any concentrated system with the reconstruction identity is pinned on
    # every nu-positive fiber, so two of them can only differ on null fibers
    mu = FiniteMeasure(X3, {"a": 2, "b": 3})
    nu = FiniteMeasure(Y2, {"1": 5})
    gamma = disintegrate(F32, mu, nu)
    members = members_of(gamma)
    alt = system_of(
        F32,
        X3,
        Y2,
        {"1": members["1"], "2": FiniteMeasure(X3, {"c": 9})},
    )
    assert compose_with_measure(alt, nu) == mu
    assert members_of(alt)["1"] == members["1"]
    assert members_of(alt)["2"] != members["2"]


@given(st.lists(weights, min_size=3, max_size=3), st.lists(weights, min_size=2, max_size=2))
def test_reconstruction_property(ws, scales):
    mu = measure_of(X3, dict(zip(X3, ws)))
    pushed = fraction_push_forward(F32, mu, Y2)
    nu = measure_of(Y2, {y: pushed(y) * (s + F(1, 7)) for y, s in zip(Y2, scales)})
    gamma = disintegrate(F32, mu, nu)
    assert compose_with_measure(gamma, nu) == mu
    assert validate_system(gamma).ok


# nonnegative rationals with zeros and denominators up to 10^15
rationals = st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=10**6, max_denominator=10**15))
X6 = ("a", "b", "c", "d", "e", "f")
weight_maps = st.dictionaries(st.sampled_from(X6), rationals)


@given(weight_maps, weight_maps, st.booleans())
def test_integer_numerators_read_back_and_compare_as_the_fractions(ws, other, same):
    mu = measure_of(X6, ws)
    assert mu.den > 0 and all(n > 0 for n in mu.nums.values())
    assert math.gcd(mu.den, *mu.nums.values()) == 1
    for x in X6:
        assert mu(x) == ws.get(x, 0)
        assert weight_to_str(mu(x)) == weight_to_str(F(ws.get(x, 0)))
    assert fraction_weights(mu) == {x: v for x, v in ws.items() if v}
    if same:
        # the same weights written another way, zeros added
        other = {**{x: F(v.numerator * 3, v.denominator * 3) for x, v in ws.items()}, **{x: 0 for x in X6 if x not in ws}}
    nu = measure_of(X6, other)
    assert (mu == nu) == ({x: v for x, v in ws.items() if v} == {x: F(v) for x, v in other.items() if v})
    assert mu == FiniteMeasure(X6, {x: n * 7 for x, n in mu.nums.items()}, mu.den * 7)


@given(
    st.lists(st.sampled_from(Y2), min_size=6, max_size=6),
    st.lists(rationals, min_size=6, max_size=6),
    st.lists(rationals, min_size=2, max_size=2),
    weight_maps,
    st.lists(st.fractions(min_value=F(1, 10**9), max_value=10**3, max_denominator=10**9), min_size=2, max_size=2),
    rationals,
    st.lists(rationals, min_size=6, max_size=6),
    st.booleans(),
    st.integers(min_value=0, max_value=10**6),
)
def test_integer_measure_operations_equal_their_fraction_oracles(targets, lam, nu_ws, mu_ws, scales, c, lam2, same, k):
    f = dict(zip(X6, targets))
    system = system_of(f, X6, Y2, {y: measure_of(X6, {x: w for x, w in zip(X6, lam) if f[x] == y}) for y in Y2})
    for y in Y2:
        for x in X6:
            assert system.weight(y, x) == F(system.nums[y].get(x, 0), system.den)
    # canonical form: the least common denominator, and no common factor left
    assert system.den == math.lcm(*(w.denominator for w in lam if w))
    assert math.gcd(system.den, *(n for ws in system.nums.values() for n in ws.values())) == 1
    # rows of rationals over one denominator: the same canonical form
    rows = [{x: w for x, w in zip(X6, lam) if f[x] == y} for y in Y2] + [mu_ws]
    den, rows_nums = over_one_denominator(rows)
    assert den == math.lcm(*(w.denominator for ws in rows for w in ws.values()))
    assert math.gcd(den, *(n for ws in rows_nums for n in ws.values())) == 1
    assert [{x: F(n, den) for x, n in ws.items()} for ws in rows_nums] == rows
    table = {(f[x], x): w for x, w in zip(X6, lam) if w}
    if same:
        # the same weights over a larger denominator, zeros added
        nums = {y: {**{x: 0 for x in X6 if f[x] == y}, **ws} for y, ws in system.nums.items()}
        scaled = {y: {x: n * (k + 1) for x, n in ws.items()} for y, ws in nums.items()}
        other = MeasureSystem(f, X6, Y2, scaled, system.den * (k + 1))
        other_table = table
    else:
        other = system_of(f, X6, Y2, {y: measure_of(X6, {x: w for x, w in zip(X6, lam2) if f[x] == y}) for y in Y2})
        other_table = {(f[x], x): w for x, w in zip(X6, lam2) if w}
    assert (system == other) == (table == other_table)
    nu = measure_of(Y2, dict(zip(Y2, nu_ws)))
    assert compose_with_measure(system, nu) == fraction_compose_with_measure(system, nu)
    mu = measure_of(X6, mu_ws)
    pushed = fraction_push_forward(f, mu, Y2)
    assert class_witness(f, mu, Y2, nu) == fraction_class_witness(f, mu, Y2, nu)
    target = measure_of(Y2, {y: pushed(y) * s for y, s in zip(Y2, scales)})
    assert class_witness(f, mu, Y2, target) is None
    gamma = disintegrate(f, mu, target)
    assert gamma == fraction_disintegrate(f, mu, target)
    assert compose_with_measure(gamma, target) == mu
    # rescaling on null fibers, by an int and by a Fraction
    for s, m in ((gamma, target), (system, nu)):
        for scale in (k, c):
            assert alternate_disintegration(s, m, scale) == fraction_alternate_disintegration(s, m, scale)


def test_alternate_disintegration_needs_a_measure_on_the_codomain():
    gamma = MeasureSystem(F32, X3, Y2, {"1": {"a": 1, "b": 1}, "2": {"c": 1}})
    with pytest.raises(BaseMismatch, match="^measure base does not match the system codomain$"):
        alternate_disintegration(gamma, FiniteMeasure(X3, {"a": 1}))


def test_numerator_constructor_runs_the_constructor_checks():
    with pytest.raises(MalformedInput, match="^negative weight -1/2$"):
        FiniteMeasure(X3, {"a": 1, "b": -2}, 4)
    with pytest.raises(MalformedInput, match="^weight assigned to unknown point 'd'$"):
        FiniteMeasure(X3, {"d": 1}, 1)
    for den in (0, -3):
        with pytest.raises(MalformedInput, match=f"^denominator {den} is not positive$"):
            FiniteMeasure(X3, {"a": 1}, den)
    with pytest.raises(MalformedInput, match="^" + re.escape("weight at 'b' is not an integer: Fraction(3, 2)") + "$"):
        FiniteMeasure(X3, {"a": 1, "b": F(3, 2)})
    with pytest.raises(MalformedInput, match="^weight at 'a' is not an integer: 2.0$"):
        FiniteMeasure(X3, {"a": 2.0}, 3)
    with pytest.raises(MalformedInput, match="^denominator 1.5 is not an integer$"):
        FiniteMeasure(X3, {"a": 1}, 1.5)
    assert FiniteMeasure(X3, {"a": 0, "b": 6}, 4) == measure_of(X3, {"b": F(3, 2)})
