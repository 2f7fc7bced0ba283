"""A library caller gets a report, a measure or a system from the measure
entry points, or a `GroupoidError` subclass, whatever it passes: the
entry points are called with drawn inputs that do not fit together (a
system on another groupoid, a hom naming a foreign id, a measure on another
base, a disintegration over the wrong map, weights and scales of the wrong
type, an inverse map that misses elements), and no other exception may
escape."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from measured_groupoids import (
    FiniteGroupoid,
    FiniteMeasure,
    GroupoidError,
    GroupoidHom,
    HaarGroupoid,
    MalformedInput,
    MeasureSystem,
    alternate_disintegration,
    compose_with_measure,
    counting_haar_system,
    cyclic_group,
    disintegrate,
    disjoint_union,
    haar_system_from_source_weights,
    identity_hom,
    is_haar,
    is_quasi_invariant,
    pair_groupoid,
    trivial_group,
    validate_haar_groupoid,
    validate_haar_hom,
    validate_hom,
    validate_unit_measure,
)

FOREIGN = "x9"
GROUPOIDS = (
    trivial_group(),
    cyclic_group(2),
    cyclic_group(3),
    pair_groupoid(["1", "2"]),
    disjoint_union([trivial_group(), pair_groupoid(["1", "2"])], ["a", "b"])[0],
)
# weights of every type a caller might pass, the right one among them
WRONG_VALUES = st.one_of(
    st.integers(-2, 3), st.fractions(-2, 3, max_denominator=4), st.floats(-1, 3), st.sampled_from(["1", "x", None])
)


def _fails_closed(call, *args):
    """Call with args; a `GroupoidError` is the one exception allowed."""
    try:
        call(*args)
    except GroupoidError:
        pass


# the entry points that read a Haar groupoid's inverse map
QUASI_INVARIANCE_ENTRY_POINTS = (is_quasi_invariant, validate_unit_measure, lambda h: h.modular, validate_haar_groupoid)


def without_inverses(g, dropped):
    """`g` rebuilt with the elements of `dropped` deleted from its inverse map."""
    inverse = {x: y for x, y in g.inverse_map.items() if x not in dropped}
    return FiniteGroupoid(g.elements, g.units, g.range_map, g.source_map, inverse, g.products())


def points(base, foreign: bool = True):
    """A point of `base`, or now and then a foreign one."""
    return st.sampled_from([*base, FOREIGN] if foreign else list(base))


@st.composite
def maps(draw, domain, codomain):
    """A map on `domain` into `codomain`, or one that misses a point of
    `domain`, has a foreign key or takes a foreign value."""
    f = {x: draw(points(codomain, foreign=draw(st.booleans()))) for x in domain}
    if domain and draw(st.booleans()):
        del f[draw(st.sampled_from(sorted(f)))]
    if draw(st.booleans()):
        f[FOREIGN] = draw(points(codomain))
    return f


@st.composite
def measures(draw, base):
    """A measure on `base` with integer weights, zeros among them."""
    return FiniteMeasure(base, draw(st.dictionaries(st.sampled_from(base), st.integers(0, 3))))


@st.composite
def haar_groupoids(draw):
    """A groupoid of the pool with a Haar system and a unit measure, either
    of which may be of another groupoid; the system may charge a foreign
    point that no hom maps."""
    g, other, units_of = (draw(st.sampled_from(GROUPOIDS)) for _ in range(3))
    haar = haar_system_from_source_weights(other, {u: draw(st.integers(1, 3)) for u in other.units})
    if draw(st.booleans()):
        u = draw(st.sampled_from(other.units))
        nums = {y: {**ws, FOREIGN: 1} if y == u else ws for y, ws in haar.nums.items()}
        haar = MeasureSystem({**haar.over, FOREIGN: u}, (*haar.domain, FOREIGN), haar.codomain, nums, haar.den)
    return HaarGroupoid(g, haar, draw(measures(units_of.units)))


@st.composite
def homs(draw, dom, cod):
    """The identity of `dom`, or a drawn map from it to `cod`."""
    if dom is cod and draw(st.booleans()):
        return identity_hom(dom)
    return GroupoidHom(dom, cod, draw(maps(dom.elements, cod.elements)))


@given(st.data())
def test_hom_checks_fail_closed(data):
    dom, cod = data.draw(haar_groupoids()), data.draw(haar_groupoids())
    ends = data.draw(st.sampled_from([(dom.groupoid, cod.groupoid), (cod.groupoid, dom.groupoid)]))
    hom = data.draw(homs(*ends))
    _fails_closed(validate_hom, hom)
    _fails_closed(validate_haar_hom, hom, dom, cod)
    _fails_closed(is_haar, dom.groupoid, cod.haar)


@given(st.data())
def test_disintegration_entry_points_fail_closed(data):
    x_base, y_base, z_base = (data.draw(st.sampled_from(GROUPOIDS)).elements for _ in range(3))
    mu, nu = data.draw(measures(x_base)), data.draw(measures(data.draw(st.sampled_from([y_base, z_base]))))
    f = data.draw(maps(x_base, y_base))
    _fails_closed(disintegrate, f, mu, nu)
    # a disintegration, and a system over another map, with a measure on
    # its codomain or on another base
    try:
        gamma = disintegrate({x: y_base[0] for x in x_base}, mu, FiniteMeasure(y_base, {y_base[0]: 1}))
    except GroupoidError:
        gamma = haar_system_from_source_weights(GROUPOIDS[1], {"g0": 1})
    other = data.draw(measures(data.draw(st.sampled_from([gamma.codomain, z_base]))))
    _fails_closed(compose_with_measure, gamma, other)
    _fails_closed(alternate_disintegration, gamma, other, data.draw(WRONG_VALUES))


@given(st.data())
def test_measure_constructors_fail_closed(data):
    base = data.draw(st.sampled_from(GROUPOIDS)).elements
    codomain = data.draw(st.sampled_from(GROUPOIDS)).units
    rows = st.one_of(st.dictionaries(points(base), WRONG_VALUES), st.sampled_from([5, "ab", [base[0]], None]))
    den = data.draw(st.one_of(st.integers(-1, 6), st.sampled_from([Fraction(1, 2), 1.0, "1"])))
    _fails_closed(FiniteMeasure, base, data.draw(rows), den)
    family = st.one_of(st.dictionaries(points(codomain), rows), st.sampled_from([5, "ab", None]))
    _fails_closed(MeasureSystem, data.draw(maps(base, codomain)), base, codomain, data.draw(family), den)


def test_probes_that_escaped_raise_malformed_input():
    gamma = disintegrate({"a": "y"}, FiniteMeasure(["a"], {"a": 1}), FiniteMeasure(["y"], {"y": 1}))
    nu = FiniteMeasure(["y"], {"y": 1})
    for scale in ("x", 2.5):
        with pytest.raises(MalformedInput, match=f"^scale {scale!r} is not an int or a Fraction$"):
            alternate_disintegration(gamma, nu, scale)
    with pytest.raises(MalformedInput, match="^weights 5 are not a mapping of points$"):
        MeasureSystem({"a": "y"}, ["a"], ["y"], {"y": 5})
    with pytest.raises(MalformedInput, match="^family 5 is not a mapping of points$"):
        MeasureSystem({"a": "y"}, ["a"], ["y"], 5)
    with pytest.raises(MalformedInput, match="^weights None are not a mapping of points$"):
        FiniteMeasure(["a"], None)
    # a Haar system that charges x9, a point outside the groupoid and the hom
    g = pair_groupoid(["1", "2"])
    nums = {u: {x: 1 for x in g.fiber(u)} for u in g.units}
    nums["1-1"][FOREIGN] = 1
    haar = MeasureSystem({**g.range_map, FOREIGN: "1-1"}, (*g.elements, FOREIGN), g.units, nums)
    h = HaarGroupoid(g, haar, FiniteMeasure(g.units, {"1-1": 1}))
    with pytest.raises(MalformedInput, match="^pushforward map undefined at 'x9'$"):
        validate_haar_hom(identity_hom(g), h, h)
    # a pair groupoid whose inverse map misses 1-2
    g = without_inverses(g, {"1-2"})
    h = HaarGroupoid(g, counting_haar_system(g), FiniteMeasure(g.units, dict.fromkeys(g.units, 1)))
    for call in QUASI_INVARIANCE_ENTRY_POINTS:
        with pytest.raises(MalformedInput, match="^inverse map undefined at '1-2'$"):
            call(h)


@given(st.data())
def test_quasi_invariance_entry_points_name_a_missing_inverse(data):
    # each names the least element the inverse map misses, as the reference
    # check of validate_haar_groupoid does
    g = data.draw(st.sampled_from(GROUPOIDS))
    dropped = data.draw(st.sets(st.sampled_from(g.elements), min_size=1))
    g = without_inverses(g, dropped)
    unit_weights = data.draw(st.dictionaries(st.sampled_from(g.units), st.integers(0, 3)))
    h = HaarGroupoid(g, counting_haar_system(g), FiniteMeasure(g.units, unit_weights))
    for call in QUASI_INVARIANCE_ENTRY_POINTS:
        with pytest.raises(MalformedInput, match=f"^inverse map undefined at {min(dropped)!r}$"):
            call(h)
