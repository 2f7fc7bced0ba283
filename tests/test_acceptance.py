"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; everything is exact rational arithmetic, zero tolerance, with the
stated wall-clock budgets enforced.
"""

import pathlib
import time
from fractions import Fraction

from measured_groupoids import (
    CechCospanData,
    FiniteCover,
    TransformationCospanData,
    alternate_disintegration,
    build_weak_pullback,
    canonical_iso_cech,
    canonical_iso_transformation,
    check_disintegration_independence,
    check_quasi_invariance_and_modular,
    cyclic_group,
    is_haar,
    is_isomorphism,
    is_quasi_invariant,
    random_cospan,
    random_haar_groupoid,
    validate_cospan,
)
from measured_groupoids.cli import CLAIMS, main, run_claims
from measured_groupoids.documents import (
    CospanDocument,
    GroupoidDocument,
    PullbackDocument,
    parse_document,
    serialize,
)
from measured_groupoids.families import GroupAction, trivial_action
from measured_groupoids.haar import HaarGroupoid, counting_haar_system
from measured_groupoids.measures import FiniteMeasure

from helpers import (
    cotrivial_comparison_hom,
    fraction_weights,
    measure_of,
    members_of,
    outer_square_counterexample,
    pair_trivial_cospan,
    random_cotrivial_cospan,
    regular_pullback,
    system_of,
    z2_cospan,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
F = Fraction


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS — {text}")


def _all_claims_hold(c, w) -> None:
    results = run_claims(c, w, strict=True)
    assert set(results) == set(CLAIMS)
    failed = {claim: detail for claim, (ok, detail) in results.items() if not ok}
    assert not failed, failed
    # strict already fails on skipped triples; the identity must also be tested
    _, modular = check_quasi_invariance_and_modular(w)
    assert dict(modular.counts)["checked"] > 0


def test_criterion_1_z2_cospan_fixture(capsys):
    start = time.perf_counter()
    doc = parse_document((FIXTURES / "z2_cospan.json").read_text(encoding="utf-8"))
    c = doc.to_cospan()
    w = build_weak_pullback(c)
    assert len(w.groupoid.elements) == 8
    assert len(w.groupoid.units) == 2
    _all_claims_hold(c, w)
    assert set(w.haar_groupoid.modular.values()) == {F(1)}
    assert main(["check", str(FIXTURES / "z2_cospan.json")]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 10 and "FAIL" not in out
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"Z2 cospan: |P| = 8, |P0| = 2, `check` all PASS, modular ≡ 1 ({elapsed:.3f}s)")


def test_criterion_2_cech_worked_example():
    start = time.perf_counter()
    data = CechCospanData(
        FiniteCover.build(["y1", "y2"], {"1": ["y1"], "2": ["y2"]}),
        FiniteCover.build(["z1"], {"1": ["z1"], "2": ["z1"]}),
        ("x",),
        {"y1": "x", "y2": "x"},
        {"z1": "x"},
    )
    _, alg, target, iso = canonical_iso_cech(data)
    assert len(alg.groupoid.elements) == 8
    assert is_isomorphism(iso).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"open-cover example: 8-element pullback, canonical map is an isomorphism ({elapsed:.3f}s)")


def test_criterion_3_transformation_worked_example():
    start = time.perf_counter()
    z2 = cyclic_group(2)
    swap = GroupAction(
        z2,
        ["y1", "y2"],
        {"y1": {"g0": "y1", "g1": "y2"}, "y2": {"g0": "y2", "g1": "y1"}},
    )
    data = TransformationCospanData(
        swap,
        trivial_action(cyclic_group(1, prefix="e"), ["z1"]),
        ("x",),
        {"y1": "x", "y2": "x"},
        {"z1": "x"},
    )
    _, alg, target, iso = canonical_iso_transformation(data)
    assert len(alg.groupoid.elements) == 4
    assert is_isomorphism(iso).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, f"transformation example: 4-element pullback, canonical map is an isomorphism ({elapsed:.3f}s)")


def test_criterion_4_property_suite_200_cospans(sweep):
    # the budget covers building the sweep too, which the shared fixture timed
    start = time.perf_counter()
    count = 0
    assert [seed for seed, _ in sweep.pullbacks] == list(range(200))
    for seed, w in sweep.pullbacks:
        c = w.cospan
        if seed % 5 == 4:  # the null-base seeds
            assert len(c.base.unit_measure.support) < len(c.base.groupoid.units)
        for leg in (c.left, c.base, c.right):
            assert len(leg.groupoid.elements) <= 24
            assert len(leg.groupoid.units) <= 4
        assert validate_cospan(c).ok  # the generator does not validate
        _all_claims_hold(c, w)
        count += 1
    elapsed = sweep.build_s + time.perf_counter() - start
    assert count == 200
    assert elapsed < 300.0
    _report(4, f"{count} seeded cospans pass every structure check exactly ({elapsed:.1f}s)")


def test_criterion_5_disintegration_independence():
    checked = 0
    for seed in range(20):
        c = random_cospan(seed, with_null_base=True)
        w = build_weak_pullback(c, validate=False)
        alt_left = alternate_disintegration(w.disint_left, c.base.unit_measure, scale=seed + 2)
        alt_right = alternate_disintegration(w.disint_right, c.base.unit_measure, scale=F(1, seed + 2))
        assert alt_left != w.disint_left or alt_right != w.disint_right
        assert check_disintegration_independence(w, alt_left, alt_right).ok
        checked += 1
    _report(5, f"{checked} null-unit cospans: unit measure identical under alternate disintegrations")


def test_criterion_6_modular_function_laws():
    groupoids = 0
    for seed in range(200):
        h = random_haar_groupoid(seed)
        g = h.groupoid
        delta = h.modular
        support = delta.keys()
        assert support == frozenset(h.induced.support)
        for x in support:
            assert delta[g.inv(x)] == 1 / delta[x]
        for (x, y), z in g.compose_map.items():
            if x in support and y in support and z in support:
                assert delta[z] == delta[x] * delta[y]
        mu = h.induced
        for x0 in g.elements:
            lhs = (1 / delta[x0]) * mu(x0) if x0 in support else F(0)
            assert lhs == mu(g.inv(x0))
        for x in g.elements:
            assert h.haar.weight(g.r(x), x) == h.haar.weight(g.d(x), g.d(x))
        groupoids += 1
    assert groupoids == 200
    # the weight corollary is measure-free, so it must also hold on every
    # valid Haar system with engineered null orbits
    for seed in range(20):
        h = random_haar_groupoid(seed, null_orbits=True)
        g = h.groupoid
        for x in g.elements:
            assert h.haar.weight(g.r(x), x) == h.haar.weight(g.d(x), g.d(x))
    _report(6, f"{groupoids} strictly positive Haar groupoids satisfy all modular laws exactly")


def test_criterion_7_negative_controls():
    # (a) documented quasi-invariance failure with its witness
    from measured_groupoids import pair_groupoid

    g = pair_groupoid(["1", "2"])
    h = HaarGroupoid(g, counting_haar_system(g), FiniteMeasure(g.units, {"1-1": 1}))
    (violation,) = is_quasi_invariant(h).violations
    assert violation.rule == "quasi-invariance" and violation.witnesses == ("1-2",)
    mu = h.induced
    assert mu("1-2") == 1 and mu("2-1") == 0

    # (b) the outer square genuinely fails to commute on the Z2 cospan
    c = z2_cospan()
    w = build_weak_pullback(c)
    pid = outer_square_counterexample(w)
    assert pid is not None
    s, _, t = w.algebraic.triples[pid]
    assert c.left_map.mapping[s] != c.right_map.mapping[t]

    # (c) corrupting one pullback Haar weight is detected
    unit = w.groupoid.units[0]
    victim = w.groupoid.fiber(unit)[0]
    family = members_of(w.haar)
    weights = fraction_weights(family[unit])
    weights[victim] += 1
    family[unit] = measure_of(w.groupoid.elements, weights)
    tampered = system_of(w.haar.over, w.haar.domain, w.haar.codomain, family)
    assert not is_haar(w.groupoid, tampered).ok
    _report(7, "negative controls: quasi-invariance witness 1-2, non-commuting square, corrupted weight detected")


def test_criterion_8_cotrivial_base_regression():
    count = 0
    for seed in range(20):
        c = random_cotrivial_cospan(seed)
        w = build_weak_pullback(c, validate=False)
        reg, components = regular_pullback(
            c.left.groupoid, c.base.groupoid, c.right.groupoid, c.left_map.mapping, c.right_map.mapping
        )
        hom = cotrivial_comparison_hom(w.algebraic, reg, components)
        assert is_isomorphism(hom).ok
        count += 1
    _report(8, f"{count} cotrivial-base cospans: weak pullback isomorphic to the regular pullback")


def test_criterion_9_roundtrip_byte_identity():
    files = sorted(FIXTURES.glob("*.json"))
    assert files
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert serialize(parse_document(text)) == text, path.name
    generated = 0
    for seed in range(20):
        text = serialize(GroupoidDocument.of(random_haar_groupoid(seed)))
        assert serialize(parse_document(text)) == text
        generated += 1
    for seed in range(10):
        c = random_cospan(seed, with_null_base=(seed % 3 == 2))
        text = serialize(CospanDocument.of(c))
        assert serialize(parse_document(text)) == text
        generated += 1
    for seed in (0, 1, 2):
        w = build_weak_pullback(random_cospan(seed), validate=False)
        text = serialize(PullbackDocument.of(w))
        assert serialize(parse_document(text)) == text
        generated += 1
    for c in (z2_cospan(), pair_trivial_cospan()):
        text = serialize(CospanDocument.of(c))
        assert serialize(parse_document(text)) == text
        generated += 2
    _report(9, f"{len(files)} fixtures and {generated} generated documents round-trip byte-identically")
