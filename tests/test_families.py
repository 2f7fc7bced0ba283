import pytest

from measured_groupoids import (
    CechCospanData,
    EmptySpace,
    FiniteCover,
    GroupAction,
    ImageMismatch,
    MalformedInput,
    NotEquivariant,
    TransformationCospanData,
    canonical_iso_cech,
    canonical_iso_transformation,
    cech_groupoid,
    cech_hom,
    cotrivial_groupoid,
    cyclic_group,
    is_haar,
    is_isomorphism,
    orbits,
    transformation_groupoid,
    trivial_group,
    validate_groupoid,
    validate_haar_hom,
    validate_hom,
    with_counting_haar,
)
from measured_groupoids.families import trivial_action
from measured_groupoids.groupoid import GroupoidHom, identity_hom


def swap_action() -> GroupAction:
    z2 = cyclic_group(2)
    return GroupAction(
        z2,
        ["y1", "y2"],
        {"y1": {"g0": "y1", "g1": "y2"}, "y2": {"g0": "y2", "g1": "y1"}},
    )


def worked_cech_data() -> CechCospanData:
    return CechCospanData(
        FiniteCover.build(["y1", "y2"], {"1": ["y1"], "2": ["y2"]}),
        FiniteCover.build(["z1"], {"1": ["z1"], "2": ["z1"]}),
        ("x",),
        {"y1": "x", "y2": "x"},
        {"z1": "x"},
    )


def test_cech_one_block_one_point_is_trivial_group():
    g = cech_groupoid(FiniteCover.build(["pt"], {"a": ["pt"]}))
    assert len(g.elements) == 1
    assert validate_groupoid(g).ok


def test_cech_disjoint_blocks_gives_units_only():
    g = cech_groupoid(FiniteCover.build(["y1", "y2"], {"1": ["y1"], "2": ["y2"]}))
    assert len(g.elements) == 2
    assert set(g.elements) == set(g.units)


def test_cech_doubled_cover_of_point():
    g = cech_groupoid(FiniteCover.build(["z1"], {"1": ["z1"], "2": ["z1"]}))
    assert len(g.elements) == 4
    assert validate_groupoid(g).ok


def test_cech_counting_system_is_haar_not_assumed():
    g = cech_groupoid(FiniteCover.build(["z1"], {"1": ["z1"], "2": ["z1"]}))
    from measured_groupoids.haar import counting_haar_system

    assert is_haar(g, counting_haar_system(g)).ok


def test_cech_orbits_identify_points():
    cover = FiniteCover.build(["y1", "y2"], {"1": ["y1", "y2"], "2": ["y1"]})
    g = cech_groupoid(cover)
    part = orbits(g)
    # units over the same point are in one orbit; different points never are
    def point_of(uid):
        return uid.split(":")[1]

    for u in g.units:
        for v in g.units:
            assert (part.index[u] == part.index[v]) == (point_of(u) == point_of(v))


def test_cech_hom_identity_and_mismatch():
    cover = FiniteCover.build(["y1"], {"1": ["y1"]})
    hom = cech_hom({"y1": "y1"}, cover, cover, cech_groupoid(cover))
    assert validate_hom(hom).ok
    dom = FiniteCover.build(["y1", "y2"], {"1": ["y1", "y2"], "2": ["y2"]})
    cod = FiniteCover.build(["x1", "x2"], {"1": ["x1", "x2"], "2": ["x1"]})
    with pytest.raises(ImageMismatch):
        cech_hom({"y1": "x1", "y2": "x2"}, dom, cod, cech_groupoid(cod))


def test_cech_worked_example_collapse_hom():
    data = worked_cech_data()
    from measured_groupoids.families import cech_cospan_groupoids

    left, base, right, hl, hr = cech_cospan_groupoids(data)
    assert len(base.elements) == 4
    assert validate_hom(hl).ok and validate_hom(hr).ok


def test_canonical_iso_cech_worked_example():
    _, alg, target, iso = canonical_iso_cech(worked_cech_data())
    assert len(alg.groupoid.elements) == 8
    assert len(alg.groupoid.units) == 4
    assert len(target.elements) == 8
    assert is_isomorphism(iso).ok


def test_canonical_iso_cech_one_point_trivial():
    data = CechCospanData(
        FiniteCover.build(["y"], {"a": ["y"]}),
        FiniteCover.build(["z"], {"a": ["z"]}),
        ("x",),
        {"y": "x"},
        {"z": "x"},
    )
    _, alg, target, iso = canonical_iso_cech(data)
    assert len(alg.groupoid.elements) == 1
    assert is_isomorphism(iso).ok


def test_canonical_iso_cech_identity_cospan():
    cover = FiniteCover.build(["a", "b"], {"1": ["a", "b"], "2": ["b"]})
    data = CechCospanData(cover, cover, ("a", "b"), {"a": "a", "b": "b"}, {"a": "a", "b": "b"})
    _, alg, target, iso = canonical_iso_cech(data)
    assert is_isomorphism(iso).ok


def test_cech_cospan_requires_equal_images():
    with pytest.raises(ImageMismatch):
        CechCospanData(
            FiniteCover.build(["y1"], {"1": ["y1"]}),
            FiniteCover.build(["z1"], {"1": ["z1"]}),
            ("x1", "x2"),
            {"y1": "x1"},
            {"z1": "x2"},
        )


def test_transformation_trivial_group_gives_cotrivial():
    g = transformation_groupoid(trivial_action(cyclic_group(1, prefix="e"), ["a", "b"]))
    assert set(g.elements) == set(g.units)
    assert len(g.elements) == 2


def test_transformation_swap_single_orbit():
    g = transformation_groupoid(swap_action())
    assert len(g.elements) == 4
    assert validate_groupoid(g).ok
    assert len(orbits(g).blocks) == 1


def test_transformation_trivial_action_of_z2():
    g = transformation_groupoid(trivial_action(cyclic_group(2), ["y1"]))
    assert len(g.elements) == 2
    assert len(g.units) == 1


def test_transformation_element_count():
    for action in (swap_action(), trivial_action(cyclic_group(3), ["a", "b"])):
        g = transformation_groupoid(action)
        assert len(g.elements) == len(action.space) * len(action.group.elements)


def test_group_action_validation():
    z2 = cyclic_group(2)
    with pytest.raises(MalformedInput):
        GroupAction(z2, ["y"], {"y": {"g0": "y"}})  # missing entries
    with pytest.raises(MalformedInput):
        GroupAction(
            z2,
            ["y1", "y2"],
            {"y1": {"g0": "y2", "g1": "y2"}, "y2": {"g0": "y1", "g1": "y1"}},
        )  # unit does not act trivially


def test_cotrivial_groupoid_cases():
    assert len(cotrivial_groupoid(["p"]).elements) == 1
    g = cotrivial_groupoid(["a", "b", "c"])
    assert len(orbits(g).blocks) == 3
    with pytest.raises(EmptySpace):
        cotrivial_groupoid([])


def test_canonical_iso_transformation_worked_example():
    data = TransformationCospanData(
        swap_action(),
        trivial_action(cyclic_group(1, prefix="e"), ["z1"]),
        ("x",),
        {"y1": "x", "y2": "x"},
        {"z1": "x"},
    )
    _, alg, target, iso = canonical_iso_transformation(data)
    assert len(alg.groupoid.elements) == 4
    assert len(target.elements) == 4
    assert is_isomorphism(iso).ok


def test_canonical_iso_transformation_both_trivial_groups():
    data = TransformationCospanData(
        trivial_action(cyclic_group(1, prefix="u"), ["y1", "y2"]),
        trivial_action(cyclic_group(1, prefix="v"), ["z1"]),
        ("x",),
        {"y1": "x", "y2": "x"},
        {"z1": "x"},
    )
    _, alg, target, iso = canonical_iso_transformation(data)
    # cotrivial pullback: same count as the pullback set Y*Z
    assert len(alg.groupoid.elements) == 2
    assert is_isomorphism(iso).ok


def test_transformation_cospan_rejects_non_equivariant():
    z2 = cyclic_group(2)
    with pytest.raises(NotEquivariant):
        TransformationCospanData(
            swap_action(),
            trivial_action(cyclic_group(1, prefix="e"), ["z1"]),
            ("x1", "x2"),
            {"y1": "x1", "y2": "x2"},  # not invariant under the swap
            {"z1": "x1"},
        )


def test_is_isomorphism_examples():
    z2 = cyclic_group(2)
    assert is_isomorphism(identity_hom(z2)).ok
    collapse = GroupoidHom(z2, trivial_group(), {"g0": "e", "g1": "e"})
    assert not is_isomorphism(collapse).ok


def test_is_isomorphism_names_a_bijection_witness():
    z2 = cyclic_group(2)
    # a homomorphism that is not injective: two elements with one image
    collapse = is_isomorphism(GroupoidHom(z2, trivial_group(), {"g0": "e", "g1": "e"}))
    assert [(v.rule, v.witnesses) for v in collapse.violations] == [("bijection", ("g0", "g1"))]
    # nor surjective: an element of the codomain outside the image
    include = is_isomorphism(GroupoidHom(trivial_group("g0"), z2, {"g0": "g0"}))
    assert [(v.rule, v.witnesses) for v in include.violations] == [("bijection", ("g1",))]
    # a bijection that is not a homomorphism keeps validate_hom's violations
    swap = is_isomorphism(GroupoidHom(z2, z2, {"g0": "g1", "g1": "g0"}))
    assert not swap.ok and all(v.rule.startswith("hom-") for v in swap.violations)


def test_is_isomorphism_measured_report():
    # an isomorphism of Haar groupoids preserves the induced measure class in
    # both directions: the map and its inverse are Haar homomorphisms
    z2 = cyclic_group(2)
    h = with_counting_haar(z2)
    f = identity_hom(z2)
    assert is_isomorphism(f).ok
    back = GroupoidHom(z2, z2, {y: x for x, y in f.mapping.items()})
    assert validate_haar_hom(f, h, h).ok and validate_haar_hom(back, h, h).ok
