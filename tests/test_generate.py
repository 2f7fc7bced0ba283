import hashlib

import pytest

from measured_groupoids import (
    GenerationExhausted,
    build_weak_pullback,
    random_cospan,
    random_haar_groupoid,
    validate_cospan,
    validate_groupoid,
)
from measured_groupoids.documents import CospanDocument, serialize
from measured_groupoids.haar import validate_haar_groupoid

from helpers import random_cotrivial_cospan


def test_same_seed_same_instance():
    a = random_haar_groupoid(42)
    b = random_haar_groupoid(42)
    assert a.groupoid == b.groupoid
    assert a.haar == b.haar
    assert a.unit_measure == b.unit_measure


def test_same_seed_same_cospan():
    a = random_cospan(42)
    b = random_cospan(42)
    assert a.left.groupoid == b.left.groupoid
    assert a.left_map.mapping == b.left_map.mapping
    assert a.base.unit_measure == b.base.unit_measure


# sha256 of the concatenated cospan documents of seeds 0-199, every fifth
# with a null base, as the generator wrote them when it still validated each
# cospan before returning it
SWEEP_DOCUMENTS_SHA256 = "4000539f66b61ccb8faae0e1727d38cebeaf54cc3ef257df27eeaf0176514915"
GRID_BOUNDS = ((4, 24), (2, 8), (1, 4), (3, 12), (6, 40))


def test_same_seed_same_cospan_documents_as_pinned():
    digest = hashlib.sha256()
    for seed in range(200):
        digest.update(serialize(CospanDocument.of(random_cospan(seed, with_null_base=seed % 5 == 4))).encode())
    assert digest.hexdigest() == SWEEP_DOCUMENTS_SHA256


def test_leg_patterns_preserve_the_measure_class_on_a_grid():
    # the generator does not validate what it returns: its leg patterns
    # preserve the measure class by construction, which this grid checks
    # (scripts/generator_grid.py runs a larger one)
    checked = 0
    for bounds in GRID_BOUNDS:
        for seed in range(100):
            for null in (False, True):
                report = validate_cospan(random_cospan(seed, bounds, with_null_base=null))
                assert report.ok, (bounds, seed, null, report.summary())
                checked += 1
    assert checked == 1000


def test_bounds_one_one_is_trivial_group_with_positive_weight():
    h = random_haar_groupoid(0, bounds=(1, 1))
    assert len(h.groupoid.elements) == 1
    assert not h.unit_measure.is_zero()


def test_bounds_two_two_valid():
    h = random_haar_groupoid(0, bounds=(2, 2))
    assert validate_haar_groupoid(h).ok
    assert len(h.groupoid.units) <= 2 and len(h.groupoid.elements) <= 2


def test_invalid_bounds_exhaust():
    for generator in (random_haar_groupoid, random_cospan):
        for bounds in ((0, 0), (1, 0), (-1, 5)):
            with pytest.raises(GenerationExhausted):
                generator(0, bounds=bounds)


def test_generated_cospans_respect_bounds_and_validate():
    for seed in range(25):
        c = random_cospan(seed)
        for leg in (c.left, c.base, c.right):
            assert len(leg.groupoid.elements) <= 24
            assert len(leg.groupoid.units) <= 4
        assert validate_cospan(c).ok


def test_null_base_cospans_have_nonempty_null_fibers():
    for seed in range(10):
        c = random_cospan(seed, with_null_base=True)
        base_supp = c.base.unit_measure.support
        nulls = [u for u in c.base.groupoid.units if u not in base_supp]
        assert nulls
        unit_map = {u: c.left_map.mapping[u] for u in c.left.groupoid.units}
        assert any(unit_map[u] in nulls for u in c.left.groupoid.units)


def test_cotrivial_cospans_validate():
    for seed in range(10):
        c = random_cotrivial_cospan(seed)
        assert set(c.base.groupoid.elements) == set(c.base.groupoid.units)
        assert validate_cospan(c).ok


def test_generated_pullbacks_stay_desk_scale():
    for seed in range(15):
        c = random_cospan(seed)
        w = build_weak_pullback(c, validate=False)
        assert len(w.groupoid.elements) <= 1200
        assert validate_groupoid(w.groupoid).ok
