"""What a process imports, the package's public names, and the records.

The start-up guard runs `mgpd` subcommands in fresh interpreters, as
`python -m` runs them, and lists `sys.modules` afterwards: every module the
run loaded, by an import statement or by `importlib.import_module`. It times
nothing.
"""

import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import measured_groupoids as mg
from measured_groupoids import (
    Cospan,
    FiniteMeasure,
    HaarGroupoid,
    OrbitPartition,
    PullbackGroupoid,
    ValidationReport,
    Violation,
    WeakPullbackResult,
    build_weak_pullback,
    orbits,
)
from measured_groupoids import haar, pullback
from measured_groupoids.documents import CospanDocument, GroupoidDocument, PullbackDocument
from measured_groupoids.families import ExampleResultDocument

from helpers import pair_trivial_cospan, replace, z2_cospan

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
ON_USE = ("dataclasses", "measured_groupoids.families", "measured_groupoids.generate")

# the names the package exports, by defining module
EXPORTS = {
    "errors": (
        "BaseMismatch", "DanglingReference", "EmptySpace", "GenerationExhausted", "GroupoidError", "ImageMismatch",
        "InvalidCospan", "MalformedInput", "NotADisintegration", "NotEquivariant", "NotMeasureClassPreserving",
        "NotQuasiInvariant", "ParseError", "PrecomputedConditionFailed", "UnsupportedVersion",
    ),
    "groupoid": (
        "FiniteGroupoid", "GroupoidHom", "OrbitPartition", "ValidationReport", "Violation", "identity_hom", "orbits",
        "validate_groupoid", "validate_hom",
    ),
    "measures": (
        "FiniteMeasure", "MeasureSystem", "alternate_disintegration", "compose_with_measure", "counting", "disintegrate",
        "over_one_denominator", "validate_system",
    ),
    "haar": (
        "HaarGroupoid", "counting_haar_system", "haar_system_from_source_weights", "is_haar", "is_quasi_invariant",
        "validate_haar_groupoid", "validate_haar_hom", "validate_unit_measure",
    ),
    "pullback": (
        "Cospan", "PullbackGroupoid", "WeakPullbackResult", "build_weak_pullback", "check_commuting_diamond",
        "check_disintegration_independence", "check_expanding_lemma", "check_fiber_product_lemma", "check_haar_theorem",
        "check_projection_homs", "check_quasi_invariance_and_modular", "check_triple_integral_lemma", "validate_cospan",
        "weak_pullback_groupoid",
    ),
    "families": (
        "CechCospanData", "FiniteCover", "GroupAction", "TransformationCospanData", "canonical_iso_cech",
        "canonical_iso_transformation", "cech_groupoid", "cech_hom", "cotrivial_groupoid", "cyclic_group", "direct_product",
        "disjoint_union", "is_isomorphism", "pair_groupoid", "transformation_groupoid", "trivial_group", "with_counting_haar",
    ),
    "generate": ("random_cospan", "random_groupoid", "random_haar_groupoid"),
}


# run in a fresh interpreter: the statement in argv[1], then the names in
# sys.modules, one a line after a marker line on stdout
_LISTED = """
import sys
code = 0
try:
    exec(sys.argv.pop(1))
except SystemExit as e:
    code = e.code
print("--- modules", *sorted(sys.modules), sep="\\n")
sys.exit(code)
"""


def _imported(statement: str, *argv: str) -> tuple[int, set[str]]:
    """Run `statement` with `argv` as the arguments in a fresh interpreter on
    this checkout's `src`; its exit code and the modules it loaded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("MGPD_VERBOSE", None)
    proc = subprocess.run(
        [sys.executable, "-c", _LISTED, statement, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, set(proc.stdout.rpartition("--- modules\n")[2].split())


def _mgpd(*argv: str) -> tuple[int, set[str]]:
    return _imported("import runpy; runpy.run_module('measured_groupoids.cli', run_name='__main__', alter_sys=True)", *argv)


def test_checking_and_validating_leave_families_generate_and_dataclasses_unimported(tmp_path):
    cospan, out = str(FIXTURES / "z2_cospan.json"), str(tmp_path / "pullback.json")
    runs = {
        "import": _imported("import measured_groupoids.cli"),
        "check": _mgpd("check", cospan),
        "pullback": _mgpd("pullback", cospan, "--out", out),
        "validate": _mgpd("validate", out),
    }
    for name, (rc, modules) in runs.items():
        assert rc == 0, name
        assert "measured_groupoids.documents" in modules, name
        assert not modules & set(ON_USE), name


def test_gen_and_example_load_what_they_use(tmp_path):
    rc, modules = _mgpd("gen", "cospan", "--seed", "3", "--out", str(tmp_path / "cospan.json"))
    assert rc == 0 and {"measured_groupoids.generate", "measured_groupoids.families"} <= modules
    rc, modules = _mgpd("example", "cech", "--params", str(FIXTURES / "cech_params.json"), "--out", str(tmp_path / "ex.json"))
    assert rc == 0 and {"measured_groupoids.families", "dataclasses"} <= modules
    rc, modules = _mgpd("validate", str(tmp_path / "ex.json"))
    assert rc == 0 and "measured_groupoids.families" in modules


def test_public_names_are_those_of_the_defining_modules():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == len(set(names)) == 74
    assert sorted(mg.__all__) == dir(mg) == sorted(names)
    for module, exported in EXPORTS.items():
        defining = importlib.import_module(f"measured_groupoids.{module}")
        for name in exported:
            assert getattr(mg, name) is getattr(defining, name), name
    for module in (*EXPORTS, "documents", "cli"):
        assert getattr(mg, module) is importlib.import_module(f"measured_groupoids.{module}")
    with pytest.raises(AttributeError, match="no_such_name"):
        mg.no_such_name
    assert not hasattr(mg, "dataclass")


def _records():
    """One instance of each record, built twice from the same fields."""
    c = z2_cospan()
    w = build_weak_pullback(c)
    doc = GroupoidDocument.of(c.left)
    fields = (
        (Violation, ("rule", ("x",), "detail")),
        (ValidationReport, ((Violation("rule", ("x",), "detail"),), (("checked", 1),))),
        (OrbitPartition, ((("u",),), {"u": 0})),
        (HaarGroupoid, (c.left.groupoid, c.left.haar, c.left.unit_measure)),
        (Cospan, (c.left, c.base, c.right, c.left_map, c.right_map)),
        (PullbackGroupoid, (w.groupoid, w.algebraic.triples, w.proj_left, w.proj_right)),
        (WeakPullbackResult, (c, w.algebraic, w.haar, w.disint_left, w.disint_right, w.eta, w.unit_measure)),
        (GroupoidDocument, (c.left.groupoid, c.left.haar, c.left.unit_measure)),
        (CospanDocument, (doc, doc, doc, {}, {})),
        (PullbackDocument, (CospanDocument(doc, doc, doc, {}, {}), doc, {}, {}, {})),
        (ExampleResultDocument, ("cech", *(w.groupoid,) * 3, {}, {}, w.groupoid, w.groupoid, {}, True)),
    )
    return [(cls(*args), cls(*args)) for cls, args in fields]


FROZEN = (Violation, ValidationReport, OrbitPartition, HaarGroupoid, WeakPullbackResult)


def test_records_compare_hash_and_refuse_assignment_as_before():
    for a, b in _records():
        cls = type(a)
        assert a == b and not a != b, cls
        assert a == replace(b) and replace(a, **dict(zip(a._fields, a._values()))) == b, cls
        first = a._fields[0]
        assert replace(a, **{first: None}) != a, cls
        if cls in FROZEN:
            for name in (first, "unknown"):
                with pytest.raises(AttributeError):
                    setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, first)
        else:
            setattr(a, first, None)
            assert getattr(a, first) is None and a != b, cls
    # the dataclasses hashed the tuple of their fields, so a record whose
    # fields hash does, and the others raise TypeError as they did
    v = Violation("rule", ("x",), "detail")
    assert hash(v) == hash(("rule", ("x",), "detail"))
    assert hash(ValidationReport((v,))) == hash(((v,), ()))
    for a, _ in _records()[2:]:
        with pytest.raises(TypeError):
            hash(a)
    # records of two classes are not equal, even on equal fields
    h = z2_cospan().left
    assert GroupoidDocument(h.groupoid, h.haar, h.unit_measure) != h
    assert repr(v) == "Violation(rule='rule', witnesses=('x',), detail='detail')"


def test_records_keep_their_constructor_signatures_and_defaults():
    params = {
        cls: [*inspect.signature(cls).parameters] for cls in (ValidationReport, GroupoidDocument, WeakPullbackResult)
    }
    assert params[ValidationReport] == ["violations", "counts"]
    assert params[GroupoidDocument] == ["groupoid", "haar", "unit_measure"]
    assert params[WeakPullbackResult] == [
        "cospan", "algebraic", "haar", "disint_left", "disint_right", "eta", "unit_measure",
    ]
    assert ValidationReport(()).counts == ()
    c = z2_cospan()
    assert GroupoidDocument(c.left.groupoid) == GroupoidDocument(c.left.groupoid, None, None)
    # the side conditions are one constant of the class, which every result reads
    assert build_weak_pullback(c).assumptions is WeakPullbackResult.assumptions == (
        "disintegrations are bounded (finite fibers)",
        "the base modular function is bounded (finite support)",
    )
    assert orbits(c.base.groupoid) == OrbitPartition(blocks=(("g0",),), index={"g0": 0})


def test_derived_measures_are_derived_once_and_kept(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(haar, "compose_with_measure", counted("induced", haar.compose_with_measure))
    monkeypatch.setattr(haar, "is_quasi_invariant", counted("modular", haar.is_quasi_invariant))
    monkeypatch.setattr(pullback, "HaarGroupoid", counted("haar_groupoid", pullback.HaarGroupoid))
    c = pair_trivial_cospan()
    h = c.left
    assert h.induced is h.induced and h.modular is h.modular
    assert calls == ["induced", "modular"]
    # what is kept takes no part in equality
    assert h == HaarGroupoid(h.groupoid, h.haar, h.unit_measure)
    c.base.induced  # mu_P0 is built from it, so derive it before counting
    calls.clear()
    # the build makes the Haar groupoid once and derives none of its measures
    w = build_weak_pullback(c, validate=False)
    assert calls == ["haar_groupoid"]
    assert w.haar_groupoid is w.haar_groupoid
    assert w.haar_groupoid.modular is w.haar_groupoid.modular
    assert calls == ["haar_groupoid", "modular", "induced"]
    # a copy derives afresh, over the measures it is given
    assert replace(w).haar_groupoid is not w.haar_groupoid
    half = FiniteMeasure(w.unit_measure.base, w.unit_measure.nums, 2 * w.unit_measure.den)
    v = replace(w, unit_measure=half)
    assert v.haar_groupoid == HaarGroupoid(w.groupoid, w.haar, half) != w.haar_groupoid
    assert v.haar_groupoid.unit_measure is half
