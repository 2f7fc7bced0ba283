"""Finite groupoids with Haar systems and quasi-invariant unit measures,
and the weak pullback of a cospan of such, verified in exact arithmetic.

The public names below, and the submodules, are imported on first access
(PEP 562), so that a process imports only the modules it uses: the command
line's `check` never loads `families` or `generate`.
"""

from importlib import import_module

# each public name, under the submodule that defines it
_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "documents", "cli"))

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value  # later reads find it without this call
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # which binds it here
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
