"""Finite groupoids with Haar systems and quasi-invariant unit measures,
and the weak pullback of a cospan of such, verified in exact arithmetic."""

from .errors import (
    BaseMismatch,
    DanglingReference,
    EmptySpace,
    GenerationExhausted,
    GroupoidError,
    ImageMismatch,
    InvalidCospan,
    MalformedInput,
    NotADisintegration,
    NotEquivariant,
    NotMeasureClassPreserving,
    NotQuasiInvariant,
    ParseError,
    PrecomputedConditionFailed,
    UnsupportedVersion,
)
from .groupoid import (
    FiniteGroupoid,
    GroupoidHom,
    OrbitPartition,
    ValidationReport,
    Violation,
    identity_hom,
    orbits,
    validate_groupoid,
    validate_hom,
)
from .measures import (
    FiniteMeasure,
    MeasureSystem,
    alternate_disintegration,
    compose_with_measure,
    counting,
    disintegrate,
    push_forward,
    same_measure_class,
    validate_system,
)
from .haar import (
    HaarGroupoid,
    counting_haar_system,
    haar_system_from_source_weights,
    is_haar,
    is_quasi_invariant,
    validate_haar_groupoid,
    validate_haar_hom,
    validate_unit_measure,
)
from .pullback import (
    Cospan,
    PullbackGroupoid,
    WeakPullbackResult,
    build_weak_pullback,
    check_commuting_diamond,
    check_disintegration_independence,
    check_expanding_lemma,
    check_fiber_product_lemma,
    check_haar_theorem,
    check_projection_homs,
    check_quasi_invariance_and_modular,
    check_triple_integral_lemma,
    validate_cospan,
    weak_pullback_groupoid,
)
from .families import (
    CechCospanData,
    FiniteCover,
    GroupAction,
    TransformationCospanData,
    canonical_iso_cech,
    canonical_iso_transformation,
    cech_groupoid,
    cech_hom,
    cotrivial_groupoid,
    cyclic_group,
    direct_product,
    disjoint_union,
    is_isomorphism,
    pair_groupoid,
    transformation_groupoid,
    trivial_group,
    with_counting_haar,
)
from .generate import (
    random_cospan,
    random_groupoid,
    random_haar_groupoid,
)

__version__ = "0.1.0"
