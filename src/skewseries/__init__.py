"""Exact finite-ring toolkit: skew generalized power series over ordered
monoids, annihilator-based ring class deciders with certificates, and
mechanized transfer checks between a coefficient ring and its series ring."""

from .errors import (
    AlgebraError,
    AxiomViolation,
    BudgetExceeded,
    DuplicateExponent,
    EmptySubset,
    ForeignElement,
    HypothesisNotMet,
    IllegalPairing,
    InvariantViolation,
    MixedContexts,
    MixedMonoids,
    NonpositiveExponent,
    SizeCapExceeded,
    SpecFormatError,
)
from .monoids import (
    OrderedMonoid,
    check_order_axioms,
    check_refinement,
    monoid_make,
)
from .properties import (
    CLASS_NAMES,
    ClassVerdict,
    decide_baer,
    decide_generalized,
    decide_quasi_baer,
    oracle_decide_generalized,
    recheck_class_verdict,
)
from .rings import (
    FiniteRing,
    PropertyCertificate,
    RingEndomorphism,
    annihilator,
    build_ring_from_tables,
    endo_property,
    enumerate_endomorphisms,
    enumerate_ideals,
    ideal_generated,
    idempotents,
    identity_endomorphism,
    is_reduced,
    ring_matrix,
    ring_product,
    ring_upper_triangular,
    ring_zn,
    subset_power,
)
from .series import (
    SkewContext,
    SkewSeries,
    all_series,
    armendariz_search,
    const_embed,
    exp_embed,
    format_series,
    is_idempotent_series,
    parse_series_literal,
    s_compatibility_check,
    series_from_pairs,
    zero_series,
)
from .specfile import (
    CATALOG_NAMES,
    builtin_ring,
    default_catalog,
    parse_monoid_spec,
    parse_ring_file,
    resolve_monoid,
    resolve_ring,
    resolve_sigma,
)
from .verify import (
    ConclusionEntry,
    SearchOutcome,
    TheoremReport,
    bounded_annihilator_in_A,
    coefficient_ideal_lift,
    counterexample_search,
    lift_subset_to_series,
    verify_corollaries,
    verify_prop34,
    verify_thm37,
)

__version__ = "0.1.0"
