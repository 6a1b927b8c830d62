"""Exact finite-ring toolkit: skew generalized power series over ordered
monoids, annihilator-based ring class deciders with certificates, and
mechanized transfer checks between a coefficient ring and its series ring.

The names below are loaded on first use (PEP 562), so importing the package,
or running `python -m skewseries`, loads only the modules a run needs.
"""

# Exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", (
            "AlgebraError", "AxiomViolation", "BudgetExceeded", "DuplicateExponent",
            "EmptySubset", "ForeignElement", "HypothesisNotMet", "IllegalPairing",
            "InvariantViolation", "MixedContexts", "MixedMonoids", "NonpositiveExponent",
            "SizeCapExceeded", "SpecFormatError",
        )),
        ("monoids", ("OrderedMonoid", "check_order_axioms", "check_refinement")),
        ("properties", (
            "CLASS_NAMES", "ClassVerdict", "decide_baer", "decide_generalized",
            "decide_quasi_baer", "oracle_decide_generalized", "recheck_class_verdict",
        )),
        ("rings", (
            "FiniteRing", "PropertyCertificate", "RingEndomorphism", "annihilator",
            "build_ring_from_tables", "endo_property", "enumerate_endomorphisms",
            "enumerate_ideals", "ideal_generated", "idempotents", "identity_endomorphism",
            "is_reduced", "ring_matrix", "ring_product", "ring_upper_triangular", "ring_zn",
            "subset_power",
        )),
        ("series", (
            "SkewContext", "SkewSeries", "all_series", "armendariz_search", "const_embed",
            "exp_embed", "format_series", "is_idempotent_series", "parse_series_literal",
            "s_compatibility_check", "series_from_pairs", "zero_series",
        )),
        ("specfile", (
            "CATALOG_NAMES", "builtin_ring", "parse_monoid_spec", "parse_ring_file",
            "resolve_monoid", "resolve_ring", "resolve_sigma",
        )),
        ("verify", (
            "ConclusionEntry", "SearchOutcome", "TheoremReport", "bounded_annihilator_in_A",
            "coefficient_ideal_lift", "counterexample_search", "verify_corollaries",
            "verify_prop34", "verify_thm37",
        )),
    )
    for name in names
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS.values():
        # The defining submodules stay reachable as package attributes.
        return import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
