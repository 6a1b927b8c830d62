"""Exception types shared across the toolkit."""


class AlgebraError(Exception):
    """Base class for all structured errors raised by this package."""


class AxiomViolation(AlgebraError):
    """A structural axiom failed an exhaustive check."""

    def __init__(self, axiom: str, witness=None, message: str = ""):
        self.axiom = axiom
        self.witness = witness
        detail = message or f"axiom {axiom!r} violated"
        if witness is not None:
            detail += f" at witness {witness!r}"
        super().__init__(detail)


class SizeCapExceeded(AlgebraError):
    """An enumeration or construction would exceed its configured cap."""


class EmptySubset(AlgebraError):
    """An operation that needs a nonempty subset was given the empty set."""


class NonpositiveExponent(AlgebraError):
    """Set powers and annihilator chains only make sense for n >= 1."""


class MixedMonoids(AlgebraError):
    """An exponent does not belong to the monoid performing the operation."""


class IllegalPairing(AlgebraError):
    """The requested monoid kind does not admit the requested order mode."""


class DuplicateExponent(AlgebraError):
    """A series was given two coefficients at the same exponent."""


class ForeignElement(AlgebraError):
    """A coefficient or exponent lies outside the structure it was used with."""


class MixedContexts(AlgebraError):
    """Series from different skew contexts cannot be combined."""


class BudgetExceeded(AlgebraError):
    """A bounded search would exceed its work budget."""


class HypothesisNotMet(AlgebraError):
    """A verification harness found one of its hypotheses false.

    Distinct from a FAIL outcome: the statement under test says nothing
    about this input, so the harness refuses to run rather than report.
    """

    def __init__(self, hypothesis: str, certificate=None, message: str = ""):
        self.hypothesis = hypothesis
        self.certificate = certificate
        super().__init__(message or f"hypothesis not met: {hypothesis}")


class SpecFormatError(AlgebraError):
    """A ring/monoid spec file or builtin name could not be parsed."""


class InvariantViolation(AlgebraError):
    """An internal invariant failed: a bug in this package, not bad input."""
