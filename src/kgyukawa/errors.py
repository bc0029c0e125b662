"""Typed errors raised by the solver; no routine ever returns NaN instead."""


class KgYukawaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(KgYukawaError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NegativeDiscriminant(KgYukawaError):
    """A square-root argument in the quantization algebra is negative,
    so no real solution exists for these parameters."""


class ComplexChannel(KgYukawaError):
    """The angular channel constant (D+2l-2)^2 + 4(S0^2-V0^2) is negative:
    the vector coupling is too strong for a real solution."""


class NoRootInBracket(KgYukawaError):
    """No sign change of the residual was found: no bound state here."""


class NonFinite(KgYukawaError):
    """A numeric evaluation overflowed or produced a non-finite value."""


class NormalizationFailure(KgYukawaError):
    """The wavefunction normalization integral is not finite."""


class OutOfDomain(KgYukawaError):
    """A quantum-number transformation left the admissible (n, l, D) domain."""
