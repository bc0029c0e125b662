"""Typed errors raised by the solver: no routine returns NaN in place of
one.  NaN is returned only where it means "undefined" by design:
``NuCoefficients`` c11 and c13 at c3 = 0, and ``PotentialProfile.rel_err``
where the exact potential is too small for a relative error.

The argument checks below are written as comparisons that NaN fails.
They stay underscore-named, so perfbench's span tracer, which wraps
every public function, adds no span per check.
"""
import math
import operator


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


# The errors that mean no state exists for valid inputs.
_NO_SOLUTION = (NoRootInBracket, ComplexChannel)


def _integer(value, name: str, least: int) -> int:
    """operator.index(value), which numpy integers pass; a value that is
    not an integer (a float, a string, None), is below least or is above
    2**53, the largest integer a float holds exactly, is a DomainError."""
    try:
        k = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if k < least:
        raise DomainError(f"{name} must be >= {least}, got {k}")
    if k > 2**53:
        raise DomainError(f"{name} must be <= 2**53, got {k}")
    return k


def _finite(value, name: str):
    """value, unless it is NaN or infinite (a DomainError)."""
    if not -math.inf < value < math.inf:
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _positive(value, name: str):
    """value, unless it is not in (0, inf) (a DomainError)."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be > 0, got {value}")
    return value


def _within_mass(value, mass, name: str):
    """value, unless it is not strictly inside (-mass, mass) (a DomainError)."""
    if not -mass < value < mass:
        raise DomainError(f"{name} must lie in (-M, M), got {value}")
    return value


def _radii(r_min, r_max) -> None:
    """A DomainError unless 0 < r_min < r_max < inf."""
    if not 0.0 < r_min < r_max < math.inf:
        raise DomainError(f"need 0 < r_min < r_max < inf, got [{r_min}, {r_max}]")
