"""Physical parameter and quantum-number containers.

Units: hbar = c = 1 throughout; lengths in fm, energies, masses and the
screening parameter in fm^-1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, OutOfDomain


@dataclass(frozen=True)
class PotentialParams:
    """Yukawa coupling strengths and screening.

    v0 : dimensionless vector strength
    s0 : dimensionless scalar strength
    a  : screening parameter in fm^-1 (> 0)
    """

    v0: float
    s0: float
    a: float

    def __post_init__(self):
        if not (math.isfinite(self.v0) and math.isfinite(self.s0)):
            raise DomainError("v0 and s0 must be finite")
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise DomainError(f"screening parameter a must be > 0, got {self.a}")

    @classmethod
    def from_beta(cls, v0: float, beta: float, a: float) -> "PotentialParams":
        return cls(v0=v0, s0=beta * v0, a=a)


@dataclass(frozen=True)
class ParticleParams:
    """Rest mass M in fm^-1."""

    mass: float

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise DomainError(f"mass must be > 0, got {self.mass}")


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial label n >= 1, orbital l >= 0 and spatial dimension d >= 2."""

    n: int
    l: int
    d: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if self.l < 0:
            raise DomainError(f"l must be >= 0, got {self.l}")
        if self.d < 2:
            raise DomainError(f"d must be >= 2, got {self.d}")

    def kappa(self) -> int:
        """Degenerate combination d + 2l - 2; the energy depends on (l, d)
        only through this."""
        return self.d + 2 * self.l - 2

    def centrifugal_constant(self) -> float:
        """Coefficient of 1/r^2 in the reduced radial equation,
        ((d+2l-2)^2 - 1)/4; equals l(l+1) at d = 3."""
        k = self.kappa()
        return (k * k - 1) / 4.0


def degeneracy_partner(qn: QuantumNumbers, direction: str) -> QuantumNumbers:
    """Interdimensional partner state with the same kappa():
    'up' -> (n, l+1, d-2), 'down' -> (n, l-1, d+2).

    Raises :class:`OutOfDomain` when the partner leaves l >= 0, d >= 2.
    """
    if direction == "up":
        l, d = qn.l + 1, qn.d - 2
    elif direction == "down":
        l, d = qn.l - 1, qn.d + 2
    else:
        raise DomainError(f"direction must be 'up' or 'down', got {direction!r}")
    if l < 0 or d < 2:
        raise OutOfDomain(f"partner of (n={qn.n}, l={qn.l}, d={qn.d}) going {direction} "
                          f"would have l={l}, d={d}")
    return QuantumNumbers(n=qn.n, l=l, d=d)
