"""Physical parameter and quantum-number containers.

Units: hbar = c = 1 throughout; lengths in fm, energies, masses and the
screening parameter in fm^-1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, OutOfDomain, _finite, _integer, _positive


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
        _finite(self.v0, "v0")
        _finite(self.s0, "s0")
        _positive(self.a, "screening parameter a")

    @classmethod
    def from_beta(cls, v0: float, beta: float, a: float) -> "PotentialParams":
        return cls(v0=v0, s0=beta * v0, a=a)


@dataclass(frozen=True)
class ParticleParams:
    """Rest mass M in fm^-1."""

    mass: float

    def __post_init__(self):
        _positive(self.mass, "mass")


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial label n >= 1, orbital l >= 0 and spatial dimension d >= 2,
    each an integer (Python or numpy)."""

    n: int
    l: int
    d: int

    def __post_init__(self):
        _integer(self.n, "n", 1)
        _integer(self.l, "l", 0)
        _integer(self.d, "d", 2)

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
