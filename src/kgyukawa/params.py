"""Physical parameter and quantum-number containers.

Units: hbar = c = 1 throughout; lengths in fm, energies, masses and the
screening parameter in fm^-1.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, _finite, _integer, _positive

# Interdimensional partner of (n, l, d) in each direction, as (dl, dd):
# d + 2l, and so the energy, stays the same.
PARTNER_SHIFT = {"up": (1, -2), "down": (-1, 2)}


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
    """Rest mass M in fm^-1, whose square M^2 is a normal float: M from
    about 1.5e-154 to 1.3e154."""

    mass: float

    def __post_init__(self):
        _positive(self.mass, "mass")
        if not sys.float_info.min <= self.mass * self.mass < math.inf:
            raise DomainError(f"mass must lie in about [1.5e-154, 1.3e154], where its "
                              f"square is a normal float, got {self.mass}")


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial label n >= 1, orbital l >= 0 and spatial dimension d >= 2,
    each an integer (Python or numpy) of at most 2**53."""

    n: int
    l: int
    d: int

    def __post_init__(self):
        for name, least in (("n", 1), ("l", 0), ("d", 2)):
            _integer(getattr(self, name), name, least)

    def kappa(self) -> int:
        """Degenerate combination d + 2l - 2; the energy depends on (l, d)
        only through this."""
        return self.d + 2 * self.l - 2

    def centrifugal_constant(self) -> float:
        """Coefficient of 1/r^2 in the reduced radial equation,
        ((d+2l-2)^2 - 1)/4; equals l(l+1) at d = 3."""
        k = self.kappa()
        return (k * k - 1) / 4.0
