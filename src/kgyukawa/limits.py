"""Nonrelativistic (Schrodinger) and Coulomb limits of the solved problem."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, _finite, _positive
from .params import ParticleParams, PotentialParams, QuantumNumbers
from .solver import solve_energy


@dataclass(frozen=True)
class NonRelParams:
    """Reduced mass mu (fm^-1), coupling v0 and screening a, with hbar = 1."""

    mu: float
    v0: float
    a: float

    def __post_init__(self):
        _positive(self.mu, "mu")
        _finite(self.v0, "v0")
        if not 0.0 <= self.a < math.inf:
            raise DomainError(f"a must be >= 0, got {self.a}")


def effective_level(qn: QuantumNumbers) -> float:
    """nu = n + d/2 + l - 1/2, the single combination the limit formulas
    depend on (invariant under (l, d) -> (l+-1, d-+2))."""
    return qn.n + qn.d / 2.0 + qn.l - 0.5


def nonrel_energy(p: NonRelParams, qn: QuantumNumbers) -> float:
    """Screened-Coulomb Schrodinger energy -(1/2mu) * (nu*a - mu*v0/nu)^2."""
    nu = effective_level(qn)
    if not (nu > 0.0):
        raise DomainError(f"nu = {nu} must be > 0")
    return -(1.0 / (2.0 * p.mu)) * (nu * p.a - p.mu * p.v0 / nu) ** 2


def coulomb_energy(p: NonRelParams, qn: QuantumNumbers) -> float:
    """Unscreened limit -mu*v0^2 / (2 nu^2); equals nonrel_energy at a = 0."""
    nu = effective_level(qn)
    if not (nu > 0.0):
        raise DomainError(f"nu = {nu} must be > 0")
    return -p.mu * p.v0 * p.v0 / (2.0 * nu * nu)


@dataclass(frozen=True)
class ConvergenceRow:
    a: float
    e_relativistic: float
    e_nonrelativistic: float
    gap: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Gap between the relativistic solution (shifted by -M) and the
    Schrodinger energy, per screening value."""

    qn: QuantumNumbers
    rows: tuple[ConvergenceRow, ...]


def nonrel_limit_of_relativistic(
    pp: PotentialParams,
    mp: ParticleParams,
    qn: QuantumNumbers,
    a_sequence: Sequence[float],
) -> ConvergenceReport:
    """Check that the relativistic solution reduces to the Schrodinger one.

    The correspondence halves both couplings on the relativistic side
    (V -> V/2, S -> S/2), identifies mu = M, and compares E_rel - M with
    the Schrodinger energy at the full coupling.  The relativistic root
    is the highest root of the decaying-wavefunction branch
    (``solve_energy(..., branch="decaying")``), where states near E = +M
    live.  Solver errors (e.g. no bound state) propagate.
    """
    rows = []
    for a in a_sequence:
        halved = PotentialParams(v0=pp.v0 / 2.0, s0=pp.s0 / 2.0, a=a)
        rel = solve_energy(halved, mp, qn, branch="decaying")
        e_nr = nonrel_energy(NonRelParams(mu=mp.mass, v0=pp.v0, a=a), qn)
        rows.append(
            ConvergenceRow(
                a=a,
                e_relativistic=rel.energy,
                e_nonrelativistic=e_nr,
                gap=abs((rel.energy - mp.mass) - e_nr),
            )
        )
    return ConvergenceReport(qn=qn, rows=tuple(rows))
