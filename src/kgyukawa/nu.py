"""Parametric Nikiforov-Uvarov engine.

Works on second-order ODEs brought to the canonical form

    psi'' + (c1 - c2*s)/(s*(1 - c3*s)) * psi'
          + (-p2*s^2 + p1*s - p0)/(s*(1 - c3*s))^2 * psi = 0,

independent of any particular potential.  The six input constants fix a
family of derived constants c4..c13; polynomial (bound-state) solutions
exist where the quantization residual vanishes, and the solutions are
built from Jacobi polynomials weighted by s^c12 * (1 - c3*s)^c13.

This is the paper's shortcut, kept as checked public API.  For the
Yukawa problem :mod:`kgyukawa.solver` uses its results in closed form:
only :func:`kgyukawa.solver.map_to_nu` builds a :class:`NuProblem`, and
no command calls into this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NegativeDiscriminant, _integer


@dataclass(frozen=True)
class NuProblem:
    """Canonical-form input constants (all dimensionless)."""

    c1: float
    c2: float
    c3: float
    p0: float
    p1: float
    p2: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "p0", "p1", "p2"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"NuProblem field {name} must be finite")


@dataclass(frozen=True)
class NuCoefficients:
    """Constants c4..c13 derived from a :class:`NuProblem`.

    For c3 = 0 the entries c11 and c13 involve divisions by c3 and are
    not defined; they are stored as NaN.
    """

    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c9: float
    c10: float
    c11: float
    c12: float
    c13: float


def derive_coefficients(problem: NuProblem) -> NuCoefficients:
    """Derive c4..c13 from the canonical six constants.

    Raises :class:`NegativeDiscriminant` when c8 or c9 is negative, i.e.
    when the quantization algebra has no real branch for these inputs.

    Note on signs: c10 carries +2*sqrt(c8) (the Jacobi parameter of the
    weight function must exceed -1 for normalizable states), while c12 is
    kept as c4 - sqrt(c8) exactly as the shortcut tabulates it; when it is
    not positive (the growing solution), the decaying partner is
    2*c4 - c12 = c4 + sqrt(c8).
    """
    c1, c2, c3 = problem.c1, problem.c2, problem.c3
    c4 = 0.5 * (1.0 - c1)
    c5 = 0.5 * (c2 - 2.0 * c3)
    c6 = c5 * c5 + problem.p2
    c7 = 2.0 * c4 * c5 - problem.p1
    c8 = c4 * c4 + problem.p0
    c9 = c3 * (c7 + c3 * c8) + c6
    if c8 < 0.0:
        raise NegativeDiscriminant(f"c8 = {c8} < 0: no real solution")
    if c9 < 0.0:
        raise NegativeDiscriminant(f"c9 = {c9} < 0: no real solution")
    r8 = math.sqrt(c8)
    r9 = math.sqrt(c9)
    c10 = c1 + 2.0 * c4 + 2.0 * r8 - 1.0
    c12 = c4 - r8
    if c3 != 0.0:
        c11 = 1.0 - c1 - 2.0 * c4 + 2.0 * r9 / c3
        c13 = -c4 + (r9 - c5) / c3
    else:
        c11 = math.nan
        c13 = math.nan
    return NuCoefficients(c4, c5, c6, c7, c8, c9, c10, c11, c12, c13)


def energy_relation_residual(problem: NuProblem, coeffs: NuCoefficients, n: int) -> float:
    """Quantization residual whose root in the problem parameters selects
    the degree-n polynomial solution.

    Returns  c2*n - (2n+1)*c5 + (2n+1)*(sqrt(c9) - c3*sqrt(c8))
             + n*(n-1)*c3 + c7 + 2*c3*c8 - 2*sqrt(c8*c9).
    """
    n = _integer(n, "n", 0)
    if coeffs.c8 < 0.0 or coeffs.c9 < 0.0:
        raise NegativeDiscriminant("c8 and c9 must be nonnegative")
    r8 = math.sqrt(coeffs.c8)
    r9 = math.sqrt(coeffs.c9)
    c3 = problem.c3
    return (
        problem.c2 * n
        - (2 * n + 1) * coeffs.c5
        + (2 * n + 1) * (r9 - c3 * r8)
        + n * (n - 1) * c3
        + coeffs.c7
        + 2.0 * c3 * coeffs.c8
        - 2.0 * r8 * r9
    )
