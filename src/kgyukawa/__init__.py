"""Bound states of the D-dimensional Klein-Gordon equation with unequal
scalar/vector Yukawa couplings, solved through the parametric
Nikiforov-Uvarov reduction and cross-checked by an independent
finite-difference eigensolver."""

from .errors import (
    ComplexChannel,
    DomainError,
    KgYukawaError,
    NegativeDiscriminant,
    NoRootInBracket,
    NonFinite,
    NormalizationFailure,
)
from .limits import (
    ConvergenceReport,
    NonRelParams,
    coulomb_energy,
    effective_level,
    nonrel_energy,
    nonrel_limit_of_relativistic,
)
from .nu import (
    NuCoefficients,
    NuProblem,
    derive_coefficients,
    energy_relation_residual,
)
from .oracle import (
    OracleComparison,
    OracleResult,
    RadialGrid,
    cross_validate,
    default_oracle_grid,
    effective_ode_coefficient,
    eigenvalue_k,
    oracle_energy,
)
from .params import ParticleParams, PotentialParams, QuantumNumbers
from .potentials import PotentialProfile, approx_yukawa, centrifugal_approx, profile, yukawa
from .solver import (
    EnergySolution,
    RadialWavefunction,
    TableCell,
    channel_constant,
    count_nodes,
    default_radial_grid,
    energy_equation_residual,
    map_to_nu,
    radial_wavefunction,
    solve_energy,
    solve_table,
)
from .special import jacobi_eval

__version__ = "0.1.0"
