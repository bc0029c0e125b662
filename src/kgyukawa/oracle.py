"""Independent finite-difference eigensolver for the radial equation.

Discretizes -R'' + W(r; E_frozen) R = lambda R with Dirichlet ends on a
uniform grid (second-order central differences).  The quadratic
E-dependence of the original equation is closed self-consistently: a
bound state is a root of g(E) = lambda_k(E) - (E^2 - M^2).  Only the
sign of g is needed, and one Sturm count of the symmetric tridiagonal
matrix at x = E^2 - M^2 gives it exactly (lambda_k > x iff at most k
eigenvalues lie below x), so the closure root is a single bisection
over E.  :func:`eigenvalue_k` still extracts single eigenvalues by
Sturm-count bisection.

This solver shares no algebra with the quantization-equation path and
serves as its cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ComplexChannel, DomainError, NoRootInBracket
from .params import ParticleParams, PotentialParams, QuantumNumbers
from .potentials import approx_yukawa, centrifugal_approx, yukawa
from .rootfind import bisect, sign_change_brackets
from .solver import solve_energy

# closure-root bisection tolerance on E
_TOL = 1e-12
# half-width of the doubled grid's bracket around the coarse root
_FINE_HALF_WIDTH = 1e-4
# half-width of cross_validate's bracket around the solver energy
_HALF_WIDTH = 5e-3


def _sturm_count(diag, e2: float, x: float) -> int:
    """Number of eigenvalues below x of the symmetric tridiagonal matrix
    with diagonal diag and squared off-diagonal e2."""
    pivots = diag.tolist()  # Python floats: the loop runs several times faster
    q = pivots[0] - x
    count = int(q < 0.0)
    for d in pivots[1:]:
        if q == 0.0:
            q = 1e-300
        q = d - x - e2 / q
        if q < 0.0:
            count += 1
    return count


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on [r_min, r_max] with Dirichlet ends."""

    r_min: float
    r_max: float
    points: int

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise DomainError(f"need 0 < r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if self.points < 100:
            raise DomainError(f"points must be >= 100, got {self.points}")

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.points)

    def doubled(self) -> "RadialGrid":
        return RadialGrid(self.r_min, self.r_max, 2 * self.points)


@dataclass(frozen=True)
class OracleResult:
    """Eigensolver energy with a grid-refinement error estimate.

    richardson_estimate extrapolates the (points, 2*points) pair assuming
    second-order convergence; |energy - richardson_estimate| is the
    grid-convergence error of ``energy``.
    """

    energy: float
    eigen_index: int
    grid: RadialGrid
    richardson_estimate: float


def default_oracle_grid(epsilon_estimate: float, points: int = 16000) -> RadialGrid:
    """Long-tailed default: r_max covers 40 decay lengths of the state."""
    if not (epsilon_estimate > 0.0):
        raise DomainError(f"epsilon estimate must be > 0, got {epsilon_estimate}")
    return RadialGrid(r_min=1e-4, r_max=max(400.0, 40.0 / epsilon_estimate), points=points)


def _potential(r, E, pp, mp, qn, mode):
    """W(r; E) in -R'' + W R = (E^2 - M^2) R: the Yukawa couplings
    V = v0*u and S = s0*u at the frozen energy, from (E - V)^2 - (M + S)^2,
    plus the centrifugal term.  Mode "exact" takes the bare u = -exp(-ar)/r
    and 1/r^2; mode "approximated" takes their exponential-rational
    approximants, i.e. the equation the quantization path solves."""
    if mode == "exact":
        u = yukawa(r, 1.0, pp.a)
        centrifugal = 1.0 / np.asarray(r, dtype=float) ** 2
    elif mode == "approximated":
        u = approx_yukawa(r, 1.0, pp.a)
        centrifugal = centrifugal_approx(r, pp.a)
    else:
        raise DomainError(f"mode must be 'exact' or 'approximated', got {mode!r}")
    return (
        2.0 * (E * pp.v0 + mp.mass * pp.s0) * u
        + (pp.s0 * pp.s0 - pp.v0 * pp.v0) * u * u
        + qn.centrifugal_constant() * centrifugal
    )


def effective_ode_coefficient(
    r,
    E: float,
    pp: PotentialParams,
    mp: ParticleParams,
    qn: QuantumNumbers,
    mode: str,
):
    """Coefficient multiplying R in the reduced radial equation R'' + c(r)R = 0,
    c = E^2 - M^2 - W(r; E).

    mode "exact" uses the bare 1/r and 1/r^2 singular terms; mode
    "approximated" uses their exponential-rational replacements, i.e. the
    same equation the quantization path solves analytically.
    """
    m = mp.mass
    if not (-m < E < m):
        raise DomainError(f"E must lie in (-M, M), got {E}")
    out = E * E - m * m - _potential(r, E, pp, mp, qn, mode)
    return float(out) if np.ndim(out) == 0 else out


def _tridiag(E, pp, mp, qn, grid: RadialGrid, mode):
    r = grid.nodes()[1:-1]
    h = grid.spacing
    diag = 2.0 / h**2 + _potential(r, E, pp, mp, qn, mode)
    e2 = 1.0 / h**4  # square of the constant off-diagonal -1/h^2
    return diag, e2


def eigenvalue_k(
    E_frozen: float,
    pp: PotentialParams,
    mp: ParticleParams,
    qn: QuantumNumbers,
    grid: RadialGrid,
    mode: str,
    k: int,
) -> float:
    """k-th eigenvalue (k = 0 lowest) of -d^2/dr^2 + W(r; E_frozen) with
    Dirichlet conditions at both grid ends, by Sturm-count bisection."""
    if k < 0:
        raise DomainError(f"eigenvalue index must be >= 0, got {k}")
    diag, e2 = _tridiag(E_frozen, pp, mp, qn, grid, mode)
    if k >= diag.shape[0]:
        raise DomainError(f"index {k} out of range for {diag.shape[0]} interior nodes")
    e_abs = math.sqrt(e2)
    lo = float(np.min(diag)) - 2.0 * e_abs
    hi = float(np.max(diag)) + 2.0 * e_abs
    root, _ = bisect(lambda x: _sturm_count(diag, e2, x) - k - 0.5, lo, hi, 1e-14)
    return root


def _closure(E, pp, mp, qn, grid, mode, k):
    """k + 1/2 minus the count of eigenvalues below E^2 - M^2: never zero,
    with the sign of g(E) = lambda_k(E) - (E^2 - M^2)."""
    diag, e2 = _tridiag(E, pp, mp, qn, grid, mode)
    return k + 0.5 - _sturm_count(diag, e2, E * E - mp.mass * mp.mass)


def _closure_root(pp, mp, qn, grid, mode, k, bracket, scan_points):
    m = mp.mass

    def g(E: float) -> float:
        return _closure(E, pp, mp, qn, grid, mode, k)

    if bracket is None:
        lo, hi = -m * (1.0 - 1e-6), m * (1.0 - 1e-6)
    else:
        # clip into the open interval; states near +-M produce brackets
        # that stick out past the branch points
        lo = max(bracket[0], -m * (1.0 - 1e-9))
        hi = min(bracket[1], m * (1.0 - 1e-9))
        if not (lo < hi):
            raise DomainError(f"bracket {bracket} does not intersect (-M, M)")
    Es = np.linspace(lo, hi, scan_points)
    gs = np.array([g(E) for E in Es])
    brackets = sign_change_brackets(Es, gs)
    if not brackets:
        raise NoRootInBracket(
            f"closure g(E) has no sign change on [{lo:.6f}, {hi:.6f}] "
            f"for {qn} at eigen_index {k} ({mode} mode, {grid.points}-point grid)"
        )
    b_lo, b_hi = brackets[0]
    root, _ = bisect(g, b_lo, b_hi, _TOL)
    return root


def oracle_energy(
    pp: PotentialParams,
    mp: ParticleParams,
    qn: QuantumNumbers,
    grid: RadialGrid,
    mode: str,
    eigen_index: Optional[int] = None,
    bracket: Optional[tuple[float, float]] = None,
    scan_points: int = 101,
) -> OracleResult:
    """Self-consistent bound-state energy from the frozen-E eigenproblem.

    Bisects the sign of g(E) = lambda_k(E) - (E^2 - M^2) on the given
    bracket (or on a coarse scan of (-M, M) when none is given) and
    Richardson-extrapolates against the doubled grid, whose root is
    sought only in a narrow bracket (+-1e-4) around the coarse
    one.  eigen_index defaults to n - 1, pairing the node ordering with
    the radial label; when the pairing (or the bracket) is wrong, or the
    doubled grid has no root next to the coarse one, this raises
    :class:`NoRootInBracket` rather than silently reindexing or pairing
    different roots.
    """
    k = qn.n - 1 if eigen_index is None else eigen_index
    root = _closure_root(pp, mp, qn, grid, mode, k, bracket, scan_points)

    fine = grid.doubled()
    fine_bracket = (root - _FINE_HALF_WIDTH, root + _FINE_HALF_WIDTH)
    root_fine = _closure_root(pp, mp, qn, fine, mode, k, fine_bracket, 21)
    rho = (fine.points - 1) / (grid.points - 1)  # spacing ratio h/h_fine
    richardson = (root_fine * rho**2 - root) / (rho**2 - 1.0)
    return OracleResult(energy=root, eigen_index=k, grid=grid, richardson_estimate=richardson)


@dataclass(frozen=True)
class OracleComparison:
    """Outcome of cross-checking one quantization-equation energy against
    the eigensolver.

    status "validated" means a closure root exists in the +-5e-3
    bracket around the solver energy; "no_root_in_bracket" is the labeled
    discrepancy case, with the nearest full-range closure root (same
    eigen_index) reported when one exists.
    """

    qn: QuantumNumbers
    mode: str
    e_solver: float
    status: str
    eigen_index: int
    e_oracle: Optional[float] = None
    richardson: Optional[float] = None
    delta: Optional[float] = None
    nearest_root: Optional[float] = None
    nearest_delta: Optional[float] = None


def cross_validate(
    pp: PotentialParams,
    mp: ParticleParams,
    qn: QuantumNumbers,
    mode: str = "approximated",
    points: int = 16000,
    eigen_index: Optional[int] = None,
) -> OracleComparison:
    """Compare the quantization-equation energy with the eigensolver.

    Tries the bracket [E_solver - 5e-3, E_solver + 5e-3]
    first; on failure scans the whole of (-M, M) for the nearest closure
    root at the same eigen_index and reports the mismatch explicitly.
    """
    k = qn.n - 1 if eigen_index is None else eigen_index
    e_solver = solve_energy(pp, mp, qn).energy
    eps_est = math.sqrt(mp.mass**2 - e_solver**2)
    grid = default_oracle_grid(eps_est, points=points)
    try:
        res = oracle_energy(
            pp, mp, qn, grid, mode, eigen_index=k,
            bracket=(e_solver - _HALF_WIDTH, e_solver + _HALF_WIDTH), scan_points=11,
        )
        return OracleComparison(
            qn=qn, mode=mode, e_solver=e_solver, status="validated", eigen_index=k,
            e_oracle=res.energy, richardson=res.richardson_estimate,
            delta=abs(res.richardson_estimate - e_solver),
        )
    except (NoRootInBracket, ComplexChannel):
        pass
    try:
        res = oracle_energy(pp, mp, qn, grid, mode, eigen_index=k, bracket=None)
        return OracleComparison(
            qn=qn, mode=mode, e_solver=e_solver, status="no_root_in_bracket",
            eigen_index=k, nearest_root=res.energy,
            nearest_delta=abs(res.energy - e_solver),
        )
    except NoRootInBracket:
        return OracleComparison(
            qn=qn, mode=mode, e_solver=e_solver, status="no_root_in_bracket",
            eigen_index=k,
        )
