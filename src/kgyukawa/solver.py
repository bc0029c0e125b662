"""Bound-state energies and radial wavefunctions for the D-dimensional
Klein-Gordon equation with unequal scalar/vector Yukawa couplings.

The radial equation, with 1/r and 1/r^2 replaced by their exponential
approximants (valid for a*r << 1), maps under s = exp(-2ar) onto the
canonical hypergeometric-type form of :mod:`kgyukawa.nu`
(:func:`map_to_nu`).  The shortcut's results are used here in closed
form: the quantization condition in K = 2n+1+Lambda and eps, with two
branches (see :func:`energy_equation_residual`), is solved by dense
scanning plus bisection, and the wavefunction exponents and Jacobi
parameters are written down directly (see :func:`radial_wavefunction`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ComplexChannel,
    DomainError,
    KgYukawaError,
    NoRootInBracket,
    NormalizationFailure,
    _integer,
    _positive,
)
from .nu import NuProblem
from .params import ParticleParams, PotentialParams, QuantumNumbers
from .rootfind import bisect, sign_change_brackets
from .special import jacobi_eval

# Uniform scan of (-M, M) for sign changes, and the bisection width.
SCAN_POINTS = 20000
TOLERANCE = 5e-14
# Margin keeping the scan strictly inside (-M, M).
SCAN_EDGE = 1e-9
# Sign of the eps/a term in the quantization condition, per branch.
_EPS_SIGN = {"published": -1.0, "decaying": 1.0}


def _eps_sign(branch: str) -> float:
    if branch not in _EPS_SIGN:
        raise DomainError(f"branch must be 'published' or 'decaying', got {branch!r}")
    return _EPS_SIGN[branch]


@dataclass(frozen=True)
class EnergySolution:
    """A converged eigenvalue with diagnostics.

    energy and epsilon in fm^-1 with epsilon = sqrt(M^2 - E^2); residual
    is :func:`energy_equation_residual` at the energy; bracket is the
    scan interval the root was refined in.
    """

    energy: float
    epsilon: float
    residual: float
    bracket: tuple[float, float]
    iterations: int


def channel_constant(pp: PotentialParams, qn: QuantumNumbers) -> float:
    """(d+2l-2)^2 + 4*(s0^2 - v0^2); negative means the vector coupling is
    too strong for a real solution (raises :class:`ComplexChannel`).
    Raises :class:`DomainError` when the couplings are so large that the
    value is not finite."""
    k = qn.kappa()
    value = k * k + 4.0 * (pp.s0 * pp.s0 - pp.v0 * pp.v0)
    if not math.isfinite(value):
        raise DomainError(
            f"couplings v0 = {pp.v0}, s0 = {pp.s0} are too large: "
            f"(d+2l-2)^2 + 4(s0^2 - v0^2) = {value} is not finite"
        )
    if value < 0.0:
        raise ComplexChannel(
            f"(d+2l-2)^2 + 4(s0^2 - v0^2) = {value} < 0 for {qn}"
        )
    return value


def _k(pp: PotentialParams, qn: QuantumNumbers) -> float:
    """K = 2n+1+Lambda; the quantization residual reads (n, l, d) only through it."""
    return 2 * qn.n + 1 + math.sqrt(channel_constant(pp, qn))


def map_to_nu(
    pp: PotentialParams,
    mp: ParticleParams,
    qn: QuantumNumbers,
    energy_trial: float,
) -> NuProblem:
    """Canonical-form constants of the approximated radial equation at a
    trial energy.

    With eps^2 = M^2 - E^2 and the substitution s = exp(-2ar):
        c1 = c2 = c3 = 1,
        p0 = eps^2/(4a^2),
        p1 = 2*eps^2/(4a^2) + (M*s0 + E*v0)/a - ((d+2l-2)^2 - 1)/4,
        p2 = eps^2/(4a^2) - (v0^2 - s0^2) + (M*s0 + E*v0)/a.
    """
    m = mp.mass
    if not (-m < energy_trial < m):
        raise DomainError(f"trial energy must lie in (-M, M), got {energy_trial}")
    channel_constant(pp, qn)
    eps2 = m * m - energy_trial * energy_trial
    q = (m * pp.s0 + energy_trial * pp.v0) / pp.a
    p0 = eps2 / (4.0 * pp.a * pp.a)
    p1 = 2.0 * p0 + q - qn.centrifugal_constant()
    p2 = p0 - (pp.v0 * pp.v0 - pp.s0 * pp.s0) + q
    return NuProblem(c1=1.0, c2=1.0, c3=1.0, p0=p0, p1=p1, p2=p2)


def energy_equation_residual(
    E, pp: PotentialParams, mp: ParticleParams, qn: QuantumNumbers, branch: str = "published"
):
    """Quantization residual in closed form,

        a (K^2 + 4(v0^2 - s0^2)) - 4 s0 M - 4 v0 E -+ 2 K eps,

    with K = 2n+1 + sqrt((d+2l-2)^2 + 4(s0^2-v0^2)), -2K eps on the
    "published" branch (the paper's tables; its solutions grow like
    exp(+eps*r) at infinity) and +2K eps on the "decaying" one.  It is
    the condition (K -+ eps/a)^2 = -(E/a - 2 v0)^2 + (M/a + 2 s0)^2
    with eps^2 + E^2 = M^2 cancelled exactly, times a, so it has the
    same sign and roots but no terms of order (M/a)^2.  Continuous in E
    on (-M, M); a bound state of the branch makes it zero.  Accepts a
    scalar or ndarray E.
    """
    sign = _eps_sign(branch)
    k = _k(pp, qn)
    m, a, v0, s0 = mp.mass, pp.a, pp.v0, pp.s0
    E = np.asarray(E, dtype=float)
    if not np.all(np.abs(E) < m):
        raise DomainError("E must lie strictly inside (-M, M)")
    eps = np.sqrt(m * m - E * E)
    c = a * (k * k + 4.0 * (v0 * v0 - s0 * s0)) - 4.0 * s0 * m
    out = c - 4.0 * v0 * E + 2.0 * sign * k * eps
    return float(out) if out.ndim == 0 else out


def _no_bound_state(branch: str, qn: QuantumNumbers) -> NoRootInBracket:
    """What solve_energy raises, and solve_table records, when qn has no
    root on branch."""
    return NoRootInBracket(f"no sign change on the {branch} branch for {qn}: no bound state")


def solve_energy(
    pp: PotentialParams,
    mp: ParticleParams,
    qn: QuantumNumbers,
    branch: str = "published",
) -> EnergySolution:
    """Bound-state energy of one quantization branch for the given
    couplings and (n, l, d).

    Scans the branch's residual on SCAN_POINTS uniform points over
    (-M, M) for sign changes and refines by bisection, to
    |dE| < TOLERANCE, the lowest root on the "published" branch or the
    highest on the "decaying" branch (the state with a nonrelativistic
    counterpart near E = +M).

    Raises :class:`NoRootInBracket` when no root is found: no bound
    state for these quantum numbers at these couplings.
    """
    m = mp.mass
    grid = np.linspace(-m * (1.0 - SCAN_EDGE), m * (1.0 - SCAN_EDGE), SCAN_POINTS)
    values = energy_equation_residual(grid, pp, mp, qn, branch)
    brackets = sign_change_brackets(grid, values)
    if not brackets:
        raise _no_bound_state(branch, qn)

    def f(E: float) -> float:
        return energy_equation_residual(E, pp, mp, qn, branch)

    # brackets are disjoint and ascending, so their roots are too
    lo, hi, f_lo = brackets[0] if branch == "published" else brackets[-1]
    root, iters = bisect(f, lo, hi, f_lo, TOLERANCE)
    return EnergySolution(
        energy=float(root),
        epsilon=math.sqrt(m * m - root * root),
        residual=f(root),
        bracket=(float(lo), float(hi)),
        iterations=iters,
    )


@dataclass(frozen=True)
class TableCell:
    """One (d, n, l) entry of an energy table."""

    dim: int
    n: int
    l: int
    status: str  # "ok" | "no_bound_state" | "complex_channel" | "error"
    energy: Optional[float] = None
    residual: Optional[float] = None
    message: str = ""


@dataclass(frozen=True)
class EnergyTable:
    """Grid of energy solutions over d x n x l; cells with equal K share one solve."""

    pp: PotentialParams
    mp: ParticleParams
    cells: tuple[TableCell, ...] = field(default_factory=tuple)


def _solve_cell(pp, mp, d, n, l, solved) -> TableCell:
    try:
        qn = QuantumNumbers(n=n, l=l, d=d)
        k = _k(pp, qn)
        if k not in solved:
            try:
                solved[k] = solve_energy(pp, mp, qn)
            except NoRootInBracket:
                solved[k] = None
        sol = solved[k]
        if sol is None:
            raise _no_bound_state("published", qn)
        return TableCell(dim=d, n=n, l=l, status="ok", energy=sol.energy, residual=sol.residual)
    except NoRootInBracket as exc:
        return TableCell(dim=d, n=n, l=l, status="no_bound_state", message=str(exc))
    except ComplexChannel as exc:
        return TableCell(dim=d, n=n, l=l, status="complex_channel", message=str(exc))
    except KgYukawaError as exc:
        return TableCell(dim=d, n=n, l=l, status="error", message=str(exc))


def solve_table(
    pp: PotentialParams,
    mp: ParticleParams,
    n_range: Sequence[int],
    l_range: Sequence[int],
    d_range: Sequence[int],
) -> EnergyTable:
    """Solve every published-branch cell of the Cartesian product
    d_range x n_range x l_range, in that order.

    The residual depends on (n, l, d) only through K = 2n+1+Lambda, so
    cells with the same float K share one solve_energy call and get the
    same energy and residual, bit for bit.  Per-cell failures are recorded
    in the cell status and message and never abort the grid.
    """
    solved: dict[float, Optional[EnergySolution]] = {}  # K -> solution, None if none
    cells = tuple(
        _solve_cell(pp, mp, d, n, l, solved) for d in d_range for n in n_range for l in l_range
    )
    return EnergyTable(pp=pp, mp=mp, cells=cells)


# --------------------------------------------------------------------------
# Radial wavefunctions
# --------------------------------------------------------------------------

DEFAULT_WF_POINTS = 4096
# Geometric grid reaching this many decay lengths into the tail; the
# origin end is small enough that R(r_min)/max(R) < 1e-8 for all
# admissible channels (the origin exponent is >= (1 + kappa)/2 >= 1/2).
DEFAULT_WF_RMIN = 1e-9
DEFAULT_WF_TAIL = 30.0
# Tail samples with R^2 below this fraction of the peak are excluded
# from the normalization quadrature.
_NORM_CUTOFF = 1e-16
# count_nodes ignores samples below this fraction of max|R|.
_NODE_THRESHOLD = 1e-9


@dataclass(frozen=True)
class RadialWavefunction:
    """Sampled, numerically normalized radial wavefunction.

    samples has shape (points, 2) with columns (r, R(r)); norm is the
    achieved value of the quadrature of R^2 (1 after normalization).
    """

    qn: QuantumNumbers
    jacobi_alpha: float
    jacobi_beta: float
    samples: np.ndarray
    norm: float

    @property
    def r(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def values(self) -> np.ndarray:
        return self.samples[:, 1]


def default_radial_grid(epsilon: float, points: int = DEFAULT_WF_POINTS) -> np.ndarray:
    """Geometric grid on [r_min, 30/epsilon] resolving both the power-law
    origin behavior and the exponential tail."""
    _positive(epsilon, "epsilon")
    points = _integer(points, "points", 2)
    return np.geomspace(DEFAULT_WF_RMIN, DEFAULT_WF_TAIL / epsilon, points)


def radial_wavefunction(
    sol: EnergySolution,
    pp: PotentialParams,
    mp: ParticleParams,
    qn: QuantumNumbers,
    grid: Optional[np.ndarray] = None,
) -> RadialWavefunction:
    """Sample R(r) = N * exp(-eps*r) * (1-exp(-2ar))^((1+Lambda)/2)
    * P_n^(eps/a, Lambda)(1 - 2 exp(-2ar)) with N fixed by the trapezoid
    quadrature of R^2 on the grid (far tail truncated).

    Lambda = sqrt((d+2l-2)^2 + 4(s0^2 - v0^2)) and eps = sqrt(M^2 - E^2)
    at E = sol.energy, which must lie in (-M, M).  These are the closed
    forms of the Nikiforov-Uvarov shortcut for this potential: Jacobi
    parameters (c10, c11) = (eps/a, Lambda) and exponents
    (2c4 - c12, c13) = (eps/(2a), (1+Lambda)/2), the decaying partner of
    c12 = -eps/(2a).
    """
    m, E = mp.mass, sol.energy
    if not (-m < E < m):
        raise DomainError(f"energy must lie in (-M, M), got {E}")
    alpha = math.sqrt(m * m - E * E) / pp.a
    beta = math.sqrt(channel_constant(pp, qn))
    if grid is None:
        grid = default_radial_grid(sol.epsilon)
    r = np.asarray(grid, dtype=float)
    if not (np.all(r > 0.0) and np.all(np.diff(r) > 0.0)):
        raise DomainError("grid must be strictly positive and increasing")

    s = np.exp(-2.0 * pp.a * r)
    raw = (s ** (alpha / 2.0) * (1.0 - s) ** ((1.0 + beta) / 2.0)
           * jacobi_eval(qn.n, alpha, beta, 1.0 - 2.0 * s))

    density = raw * raw
    peak = density.max()
    if not (np.isfinite(peak) and peak > 0.0):
        raise NormalizationFailure("wavefunction vanished or overflowed on the grid")
    keep = np.nonzero(density >= _NORM_CUTOFF * peak)[0][-1] + 1
    integral = np.trapezoid(density[:keep], r[:keep])
    if not (np.isfinite(integral) and integral > 0.0):
        raise NormalizationFailure(f"normalization integral is {integral}")
    values = raw / math.sqrt(integral)

    samples = np.column_stack([r, values])
    norm = float(np.trapezoid(values[:keep] ** 2, r[:keep]))
    return RadialWavefunction(
        qn=qn, jacobi_alpha=alpha, jacobi_beta=beta, samples=samples, norm=norm
    )


def count_nodes(wf: RadialWavefunction) -> int:
    """Interior sign changes of R, ignoring samples below 1e-9 * max|R|."""
    v = wf.values
    significant = v[np.abs(v) > _NODE_THRESHOLD * np.max(np.abs(v))]
    signs = np.sign(significant)
    return int(np.sum(signs[:-1] != signs[1:]))
