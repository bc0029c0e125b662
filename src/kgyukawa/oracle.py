"""Independent finite-difference eigensolver for the radial equation.

Discretizes -R'' + W(r; E_frozen) R = lambda R with Dirichlet ends on a
uniform grid (second-order central differences).  The quadratic
E-dependence of the original equation is closed self-consistently: a
bound state is a root of g(E) = lambda_k(E) - (E^2 - M^2).  Only the
sign of g is needed, and one Sturm count of the symmetric tridiagonal
matrix at x = E^2 - M^2 gives it exactly (lambda_k > x iff at most k
eigenvalues lie below x), so the closure root is a single bisection
over E.  The scan that brackets it evaluates g point by point and stops
at the first sign change.  The doubled grid's root, which the Richardson
estimate needs, is bracketed outward from the coarse one: g at the coarse
root, then on both sides at steps doubling from 1.25e-5 to 1e-4, up to
the first sign change.  :func:`eigenvalue_k` still extracts single
eigenvalues by Sturm-count bisection.

The Sturm count is the LDL^T pivot recurrence q_i = (d_i - x) - e2/q_{i-1}
(Barth, Martin & Wilkinson, Numer. Math. 9, 386 (1967)); :func:`_sturm_count`
says how it walks the rows and why it may stop before the last one.  The
E-independent part of W(r; E) is built once per grid and mode, and each
evaluation of g writes the shifted diagonal d - x into one preallocated
buffer in place.

This solver shares no algebra with the quantization-equation path and
serves as its cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise
from typing import Optional

import numpy as np

from .errors import DomainError, NoRootInBracket, _finite, _integer, _positive, _radii, _within_mass
from .params import ParticleParams, PotentialParams, QuantumNumbers
from .potentials import approx_yukawa, centrifugal_approx, yukawa
from .rootfind import bisect
from .solver import SCAN_EDGE, solve_energy

# closure-root bisection tolerance on E
_TOL = 1e-12
# steps outward from the coarse root at which the doubled grid's closure is
# evaluated, on both sides; the last is the half-width of its search
_FINE_STEPS = (1.25e-5, 2.5e-5, 5e-5, 1e-4)
# half-width of cross_validate's bracket around the solver energy
_HALF_WIDTH = 5e-3
# grid points of default_oracle_grid and cross_validate
DEFAULT_ORACLE_POINTS = 16000
# points of the scan of (-M, M) that brackets the closure root when no
# bracket is given
_SCAN_POINTS = 101


def _sturm_count(shifted, e2: float) -> int:
    """Number of negative eigenvalues of the symmetric tridiagonal matrix
    with diagonal shifted (a float64 array: the diagonal minus the shift
    x) and squared off-diagonal e2, i.e. the count of eigenvalues below x.

    The pivots run on Python floats, each made from a row of a memoryview
    of shifted as the loop reaches it; numpy scalars would make every step
    several times slower.  Every row s past the last one below 2 sqrt(e2)
    (the forbidden tail) has s >= 2 sqrt(e2), so there a pivot
    q >= sqrt(e2) keeps every later pivot >= sqrt(e2) > 0 and the walk
    stops with the exact count; it stops before the tail when the last
    allowed pivot is >= sqrt(e2) or negative.  In the tail a pivot in
    (0, sqrt(e2)) makes the next one < s - sqrt(e2) and a negative one
    makes it >= s, so only the pivot before the exit can be negative, and
    it was exactly when the exit pivot is >= s: the tail loop compares
    each pivot with sqrt(e2) only.  Both hold in floating point while
    sqrt(e2) is many ulps of every tail row: the exit bound then sags by a
    few ulps per row, relative to sqrt(e2), and stays positive for any
    feasible number of rows, and s - e2/q with q in (0, sqrt(e2)) never
    rounds up to s.  A zero pivot is replaced by 1e-300 in a
    ZeroDivisionError handler, outside the per-row expression, and the
    walk resumes on the next row.
    """
    root = math.sqrt(e2)
    allowed = (shifted < 2.0 * root).nonzero()[0]
    # first row of the forbidden tail; row 0 is never checked
    tail = int(allowed[-1]) + 1 if allowed.size else 1
    rows = memoryview(shifted)
    head, forbidden = iter(rows[:tail]), iter(rows[tail:])
    # q_{-1} = inf makes the first pivot q_0 = d_0 - x exactly
    q, count = math.inf, 0
    while True:
        try:
            for s in head:
                q = s - e2 / q
                if q < 0.0:
                    count += 1
            break
        except ZeroDivisionError:
            q = s - e2 / 1e-300
            count += q < 0.0
    if q >= root or q < 0.0:
        return count
    while True:
        try:
            for s in forbidden:
                q = s - e2 / q
                if q >= root:
                    return count + (q >= s)
            return count + (q < 0.0)
        except ZeroDivisionError:
            q = s - e2 / 1e-300


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on [r_min, r_max] with Dirichlet ends."""

    r_min: float
    r_max: float
    points: int

    def __post_init__(self):
        _radii(self.r_min, self.r_max)
        _integer(self.points, "points", 100)

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
    richardson_estimate: float


def default_oracle_grid(epsilon_estimate: float, points: int = DEFAULT_ORACLE_POINTS) -> RadialGrid:
    """Long-tailed default: r_max covers 40 decay lengths of the state."""
    _positive(epsilon_estimate, "epsilon estimate")
    return RadialGrid(r_min=1e-4, r_max=max(400.0, 40.0 / epsilon_estimate), points=points)


def _potential(r, pp, mp, qn, mode):
    """W(r; E) in -R'' + W R = (E^2 - M^2) R, as w(E, out), which writes it
    into the array out: the Yukawa couplings V = v0*u and S = s0*u at the
    frozen energy, from (E - V)^2 - (M + S)^2, plus the centrifugal term.
    Mode "exact" takes the bare u = -exp(-ar)/r and 1/r^2; mode
    "approximated" takes their exponential-rational approximants, i.e. the
    equation the quantization path solves.  The E-independent terms are
    built once, here."""
    if mode == "exact":
        u = yukawa(r, 1.0, pp.a)
        centrifugal = 1.0 / np.asarray(r, dtype=float) ** 2
    elif mode == "approximated":
        u = approx_yukawa(r, 1.0, pp.a)
        centrifugal = centrifugal_approx(r, pp.a)
    else:
        raise DomainError(f"mode must be 'exact' or 'approximated', got {mode!r}")
    # a term whose coefficient is exactly 0 adds +-0.0, which changes no
    # entry of the matrix's diagonal: the 2/h^2 added after it erases the
    # sign of a zero
    quadratic, constant = pp.s0 * pp.s0 - pp.v0 * pp.v0, qn.centrifugal_constant()
    terms = []
    if quadratic != 0.0:
        terms.append(quadratic * u * u)
    if constant != 0.0:
        terms.append(constant * centrifugal)

    def w(E, out):
        np.multiply(u, 2.0 * (E * pp.v0 + mp.mass * pp.s0), out=out)
        for term in terms:
            np.add(out, term, out=out)
        return out

    return w


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
    _within_mass(E, m, "E")
    out = E * E - m * m - _potential(r, pp, mp, qn, mode)(E, np.empty(np.shape(r)))
    return float(out) if np.ndim(out) == 0 else out


def _tridiag(pp, mp, qn, grid: RadialGrid, mode):
    """The finite-difference matrix: shifted(E, x), its diagonal at the
    frozen energy E minus x, written into one buffer that every call
    overwrites, and the square of the constant off-diagonal -1/h^2."""
    h = grid.spacing
    w = _potential(grid.nodes()[1:-1], pp, mp, qn, mode)
    out = np.empty(grid.points - 2)

    def shifted(E, x):
        np.add(w(E, out), 2.0 / h**2, out=out)
        return np.subtract(out, x, out=out)

    return shifted, 1.0 / h**4


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
    Dirichlet conditions at both grid ends, by Sturm-count bisection.
    k is a non-negative integer (numpy integers included); E_frozen is
    any finite energy, +-M included."""
    k = _integer(k, "k", 0)
    _finite(E_frozen, "E_frozen")
    shifted, e2 = _tridiag(pp, mp, qn, grid, mode)
    diag = shifted(E_frozen, 0.0)
    if k >= diag.shape[0]:
        raise DomainError(f"index {k} out of range for {diag.shape[0]} interior nodes")
    e_abs = math.sqrt(e2)
    lo = float(np.min(diag)) - 2.0 * e_abs
    hi = float(np.max(diag)) + 2.0 * e_abs
    buf = np.empty_like(diag)
    # no eigenvalue lies below the Gershgorin bound lo, so the count there is 0
    root, _ = bisect(lambda x: _sturm_count(np.subtract(diag, x, out=buf), e2) - k - 0.5,
                     lo, hi, -k - 0.5, 1e-14)
    return root


def _closure(pp, mp, qn, grid, mode, k):
    """g(E): k + 1/2 minus the count of eigenvalues below E^2 - M^2; never
    zero, with the sign of lambda_k(E) - (E^2 - M^2)."""
    shifted, e2 = _tridiag(pp, mp, qn, grid, mode)
    m = mp.mass

    def g(E: float) -> float:
        return k + 0.5 - _sturm_count(shifted(E, E * E - m * m), e2)

    return g


def _no_root(qn, k, mode, grid, lo, hi):
    return NoRootInBracket(
        f"closure g(E) has no sign change on [{lo:.6f}, {hi:.6f}] "
        f"for {qn} at eigen_index {k} ({mode} mode, {grid.points}-point grid)"
    )


def _closure_root(pp, mp, qn, grid, mode, k, bracket, scan_points):
    # clip into the open interval; states near +-M produce brackets that
    # stick out past the branch points
    edge = mp.mass * (1.0 - SCAN_EDGE)
    lo, hi = (-edge, edge) if bracket is None else (max(bracket[0], -edge), min(bracket[1], edge))
    if not (lo < hi):
        raise DomainError(f"bracket {bracket} does not intersect (-M, M)")
    g = _closure(pp, mp, qn, grid, mode, k)
    # g is never zero or non-finite, so the first bracket is the first pair
    # of neighbouring scan points where its sign flips; g is evaluated
    # lazily, up to that pair only
    Es = np.linspace(lo, hi, scan_points).tolist()
    for (E_lo, g_lo), (E_hi, g_hi) in pairwise(zip(Es, map(g, Es))):
        if (g_lo > 0.0) != (g_hi > 0.0):
            root, _ = bisect(g, E_lo, E_hi, g_lo, _TOL)
            return root
    raise _no_root(qn, k, mode, grid, lo, hi)


def _fine_root(pp, mp, qn, grid, mode, k, root):
    """Closure root on grid next to the coarse root: g at root, then at
    root - w and root + w for each w of _FINE_STEPS, clipped into (-M, M),
    up to the first sign change, which is bisected."""
    g = _closure(pp, mp, qn, grid, mode, k)
    edge = mp.mass * (1.0 - SCAN_EDGE)
    g_root = g(root)
    for w in _FINE_STEPS:
        lo, hi = max(root - w, -edge), min(root + w, edge)
        g_lo = g(lo)
        if (g_lo > 0.0) != (g_root > 0.0):
            return bisect(g, lo, root, g_lo, _TOL)[0]
        if (g(hi) > 0.0) != (g_root > 0.0):
            return bisect(g, root, hi, g_root, _TOL)[0]
    raise _no_root(qn, k, mode, grid, lo, hi)


def oracle_energy(
    pp: PotentialParams,
    mp: ParticleParams,
    qn: QuantumNumbers,
    grid: RadialGrid,
    mode: str,
    eigen_index: Optional[int] = None,
    bracket: Optional[tuple[float, float]] = None,
    scan_points: int = _SCAN_POINTS,
) -> OracleResult:
    """Self-consistent bound-state energy from the frozen-E eigenproblem.

    Bisects the sign of g(E) = lambda_k(E) - (E^2 - M^2) on the given
    bracket (or on a coarse scan of (-M, M) when none is given) and
    Richardson-extrapolates against the doubled grid, whose root is
    sought outward from the coarse one, at most 1e-4 away from it.
    eigen_index, a non-negative integer, defaults to n: on the decaying
    branch the state labelled n has n nodes.  When the pairing (or the
    bracket) is wrong, or the doubled grid has no root next to the coarse
    one, this raises :class:`NoRootInBracket` rather than silently
    reindexing or pairing different roots.
    """
    k = qn.n if eigen_index is None else _integer(eigen_index, "eigen_index", 0)
    scan_points = _integer(scan_points, "scan_points", 0)
    root = _closure_root(pp, mp, qn, grid, mode, k, bracket, scan_points)

    fine = grid.doubled()
    root_fine = _fine_root(pp, mp, qn, fine, mode, k, root)
    rho = (fine.points - 1) / (grid.points - 1)  # spacing ratio h/h_fine
    richardson = (root_fine * rho**2 - root) / (rho**2 - 1.0)
    return OracleResult(energy=root, richardson_estimate=richardson)


@dataclass(frozen=True)
class OracleComparison:
    """Outcome of cross-checking one quantization-equation energy against
    the eigensolver.

    status "validated" means a closure root exists in the +-5e-3
    bracket around the solver energy, on the grid and next to it on the
    doubled grid; "no_root_in_bracket" is the labeled discrepancy case,
    reported with the lowest closure root at the same eigen_index on the
    grid alone (``nearest_root``, the first sign change of a 101-point
    scan up from -M(1 - SCAN_EDGE), with no doubled grid or Richardson
    estimate) when one exists.
    """

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
    points: int = DEFAULT_ORACLE_POINTS,
) -> OracleComparison:
    """Compare the quantization-equation energy with the eigensolver.

    Tries the bracket [E_solver - 5e-3, E_solver + 5e-3] at eigen_index
    n, where the decaying state with the same label lies, first, with
    :func:`oracle_energy`; on failure reports the mismatch explicitly,
    with the lowest closure root at the same eigen_index on the grid
    alone: the one in the first sign change of a 101-point scan up from
    -M(1 - SCAN_EDGE), bisected to 1e-12 and not checked against the doubled
    grid.
    """
    k = qn.n
    e_solver = solve_energy(pp, mp, qn).energy
    eps_est = math.sqrt(mp.mass**2 - e_solver**2)
    grid = default_oracle_grid(eps_est, points=points)
    shared = dict(mode=mode, e_solver=e_solver, eigen_index=k)
    try:
        res = oracle_energy(
            pp, mp, qn, grid, mode, eigen_index=k,
            bracket=(e_solver - _HALF_WIDTH, e_solver + _HALF_WIDTH), scan_points=11,
        )
        return OracleComparison(
            **shared, status="validated", e_oracle=res.energy,
            richardson=res.richardson_estimate, delta=abs(res.richardson_estimate - e_solver),
        )
    except NoRootInBracket:
        pass
    lowest = {}
    try:
        root = _closure_root(pp, mp, qn, grid, mode, k, None, _SCAN_POINTS)
        lowest = dict(nearest_root=root, nearest_delta=abs(root - e_solver))
    except NoRootInBracket:
        pass
    return OracleComparison(**shared, status="no_root_in_bracket", **lowest)
