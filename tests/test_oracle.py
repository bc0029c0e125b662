"""Finite-difference eigensolver: discretization quality and the
cross-check of the quantization-equation energies."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgyukawa import (
    DomainError,
    NoRootInBracket,
    ParticleParams,
    PotentialParams,
    QuantumNumbers,
    RadialGrid,
    cross_validate,
    default_oracle_grid,
    effective_ode_coefficient,
    eigenvalue_k,
    oracle_energy,
    solve_energy,
)
from kgyukawa.oracle import (
    _FINE_STEPS,
    _closure,
    _closure_root,
    _fine_root,
    _sturm_count,
    _tridiag,
)
from kgyukawa.potentials import approx_yukawa, centrifugal_approx, yukawa
from kgyukawa.rootfind import bisect
from kgyukawa.solver import SCAN_EDGE
from closed_form import closed_form_energy
from reference_scan import reference_brackets

MP = ParticleParams(mass=1.0)
# zero-coupling parameters make the s-wave d=3 problem a particle in a box
FREE = PotentialParams(v0=0.0, s0=0.0, a=0.05)
BOX_QN = QuantumNumbers(n=1, l=0, d=3)


def box_grid(points=800, length=1.0):
    return RadialGrid(r_min=1e-9, r_max=length, points=points)


def test_grid_validation():
    with pytest.raises(DomainError):
        RadialGrid(r_min=0.0, r_max=1.0, points=200)
    with pytest.raises(DomainError):
        RadialGrid(r_min=1.0, r_max=0.5, points=200)
    with pytest.raises(DomainError):
        RadialGrid(r_min=0.1, r_max=1.0, points=50)
    # an infinite r_max made nodes() return [nan, inf, ...]
    for r_max in (math.inf, math.nan):
        with pytest.raises(DomainError, match="need 0 < r_min < r_max < inf"):
            RadialGrid(r_min=1e-4, r_max=r_max, points=200)
    for points in (150.5, 200.0):
        with pytest.raises(DomainError, match="points must be an integer"):
            RadialGrid(r_min=1e-4, r_max=400.0, points=points)
    assert RadialGrid(r_min=1e-4, r_max=400.0, points=np.int64(200)).nodes().shape == (200,)
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="epsilon estimate must be > 0"):
            default_oracle_grid(eps)
    grid = RadialGrid(r_min=0.0001, r_max=400.0, points=16000)
    assert grid.spacing == pytest.approx((400.0 - 0.0001) / 15999)
    assert grid.doubled().points == 32000


def test_coefficient_equal_mixture_has_no_quadratic_channel():
    pp = PotentialParams(v0=0.2, s0=0.2, a=0.05)
    qn = QuantumNumbers(n=1, l=1, d=3)
    r = np.linspace(0.01, 5.0, 50)
    got = effective_ode_coefficient(r, -0.9, pp, MP, qn, "exact")
    eps2 = 1 - 0.81
    coul = 2 * (0.2 + (-0.9) * 0.2) * np.exp(-0.05 * r) / r
    cf = qn.centrifugal_constant() / r**2
    assert np.allclose(got, -eps2 + coul - cf, rtol=1e-13)


def test_coefficient_s_wave_has_no_centrifugal_term():
    pp = PotentialParams(v0=0.2, s0=0.1, a=0.05)
    qn = QuantumNumbers(n=1, l=0, d=3)
    assert qn.centrifugal_constant() == 0.0
    r = 2.0
    for mode in ("exact", "approximated"):
        with_cf = effective_ode_coefficient(r, -0.9, pp, MP, qn, mode)
        qn5 = QuantumNumbers(n=1, l=0, d=5)  # nonzero centrifugal for contrast
        without = effective_ode_coefficient(r, -0.9, pp, MP, qn5, mode)
        assert with_cf != without


def test_coefficient_modes_agree_at_small_ar(pp_half):
    qn = QuantumNumbers(n=1, l=1, d=4)
    E = -0.98885705
    r = np.linspace(1e-3, 0.05 / pp_half.a, 400)
    exact = effective_ode_coefficient(r, E, pp_half, MP, qn, "exact")
    approx = effective_ode_coefficient(r, E, pp_half, MP, qn, "approximated")
    assert np.max(np.abs(approx / exact - 1.0)) < 0.01


def test_coefficient_guards(pp_half):
    qn = QuantumNumbers(n=1, l=0, d=3)
    with pytest.raises(DomainError):
        effective_ode_coefficient(-1.0, -0.9, pp_half, MP, qn, "exact")
    with pytest.raises(DomainError):
        effective_ode_coefficient(1.0, 1.5, pp_half, MP, qn, "exact")
    with pytest.raises(DomainError):
        effective_ode_coefficient(1.0, -0.9, pp_half, MP, qn, "numerological")


def test_box_eigenvalues():
    grid = box_grid()
    h = grid.spacing
    for k in range(3):
        got = eigenvalue_k(0.0, FREE, MP, BOX_QN, grid, "exact", k)
        exact = ((k + 1) * math.pi / 1.0) ** 2
        # leading discretization error is lambda^2 h^2 / 12
        assert abs(got - exact) < exact * exact * h * h / 6.0
    e0 = eigenvalue_k(0.0, FREE, MP, BOX_QN, grid, "exact", 0)
    e1 = eigenvalue_k(0.0, FREE, MP, BOX_QN, grid, "exact", 1)
    e2 = eigenvalue_k(0.0, FREE, MP, BOX_QN, grid, "exact", 2)
    assert e0 < e1 < e2


def test_box_convergence_is_second_order():
    exact = math.pi**2
    errors = []
    for points in (400, 800, 1600):
        got = eigenvalue_k(0.0, FREE, MP, BOX_QN, box_grid(points), "exact", 0)
        errors.append(abs(got - exact))
    order01 = math.log2(errors[0] / errors[1])
    order12 = math.log2(errors[1] / errors[2])
    assert order01 == pytest.approx(2.0, abs=0.2)
    assert order12 == pytest.approx(2.0, abs=0.2)
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5


def test_eigenvalue_index_guards():
    grid = box_grid(points=100)
    with pytest.raises(DomainError):
        eigenvalue_k(0.0, FREE, MP, BOX_QN, grid, "exact", -1)
    with pytest.raises(DomainError):
        eigenvalue_k(0.0, FREE, MP, BOX_QN, grid, "exact", 200)
    # a fractional index returned a number between two eigenvalues
    for k in (1.5, 1.0, "1", None):
        with pytest.raises(DomainError, match="k must be an integer"):
            eigenvalue_k(0.0, FREE, MP, BOX_QN, grid, "exact", k)
    assert (eigenvalue_k(0.0, FREE, MP, BOX_QN, grid, "exact", np.int64(1))
            == eigenvalue_k(0.0, FREE, MP, BOX_QN, grid, "exact", 1))
    # a NaN frozen energy returned nan, and E_frozen = inf returned -inf
    for E in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=f"E_frozen must be finite, got {E}"):
            eigenvalue_k(E, FREE, MP, BOX_QN, grid, "exact", 0)
    # the branch points E = +-M are frozen energies like any other
    at_mass = eigenvalue_k(1.0, FREE, MP, BOX_QN, grid, "exact", 0)
    assert at_mass == pytest.approx(math.pi**2, rel=1e-3)


def test_oracle_eigen_index_guards(pp_plus):
    # a fractional index bisected onto an exact zero of g and blamed the
    # doubled grid; a negative one found no root
    qn = QuantumNumbers(n=1, l=0, d=3)
    grid = oracle_grid(2000)
    with pytest.raises(DomainError, match="eigen_index must be an integer, got 1.5"):
        oracle_energy(pp_plus, MP, qn, grid, "approximated", eigen_index=1.5)
    with pytest.raises(DomainError, match="eigen_index must be >= 0, got -1"):
        oracle_energy(pp_plus, MP, qn, grid, "approximated", eigen_index=-1)
    with pytest.raises(DomainError, match=rf"eigen_index must be <= 2\*\*53, got {2**53 + 1}"):
        oracle_energy(pp_plus, MP, qn, grid, "approximated", eigen_index=2**53 + 1)
    ref = solve_energy(pp_plus, MP, qn, branch="decaying").energy
    runs = [oracle_energy(pp_plus, MP, qn, grid, "approximated", eigen_index=k,
                          bracket=(ref - 5e-3, ref + 5e-3), scan_points=11)
            for k in (1, np.int64(1))]
    assert runs[0] == runs[1]


def test_oracle_scan_points_guards(pp_plus):
    # 2.5 raised a bare TypeError from np.linspace, -1 numpy's ValueError
    qn = QuantumNumbers(n=1, l=0, d=3)
    grid = oracle_grid(2000)
    with pytest.raises(DomainError, match="scan_points must be an integer, got 2.5"):
        oracle_energy(pp_plus, MP, qn, grid, "approximated", eigen_index=0, scan_points=2.5)
    with pytest.raises(DomainError, match="scan_points must be >= 0, got -1"):
        oracle_energy(pp_plus, MP, qn, grid, "approximated", eigen_index=0, scan_points=-1)
    # 10**20 raised numpy's ValueError: Maximum allowed size exceeded
    with pytest.raises(DomainError, match=rf"scan_points must be <= 2\*\*53, got {10**20}"):
        oracle_energy(pp_plus, MP, qn, grid, "approximated", eigen_index=0, scan_points=10**20)


def test_oracle_rejects_bracket_outside_the_mass_gap(pp_plus):
    qn = QuantumNumbers(n=1, l=0, d=3)
    for bracket in ((1.0, 1.5), (-2.0, -1.0), (0.5, 0.5)):
        with pytest.raises(DomainError, match=r"does not intersect \(-M, M\)"):
            oracle_energy(pp_plus, MP, qn, oracle_grid(2000), "approximated",
                          eigen_index=0, bracket=bracket)


# --------------------------------------------------------------------------
# Sturm count: the early exit in the forbidden tail changes no count
# --------------------------------------------------------------------------


def reference_sturm_count(diag, e2, x):
    """The full-length pivot loop on Python floats, with no early exit."""
    x = float(x)
    pivots = diag.tolist()
    q = pivots[0] - x
    count = int(q < 0.0)
    for d in pivots[1:]:
        if q == 0.0:
            q = 1e-300
        q = d - x - e2 / q
        if q < 0.0:
            count += 1
    return count


def dense_eigenvalues(diag, e2):
    off = np.full(len(diag) - 1, -math.sqrt(e2))
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


@st.composite
def allowed_then_forbidden(draw):
    """(diag, e2, x): rows with d_i < 2 sqrt(e2) followed by a tail with
    d_i >= 2 sqrt(e2), the shape of the oracle's matrices near x = 0, and a
    shift either anywhere on the spectrum or within a few ulps of an
    eigenvalue."""
    e2 = draw(st.floats(1e-2, 1e4))
    root = math.sqrt(e2)
    allowed = draw(st.lists(st.floats(-3.0, 2.0, exclude_max=True), max_size=30))
    tail = draw(st.lists(st.floats(2.0, 4.0), min_size=0 if allowed else 1, max_size=30))
    diag = root * np.array(allowed + tail)
    if draw(st.booleans()):
        x = root * draw(st.floats(-4.0, 6.0))
    else:
        eigs = dense_eigenvalues(diag, e2)
        lam = eigs[draw(st.integers(0, len(eigs) - 1))]
        x = lam + draw(st.integers(-4, 4)) * np.spacing(lam)
    return diag, e2, x


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=allowed_then_forbidden())
def test_sturm_count_early_exit_matches_full_loop(case):
    diag, e2, x = case
    assert _sturm_count(diag - x, e2) == reference_sturm_count(diag, e2, x)


@st.composite
def long_forbidden_tail(draw):
    """(diag, e2, x): one allowed row, then up to 640 forbidden rows with
    d_i barely above 2 sqrt(e2).  The first pivot sits near the
    lower fixed point of q -> d - e2/q, so the pivot creeps up to sqrt(e2),
    or down through zero, only after hundreds of rows, and often not before
    the last row.  A small shift moves the tail's start into those rows."""
    e2 = draw(st.floats(1e-2, 1e4))
    root = math.sqrt(e2)
    excess = 10.0 ** draw(st.floats(-7.0, -3.0))
    first = 1.0 - draw(st.floats(0.5, 1.5)) * math.sqrt(2.0 * excess)
    rows = draw(st.integers(1, 640))
    jitter = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(rows)
    diag = root * np.concatenate([[first], 2.0 + excess * (0.5 + jitter)])
    x = root * draw(st.sampled_from([0.0, 1e-4, -1e-4])) * draw(st.floats(0.0, 1.0))
    return diag, e2, x


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=long_forbidden_tail())
def test_sturm_count_matches_full_loop_across_chunks(case):
    diag, e2, x = case
    assert _sturm_count(diag - x, e2) == reference_sturm_count(diag, e2, x)


def tail_walk(rows, lift=None, dip=None):
    """e2 = 1: rows 0 and 1 are allowed and leave the pivot at exactly 0.5
    (one negative pivot); every later row is forbidden, and d = 2.5 keeps
    the pivot at exactly 0.5.  d = 3.5 at row lift raises it to at least
    1.5 >= sqrt(e2), so the walk ends on that row; d = 2 at row dip makes
    it exactly 0, so the next row's pivot is negative (one more count),
    the one after is back at 2.5 and the walk ends there.  Row 2 starts
    the forbidden tail, or row 1 when lift or dip puts a forbidden value
    there."""
    diag = np.full(rows, 2.5)
    diag[:2] = -1.0, -0.5
    for row, value in ((lift, 3.5), (dip, 2.0)):
        if row is not None:
            diag[row] = value
    return diag


TAIL = 2  # first row of the forbidden tail
DEEP = 130  # a row deep in the tail
END = 258


@pytest.mark.parametrize("rows, lift, dip, want", [
    # the walk ends on the first tail row, on the row after, or on the row
    # that made the last allowed row forbidden and so starts the tail
    (END, TAIL, None, 1),
    (END, TAIL + 1, None, 1),
    (END, TAIL - 1, None, 1),
    # the zero pivot falls on the first tail row, or the one after, and
    # the negative pivot on the next
    (END, None, TAIL, 2),
    (END, None, TAIL + 1, 2),
    # the walk ends, or the zero pivot falls, deep in the tail
    (END, DEEP - 2, None, 1),
    (END, DEEP - 1, None, 1),
    (END, DEEP, None, 1),
    (END, None, DEEP - 2, 2),
    (END, None, DEEP - 1, 2),
    (END, None, DEEP, 2),
    # the walk reaches the last row
    (END, None, None, 1),
    (END + 1, None, None, 1),
    (END, None, END - 2, 2),
    (END + 1, None, END - 1, 2),
    # a zero pivot on the last row
    (END, None, END - 1, 1),
])
def test_sturm_count_chunk_boundaries(rows, lift, dip, want):
    diag = tail_walk(rows, lift, dip)
    assert reference_sturm_count(diag, 1.0, 0.0) == want
    assert _sturm_count(diag, 1.0) == want
    # the eigenvalue next to 0 shrinks about fourfold per row the zero pivot
    # lies past the tail's start: 0.018 one row past, 3e-17 deep in the
    # tail, inside eigvalsh's rounding, where the 1e-300 guard decides its
    # sign in both loops
    if dip is None or dip <= TAIL + 1:
        assert want == int(np.sum(dense_eigenvalues(diag, 1.0) < 0.0))


@pytest.mark.parametrize("diag, x, want", [
    # q_1 = 1 - 1/1 is exactly 0.0 on the last allowed row
    ([1.0, 1.0, 3.0, 3.0, 3.0], 0.0, 1),
    # no forbidden row
    ([0.5, -1.0, 1.5, 0.0, 1.9, -0.3], 0.0, 3),
    # every row forbidden
    ([2.0, 3.0, 2.5, 4.0, 2.0], 0.0, 0),
    # q_1 = 1 - 1/0.5 = -1 on the last allowed row: the walk ends before
    # the tail, whose first pivot would be 4
    ([0.5, 1.0, 3.0, 3.0, 3.0], 0.0, 1),
    # tail pivots 0.5, 0.25 and -1.5 on the last row, where the walk ends
    # with no exit
    ([0.5, 2.5, 2.25, 2.5], 0.0, 1),
    # tail pivots 0.5 and an exact 0 (guarded to 1e-300), then -1e300 and
    # 2.5 + 1e-300, which equals s = 2.5 exactly and ends the walk
    ([0.5, 2.5, 2.0, 2.5, 2.5], 0.0, 1),
])
def test_sturm_count_edge_cases(diag, x, want):
    diag = np.array(diag)
    assert reference_sturm_count(diag, 1.0, x) == want
    assert _sturm_count(diag - x, 1.0) == want
    assert want == int(np.sum(dense_eigenvalues(diag, 1.0) < x))


@pytest.mark.parametrize("beta", [0.5, 1.0])
@pytest.mark.parametrize("mode", ["approximated", "exact"])
def test_sturm_count_on_the_perfbench_matrices(monkeypatch, beta, mode):
    # every shifted diagonal that a perfbench oracle operation counts, on
    # both grids: the long near-eigenvalue tails that the strategies above
    # only imitate
    recorded = []

    def recording(*args):
        shifted, e2 = _tridiag(*args)

        def shifted_recorded(E, x):
            diag = shifted(E, x)
            recorded.append((diag.copy(), e2))
            return diag

        return shifted_recorded, e2

    monkeypatch.setattr("kgyukawa.oracle._tridiag", recording)
    perfbench_oracle_operation(beta, mode)
    assert {diag.size for diag, _ in recorded} == {1998, 3998}
    for diag, e2 in recorded:
        assert _sturm_count(diag, e2) == reference_sturm_count(diag, e2, 0.0)
        # the exit arguments need sqrt(e2) to be many ulps of every row
        assert np.spacing(diag.max()) < 1e-9 * math.sqrt(e2)


@pytest.mark.parametrize("mode", ["approximated", "exact"])
@pytest.mark.parametrize("s0, l", [
    # s0^2 = v0^2 and a zero centrifugal constant: the diagonal skips two
    # terms of +0.0
    (0.2, 0),
    # both terms present, each added in the full sum's order
    (0.1, 1),
])
def test_diagonal_is_the_full_five_term_sum(mode, s0, l):
    pp = PotentialParams(v0=0.2, s0=s0, a=0.05)
    qn = QuantumNumbers(n=1, l=l, d=3)
    grid = oracle_grid(2000)
    r = grid.nodes()[1:-1]
    if mode == "exact":
        u, centrifugal = yukawa(r, 1.0, pp.a), 1.0 / r**2
    else:
        u, centrifugal = approx_yukawa(r, 1.0, pp.a), centrifugal_approx(r, pp.a)
    quadratic = (pp.s0 * pp.s0 - pp.v0 * pp.v0) * u * u
    centrifugal = qn.centrifugal_constant() * centrifugal
    shifted, _ = _tridiag(pp, MP, qn, grid, mode)
    for E in (-0.9, 0.0, 0.995):
        x = E * E - MP.mass**2
        full = (((2.0 * (E * pp.v0 + MP.mass * pp.s0) * u + quadratic) + centrifugal)
                + 2.0 / grid.spacing**2) - x
        assert shifted(E, x).tobytes() == full.tobytes()


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_oracle_energy_unchanged_by_the_early_exit(monkeypatch, beta):
    # the perfbench oracle states: repr-identical energies with the
    # full-length reference loop patched in
    pp = PotentialParams.from_beta(v0=0.2, beta=beta, a=0.05)
    qn = QuantumNumbers(n=1, l=0, d=3)
    ref = solve_energy(pp, MP, qn, branch="decaying").energy

    def run(mode):
        res = oracle_energy(pp, MP, qn, oracle_grid(2000), mode, eigen_index=1,
                            bracket=(ref - 5e-3, ref + 5e-3), scan_points=11)
        return res.energy, res.richardson_estimate

    modes = ("approximated", "exact")
    fast = [run(mode) for mode in modes]
    monkeypatch.setattr("kgyukawa.oracle._sturm_count",
                        lambda shifted, e2: reference_sturm_count(shifted, e2, 0.0))
    assert [run(mode) for mode in modes] == fast


def perfbench_oracle_operation(beta, mode):
    """oracle_energy as the perfbench oracle workload calls it: the
    closed-form decaying-branch energy +-5e-3, an 11-point scan."""
    pp = PotentialParams.from_beta(v0=0.2, beta=beta, a=0.05)
    center = closed_form_energy(0.2, beta * 0.2, 0.05, MP.mass, 1, 0, 3, "decaying")
    return oracle_energy(pp, MP, QuantumNumbers(n=1, l=0, d=3), oracle_grid(2000), mode,
                         eigen_index=1, bracket=(center - 5e-3, center + 5e-3), scan_points=11)


@pytest.mark.parametrize("beta, mode, energy, richardson", [
    (0.5, "approximated", "0x1.ff49ec9d679cap-1", "0x1.ff488a15050e9p-1"),
    (0.5, "exact", "0x1.fef01d1e1c3c8p-1", "0x1.feeea1353ac2ep-1"),
    (1.0, "approximated", "0x1.fd767ef72b904p-1", "0x1.fd75aa6c3990ap-1"),
    (1.0, "exact", "0x1.fcf3960eb861bp-1", "0x1.fcf2bf1cf4f61p-1"),
])
def test_perfbench_oracle_outputs_of_record(beta, mode, energy, richardson):
    # bit for bit: a faster Sturm count or diagonal must not move them
    res = perfbench_oracle_operation(beta, mode)
    assert (res.energy.hex(), res.richardson_estimate.hex()) == (energy, richardson)


@pytest.mark.parametrize("mode", ["approximated", "exact"])
def test_closure_values_do_not_depend_on_evaluation_order(mode):
    # every evaluation overwrites one diagonal buffer; a stale row would
    # make g depend on the energy evaluated before
    pp = PotentialParams.from_beta(v0=0.2, beta=0.5, a=0.05)
    qn = QuantumNumbers(n=1, l=0, d=3)
    center = closed_form_energy(0.2, 0.1, 0.05, MP.mass, 1, 0, 3, "decaying")
    Es = np.linspace(center - 5e-3, MP.mass * (1.0 - 1e-9), 11).tolist()
    g = _closure(pp, MP, qn, oracle_grid(2000), mode, 1)
    forward = [g(E) for E in Es]
    backward = [g(E) for E in reversed(Es)]
    assert backward[::-1] == forward
    assert len(set(forward)) == 2  # the scan crosses the closure root
    fresh = [_closure(pp, MP, qn, oracle_grid(2000), mode, 1)(E) for E in Es]
    assert fresh == forward


@pytest.mark.parametrize("beta", [0.5, 1.0])
@pytest.mark.parametrize("mode", ["approximated", "exact"])
def test_perfbench_oracle_operation_sturm_counts(monkeypatch, beta, mode):
    # the coarse scan stops at its first sign change (36-39 counts); the
    # fine root takes 26: one at the coarse root, one at root - 1.25e-5,
    # where the sign flips, and 24 bisection midpoints
    pp = PotentialParams.from_beta(v0=0.2, beta=beta, a=0.05)
    qn = QuantumNumbers(n=1, l=0, d=3)
    ref = solve_energy(pp, MP, qn, branch="decaying").energy
    calls = []

    def counting(shifted, e2):
        calls.append(e2)
        return _sturm_count(shifted, e2)

    monkeypatch.setattr("kgyukawa.oracle._sturm_count", counting)
    oracle_energy(pp, MP, qn, oracle_grid(2000), mode, eigen_index=1,
                  bracket=(ref - 5e-3, ref + 5e-3), scan_points=11)
    assert len(calls) <= 66


@pytest.mark.parametrize("beta", [0.5, 1.0])
@pytest.mark.parametrize("mode", ["approximated", "exact"])
def test_fine_root_matches_dense_scan(beta, mode):
    # the outward search bisects a different bracket from a dense scan of
    # the doubled grid's +-1e-4 window; both reach the same root
    pp = PotentialParams.from_beta(v0=0.2, beta=beta, a=0.05)
    qn = QuantumNumbers(n=1, l=0, d=3)
    ref = solve_energy(pp, MP, qn, branch="decaying").energy
    grid = oracle_grid(2000)
    root = _closure_root(pp, MP, qn, grid, mode, 1, (ref - 5e-3, ref + 5e-3), 11)
    fine = grid.doubled()
    half = _FINE_STEPS[-1]
    dense = _closure_root(pp, MP, qn, fine, mode, 1, (root - half, root + half), 2001)
    assert abs(_fine_root(pp, MP, qn, fine, mode, 1, root) - dense) <= 1e-12


def test_fine_root_search_is_clipped_below_mass(monkeypatch):
    # the coarse root lies 6e-6 below M and the fine one above it, so the
    # first step up is clipped to M(1 - 1e-9), where the sign flips
    pp = PotentialParams(v0=0.05, s0=0.05, a=0.01)
    qn = QuantumNumbers(n=1, l=1, d=3)
    ref = solve_energy(pp, MP, qn, branch="decaying").energy
    grid = default_oracle_grid(math.sqrt(MP.mass**2 - ref**2), points=2000)
    res = oracle_energy(pp, MP, qn, grid, "approximated", eigen_index=1,
                        bracket=(ref - 5e-3, ref + 5e-3), scan_points=11)
    assert abs(res.richardson_estimate - ref) < 1e-7
    root = res.energy
    edge = MP.mass * (1.0 - 1e-9)
    assert edge - _FINE_STEPS[0] < root < edge
    energies = []

    def recording(*args):
        g = _closure(*args)

        def g_recorded(E):
            energies.append(E)
            return g(E)

        return g_recorded

    monkeypatch.setattr("kgyukawa.oracle._closure", recording)
    fine = _fine_root(pp, MP, qn, grid.doubled(), "approximated", 1, root)
    assert root < fine < edge
    # the search steps up to the clipped edge, not past it
    assert max(energies) == edge


def test_oracle_names_doubled_grid_when_fine_root_is_far(pp_plus):
    # on 100 points the doubled grid moves the nodeless root by more than
    # 1e-4, so the search around the coarse root finds nothing
    qn = QuantumNumbers(n=1, l=0, d=3)
    grid = RadialGrid(r_min=1e-4, r_max=400.0, points=100)
    root = _closure_root(pp_plus, MP, qn, grid, "approximated", 0, None, 101)
    far = _closure_root(pp_plus, MP, qn, grid.doubled(), "approximated", 0, None, 101)
    assert abs(far - root) > _FINE_STEPS[-1]
    with pytest.raises(NoRootInBracket) as err:
        oracle_energy(pp_plus, MP, qn, grid, "approximated", eigen_index=0)
    assert str(err.value) == (
        f"closure g(E) has no sign change on [{root - 1e-4:.6f}, {root + 1e-4:.6f}] "
        f"for {qn} at eigen_index 0 (approximated mode, 200-point grid)"
    )


def test_energies_are_python_floats(pp_plus):
    # not numpy.float64, although both solvers scan numpy grids
    qn = QuantumNumbers(n=1, l=0, d=3)
    sol = solve_energy(pp_plus, MP, qn, branch="decaying")
    ref = sol.energy
    res = oracle_energy(pp_plus, MP, qn, oracle_grid(2000), "approximated",
                        eigen_index=1, bracket=(ref - 5e-3, ref + 5e-3), scan_points=11)
    values = (sol.energy, *sol.bracket, res.energy, res.richardson_estimate)
    assert [type(x) for x in values] == [float] * 5


# --------------------------------------------------------------------------
# closure on the physical (decaying-wavefunction) branch
# --------------------------------------------------------------------------


def oracle_grid(points=4000):
    return RadialGrid(r_min=1e-4, r_max=400.0, points=points)


def test_oracle_confirms_decaying_branch_state(pp_plus):
    # the genuine one-node bound state of the equal-mixture problem
    qn = QuantumNumbers(n=1, l=0, d=3)
    ref = solve_energy(pp_plus, MP, qn, branch="decaying").energy
    assert ref == pytest.approx(0.99503719, abs=1e-8)
    res = oracle_energy(
        pp_plus, MP, qn, oracle_grid(16000), "approximated",
        eigen_index=1, bracket=(ref - 5e-3, ref + 5e-3), scan_points=11,
    )
    assert abs(res.richardson_estimate - ref) < 5e-5
    assert abs(res.energy - ref) < 5e-4


def test_oracle_kappa_degeneracy():
    # identical d + 2l gives the identical discrete operator in both modes
    pp = PotentialParams(v0=0.2, s0=0.2, a=0.05)
    qa = QuantumNumbers(n=1, l=1, d=3)
    qb = QuantumNumbers(n=1, l=0, d=5)
    grid = oracle_grid(4000)
    for mode in ("approximated", "exact"):
        ea = oracle_energy(pp, MP, qa, grid, mode, eigen_index=0).energy
        eb = oracle_energy(pp, MP, qb, grid, mode, eigen_index=0).energy
        assert ea == pytest.approx(eb, abs=1e-9)


def test_oracle_exact_vs_approximated_gap(pp_plus):
    # the two modes differ by the approximant quality at a = 0.05;
    # the gap is recorded, not asserted against a reference value
    qn = QuantumNumbers(n=1, l=0, d=3)
    ref = solve_energy(pp_plus, MP, qn, branch="decaying").energy
    grid = oracle_grid(8000)
    bracket = (ref - 5e-3, ref + 5e-3)
    e_app = oracle_energy(pp_plus, MP, qn, grid, "approximated",
                          eigen_index=1, bracket=bracket, scan_points=11).energy
    e_ex = oracle_energy(pp_plus, MP, qn, grid, "exact",
                         eigen_index=1, bracket=bracket, scan_points=11).energy
    gap = abs(e_app - e_ex)
    print(f"\napproximation gap at a=0.05: {gap:.3e} fm^-1")
    assert math.isfinite(gap)


@pytest.mark.parametrize("mode", ["approximated", "exact"])
def test_closure_sign_matches_eigenvalue(pp_plus, mode):
    # the closure reads only a Sturm count; its sign must be that of
    # lambda_k(E) - (E^2 - M^2) from the eigenvalue itself
    qn = QuantumNumbers(n=1, l=0, d=3)
    grid = oracle_grid(2000)
    signs = set()
    for k in (0, 1, 2):
        # dense towards +M, where the closure roots of these states lie
        for E in np.tanh(np.linspace(-2.0, 6.0, 20)):
            g = _closure(pp_plus, MP, qn, grid, mode, k)(E)
            lam = eigenvalue_k(E, pp_plus, MP, qn, grid, mode, k)
            assert g != 0.0
            assert (g > 0.0) == (lam - (E * E - MP.mass**2) > 0.0), (k, E)
            signs.add(g > 0.0)
    assert signs == {True, False}


@pytest.mark.parametrize("mode", ["approximated", "exact"])
@pytest.mark.parametrize("k", [0, 1])
def test_closure_root_is_the_first_bracket_of_the_full_scan(mode, k):
    # the scan stops at the first sign change; the root must be the one
    # bisected from the first bracket of a scan that evaluates every point
    pp = PotentialParams(v0=0.3, s0=0.6, a=0.05)
    qn = QuantumNumbers(n=1, l=0, d=3)
    grid = oracle_grid(2000)
    g = _closure(pp, MP, qn, grid, mode, k)
    Es = np.linspace(-(1.0 - SCAN_EDGE), 1.0 - SCAN_EDGE, 101)
    brackets = reference_brackets(Es, [g(E) for E in Es])
    # a scalar-dominated coupling binds on both sides of E = 0
    assert len(brackets) == 2
    want, _ = bisect(g, *brackets[0], 1e-12)
    assert _closure_root(pp, MP, qn, grid, mode, k, None, 101) == want


def test_oracle_rejects_bracket_without_root(pp_plus):
    qn = QuantumNumbers(n=1, l=0, d=3)
    # a scan of one point or none has no pair to bracket a root either
    for scan_points in (11, 1, 0):
        with pytest.raises(NoRootInBracket) as err:
            oracle_energy(
                pp_plus, MP, qn, oracle_grid(2000), "approximated",
                eigen_index=0, bracket=(-0.6, -0.5), scan_points=scan_points,
            )
        assert str(err.value) == (
            f"closure g(E) has no sign change on [-0.600000, -0.500000] for {qn} "
            "at eigen_index 0 (approximated mode, 2000-point grid)"
        )


def test_cross_validation_surfaces_branch_discrepancy(pp_plus):
    # The quantization equation that reproduces the published tables has
    # no eigenfunction-backed root near its energies: the eigensolver
    # must label the mismatch rather than confirm it.
    qn = QuantumNumbers(n=1, l=0, d=3)
    cmp_ = cross_validate(pp_plus, MP, qn, mode="approximated", points=2000)
    assert cmp_.status == "no_root_in_bracket"
    assert cmp_.e_solver == pytest.approx(-0.99503719, abs=1e-7)
    assert cmp_.eigen_index == 1
    # the nearest genuine root at eigen_index n is the one-node state, the
    # decaying one of the same label (closed form 0.99503719)
    assert cmp_.nearest_root == pytest.approx(0.99504474, abs=1e-8)


def test_fallback_builds_no_doubled_grid(monkeypatch, pp_plus):
    # the fallback reports the coarse grid's root alone; a doubled grid and
    # a Richardson estimate would be work it never prints
    qn = QuantumNumbers(n=1, l=0, d=3)
    built = []

    def closure(pp, mp, qn, grid, *args):
        built.append(grid.points)
        return _closure(pp, mp, qn, grid, *args)

    monkeypatch.setattr("kgyukawa.oracle._closure", closure)
    cmp_ = cross_validate(pp_plus, MP, qn, points=2000)
    assert cmp_.status == "no_root_in_bracket" and cmp_.nearest_root is not None
    assert built == [2000, 2000]  # the validation bracket, then the fallback's scan


def test_fallback_reports_a_coarse_root_the_doubled_grid_misses():
    # oracle_energy finds no doubled-grid root within 1e-4 of this coarse
    # root, which cross_validate used to drop
    pp = PotentialParams(v0=0.3311599339879335, s0=0.34926292809854287, a=0.025432968458688518)
    qn = QuantumNumbers(n=1, l=1, d=3)
    cmp_ = cross_validate(pp, MP, qn, points=200)
    grid = default_oracle_grid(math.sqrt(1.0 - cmp_.e_solver**2), points=200)
    with pytest.raises(NoRootInBracket, match="400-point grid"):
        oracle_energy(pp, MP, qn, grid, "approximated", eigen_index=1)
    assert cmp_.status == "no_root_in_bracket"
    assert cmp_.nearest_root == _closure_root(pp, MP, qn, grid, "approximated", 1, None, 101)
    assert cmp_.nearest_delta == abs(cmp_.nearest_root - cmp_.e_solver)


def test_cross_validation_validates_the_state_its_pairing_reaches(monkeypatch, pp_plus):
    # On the decaying branch the state labelled n has n nodes, so its
    # closure root sits at eigen_index n, where cross_validate looks.  No
    # solver energy reaches "validated" unpatched: the published ones are
    # not eigenvalues (acceptance criterion 4).
    qn = QuantumNumbers(n=1, l=0, d=3)
    decaying = solve_energy(pp_plus, MP, qn, branch="decaying")
    monkeypatch.setattr("kgyukawa.oracle.solve_energy", lambda pp, mp, qn: decaying)
    cmp_ = cross_validate(pp_plus, MP, qn, points=2000)
    assert cmp_.status == "validated"
    assert (cmp_.mode, cmp_.eigen_index, cmp_.e_solver) == ("approximated", 1, decaying.energy)
    # 1.2e-6 at 2000 points in approximated mode
    assert cmp_.delta == abs(cmp_.richardson - decaying.energy) < 1e-5
    assert abs(cmp_.e_oracle - decaying.energy) < 5e-3
    assert cmp_.nearest_root is None and cmp_.nearest_delta is None
