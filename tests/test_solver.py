"""Energy equation, root finder, tables and radial wavefunctions."""
import hashlib
import itertools
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_form import COMPLEX_CHANNEL, NO_STATE, closed_form_energy
from kgyukawa import (
    ComplexChannel,
    DomainError,
    KgYukawaError,
    NoRootInBracket,
    NormalizationFailure,
    ParticleParams,
    PotentialParams,
    QuantumNumbers,
    count_nodes,
    default_radial_grid,
    derive_coefficients,
    effective_ode_coefficient,
    energy_equation_residual,
    energy_relation_residual,
    map_to_nu,
    radial_wavefunction,
    solve_energy,
    solve_table,
)
from kgyukawa.params import PARTNER_SHIFT
from kgyukawa.rootfind import bisect
from kgyukawa.solver import SCAN_EDGE, SCAN_POINTS, TOLERANCE
from reference_scan import reference_brackets

MP = ParticleParams(mass=1.0)


@pytest.mark.parametrize("branch", ["published", "decaying"])
def test_energy_scales_with_the_mass(branch):
    # E/M depends on a/M alone; an absolute bisection width left E/M off
    # by 2.9e-5 at M = 1e-10, after 0 steps
    qn = QuantumNumbers(n=1, l=0, d=3)
    unit = solve_energy(PotentialParams(v0=0.2, s0=0.2, a=0.05), MP, qn, branch)
    for mass in (1.5e-154, 1e-150, 1e-10, 1e-6, 1e6, 1e150, 1.34e154):
        sol = solve_energy(PotentialParams(v0=0.2, s0=0.2, a=0.05 * mass),
                           ParticleParams(mass=mass), qn, branch)
        assert abs(sol.energy / mass - unit.energy) <= 1e-15
        assert sol.iterations == unit.iterations == 31


def test_map_equal_mixture_drops_quadratic_term():
    pp = PotentialParams(v0=0.2, s0=0.2, a=0.05)
    qn = QuantumNumbers(n=1, l=0, d=3)
    problem = map_to_nu(pp, MP, qn, -0.9)
    q = (MP.mass * pp.s0 + (-0.9) * pp.v0) / pp.a
    assert problem.p2 - problem.p0 == pytest.approx(q, rel=1e-14)


def test_map_p0_is_scaled_epsilon_squared():
    pp = PotentialParams(v0=0.2, s0=0.1, a=0.05)
    qn = QuantumNumbers(n=1, l=0, d=3)
    E = -0.98885705
    problem = map_to_nu(pp, MP, qn, E)
    assert problem.p0 == pytest.approx((1 - E * E) / 0.01, rel=1e-14)
    assert (problem.c1, problem.c2, problem.c3) == (1.0, 1.0, 1.0)


def test_map_s_wave_has_no_centrifugal_piece():
    pp = PotentialParams(v0=0.2, s0=0.1, a=0.05)
    qn = QuantumNumbers(n=1, l=0, d=3)
    problem = map_to_nu(pp, MP, qn, -0.9)
    q = (MP.mass * pp.s0 + (-0.9) * pp.v0) / pp.a
    assert problem.p1 == pytest.approx(2 * problem.p0 + q, rel=1e-14)


def test_map_rejects_out_of_range_energy():
    pp = PotentialParams(v0=0.2, s0=0.1, a=0.05)
    qn = QuantumNumbers(n=1, l=0, d=3)
    with pytest.raises(DomainError):
        map_to_nu(pp, MP, qn, 1.0)


def test_overstrong_vector_coupling_raises():
    pp = PotentialParams(v0=5.0, s0=0.0, a=0.05)
    qn = QuantumNumbers(n=1, l=0, d=3)
    with pytest.raises(ComplexChannel):
        map_to_nu(pp, MP, qn, -0.5)
    with pytest.raises(ComplexChannel):
        energy_equation_residual(-0.5, pp, MP, qn)  # a Python float: the math path


def test_residual_small_at_published_energies(pp_plus, pp_minus):
    qn = QuantumNumbers(n=1, l=0, d=3)
    assert abs(energy_equation_residual(-0.99503719, pp_plus, MP, qn)) < 1e-5
    assert abs(energy_equation_residual(-0.95533246, pp_minus, MP, qn)) < 1e-5


def test_residual_domain_guard(pp_half):
    qn = QuantumNumbers(n=1, l=0, d=3)
    # Python floats take the math path, arrays the numpy one
    for E in (1.0, -1.0, -1.5, 2.0, math.inf, -math.inf, np.array([1.0]), np.array([-1.5])):
        with pytest.raises(DomainError):
            energy_equation_residual(E, pp_half, MP, qn)
    # NaN passed the old |E| >= M test and came back as the residual
    for E in (math.nan, np.array([math.nan]), [-0.5, math.nan]):
        with pytest.raises(DomainError):
            energy_equation_residual(E, pp_half, MP, qn)


_SCAN_END = 1.0 - SCAN_EDGE  # the scan's end points, at M = 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    branch=st.sampled_from(["published", "decaying"]),
    v0=st.floats(0.0, 0.3),
    beta=st.floats(-1.0, 1.0),
    a=st.one_of(st.floats(0.0005, 0.1), st.floats(1e-300, 1.0)),
    n=st.integers(1, 3),
    l=st.integers(0, 2),
    d=st.integers(2, 10),
    E=st.one_of(st.sampled_from([-_SCAN_END, _SCAN_END]),
                st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)),
)
def test_float_path_equals_array_path(branch, v0, beta, a, n, l, d, E):
    # bisection hands the residual Python floats, which it evaluates with
    # math; the scan's slices go through numpy: the bits must agree
    pp = PotentialParams(v0=v0, s0=beta * v0, a=a)
    qn = QuantumNumbers(n=n, l=l, d=d)
    try:
        want = energy_equation_residual(np.array([E]), pp, MP, qn, branch)[0]
    except ComplexChannel:
        with pytest.raises(ComplexChannel):
            energy_equation_residual(E, pp, MP, qn, branch)
        return
    got = energy_equation_residual(E, pp, MP, qn, branch)
    assert type(got) is float
    assert got.hex() == float(want).hex()


def test_closed_form_equals_four_times_canonical_residual(pp_half):
    # the closed form is an algebraic rearrangement of the canonical-form
    # quantization relation, multiplied through by 4a
    qn = QuantumNumbers(n=2, l=1, d=4)
    rng = np.random.default_rng(3)
    for E in rng.uniform(-0.999, 0.999, size=100):
        closed = energy_equation_residual(float(E), pp_half, MP, qn)
        problem = map_to_nu(pp_half, MP, qn, float(E))
        canonical = energy_relation_residual(problem, derive_coefficients(problem), qn.n)
        assert closed == pytest.approx(4.0 * pp_half.a * canonical, rel=1e-10, abs=1e-9 * pp_half.a)


def test_spot_energies(pp_half, pp_plus, pp_minus):
    got = solve_energy(pp_half, MP, QuantumNumbers(n=1, l=0, d=3)).energy
    assert got == pytest.approx(-0.98885705, abs=1e-7)
    got = solve_energy(pp_plus, MP, QuantumNumbers(n=3, l=2, d=10)).energy
    assert got == pytest.approx(-0.88132977, abs=1e-7)
    e21 = solve_energy(pp_minus, MP, QuantumNumbers(n=2, l=1, d=5)).energy
    e30 = solve_energy(pp_minus, MP, QuantumNumbers(n=3, l=0, d=5)).energy
    assert e21 == pytest.approx(-0.94475060, abs=1e-7)
    assert abs(e21 - e30) < 1e-10


def test_solution_diagnostics(pp_half):
    sol = solve_energy(pp_half, MP, QuantumNumbers(n=1, l=0, d=3))
    assert -MP.mass < sol.energy < MP.mass
    assert sol.epsilon**2 + sol.energy**2 == pytest.approx(MP.mass**2, rel=1e-12)
    assert abs(sol.residual) <= 1e-10
    assert sol.bracket[0] <= sol.energy <= sol.bracket[1]
    assert sol.iterations > 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    v0=st.floats(0.0, 0.6),
    ratio=st.floats(-1.0, 1.0),
    a=st.floats(0.001, 1.0),
    n=st.integers(1, 4),
    l=st.integers(0, 3),
    d=st.integers(2, 10),
)
def test_both_branches_match_closed_form(v0, ratio, a, n, l, d):
    s0 = ratio * v0
    pp = PotentialParams(v0=v0, s0=s0, a=a)
    qn = QuantumNumbers(n=n, l=l, d=d)
    for branch in ("published", "decaying"):
        want = closed_form_energy(v0, s0, a, MP.mass, n, l, d, branch)
        if want == COMPLEX_CHANNEL:
            with pytest.raises(ComplexChannel):
                solve_energy(pp, MP, qn, branch)
        elif want == NO_STATE:
            with pytest.raises(NoRootInBracket):
                solve_energy(pp, MP, qn, branch)
        else:
            assert solve_energy(pp, MP, qn, branch).energy == pytest.approx(want, abs=1e-10)


def _reference_residual(pp, qn, branch):
    """The branch's residual at M = 1, written out with the formula and the
    operation order of energy_equation_residual, so its bits must agree:
    Python floats go through math, arrays through numpy."""
    m, a, v0, s0 = MP.mass, pp.a, pp.v0, pp.s0
    kappa = qn.d + 2 * qn.l - 2
    chan = kappa * kappa + 4.0 * (s0 * s0 - v0 * v0)
    if chan < 0.0:
        raise ComplexChannel(chan)
    k = 2 * qn.n + 1 + math.sqrt(chan)
    c = a * (k * k + 4.0 * (v0 * v0 - s0 * s0)) - 4.0 * s0 * m
    sign = {"published": -1.0, "decaying": 1.0}[branch]

    def f(E):
        sqrt = math.sqrt if type(E) is float else np.sqrt
        return c - 4.0 * v0 * E + 2.0 * sign * k * sqrt(m * m - E * E)

    return f


def _reference_solve(pp, qn, branch):
    """solve_energy's result fields as hex, from the reference residual,
    a full scan of all SCAN_POINTS points and bisection."""
    f = _reference_residual(pp, qn, branch)
    m = MP.mass
    grid = np.linspace(-m * (1.0 - SCAN_EDGE), m * (1.0 - SCAN_EDGE), SCAN_POINTS)
    brackets = reference_brackets(grid, f(grid))
    if not brackets:
        raise NoRootInBracket
    lo, hi, f_lo = brackets[0] if branch == "published" else brackets[-1]
    root, iters = bisect(f, lo, hi, f_lo, TOLERANCE)
    return float(root).hex(), f(root).hex(), float(lo).hex(), float(hi).hex(), iters


def _outcome(solve, *args):
    try:
        return solve(*args)
    except KgYukawaError as exc:
        return type(exc)


def _solved_hex(pp, qn, branch):
    """_reference_solve's fields, from solve_energy."""
    sol = solve_energy(pp, MP, qn, branch)
    return (sol.energy.hex(), sol.residual.hex(), sol.bracket[0].hex(),
            sol.bracket[1].hex(), sol.iterations)


def test_solver_matches_reference_scan_and_bisect():
    # 200 seeded draws over the perfbench `states` ranges, alternating the
    # published branch (`solve` couplings) with the decaying one (`limits`
    # couplings); each reference scan walks 20000 Python floats (about 3 ms)
    rng = random.Random(7)
    found = {"published": 0, "decaying": 0}
    for i in range(200):
        branch = ("published", "decaying")[i % 2]
        if branch == "published":
            v0, a = rng.uniform(0.05, 0.3), rng.uniform(0.01, 0.1)
        else:
            v0, a = rng.uniform(0.05, 0.15), rng.uniform(0.0005, 0.005)
        pp = PotentialParams(v0=v0, s0=rng.uniform(-1.0, 1.0) * v0, a=a)
        qn = QuantumNumbers(n=rng.randint(1, 3), l=rng.randint(0, 2), d=rng.randint(2, 10))
        want = _outcome(_reference_solve, pp, qn, branch)
        assert _outcome(_solved_hex, pp, qn, branch) == want
        found[branch] += isinstance(want, tuple)
    assert all(found.values()), found


def _root_threshold(v0, s0, n, l, d, branch):
    """Two screenings less than 1e-9 apart, one on each side of a point
    where the branch gains or loses its root (by tests/closed_form.py), or
    () when it has a root at both a = 1e-8 and a = 1 or at neither."""
    def has_root(a):
        return not isinstance(closed_form_energy(v0, s0, a, MP.mass, n, l, d, branch), str)

    lo, hi = 1e-8, 1.0
    if has_root(lo) == has_root(hi):
        return ()
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if has_root(mid) == has_root(lo):
            lo = mid
        else:
            hi = mid
    return lo, hi


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    branch=st.sampled_from(["published", "decaying"]),
    v0=st.floats(0.0, 0.6),
    beta=st.floats(-1.5, 1.5),
    a=st.one_of(st.floats(0.0005, 0.1), st.floats(1e-8, 1.0)),
    n=st.integers(1, 3),
    l=st.integers(0, 2),
    d=st.integers(2, 10),
    near_threshold=st.booleans(),
)
def test_empty_branch_proof_agrees_with_the_full_scan(branch, v0, beta, a, n, l, d,
                                                      near_threshold):
    # solve_energy proves a branch empty before it scans; the full scan
    # must then find nothing, and where it finds a root, solve_energy must
    # scan too.  Screenings within 1e-9 of where the root appears or
    # leaves bring the residual's extremum or end value near zero, inside
    # the proof's margin
    s0 = beta * v0
    qn = QuantumNumbers(n=n, l=l, d=d)
    screenings = (_root_threshold(v0, s0, n, l, d, branch) if near_threshold else ()) or (a,)
    for a in screenings:
        pp = PotentialParams(v0=v0, s0=s0, a=a)
        assert _outcome(_solved_hex, pp, qn, branch) == _outcome(_reference_solve, pp, qn, branch)


# sha256 of the lines test_solver_fingerprint_is_unchanged hashes, recorded
# before the residual gained its Python-float path; a change to the solver
# that moves any bit of any draw changes it
SOLVER_FINGERPRINT = "0e03bb25c518cb1b1d68c7a405807d4fa1f48d7b793eddbfe8d4660e1c803196"


def test_solver_fingerprint_is_unchanged():
    # 400 seeded draws (about 1 s), alternating the published branch over
    # the perfbench `solve` ranges with the decaying branch over the halved
    # couplings that `limits` solves: one line per draw, energy, epsilon,
    # residual and bracket as hex with the iteration count, or the
    # exception class when there is no solution
    rng = random.Random(31)
    digest = hashlib.sha256()
    for i in range(400):
        branch = ("published", "decaying")[i % 2]
        if branch == "published":
            v0, a = rng.uniform(0.05, 0.3), rng.uniform(0.01, 0.1)
        else:
            v0, a = rng.uniform(0.05, 0.15) / 2.0, rng.uniform(0.0005, 0.005)
        pp = PotentialParams(v0=v0, s0=rng.uniform(-1.0, 1.0) * v0, a=a)
        qn = QuantumNumbers(n=rng.randint(1, 3), l=rng.randint(0, 2), d=rng.randint(2, 10))
        try:
            sol = solve_energy(pp, MP, qn, branch)
        except KgYukawaError as exc:
            line = type(exc).__name__
        else:
            line = " ".join([sol.energy.hex(), sol.epsilon.hex(), sol.residual.hex(),
                             sol.bracket[0].hex(), sol.bracket[1].hex(), str(sol.iterations)])
        digest.update((line + "\n").encode())
    assert digest.hexdigest() == SOLVER_FINGERPRINT


def test_solve_holds_no_array_of_the_whole_scan():
    # the 20000-point grid takes 160 kB; the residual over all of it, and
    # each temporary that computing it makes, would take as much again
    for branch in ("published", "decaying"):
        args = (PotentialParams(0.2, 0.1, 0.05), ParticleParams(1.0), QuantumNumbers(1, 0, 3), branch)
        solve_energy(*args)
        tracemalloc.start()
        try:
            solve_energy(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400_000, branch


@pytest.mark.parametrize("branch, s0, slices",
                         [("decaying", 0.025, 1), ("published", 0.025, 10), ("decaying", -0.05, 0)],
                         ids=["decaying-1", "published-10", "decaying-0"])
def test_decaying_solve_scans_only_the_top_slice(monkeypatch, branch, s0, slices):
    # `kgyukawa limits` states: the halved couplings of v0 = 0.1 and
    # s0 = 0.05 or -0.1 at a = 0.002.  At s0 = 0.025 the decaying root lies
    # in the top slice of the scan, and the published branch scans on down
    # to -M; at s0 = -0.05 the decaying branch is proven empty from the
    # residual's ends and extremum, before any slice
    scanned = []

    def counted(E, *args):
        scanned.append(E)
        return energy_equation_residual(E, *args)

    monkeypatch.setattr("kgyukawa.solver.energy_equation_residual", counted)
    outcome = _outcome(solve_energy, PotentialParams(0.05, s0, 0.002), MP,
                       QuantumNumbers(1, 0, 3), branch)
    assert (outcome is NoRootInBracket) == (slices == 0)
    slice_calls = [E for E in scanned if isinstance(E, np.ndarray)]
    assert len(slice_calls) == slices
    # the others are the proof's and bisection's, on the residual's
    # Python-float path
    scalars = [E for E in scanned if not isinstance(E, np.ndarray)]
    assert scalars and all(type(E) is float for E in scalars)


def test_small_screening_root_survives_consistency_check():
    # the residual's slope here is -4e6, so the bisected root's NU residual
    # (1.7e-8) is far above the true root's (6.5e-11): no NU-residual
    # acceptance test may drop it
    pp = PotentialParams(v0=0.2, s0=0.2, a=1e-3)
    qn = QuantumNumbers(n=1, l=0, d=10)
    want = closed_form_energy(0.2, 0.2, 1e-3, MP.mass, 1, 0, 10, "published")
    assert want == pytest.approx(-0.99998487791, abs=1e-11)
    assert solve_energy(pp, MP, qn).energy == pytest.approx(want, abs=1e-10)


def test_small_screening_energy_matches_closed_form():
    # the residual has no terms of order (M/a)^2 that could cancel or
    # overflow; the suite turns any RuntimeWarning into an error, so this
    # also checks that nothing overflows on the way down to a = 1e-300
    qn = QuantumNumbers(n=1, l=0, d=3)
    for a in (1e-6, 1e-10, 1e-150, 1e-300):
        for branch in ("published", "decaying"):
            want = closed_form_energy(0.2, 0.1, a, MP.mass, 1, 0, 3, branch)
            sol = solve_energy(PotentialParams(v0=0.2, s0=0.1, a=a), MP, qn, branch)
            assert sol.energy == pytest.approx(want, abs=1e-10)


def test_unknown_branch_is_rejected(pp_half):
    qn = QuantumNumbers(n=1, l=0, d=3)
    with pytest.raises(DomainError):
        solve_energy(pp_half, MP, qn, branch="bound")
    with pytest.raises(DomainError):
        energy_equation_residual(-0.9, pp_half, MP, qn, branch="bound")


def test_no_bound_state_for_strong_screening():
    pp = PotentialParams(v0=0.2, s0=0.1, a=5.0)
    with pytest.raises(NoRootInBracket):
        solve_energy(pp, MP, QuantumNumbers(n=1, l=0, d=3))


def test_kappa_degeneracy_structural(pp_half):
    # energies depend on (l, d) only through d + 2l
    pairs = [
        (QuantumNumbers(n=2, l=1, d=3), QuantumNumbers(n=2, l=0, d=5)),
        (QuantumNumbers(n=3, l=2, d=4), QuantumNumbers(n=3, l=0, d=8)),
    ]
    for qa, qb in pairs:
        ea = solve_energy(pp_half, MP, qa).energy
        eb = solve_energy(pp_half, MP, qb).energy
        assert abs(ea - eb) <= 1e-10


def test_partner_energies_match(pp_plus):
    qn = QuantumNumbers(n=3, l=1, d=6)
    dl, dd = PARTNER_SHIFT["up"]
    partner = QuantumNumbers(n=qn.n, l=qn.l + dl, d=qn.d + dd)
    assert (partner.n, partner.l, partner.d) == (3, 2, 4)
    ea = solve_energy(pp_plus, MP, qn).energy
    eb = solve_energy(pp_plus, MP, partner).energy
    assert abs(ea - eb) <= 1e-10


def test_accidental_degeneracy_at_equal_mixture(pp_plus, pp_minus, pp_half):
    for pp in (pp_plus, pp_minus):
        for d in range(3, 11):
            e21 = solve_energy(pp, MP, QuantumNumbers(n=2, l=1, d=d)).energy
            e30 = solve_energy(pp, MP, QuantumNumbers(n=3, l=0, d=d)).energy
            assert abs(e21 - e30) <= 1e-10
    # removed at beta = 0.5
    e21 = solve_energy(pp_half, MP, QuantumNumbers(n=2, l=1, d=3)).energy
    e30 = solve_energy(pp_half, MP, QuantumNumbers(n=3, l=0, d=3)).energy
    assert abs(e21 - e30) == pytest.approx(2.08e-4, abs=1e-6)


def test_n_monotonicity_where_it_holds(pp_half, pp_plus):
    for pp in (pp_half, pp_plus):
        for d in (3, 6, 10):
            energies = [
                solve_energy(pp, MP, QuantumNumbers(n=n, l=0, d=d)).energy
                for n in (1, 2, 3)
            ]
            assert energies[0] < energies[1] < energies[2]


def grid(n_range, l_range, d_range):
    """The (d, n, l) cells of the grid, over D, then n, then l."""
    return list(itertools.product(d_range, n_range, l_range))


def test_table_grid_and_self_consistency(pp_half):
    cells = solve_table(pp_half, MP, grid(n_range=[1, 2], l_range=[0, 1], d_range=[3, 4]))
    assert len(cells) == 8
    assert all(c.status == "ok" for c in cells)


def test_table_empty_range(pp_half):
    cells = solve_table(pp_half, MP, grid(n_range=[1], l_range=[], d_range=[3]))
    assert cells == ()


def _solved_alone(pp, d, n, l):
    """(status, energy, residual, message) of one cell from its own
    solve_energy call, as solve_table would record it."""
    try:
        sol = solve_energy(pp, MP, QuantumNumbers(n=n, l=l, d=d))
        return "ok", sol.energy, sol.residual, ""
    except NoRootInBracket as exc:
        return "no_bound_state", None, None, str(exc)
    except ComplexChannel as exc:
        return "complex_channel", None, None, str(exc)
    except DomainError as exc:
        return "error", None, None, str(exc)


def test_table_records_cell_failures():
    pp = PotentialParams(v0=0.2, s0=0.1, a=5.0)
    cells = solve_table(pp, MP, [(3, 1, 0)])
    assert cells[0].status == "no_bound_state"
    pp = PotentialParams(v0=5.0, s0=0.0, a=0.05)
    cells = solve_table(pp, MP, [(3, 1, 0)])
    assert cells[0].status == "complex_channel"
    # all four statuses in one table; n = 0 is an error, and (n, l, d) =
    # (2, 1, 3) and (2, 0, 5) share K but each message names its own cell
    pp = PotentialParams(v0=0.8, s0=0.0, a=0.3)
    cells = solve_table(pp, MP, grid(n_range=[0, 1, 2], l_range=[0, 1], d_range=[3, 4, 5]))
    assert {c.status for c in cells} == {"ok", "no_bound_state", "complex_channel", "error"}
    for c in cells:
        status, _, _, message = _solved_alone(pp, c.dim, c.n, c.l)
        assert (c.status, c.message) == (status, message)
    shared = [c for c in cells if (c.n, c.l, c.dim) in ((2, 1, 3), (2, 0, 5))]
    assert [c.status for c in shared] == ["no_bound_state"] * 2
    assert shared[0].message != shared[1].message


@pytest.mark.parametrize(
    "pp, n_range, l_range, d_range",
    [
        (PotentialParams(v0=0.2, s0=0.1, a=0.05), range(1, 4), range(0, 3), range(3, 11)),
        (PotentialParams(v0=0.2, s0=0.2, a=0.05), range(1, 4), range(0, 3), range(3, 11)),
        (PotentialParams(v0=0.2, s0=-0.2, a=0.05), range(1, 4), range(0, 3), range(3, 11)),
        (PotentialParams(v0=0.3, s0=-0.3, a=0.02), range(1, 5), range(0, 4), range(2, 11)),
    ],
)
def test_table_equals_per_cell_solves(pp, n_range, l_range, d_range):
    cells = solve_table(pp, MP, grid(n_range, l_range, d_range))
    assert [(c.dim, c.n, c.l) for c in cells] == [
        (d, n, l) for d in d_range for n in n_range for l in l_range
    ]
    for c in cells:
        status, energy, residual, _ = _solved_alone(pp, c.dim, c.n, c.l)
        assert repr((c.status, c.energy, c.residual)) == repr((status, energy, residual))


@pytest.mark.parametrize("v0, s0, solves", [(0.2, 0.1, 36), (0.2, 0.2, 16), (0.2, -0.2, 16)])
def test_table_solves_each_k_once(monkeypatch, v0, s0, solves):
    # K = 2n+1+sqrt((d+2l-2)^2 + 4(s0^2-v0^2)); at s0^2 = v0^2 it ties n to l as well
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_energy(*args, **kwargs)

    monkeypatch.setattr("kgyukawa.solver.solve_energy", counted)
    cells = solve_table(PotentialParams(v0=v0, s0=s0, a=0.05), MP,
                        grid(range(1, 4), range(0, 3), range(3, 11)))
    assert len(cells) == 72
    assert len(calls) == solves


def test_table_keeps_the_order_of_its_cells(monkeypatch, pp_half):
    # out of grid order: (d, n, l) = (5, 1, 1), (3, 1, 2) and (7, 1, 0)
    # share K, with n = 1 and d + 2l = 7, and two cells repeat
    calls = []

    def counted(pp, mp, qn, *args):
        calls.append(qn)
        return solve_energy(pp, mp, qn, *args)

    cells = [(5, 1, 1), (3, 2, 0), (3, 1, 2), (10, 1, 0), (7, 1, 0), (3, 2, 0), (5, 1, 1)]
    alone = [_solved_alone(pp_half, d, n, l) for d, n, l in cells]
    monkeypatch.setattr("kgyukawa.solver.solve_energy", counted)
    table = solve_table(pp_half, MP, cells)
    assert [(c.dim, c.n, c.l) for c in table] == cells
    assert [(c.status, c.energy, c.residual, c.message) for c in table] == alone
    assert [(qn.n, qn.d + 2 * qn.l) for qn in calls] == [(1, 7), (2, 3), (1, 10)]


# --------------------------------------------------------------------------
# wavefunctions
# --------------------------------------------------------------------------


def test_wavefunction_tail_is_exponential(pp_plus):
    qn = QuantumNumbers(n=1, l=0, d=3)
    sol = solve_energy(pp_plus, MP, qn)
    wf = radial_wavefunction(sol, pp_plus, MP, qn)
    r, v = wf.r, wf.values
    i = np.searchsorted(r, 15.0 / sol.epsilon)
    j = np.searchsorted(r, 18.0 / sol.epsilon)
    ratio = v[j] / v[i]
    assert ratio == pytest.approx(math.exp(-sol.epsilon * (r[j] - r[i])), rel=0.01)


@pytest.mark.parametrize("a", [0.05, 1e-4])
def test_wavefunction_near_the_origin_matches_high_precision(a):
    # R(r)/R(peak) on the first 40 default-grid samples, against the same
    # closed form at 50 digits; 1 - exp(-2ar) taken as a plain difference
    # cancels there (errors of 6.4e-7 at a = 0.05 and 3.3e-4 at a = 1e-4)
    mpmath = pytest.importorskip("mpmath")
    pp, qn = PotentialParams(v0=0.2, s0=0.1, a=a), QuantumNumbers(n=1, l=0, d=3)
    wf = radial_wavefunction(solve_energy(pp, MP, qn, "decaying"), pp, MP, qn)

    def closed_form(r):
        with mpmath.workdps(50):
            s = mpmath.exp(-2 * mpmath.mpf(a) * mpmath.mpf(float(r)))
            return (s ** (mpmath.mpf(wf.jacobi_alpha) / 2)
                    * (1 - s) ** ((1 + mpmath.mpf(wf.jacobi_beta)) / 2)
                    * mpmath.jacobi(qn.n, wf.jacobi_alpha, wf.jacobi_beta, 1 - 2 * s))

    peak = int(np.argmax(np.abs(wf.values)))
    want = [closed_form(r) / closed_form(wf.r[peak]) for r in wf.r[:40]]
    got = wf.values[:40] / wf.values[peak]
    assert max(float(abs(g / w - 1)) for g, w in zip(got, want)) < 1e-12


def test_wavefunction_equal_mixture_prefactor(pp_plus):
    # with s0 = v0 and (l, d) = (0, 3) the (1 - e^{-2ar}) exponent is
    # (1 + kappa)/2 = 1, so R ~ r near the origin
    qn = QuantumNumbers(n=1, l=0, d=3)
    sol = solve_energy(pp_plus, MP, qn)
    wf = radial_wavefunction(sol, pp_plus, MP, qn)
    assert wf.jacobi_beta == pytest.approx(1.0, rel=1e-10)
    r, v = wf.r[:200], np.abs(wf.values[:200])
    slope = np.polyfit(np.log(r), np.log(v), 1)[0]
    assert slope == pytest.approx(1.0, abs=1e-3)


def test_wavefunction_normalization_grid_refinement(pp_half):
    qn = QuantumNumbers(n=2, l=1, d=4)
    sol = solve_energy(pp_half, MP, qn)
    wf = radial_wavefunction(sol, pp_half, MP, qn)
    assert wf.norm == pytest.approx(1.0, abs=1e-12)
    fine = radial_wavefunction(
        sol, pp_half, MP, qn, default_radial_grid(sol.epsilon, points=8192)
    )
    coarse_sq = np.trapezoid(wf.values**2, wf.r)
    fine_sq = np.trapezoid(fine.values**2, fine.r)
    assert abs(coarse_sq - fine_sq) < 1e-6


def test_wavefunction_vanishes_at_grid_ends(pp_half, pp_plus, pp_minus):
    for pp, qn in [
        (pp_half, QuantumNumbers(n=1, l=0, d=3)),
        (pp_plus, QuantumNumbers(n=3, l=2, d=10)),
        (pp_minus, QuantumNumbers(n=2, l=0, d=5)),
    ]:
        sol = solve_energy(pp, MP, qn)
        wf = radial_wavefunction(sol, pp, MP, qn)
        peak = np.max(np.abs(wf.values))
        assert abs(wf.values[0]) < 1e-8 * peak
        assert abs(wf.values[-1]) < 1e-8 * peak


def test_wavefunction_node_count_matches_polynomial_degree(pp_plus):
    for n in (1, 2, 3):
        qn = QuantumNumbers(n=n, l=0, d=3)
        sol = solve_energy(pp_plus, MP, qn)
        wf = radial_wavefunction(sol, pp_plus, MP, qn)
        assert count_nodes(wf) == n


def test_wavefunction_jacobi_parameters(pp_half):
    qn = QuantumNumbers(n=1, l=1, d=3)
    sol = solve_energy(pp_half, MP, qn)
    wf = radial_wavefunction(sol, pp_half, MP, qn)
    assert wf.jacobi_alpha == pytest.approx(sol.epsilon / pp_half.a, rel=1e-12)
    lam = math.sqrt(qn.kappa() ** 2 + 4 * (pp_half.s0**2 - pp_half.v0**2))
    assert wf.jacobi_beta == pytest.approx(lam, rel=1e-12)


def test_wavefunction_grid_validation(pp_half):
    qn = QuantumNumbers(n=1, l=0, d=3)
    sol = solve_energy(pp_half, MP, qn)
    with pytest.raises(DomainError):
        radial_wavefunction(sol, pp_half, MP, qn, np.array([0.0, 1.0, 2.0]))
    with pytest.raises(DomainError):
        radial_wavefunction(sol, pp_half, MP, qn, np.array([1.0, 0.5, 2.0]))
    for points in (1, 0, -5):
        with pytest.raises(DomainError, match="points must be >= 2"):
            default_radial_grid(sol.epsilon, points)
    # a float count raised a bare TypeError from geomspace
    with pytest.raises(DomainError, match="points must be an integer"):
        default_radial_grid(0.1, 2.5)
    # epsilon = inf raised numpy's plain ValueError
    for epsilon in (math.inf, math.nan, 0.0):
        with pytest.raises(DomainError, match="epsilon must be > 0"):
            default_radial_grid(epsilon)
    # a NaN node surfaced as NonFinite from the Jacobi recurrence
    with pytest.raises(DomainError, match="grid must be strictly positive and increasing"):
        radial_wavefunction(sol, pp_half, MP, qn, np.array([0.5, math.nan, 2.0]))
    for energy in (-1.0, 1.0):
        with pytest.raises(DomainError, match="energy must lie in"):
            radial_wavefunction(replace(sol, energy=energy), pp_half, MP, qn)


@pytest.mark.parametrize("a, grid, message", [
    (1e-20, None, "wavefunction vanished or overflowed on the grid"),
    (0.05, np.array([1.0, 1e6]), "normalization integral is 0.0"),
], ids=["vanished", "zero-integral"])
def test_wavefunction_that_cannot_be_normalized(a, grid, message):
    # at a = 1e-20 the Jacobi factor overflows or vanishes on the whole
    # default grid; on [1, 1e6] only the first sample passes the cutoff,
    # so the trapezoid sees one point
    pp, qn = PotentialParams(0.2, 0.1, a), QuantumNumbers(1, 0, 3)
    sol = solve_energy(pp, MP, qn, "decaying")
    with pytest.raises(NormalizationFailure, match=message):
        radial_wavefunction(sol, pp, MP, qn, grid)


def test_energy_window_is_open_and_rejects_nan(pp_half):
    qn = QuantumNumbers(n=1, l=0, d=3)
    sol = solve_energy(pp_half, MP, qn)
    checks = {
        "trial energy": lambda E: map_to_nu(pp_half, MP, qn, E),
        "energy": lambda E: radial_wavefunction(replace(sol, energy=E), pp_half, MP, qn),
        "E": lambda E: effective_ode_coefficient(1.0, E, pp_half, MP, qn, "exact"),
    }
    for name, check in checks.items():
        for energy in (math.nan, -1.0, 1.0, 2.0):
            with pytest.raises(DomainError) as err:
                check(energy)
            assert str(err.value) == f"{name} must lie in (-M, M), got {energy}"
