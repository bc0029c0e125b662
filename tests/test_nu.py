"""Canonical-form engine: coefficient identities, quantization residual
and the shortcut's wavefunction exponents against their closed forms."""
import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgyukawa import (
    DomainError,
    NegativeDiscriminant,
    NuProblem,
    ParticleParams,
    PotentialParams,
    QuantumNumbers,
    derive_coefficients,
    energy_relation_residual,
    map_to_nu,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
nonneg = st.floats(min_value=0, max_value=50, allow_nan=False, allow_infinity=False)


def residual_reference(problem, n):
    """Independent retyping of the quantization relation, term by term."""
    c4 = (1 - problem.c1) / 2
    c5 = (problem.c2 - 2 * problem.c3) / 2
    c6 = c5**2 + problem.p2
    c7 = 2 * c4 * c5 - problem.p1
    c8 = c4**2 + problem.p0
    c9 = problem.c3 * (c7 + problem.c3 * c8) + c6
    term1 = problem.c2 * n
    term2 = -(2 * n + 1) * c5
    term3 = (2 * n + 1) * (math.sqrt(c9) - problem.c3 * math.sqrt(c8))
    term4 = n * (n - 1) * problem.c3
    term5 = c7
    term6 = 2 * problem.c3 * c8
    term7 = -2 * math.sqrt(c8 * c9)
    return term1 + term2 + term3 + term4 + term5 + term6 + term7


def test_all_zero_p_values():
    coeffs = derive_coefficients(NuProblem(1, 1, 1, 0, 0, 0))
    assert coeffs.c4 == 0.0
    assert coeffs.c5 == -0.5
    assert coeffs.c6 == 0.25
    assert coeffs.c7 == 0.0
    assert coeffs.c8 == 0.0
    assert coeffs.c9 == 0.25


def test_screened_coulomb_mapping_constants():
    # v0=0.2, s0=0.1, a=0.05, M=1, d=3, l=0 at its converged energy
    E = -0.98885705
    eps2 = 1 - E * E
    a = 0.05
    p0 = eps2 / (4 * a * a)
    q = (1 * 0.1 + E * 0.2) / a
    p1 = 2 * p0 + q - 0.0
    p2 = p0 - (0.2**2 - 0.1**2) + q
    coeffs = derive_coefficients(NuProblem(1, 1, 1, p0, p1, p2))
    assert coeffs.c4 == 0.0
    assert coeffs.c5 == -0.5
    assert coeffs.c8 == pytest.approx(eps2 / (4 * a * a), rel=1e-15)


def test_positive_p0_gives_negative_raw_c12():
    coeffs = derive_coefficients(NuProblem(1, 1, 1, 1, 0, 0))
    assert coeffs.c8 == 1.0
    assert coeffs.c12 == -1.0
    # the growing-solution exponent; its decaying partner is positive
    assert 2 * coeffs.c4 - coeffs.c12 == 1.0


@given(
    c1=finite, c2=finite, c3=finite,
    p0=nonneg, p1=finite, p2=finite,
)
@settings(max_examples=200, deadline=None)
def test_identities_hold_exactly(c1, c2, c3, p0, p1, p2):
    problem = NuProblem(c1, c2, c3, p0, p1, p2)
    c4 = (1 - c1) / 2
    c5 = (c2 - 2 * c3) / 2
    try:
        coeffs = derive_coefficients(problem)
    except NegativeDiscriminant:
        assert c4 * c4 + p0 < 0 or c3 * ((2 * c4 * c5 - p1) + c3 * (c4**2 + p0)) + c5**2 + p2 < 0
        return
    assert coeffs.c4 == c4
    assert coeffs.c5 == c5
    assert coeffs.c6 == c5 * c5 + p2
    assert coeffs.c7 == 2 * c4 * c5 - p1
    assert coeffs.c8 == c4 * c4 + p0
    assert coeffs.c9 == c3 * (coeffs.c7 + c3 * coeffs.c8) + coeffs.c6


def test_negative_discriminant_raised():
    with pytest.raises(NegativeDiscriminant):
        derive_coefficients(NuProblem(1, 1, 1, -1.0, 0, 0))  # c8 < 0
    with pytest.raises(NegativeDiscriminant):
        derive_coefficients(NuProblem(1, 1, 1, 0.0, 10.0, 0.0))  # c9 < 0


def test_residual_rejects_a_negative_discriminant():
    # coefficients made by hand, not by derive_coefficients, can carry c8 < 0
    problem = NuProblem(1, 1, 1, 0.0, 0.0, 0.0)
    coeffs = replace(derive_coefficients(problem), c8=-1.0)
    with pytest.raises(NegativeDiscriminant, match="c8 and c9 must be nonnegative"):
        energy_relation_residual(problem, coeffs, 1)


def test_nonfinite_problem_rejected():
    with pytest.raises(DomainError):
        NuProblem(math.inf, 1, 1, 0, 0, 0)
    with pytest.raises(DomainError):
        NuProblem(1, 1, 1, math.nan, 0, 0)


def test_residual_trivial_case():
    problem = NuProblem(1, 1, 1, 0, 0, 0)
    coeffs = derive_coefficients(problem)
    assert energy_relation_residual(problem, coeffs, 0) == pytest.approx(1.0, abs=1e-15)


def test_residual_vanishes_at_converged_energy():
    # beta = 1 parameter set, d=3, n=1, l=0 at its converged energy
    E = -0.99503719
    eps2 = 1 - E * E
    a = 0.05
    p0 = eps2 / (4 * a * a)
    q = (0.2 + E * 0.2) / a
    problem = NuProblem(1, 1, 1, p0, 2 * p0 + q, p0 - 0.0 + q)
    coeffs = derive_coefficients(problem)
    assert abs(energy_relation_residual(problem, coeffs, 1)) < 1e-6


@given(
    c1=st.floats(min_value=-3, max_value=3, allow_nan=False),
    c2=st.floats(min_value=-3, max_value=3, allow_nan=False),
    c3=st.floats(min_value=-3, max_value=3, allow_nan=False),
    p0=st.floats(min_value=0, max_value=10, allow_nan=False),
    p1=st.floats(min_value=-10, max_value=10, allow_nan=False),
    p2=st.floats(min_value=-10, max_value=10, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_residual_matches_independent_rederivation(c1, c2, c3, p0, p1, p2):
    problem = NuProblem(c1, c2, c3, p0, p1, p2)
    try:
        coeffs = derive_coefficients(problem)
    except NegativeDiscriminant:
        return
    for n in range(6):
        got = energy_relation_residual(problem, coeffs, n)
        want = residual_reference(problem, n)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_residual_rejects_negative_n():
    problem = NuProblem(1, 1, 1, 0, 0, 0)
    coeffs = derive_coefficients(problem)
    with pytest.raises(DomainError):
        energy_relation_residual(problem, coeffs, -1)
    # 2.0 was accepted, where QuantumNumbers(n=2.0) is not
    for n in (2.0, 0.5):
        with pytest.raises(DomainError, match="n must be an integer"):
            energy_relation_residual(problem, coeffs, n)


def test_exponents_for_equal_mixture():
    # s0 = v0: the quadratic channel term vanishes, so the second Jacobi
    # parameter is the integer d + 2l - 2 and the first is eps/a.
    E = -0.99503719
    eps = math.sqrt(1 - E * E)
    a = 0.05
    p0 = eps * eps / (4 * a * a)
    q = (0.2 + E * 0.2) / a
    coeffs = derive_coefficients(NuProblem(1, 1, 1, p0, 2 * p0 + q, p0 + q))
    assert coeffs.c10 == pytest.approx(eps / a, rel=1e-12)
    assert coeffs.c11 == pytest.approx(1.0, rel=1e-10)  # d + 2l - 2 for (l, d) = (0, 3)
    assert coeffs.c12 < 0.0
    assert 2 * coeffs.c4 - coeffs.c12 == pytest.approx(eps / (2 * a), rel=1e-12)


@given(
    v0=st.floats(-1.0, 1.0),
    s0=st.floats(-1.0, 1.0),
    a=st.floats(0.01, 1.0),
    energy=st.floats(-0.999, 0.999),
    n=st.integers(1, 4),
    l=st.integers(0, 3),
    d=st.integers(2, 10),
)
@settings(max_examples=200, deadline=None)
def test_shortcut_exponents_are_the_closed_forms(v0, s0, a, energy, n, l, d):
    # the shortcut on the Yukawa mapping gives Jacobi parameters
    # (c10, c11) = (eps/a, Lambda) and exponents (2c4 - c12, c13) =
    # (eps/2a, (1 + Lambda)/2), the forms radial_wavefunction uses
    chan = (d + 2 * l - 2) ** 2 + 4 * (s0 * s0 - v0 * v0)
    assume(chan >= 0.01)
    lam = math.sqrt(chan)
    eps = math.sqrt(1.0 - energy * energy)
    pp = PotentialParams(v0=v0, s0=s0, a=a)
    qn = QuantumNumbers(n=n, l=l, d=d)
    coeffs = derive_coefficients(map_to_nu(pp, ParticleParams(mass=1.0), qn, energy))
    assert coeffs.c10 == pytest.approx(eps / a, rel=1e-9)
    assert coeffs.c11 == pytest.approx(lam, rel=1e-9)
    assert 2 * coeffs.c4 - coeffs.c12 == pytest.approx(eps / (2 * a), rel=1e-9)
    assert coeffs.c13 == pytest.approx((1 + lam) / 2, rel=1e-9)


def test_zero_c3_marks_undefined_entries():
    coeffs = derive_coefficients(NuProblem(1, 1, 0, 0.25, 0, 0))
    assert math.isnan(coeffs.c11)
    assert math.isnan(coeffs.c13)
