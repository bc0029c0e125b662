"""Schrodinger and Coulomb limits, and the relativistic correspondence."""
import math

import numpy as np
import pytest

from kgyukawa import (
    DomainError,
    NonRelParams,
    NoRootInBracket,
    ParticleParams,
    PotentialParams,
    QuantumNumbers,
    coulomb_energy,
    effective_level,
    nonrel_energy,
    nonrel_limit_of_relativistic,
    solve_energy,
)

MP = ParticleParams(mass=1.0)
GROUND = QuantumNumbers(n=1, l=0, d=3)


@pytest.mark.parametrize("mu, v0, a", [
    (0.0, 0.2, 0.05), (math.inf, 0.2, 0.05), (math.nan, 0.2, 0.05),
    (1.0, 0.2, -0.1), (1.0, 0.2, math.inf), (1.0, 0.2, math.nan),
    # a non-finite v0 made nonrel_energy return nan or -inf
    (1.0, math.nan, 0.05), (1.0, math.inf, 0.05), (1.0, -math.inf, 0.05),
])
def test_nonrel_params_validation(mu, v0, a):
    with pytest.raises(DomainError):
        NonRelParams(mu=mu, v0=v0, a=a)


def test_critical_screening_zeroes_energy():
    p = NonRelParams(mu=1.0, v0=0.2, a=0.2 / 4.0)  # a = mu*v0/nu^2 with nu = 2
    assert nonrel_energy(p, GROUND) == pytest.approx(0.0, abs=1e-15)


def test_zero_screening_value():
    p = NonRelParams(mu=1.0, v0=0.2, a=0.0)
    assert nonrel_energy(p, GROUND) == pytest.approx(-0.005, rel=1e-14)


def test_weak_screening_value():
    p = NonRelParams(mu=1.0, v0=0.2, a=0.005)
    assert nonrel_energy(p, GROUND) == pytest.approx(-0.00405, rel=1e-12)


def test_coulomb_value():
    p = NonRelParams(mu=1.0, v0=0.2, a=0.0)
    assert coulomb_energy(p, GROUND) == pytest.approx(-0.005, rel=1e-14)


def test_coulomb_equals_unscreened_limit_random_draws():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = NonRelParams(
            mu=float(rng.uniform(0.1, 5.0)), v0=float(rng.uniform(0.01, 1.0)), a=0.0
        )
        qn = QuantumNumbers(
            n=int(rng.integers(1, 5)), l=int(rng.integers(0, 4)), d=int(rng.integers(2, 9))
        )
        assert coulomb_energy(p, qn) == pytest.approx(nonrel_energy(p, qn), rel=1e-14)


def test_level_degeneracy_under_dimension_shift():
    p = NonRelParams(mu=1.0, v0=0.3, a=0.01)
    a_state = QuantumNumbers(n=2, l=1, d=5)
    b_state = QuantumNumbers(n=2, l=2, d=3)
    assert effective_level(a_state) == effective_level(b_state)
    assert nonrel_energy(p, a_state) == nonrel_energy(p, b_state)
    assert coulomb_energy(p, a_state) == coulomb_energy(p, b_state)
    c_state = QuantumNumbers(n=2, l=0, d=7)
    assert nonrel_energy(p, c_state) == nonrel_energy(p, a_state)


def test_bound_state_existence_threshold():
    # E < 0 exactly when a < mu*v0/nu^2
    mu, v0 = 1.0, 0.2
    nu = effective_level(GROUND)
    a_crit = mu * v0 / nu**2
    assert nonrel_energy(NonRelParams(mu, v0, 0.9 * a_crit), GROUND) < 0.0
    assert nonrel_energy(NonRelParams(mu, v0, a_crit), GROUND) == pytest.approx(0.0, abs=1e-18)
    # above critical screening the formula's bracket flips sign: no bound level
    assert nonrel_energy(NonRelParams(mu, v0, 1.1 * a_crit), GROUND) < 0.0  # formula stays negative
    rel = PotentialParams(v0=v0 / 2, s0=v0 / 2, a=1.1 * a_crit)
    with pytest.raises(NoRootInBracket):
        solve_energy(rel, MP, GROUND, branch="decaying")


def test_relativistic_limit_gap_is_small():
    pp = PotentialParams(v0=0.02, s0=0.02, a=0.002)
    report = nonrel_limit_of_relativistic(pp, MP, GROUND, [0.002])
    row = report.rows[0]
    assert row.gap < 1e-4
    # relativistic energy sits just below +M
    assert 0.99 < row.e_relativistic < 1.0


def test_relativistic_limit_gap_shrinks_with_coupling():
    gaps = []
    for v0 in (0.02, 0.01):
        pp = PotentialParams(v0=v0, s0=v0, a=0.001)
        report = nonrel_limit_of_relativistic(pp, MP, GROUND, [0.001])
        gaps.append(report.rows[0].gap)
    assert gaps[1] < gaps[0] / 2.0


def test_zero_potential_has_no_bound_state():
    pp = PotentialParams(v0=0.0, s0=0.0, a=0.002)
    with pytest.raises(NoRootInBracket):
        nonrel_limit_of_relativistic(pp, MP, GROUND, [0.002])


def test_report_covers_sequence():
    pp = PotentialParams(v0=0.02, s0=0.02, a=0.002)
    report = nonrel_limit_of_relativistic(pp, MP, GROUND, [0.002, 0.001])
    assert [row.a for row in report.rows] == [0.002, 0.001]
