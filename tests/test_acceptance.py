"""Acceptance suite.

One test per criterion, each printing a single CRITERION line.  Run with
``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the lines for
passing criteria too).
"""
import math
import time

import numpy as np
import pytest

from kgyukawa import (
    ComplexChannel,
    DomainError,
    KgYukawaError,
    NegativeDiscriminant,
    NoRootInBracket,
    NuProblem,
    ParticleParams,
    PotentialParams,
    QuantumNumbers,
    RadialGrid,
    approx_yukawa,
    centrifugal_approx,
    default_oracle_grid,
    derive_coefficients,
    eigenvalue_k,
    energy_equation_residual,
    jacobi_eval,
    map_to_nu,
    nonrel_energy,
    nonrel_limit_of_relativistic,
    coulomb_energy,
    NonRelParams,
    oracle_energy,
    solve_energy,
    yukawa,
)
from conftest import ALL_TABLES, CRITERION_LINES, table_entries

MP = ParticleParams(mass=1.0)
PARAM_SETS = {key: PotentialParams(v0=key[0], s0=key[1], a=0.05) for key in ALL_TABLES}

_ENERGY_CACHE: dict = {}


def solved(key, d, n, l) -> float:
    tag = (key, d, n, l)
    if tag not in _ENERGY_CACHE:
        _ENERGY_CACHE[tag] = solve_energy(
            PARAM_SETS[key], MP, QuantumNumbers(n=n, l=l, d=d)
        ).energy
    return _ENERGY_CACHE[tag]


def report(num: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"CRITERION {num}: {status} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    CRITERION_LINES.append(line)


def test_criterion_1_table_reproduction():
    _ENERGY_CACHE.clear()
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for key, table in ALL_TABLES.items():
        for d, n, l, reference in table_entries(table):
            worst = max(worst, abs(solved(key, d, n, l) - reference))
            count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed < 10.0 and count == 144
    report(1, "reproduce all 144 reference energies to 1e-7 in under 10 s",
           ok, f"worst |dE| = {worst:.2e}, {elapsed:.2f} s")
    assert count == 144
    assert worst <= 1e-7
    assert elapsed < 10.0
    # spot anchors
    assert solved((0.2, 0.1), 3, 1, 0) == pytest.approx(-0.98885705, abs=1e-7)
    assert solved((0.2, 0.2), 10, 3, 2) == pytest.approx(-0.88132977, abs=1e-7)
    assert solved((0.2, -0.2), 4, 1, 0) == pytest.approx(-0.95948526, abs=1e-7)


def test_criterion_2_interdimensional_degeneracy():
    printed_nl = {(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)}
    worst = 0.0
    pairs = 0
    for key, table in ALL_TABLES.items():
        for d, n, l, _ in table_entries(table):
            partner = (n, l + 1)
            if partner not in printed_nl or d - 2 < 3:
                continue
            delta = abs(solved(key, d, n, l) - solved(key, d - 2, n, l + 1))
            worst = max(worst, delta)
            pairs += 1
    ok = worst <= 1e-10 and pairs > 0
    report(2, "partner states (n, l+1, D-2) agree to 1e-10",
           ok, f"{pairs} pairs, worst |dE| = {worst:.2e}")
    assert pairs == 54
    assert worst <= 1e-10


def test_criterion_3_accidental_degeneracy():
    worst = 0.0
    for key in ((0.2, 0.2), (0.2, -0.2)):
        for d in range(3, 11):
            delta = abs(solved(key, d, 2, 1) - solved(key, d, 3, 0))
            worst = max(worst, delta)
    split = abs(solved((0.2, 0.1), 3, 2, 1) - solved((0.2, 0.1), 3, 3, 0))
    split_ok = abs(split - 2.08e-4) <= 1e-6
    ok = worst <= 1e-10 and split_ok
    report(3, "degenerate at beta = +-1, split by 2.08e-4 at beta = 0.5",
           ok, f"worst |dE| = {worst:.2e}, split = {split:.6e}")
    assert worst <= 1e-10
    assert split_ok


def test_criterion_4_oracle_cross_validation():
    # 18 cells: three parameter sets x D in 3..5 x (n,l) in {(1,0),(2,1)},
    # eigensolver at 16000/32000 points Richardson-extrapolated, compared
    # against the quantization-equation energy in a +-5e-3 bracket.
    start = time.perf_counter()
    outcomes = []
    for key, pp in PARAM_SETS.items():
        for d in (3, 4, 5):
            for n, l in ((1, 0), (2, 1)):
                qn = QuantumNumbers(n=n, l=l, d=d)
                e_solver = solved(key, d, n, l)
                eps = math.sqrt(MP.mass**2 - e_solver**2)
                grid = default_oracle_grid(eps, points=16000)
                try:
                    res = oracle_energy(
                        pp, MP, qn, grid, "approximated",
                        bracket=(e_solver - 5e-3, e_solver + 5e-3), scan_points=11,
                    )
                    delta = abs(res.richardson_estimate - e_solver)
                    outcomes.append((key, d, n, l, delta, "validated"))
                except NoRootInBracket:
                    outcomes.append((key, d, n, l, None, "no_root_in_bracket"))
    elapsed = time.perf_counter() - start
    validated = [o for o in outcomes if o[5] == "validated" and o[4] <= 5e-5]
    ok = len(validated) == 18 and elapsed < 120.0
    report(4, "eigensolver confirms the 18 (D=3..5, l<=1) energies to 5e-5",
           ok, f"{len(validated)}/18 validated, {elapsed:.1f} s")
    if not ok:
        print("    labeled discrepancies (eigensolver has no root near the table energy):")
        for key, d, n, l, delta, status in outcomes:
            if status != "validated" or delta > 5e-5:
                print(f"      (v0,s0)={key} (n,l,D)=({n},{l},{d}): {status}")
    assert elapsed < 120.0
    assert len(validated) == 18, (
        "the published-table quantization branch is not eigenfunction-backed: "
        "the independent eigensolver finds no bound state at those energies "
        f"({len(validated)}/18 validated); see 'Validation status' in README.md"
    )


def test_criterion_5_approximation_quality():
    v0 = math.sqrt(2.0)
    a = 0.05 * v0
    r = np.linspace(1e-6, 0.1 / a, 10000)
    rel = np.abs(approx_yukawa(r, v0, a) / yukawa(r, v0, a) - 1.0)
    sweep_ok = float(rel.max()) < 0.05

    # exact-mode vs approximated-mode eigensolver gap at a = 0.05 on a
    # genuine decaying-branch state: recorded, not asserted
    pp = PotentialParams(v0=0.2, s0=0.2, a=0.05)
    qn = QuantumNumbers(n=1, l=0, d=3)
    ref = solve_energy(pp, MP, qn, branch="decaying").energy
    grid = RadialGrid(r_min=1e-4, r_max=400.0, points=8000)
    bracket = (ref - 5e-3, ref + 5e-3)
    e_app = oracle_energy(pp, MP, qn, grid, "approximated",
                          eigen_index=1, bracket=bracket, scan_points=11).energy
    e_ex = oracle_energy(pp, MP, qn, grid, "exact",
                         eigen_index=1, bracket=bracket, scan_points=11).energy
    gap = abs(e_app - e_ex)
    report(5, "approximant within 5% for a*r <= 0.1; mode gap recorded",
           sweep_ok, f"max rel err = {rel.max():.2%}, exact-vs-approx gap = {gap:.2e}")
    assert sweep_ok
    assert math.isfinite(gap)


def test_criterion_6_limit_identities():
    rng = np.random.default_rng(23)
    identity_ok = True
    for _ in range(50):
        p = NonRelParams(mu=float(rng.uniform(0.1, 5.0)),
                         v0=float(rng.uniform(0.01, 1.0)), a=0.0)
        qn = QuantumNumbers(n=int(rng.integers(1, 5)), l=int(rng.integers(0, 4)),
                            d=int(rng.integers(2, 9)))
        e_screened = nonrel_energy(p, qn)
        e_coulomb = coulomb_energy(p, qn)
        if abs(e_screened - e_coulomb) > 1e-14 * abs(e_coulomb):
            identity_ok = False

    qn = QuantumNumbers(n=1, l=0, d=3)
    gaps = []
    for v0 in (0.02, 0.01, 0.005):
        pp = PotentialParams(v0=v0, s0=v0, a=1e-4)
        rep = nonrel_limit_of_relativistic(pp, MP, qn, [1e-4])
        gaps.append(rep.rows[0].gap)
    shrink_ok = gaps[0] > gaps[1] > gaps[2]
    ok = identity_ok and shrink_ok
    report(6, "zero-screening identity exact; relativistic gap shrinks with coupling",
           ok, "gaps = " + ", ".join(f"{g:.2e}" for g in gaps))
    assert identity_ok
    assert shrink_ok


def test_criterion_7_numerics_hygiene():
    # recurrence vs hypergeometric series
    def binom_real(a, k):
        out = 1.0
        for j in range(k):
            out *= (a - j) / (k - j)
        return out

    def jacobi_series(n, alpha, beta, x):
        return sum(
            binom_real(n + alpha, n - s) * binom_real(n + beta, s)
            * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (n - s)
            for s in range(n + 1)
        )

    series_ok = True
    for n in range(11):
        for alpha, beta in ((0.0, 0.0), (2.5, 1.5), (-0.5, 3.0), (0.3, -0.7)):
            for x in np.linspace(-0.95, 0.95, 9):
                rec = jacobi_eval(n, alpha, beta, float(x))
                ser = jacobi_series(n, alpha, beta, float(x))
                if abs(rec - ser) > 1e-12 * max(1.0, abs(ser)):
                    series_ok = False

    # residual at returned roots
    residual_ok = True
    for key, pp in PARAM_SETS.items():
        for n, l in ((1, 0), (2, 1), (3, 2)):
            sol = solve_energy(pp, MP, QuantumNumbers(n=n, l=l, d=3))
            if abs(sol.residual) > 1e-10:
                residual_ok = False

    # invalid domains raise typed errors, never return NaN
    pp = PARAM_SETS[(0.2, 0.1)]
    probes = [
        (lambda: yukawa(-1.0, 0.2, 0.05), DomainError),
        (lambda: centrifugal_approx(0.0, 0.05), DomainError),
        (lambda: energy_equation_residual(1.5, pp, MP, QuantumNumbers(1, 0, 3)), DomainError),
        (lambda: map_to_nu(pp, MP, QuantumNumbers(1, 0, 3), -1.0), DomainError),
        (lambda: derive_coefficients(NuProblem(1, 1, 1, -1.0, 0, 0)), NegativeDiscriminant),
        (lambda: solve_energy(PotentialParams(5.0, 0.0, 0.05), MP, QuantumNumbers(1, 0, 3)),
         ComplexChannel),
        (lambda: jacobi_eval(-2, 0.0, 0.0, 0.0), DomainError),
        (lambda: eigenvalue_k(0.0, pp, MP, QuantumNumbers(1, 0, 3),
                              RadialGrid(1e-4, 400.0, 200), "sideways", 0), DomainError),
    ]
    guards_ok = True
    for probe, expected in probes:
        try:
            value = probe()
        except expected:
            continue
        except KgYukawaError:
            guards_ok = False
        else:
            guards_ok = False
            if isinstance(value, float) and math.isnan(value):
                guards_ok = False

    # particle-in-a-box convergence order
    free = PotentialParams(v0=0.0, s0=0.0, a=0.05)
    box_qn = QuantumNumbers(n=1, l=0, d=3)
    errors = []
    for points in (400, 800, 1600):
        grid = RadialGrid(r_min=1e-9, r_max=1.0, points=points)
        got = eigenvalue_k(0.0, free, MP, box_qn, grid, "exact", 0)
        errors.append(abs(got - math.pi**2))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    order_ok = all(abs(o - 2.0) <= 0.2 for o in orders)

    ok = series_ok and residual_ok and guards_ok and order_ok
    report(7, "polynomial oracle, root residuals, typed guards, O(h^2) convergence",
           ok, f"orders = {orders[0]:.2f}, {orders[1]:.2f}")
    assert series_ok
    assert residual_ok
    assert guards_ok
    assert order_ok
