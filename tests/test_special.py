"""Jacobi recurrence against an independent series evaluation."""
import numpy as np
import pytest

from kgyukawa import DomainError, NonFinite, jacobi_eval


def binom_real(a: float, k: int) -> float:
    out = 1.0
    for j in range(k):
        out *= (a - j) / (k - j)
    return out


def jacobi_series(n: int, alpha: float, beta: float, x: float) -> float:
    """Hypergeometric-sum form, the independent oracle for the recurrence."""
    total = 0.0
    for s in range(n + 1):
        total += (
            binom_real(n + alpha, n - s)
            * binom_real(n + beta, s)
            * ((x - 1) / 2) ** s
            * ((x + 1) / 2) ** (n - s)
        )
    return total


def test_degree_zero_is_one():
    assert jacobi_eval(0, 3.7, -0.2, 0.55) == 1.0


def test_degree_one_closed_form():
    alpha, beta, x = 1.3, 0.4, -0.25
    expected = (alpha + 1) + (alpha + beta + 2) * (x - 1) / 2
    assert jacobi_eval(1, alpha, beta, x) == pytest.approx(expected, rel=1e-15)


def test_known_value_against_series():
    # frozen from the hypergeometric sum: P_5^(2.5,1.5)(0.3)
    got = jacobi_eval(5, 2.5, 1.5, 0.3)
    assert got == pytest.approx(0.355355, abs=1e-6)
    assert got == pytest.approx(jacobi_series(5, 2.5, 1.5, 0.3), rel=1e-12)


def test_recurrence_matches_series_sweep():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(0, 11))
        alpha = float(rng.uniform(-0.9, 4.0))
        beta = float(rng.uniform(-0.9, 4.0))
        x = float(rng.uniform(-1.0, 1.0))
        rec = jacobi_eval(n, alpha, beta, x)
        ser = jacobi_series(n, alpha, beta, x)
        assert abs(rec - ser) <= 1e-12 * max(1.0, abs(ser))


def test_vectorized_argument():
    x = np.linspace(-1, 1, 7)
    vals = jacobi_eval(3, 0.5, 0.5, x)
    assert vals.shape == x.shape
    for xi, vi in zip(x, vals):
        assert vi == pytest.approx(jacobi_eval(3, 0.5, 0.5, float(xi)), rel=1e-14)


def test_degree_guards():
    with pytest.raises(DomainError):
        jacobi_eval(-1, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        jacobi_eval(201, 0.0, 0.0, 0.0)
    # an integral float raised a bare TypeError from range()
    for n in (2.0, 1.5, None):
        with pytest.raises(DomainError, match="polynomial degree must be an integer"):
            jacobi_eval(n, 0.0, 0.0, 0.0)
    assert jacobi_eval(np.int64(1), 1.3, 0.4, -0.25) == jacobi_eval(1, 1.3, 0.4, -0.25)


def test_overflow_reports_nonfinite():
    with pytest.raises(NonFinite):
        jacobi_eval(200, 0.0, 0.0, 1e8)
