"""Jacobi polynomials via the three-term recurrence."""
from __future__ import annotations

import numpy as np

from .errors import DomainError, NonFinite, _integer

MAX_DEGREE = 200


def jacobi_eval(n: int, alpha: float, beta: float, x):
    """Evaluate the Jacobi polynomial P_n^(alpha,beta)(x).

    Uses the standard three-term recurrence, exact for n = 0, 1.  Accepts
    a scalar or ndarray argument ``x``; degrees above 200 are rejected
    because the recurrence is not guarded against overflow beyond that.
    """
    n = _integer(n, "polynomial degree", 0)
    if n > MAX_DEGREE:
        raise DomainError(f"degree {n} exceeds supported maximum {MAX_DEGREE}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0

    p_prev = np.ones_like(x)
    if n == 0:
        out = p_prev
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            p = (alpha + 1) + (alpha + beta + 2) * (x - 1) / 2
            for k in range(2, n + 1):
                s = 2 * k + alpha + beta
                a1 = 2 * k * (k + alpha + beta) * (s - 2)
                a2 = (s - 1) * (alpha * alpha - beta * beta)
                a3 = (s - 2) * (s - 1) * s
                a4 = 2 * (k + alpha - 1) * (k + beta - 1) * s
                p_prev, p = p, ((a2 + a3 * x) * p - a4 * p_prev) / a1
        out = p
    if not np.all(np.isfinite(out)):
        raise NonFinite(f"Jacobi recurrence overflowed at n={n}, alpha={alpha}, beta={beta}")
    return float(out) if scalar else out
