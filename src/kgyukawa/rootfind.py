"""Bracketing and bisection helpers shared by the solvers.

Bisection is used throughout because the residuals carry square-root
kinks; inside a bracket it converges unconditionally.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# bisect returns after this many halvings even if the bracket is wider than tol
_MAX_ITER = 200


def sign_change_brackets(xs: Sequence[float], fs: Sequence[float]) -> list[tuple[float, float]]:
    """Intervals (xs[i], xs[i+1]) where fs changes sign (non-finite values break runs)."""
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    out = []
    for i in range(len(xs) - 1):
        a, b = fs[i], fs[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)):
            continue
        if a == 0.0:
            out.append((xs[i], xs[i]))
        elif a * b < 0.0:
            out.append((xs[i], xs[i + 1]))
    if len(fs) and np.isfinite(fs[-1]) and fs[-1] == 0.0:
        out.append((xs[-1], xs[-1]))
    return out


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
) -> tuple[float, int]:
    """Root of f in [lo, hi] by bisection; f(lo), f(hi) must differ in sign.

    Returns (root, iterations).  Degenerate brackets (lo == hi, an exact
    grid hit) return immediately.
    """
    if lo == hi:
        return lo, 0
    flo = f(lo)
    if flo == 0.0:
        return lo, 0
    fhi = f(hi)
    if fhi == 0.0:
        return hi, 0
    if flo * fhi > 0.0:
        raise ValueError(f"root not bracketed on [{lo}, {hi}]")
    it = 0
    while hi - lo > tol and it < _MAX_ITER:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval at floating-point resolution
        fm = f(mid)
        it += 1
        if fm == 0.0:
            return mid, it
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi), it
