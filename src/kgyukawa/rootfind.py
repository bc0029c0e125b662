"""Bracketing and bisection helpers shared by the solvers.

Bisection is used throughout because the residuals carry square-root
kinks; inside a bracket it converges unconditionally.  The scan hands
each bracket over with its left-end value, so bisection evaluates f only
at midpoints.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

# bisect returns after this many halvings even if the bracket is wider than tol
_MAX_ITER = 200
# values of fs the scan converts to Python floats at once
_SCAN_CHUNK = 2048


def sign_change_brackets(xs: Sequence[float], fs: Sequence[float]) -> list[tuple[float, float, float]]:
    """Intervals (xs[i], xs[i+1], fs[i]) where fs changes sign, an exact zero
    at xs[i] as (xs[i], xs[i], 0.0); non-finite values break runs.  Signs
    are compared, not multiplied: a product can underflow or overflow.
    Raises :class:`DomainError` when xs and fs differ in length.

    The loop runs on Python floats: fs is converted (``tolist``) in slices
    of _SCAN_CHUNK + 1 values that overlap by one point, so no list of the
    whole scan is ever held; xs is read only where a bracket is found.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if len(xs) != len(fs):
        raise DomainError(f"xs and fs differ in length: {len(xs)} != {len(fs)}")
    inf = math.inf
    out = []
    for start in range(0, len(fs) - 1, _SCAN_CHUNK):
        chunk = fs[start:start + _SCAN_CHUNK + 1].tolist()
        for i in range(len(chunk) - 1):
            a, b = chunk[i], chunk[i + 1]
            if not (-inf < a < inf and -inf < b < inf):
                continue
            if a == 0.0:
                x = float(xs[start + i])
                out.append((x, x, 0.0))
            elif a < 0.0 < b or b < 0.0 < a:
                out.append((float(xs[start + i]), float(xs[start + i + 1]), a))
    if len(fs) and fs[-1] == 0.0:
        x = float(xs[-1])
        out.append((x, x, 0.0))
    return out


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float,
    tol: float,
) -> tuple[float, int]:
    """Root of f in [lo, hi] by bisection, given f_lo = f(lo) and f(hi) of
    the opposite sign; f is evaluated only at midpoints.  Returns (root,
    iterations); a degenerate bracket (lo == hi, an exact grid hit)
    returns at once."""
    if lo == hi:
        return lo, 0
    it = 0
    while hi - lo > tol and it < _MAX_ITER:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval at floating-point resolution
        fm = f(mid)
        it += 1
        if fm == 0.0:
            return mid, it
        if (fm > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi), it
