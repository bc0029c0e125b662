"""Bracketing and bisection helpers shared by the solvers.

Bisection is used throughout because the residuals carry square-root
kinks; inside a bracket it converges unconditionally.  The scan runs
down from the top of its grid and hands each bracket over as it finds
it, with its left-end value, so bisection evaluates f only at midpoints.
"""
from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np

# bisect returns after this many halvings even if the bracket is wider than tol
_MAX_ITER = 200
# a slice of the scan holds _SCAN_CHUNK + 1 points, one shared with the next
_SCAN_CHUNK = 2048


def sign_change_brackets(f: Callable, xs: Sequence[float]) -> Iterator[tuple[float, float, float]]:
    """Intervals (xs[i], xs[i+1], f(xs)[i]) where the vectorised f changes
    sign, an exact zero at xs[i] as (xs[i], xs[i], 0.0); non-finite values
    break runs.  Signs are compared, not multiplied: a product can
    underflow or overflow.

    A generator that runs down from the top of xs: a zero at xs[-1]
    comes first, then the brackets in descending order.  f is called on
    slices xs[start:start + _SCAN_CHUNK + 1] that overlap by one point,
    the last slice first and each one only when the brackets above it
    are used up, and the loop runs on each slice's values as Python
    floats (``tolist``), so no array or list of the whole scan's values is
    ever held; xs is read only where a bracket is found.  A caller that
    wants the highest bracket stops after the first; one that wants the
    lowest runs the whole scan.
    """
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    inf = math.inf
    # a 1-point scan still evaluates its point, for the zero check on xs[-1]
    for start in reversed(range(0, n - (n > 1), _SCAN_CHUNK)):
        chunk = f(xs[start:start + _SCAN_CHUNK + 1]).tolist()
        if start + len(chunk) == n and chunk[-1] == 0.0:
            x = float(xs[-1])
            yield x, x, 0.0
        for i in range(len(chunk) - 2, -1, -1):
            a, b = chunk[i], chunk[i + 1]
            if not (-inf < a < inf and -inf < b < inf):
                continue
            if a == 0.0:
                x = float(xs[start + i])
                yield x, x, 0.0
            elif a < 0.0 < b or b < 0.0 < a:
                yield float(xs[start + i]), float(xs[start + i + 1]), a


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
