"""Reference sign-change scan: the element-by-element loop that
``kgyukawa.rootfind.sign_change_brackets`` replaced, on Python floats.

Slow (about 0.2 us per point) but simple; the tests compare the chunked
scan and the solver with it, and the oracle tests build their full scan
with it.
"""
import math

import numpy as np


def reference_brackets(xs, fs):
    """Intervals (xs[i], xs[i+1], fs[i]) where fs changes sign, an exact
    zero at xs[i] as (xs[i], xs[i], 0.0); non-finite values break runs."""
    xs = np.asarray(xs, dtype=float).tolist()
    fs = np.asarray(fs, dtype=float).tolist()
    out = []
    for i in range(len(xs) - 1):
        a, b = fs[i], fs[i + 1]
        if not (math.isfinite(a) and math.isfinite(b)):
            continue
        if a == 0.0:
            out.append((xs[i], xs[i], 0.0))
        elif a < 0.0 < b or b < 0.0 < a:
            out.append((xs[i], xs[i + 1], a))
    if len(fs) and math.isfinite(fs[-1]) and fs[-1] == 0.0:
        out.append((xs[-1], xs[-1], 0.0))
    return out
