"""Sign-change scan and bisection: the bracket hand-off between them."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgyukawa.rootfind import _SCAN_CHUNK, bisect, sign_change_brackets
from reference_scan import reference_brackets

# values that break, end or start a run of one sign
_SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 5e-324, -5e-324, 1e300, -1e300)
_LENGTHS = (0, 1, 2, _SCAN_CHUNK, _SCAN_CHUNK + 1, 20000)


def lookup(xs, fs):
    """The vectorised f with f(xs) == fs; xs is strictly increasing."""
    xs, fs = np.asarray(xs, dtype=float), np.asarray(fs, dtype=float)
    return lambda part: fs[np.searchsorted(xs, part)]


def brackets_of(xs, fs):
    """Every bracket sign_change_brackets yields over xs for f(xs) == fs."""
    return list(sign_change_brackets(lookup(xs, fs), xs))


def test_scan_brackets_carry_their_left_end_value():
    xs = [0.0, 1.0, 2.0, 3.0, 4.0]
    fs = [3.0, -1.0, -2.0, 5.0, 4.0]
    # from the top of xs down
    assert brackets_of(xs, fs) == [(2.0, 3.0, fs[2]), (0.0, 1.0, fs[0])]


@pytest.mark.parametrize("xs, fs, want", [
    ([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, -1.0, -2.0], [(1.0, 1.0, 0.0)]),
    ([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 0.0], [(3.0, 3.0, 0.0)]),
    ([2.0], [0.0], [(2.0, 2.0, 0.0)]),
], ids=["inside", "last-point", "only-point"])
def test_exact_zero_gives_degenerate_bracket(xs, fs, want):
    assert brackets_of(xs, fs) == want


def test_non_finite_value_breaks_a_run():
    xs = [0.0, 1.0, 2.0, 3.0]
    assert brackets_of(xs, [1.0, math.nan, -1.0, -2.0]) == []
    assert brackets_of(xs, [1.0, math.inf, -1.0, 1.0]) == [(2.0, 3.0, -1.0)]


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_sign_change_found_where_the_product_under_or_overflows(scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        brackets = brackets_of([0.0, 1.0, 2.0], [-scale, scale, 2.0 * scale])
    assert brackets == [(0.0, 1.0, -scale)]


@pytest.mark.parametrize("n", _LENGTHS + (2 * _SCAN_CHUNK + 1, 2 * _SCAN_CHUNK + 2))
def test_scan_evaluates_overlapping_slices_that_cover_xs_once(n):
    xs = np.arange(n, dtype=float)
    calls = []

    def f(part):
        calls.append(part.copy())
        return np.ones_like(part)

    assert list(sign_change_brackets(f, xs)) == []
    assert all(min(n, 2) <= len(part) <= _SCAN_CHUNK + 1 for part in calls)
    # the slices come from the top of xs down; in xs order each starts on
    # the last point of the one before it, and together they are xs
    calls.reverse()
    assert all(part[0] == before[-1] for before, part in zip(calls, calls[1:]))
    assert [x for i, part in enumerate(calls) for x in part[i > 0:]] == xs.tolist()


def _hex(brackets):
    return [tuple(float(v).hex() for v in b) for b in brackets]


@st.composite
def scans(draw):
    """(xs, fs) of a length in _LENGTHS: random signs and scales with NaN,
    infinities and exact zeros sprinkled in, and values drawn by hypothesis
    at the points either side of every slice boundary."""
    n = draw(st.sampled_from(_LENGTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fs = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    # each value negative with probability 0, 0.01 or 0.5: from one sign
    # throughout, through long runs as in a residual scan, to many changes
    fs = np.abs(fs) * np.where(rng.random(n) < draw(st.sampled_from((0.0, 0.01, 0.5))), -1.0, 1.0)
    specials = rng.random(n) < draw(st.sampled_from((0.0, 0.001, 0.1)))
    fs[specials] = rng.choice(_SPECIAL, int(specials.sum()))
    edges = sorted({j for k in range(_SCAN_CHUNK, n, _SCAN_CHUNK) for j in (k - 1, k, k + 1) if j < n})
    for j in edges:
        fs[j] = draw(st.sampled_from(_SPECIAL) | st.floats())
    return np.linspace(-1.0, 1.0, n), fs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=scans())
def test_scan_matches_reference_scan(case):
    xs, fs = case
    assert _hex(brackets_of(xs, fs)) == _hex(reference_brackets(xs, fs)[::-1])


@pytest.mark.parametrize("top", [[-1.0, 1.0], [1.0, 0.0]], ids=["sign-change", "zero-at-end"])
def test_first_bracket_needs_only_the_top_slice(top):
    n = 20000
    xs = np.linspace(-1.0, 1.0, n)
    fs = np.ones(n)
    fs[:2] = -1.0  # a bracket in the bottom slice too
    fs[-2:] = top
    f = lookup(xs, fs)
    calls = []

    def counted(part):
        calls.append(len(part))
        return f(part)

    first = next(sign_change_brackets(counted, xs))
    assert first == reference_brackets(xs, fs)[-1]
    assert len(calls) == 1 and calls[0] <= _SCAN_CHUNK + 1


def test_bisect_evaluates_only_midpoints():
    calls = []

    def f(x):
        calls.append(x)
        return x * x - 2.0

    lo, hi = 1.0, 2.0
    root, iterations = bisect(f, lo, hi, -1.0, 1e-12)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert iterations == len(calls)
    assert all(lo < x < hi for x in calls)


def test_bisect_degenerate_bracket_evaluates_nothing():
    def f(x):
        raise AssertionError("f called on a degenerate bracket")

    assert bisect(f, 0.5, 0.5, 0.0, 1e-12) == (0.5, 0)
