"""Sign-change scan and bisection: the bracket hand-off between them."""
import math
import warnings

import pytest

from kgyukawa.rootfind import bisect, sign_change_brackets


def test_scan_brackets_carry_their_left_end_value():
    xs = [0.0, 1.0, 2.0, 3.0, 4.0]
    fs = [3.0, -1.0, -2.0, 5.0, 4.0]
    assert sign_change_brackets(xs, fs) == [(0.0, 1.0, fs[0]), (2.0, 3.0, fs[2])]


@pytest.mark.parametrize("fs, want", [
    ([1.0, 0.0, -1.0, -2.0], [(1.0, 1.0, 0.0)]),
    ([1.0, 2.0, 3.0, 0.0], [(3.0, 3.0, 0.0)]),
], ids=["inside", "last-point"])
def test_exact_zero_gives_degenerate_bracket(fs, want):
    assert sign_change_brackets([0.0, 1.0, 2.0, 3.0], fs) == want


def test_non_finite_value_breaks_a_run():
    xs = [0.0, 1.0, 2.0, 3.0]
    assert sign_change_brackets(xs, [1.0, math.nan, -1.0, -2.0]) == []
    assert sign_change_brackets(xs, [1.0, math.inf, -1.0, 1.0]) == [(2.0, 3.0, -1.0)]


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_sign_change_found_where_the_product_under_or_overflows(scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        brackets = sign_change_brackets([0.0, 1.0, 2.0], [-scale, scale, 2.0 * scale])
    assert brackets == [(0.0, 1.0, -scale)]


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
