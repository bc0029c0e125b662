"""Yukawa potential, exponential approximants, and their error bounds."""
import math
import sys
import warnings

import numpy as np
import pytest

from kgyukawa import DomainError, NonFinite, approx_yukawa, centrifugal_approx, profile, yukawa

# parameter set used for the published approximation-quality figure
FIG_V0 = math.sqrt(2.0)
FIG_A = 0.05 * math.sqrt(2.0)


def test_yukawa_leading_singularity():
    r = 1e-6
    assert r * yukawa(r, 0.2, 0.05) == pytest.approx(-0.2, abs=1e-6)


def test_yukawa_figure_parameters():
    expected = -FIG_V0 * math.exp(-FIG_A)
    assert yukawa(1.0, FIG_V0, FIG_A) == pytest.approx(expected, rel=1e-14)


def test_yukawa_zero_strength():
    r = np.linspace(0.1, 10, 50)
    assert np.all(yukawa(r, 0.0, 0.05) == 0.0)


def test_domain_errors_at_nonpositive_r():
    for fn in (lambda r: yukawa(r, 1.0, 0.1),
               lambda r: approx_yukawa(r, 1.0, 0.1),
               lambda r: centrifugal_approx(r, 0.1)):
        for r in (0.0, -1.0, math.nan, [1.0, math.nan]):
            with pytest.raises(DomainError):
                fn(r)


def test_approx_matches_exact_at_small_ar():
    a = FIG_A
    r = np.linspace(1e-4, 0.1 / a, 10000)
    rel = np.abs(approx_yukawa(r, FIG_V0, a) / yukawa(r, FIG_V0, a) - 1.0)
    assert rel.max() < 0.05


def test_approx_relative_error_diverges_at_large_r():
    a = FIG_A
    rel_mid = abs(approx_yukawa(1.0 / a, FIG_V0, a) / yukawa(1.0 / a, FIG_V0, a) - 1.0)
    rel_far = abs(approx_yukawa(5.0 / a, FIG_V0, a) / yukawa(5.0 / a, FIG_V0, a) - 1.0)
    assert rel_far > rel_mid > 0.05


def test_approx_ratio_improves_as_screening_shrinks():
    r = 1.0
    errors = []
    for a in (1e-2, 1e-3, 1e-4):
        errors.append(abs(approx_yukawa(r, 1.0, a) / yukawa(r, 1.0, a) - 1.0))
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] < 1e-7


def test_approximants_at_tiny_screening():
    # 1 - exp(-2ar) cancels to exactly 0 once 2ar < 1.1e-16; the
    # approximants must still reach their a -> 0 limits, without a warning.
    # Below a = 1e-152 the centrifugal approximant's 4a^2 or squared
    # denominator leaves the normal floats: it lost digits, then gave inf
    # and NaN; within a few ulps, where a = 1e-152 was off by 3e-13
    r = np.geomspace(1e-4, 1e4, 50)
    for a in (1e-20, 1e-152, 1e-160, 1e-300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            approx = approx_yukawa(r, 1.0, a)
            centrifugal = centrifugal_approx(r, a)
        assert np.max(np.abs(approx / yukawa(r, 1.0, a) - 1.0)) < 1e-15, a
        assert np.max(np.abs(centrifugal * r * r - 1.0)) < 1e-15, a


def test_centrifugal_approx_matches_a_50_digit_reference():
    # one expression at every screening: against 50 digits at the same
    # float argument x = fl(-2ar), exp(x) (2a/expm1(x))^2 is within 1e-15
    # wherever that value is a normal float
    mpmath = pytest.importorskip("mpmath")
    r = np.geomspace(1e-4, 1e4, 300)
    for a in (1e-300, 1e-160, 1e-152, 1e-20, 1e-8, 0.05, 1.0, 1e3):
        got = centrifugal_approx(r, a)
        with mpmath.workdps(50):
            for r_i, got_i in zip(r.tolist(), got.tolist()):
                x = mpmath.mpf(-2.0 * a * r_i)
                want = mpmath.exp(x) * (2 * mpmath.mpf(a) / mpmath.expm1(x)) ** 2
                if sys.float_info.min <= want <= sys.float_info.max:
                    assert abs(got_i / want - 1) < 1e-15, (a, r_i)


def test_centrifugal_approx_is_inf_where_it_leaves_float_range():
    # 2ar underflows to 0, or 1/r^2 overflows: inf, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert centrifugal_approx(5e-324, 1e-4) == math.inf
        assert centrifugal_approx(1e-200, 0.05) == math.inf


def test_centrifugal_plugin_value():
    # a*r = ln(2)/2 makes exp(-2ar) = 1/2, so the approximant is 8 a^2
    a = 0.3
    r = math.log(2.0) / (2.0 * a)
    assert centrifugal_approx(r, a) == pytest.approx(8.0 * a * a, rel=1e-13)


def test_centrifugal_error_below_percent():
    a = 0.05
    r = 0.05 / a  # a*r = 0.05
    rel = abs(centrifugal_approx(r, a) * r * r - 1.0)
    assert rel < 0.01


def test_both_potentials_negative_and_increasing():
    prof = profile(FIG_V0, FIG_A, 0.1, 20.0, 400)
    assert np.all(prof.exact < 0.0)
    assert np.all(prof.approx < 0.0)
    assert np.all(np.diff(prof.exact) > 0.0)
    assert np.all(np.diff(prof.approx) > 0.0)


def test_profile_two_points():
    prof = profile(1.0, 0.05, 0.5, 1.5, 2)
    assert len(prof.r) == 2


def test_profile_small_ar_error_bound():
    prof = profile(FIG_V0, FIG_A, 1e-3, 0.1 / FIG_A, 10000)
    assert np.nanmax(prof.rel_err) < 0.05


def test_profile_underflow_is_nan_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = profile(1.0, 1.0, 0.1, 900.0, 30)
    tiny = np.abs(prof.exact) <= 1e-300
    assert tiny.any() and not tiny.all()
    assert np.array_equal(np.isnan(prof.rel_err), tiny)


@pytest.mark.parametrize("strength, a, r_min, r_max", [
    (1.7e308, 1e-12, 1e-12, 0.05),  # exact and approximant past float range
], ids=["potential-overflows"])
def test_profile_past_float_range_is_non_finite(strength, a, r_min, r_max):
    # each printed -inf or nan with exit 0, after a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="potential is not finite"):
            profile(strength, a, r_min, r_max, 2)


def test_profile_overflow_to_zero_is_silent():
    # a*r overflows, so exp(-a*r) is exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = profile(1e-12, 1e300, 0.2, 1e300, 2)
    assert np.all(prof.exact == 0.0) and np.all(prof.approx == 0.0)


def test_approximant_overflow_to_zero():
    # 2a*strength = 2e312 overflows while exp(-2ar) underflows to 0: the
    # product was inf * 0 = NaN, and `kgyukawa potential --v0 1e12 --a
    # 1e300` exited 3; formed from exp(-2ar) up it is the 0 it should be
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = profile(1e12, 1e300, 0.1, 20.0, 3)
        point = approx_yukawa(0.1, 1e12, 1e300)
    assert np.all(prof.exact == 0.0) and np.all(prof.approx == 0.0)
    assert point == 0.0
    # where exp(-2ar) is not 0 the reordered product is the finite value
    # that the overflowing scale hid
    r = 340.0 / 1e300
    want = 2e12 * math.exp(-680.0) / -math.expm1(-680.0) * 1e300
    assert approx_yukawa(r, 1e12, 1e300) == pytest.approx(-want, rel=1e-12)


def test_profile_validation():
    with pytest.raises(DomainError):
        profile(1.0, 0.05, -1.0, 2.0, 10)
    with pytest.raises(DomainError):
        profile(1.0, 0.05, 2.0, 1.0, 10)
    with pytest.raises(DomainError):
        profile(1.0, 0.05, 0.1, 2.0, 1)
    # a float count raised a bare TypeError from linspace
    with pytest.raises(DomainError, match="points must be an integer"):
        profile(1.0, 0.05, 0.1, 2.0, 2.5)
    # an infinite end sampled nan and inf
    for r_min, r_max in ((0.1, math.inf), (math.nan, 2.0), (0.1, math.nan)):
        with pytest.raises(DomainError, match="need 0 < r_min < r_max < inf"):
            profile(1.0, 0.05, r_min, r_max, 4)
    for strength, a in ((math.nan, 0.05), (math.inf, 0.05), (1.0, 0.0), (1.0, -1.0),
                        (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(DomainError):
            profile(strength, a, 0.1, 2.0, 10)
