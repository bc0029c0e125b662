"""Yukawa potential, its exponential approximants, and approximation quality."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFinite, _finite, _integer, _positive, _radii

# Rows where |exact| falls below this record absolute error only.
_REL_ERR_FLOOR = 1e-300


def _check_positive_r(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0.0):
        raise DomainError("r must be > 0")
    return r


def yukawa(r, strength: float, a: float):
    """Screened Coulomb potential -strength * exp(-a r)/r."""
    rr = _check_positive_r(r)
    out = -strength * np.exp(-a * rr) / rr
    return float(out) if rr.ndim == 0 else out


def approx_yukawa(r, strength: float, a: float):
    """Exponential-rational approximant -2a*strength*exp(-2ar)/(1-exp(-2ar)),
    valid for a*r << 1.  The denominator is -expm1(-2ar), which keeps its
    precision where 1 - exp(-2ar) would cancel to 0.  Where 2a*strength
    itself is past float range, the product is formed from exp(-2ar) up,
    so a value that underflows to 0 there is 0 rather than inf * 0."""
    rr = _check_positive_r(r)
    ex = np.exp(-2.0 * a * rr)
    scale = -2.0 * a * strength
    num = scale * ex if math.isfinite(scale) else ex * strength * a * -2.0
    out = num / -np.expm1(-2.0 * a * rr)
    return float(out) if rr.ndim == 0 else out


def centrifugal_approx(r, a: float):
    """Approximant for 1/r^2: 4 a^2 exp(-2ar)/(1-exp(-2ar))^2, with the
    denominator from expm1 as in :func:`approx_yukawa`."""
    rr = _check_positive_r(r)
    ex = np.exp(-2.0 * a * rr)
    out = 4.0 * a * a * ex / np.expm1(-2.0 * a * rr) ** 2
    return float(out) if rr.ndim == 0 else out


@dataclass(frozen=True)
class PotentialProfile:
    """Tabulated exact/approximate potential with pointwise errors.

    Column arrays share one length; ``rel_err`` is NaN where the exact
    value is too small for a meaningful relative error.
    """

    r: np.ndarray
    exact: np.ndarray
    approx: np.ndarray
    abs_err: np.ndarray
    rel_err: np.ndarray


def profile(strength: float, a: float, r_min: float, r_max: float, points: int) -> PotentialProfile:
    """Sample exact and approximate potentials on a uniform grid for export;
    a value past float range is a :class:`NonFinite`."""
    _finite(strength, "strength")
    _positive(a, "screening parameter a")
    _radii(r_min, r_max)
    points = _integer(points, "points", 2)
    r = np.linspace(r_min, r_max, points)
    with np.errstate(all="ignore"):  # checked below
        exact, approx = yukawa(r, strength, a), approx_yukawa(r, strength, a)
    if not (np.all(np.isfinite(exact)) and np.all(np.isfinite(approx))):
        raise NonFinite(f"potential is not finite on [{r_min}, {r_max}] at a = {a}")
    abs_err = np.abs(approx - exact)
    magnitude = np.abs(exact)
    rel_err = np.divide(
        abs_err, magnitude, out=np.full_like(abs_err, np.nan), where=magnitude > _REL_ERR_FLOOR
    )
    return PotentialProfile(r=r, exact=exact, approx=approx, abs_err=abs_err, rel_err=rel_err)
