"""Yukawa potential, its exponential approximants, and approximation quality."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Rows where |exact| falls below this record absolute error only.
_REL_ERR_FLOOR = 1e-300


def _check_positive_r(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("r must be > 0")
    return r


def yukawa(r, strength: float, a: float):
    """Screened Coulomb potential -strength * exp(-a r)/r."""
    rr = _check_positive_r(r)
    out = -strength * np.exp(-a * rr) / rr
    return float(out) if rr.ndim == 0 else out


def approx_yukawa(r, strength: float, a: float):
    """Exponential-rational approximant -2a*strength*exp(-2ar)/(1-exp(-2ar)),
    valid for a*r << 1."""
    rr = _check_positive_r(r)
    ex = np.exp(-2.0 * a * rr)
    out = -2.0 * a * strength * ex / (1.0 - ex)
    return float(out) if rr.ndim == 0 else out


def centrifugal_approx(r, a: float):
    """Approximant for 1/r^2: 4 a^2 exp(-2ar)/(1-exp(-2ar))^2."""
    rr = _check_positive_r(r)
    ex = np.exp(-2.0 * a * rr)
    out = 4.0 * a * a * ex / (1.0 - ex) ** 2
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

    CSV_HEADER = ("r", "exact", "approx", "abs_err", "rel_err")

    def rows(self):
        return zip(self.r, self.exact, self.approx, self.abs_err, self.rel_err)


def profile(strength: float, a: float, r_min: float, r_max: float, points: int) -> PotentialProfile:
    """Sample exact and approximate potentials on a uniform grid for export."""
    if not (0.0 < r_min < r_max):
        raise DomainError(f"need 0 < r_min < r_max, got [{r_min}, {r_max}]")
    if points < 2:
        raise DomainError(f"points must be >= 2, got {points}")
    r = np.linspace(r_min, r_max, points)
    exact = yukawa(r, strength, a)
    approx = approx_yukawa(r, strength, a)
    abs_err = np.abs(approx - exact)
    magnitude = np.abs(exact)
    rel_err = np.divide(
        abs_err, magnitude, out=np.full_like(abs_err, np.nan), where=magnitude > _REL_ERR_FLOOR
    )
    return PotentialProfile(r=r, exact=exact, approx=approx, abs_err=abs_err, rel_err=rel_err)
