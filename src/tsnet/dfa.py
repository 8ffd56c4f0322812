"""Detrended fluctuation analysis.

The series is integrated into a profile, the profile is split into
non-overlapping windows of each scale (taken from both the front and
the back so trailing samples are never discarded), a least-squares
polynomial is removed per window, and F(n) is the RMS of the residuals.
The Hurst exponent is the slope of ln F(n) against ln n.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._fit import as_int, linear_fit, log_spaced_ints
from .errors import DegenerateFit, InvalidParam, ScaleOutOfRange, SeriesTooShort
from .series import _centre, _series_values

_MIN_SCALE = 8
_SCALE_COUNT = 20
_PERSISTENCE_TOL = 1e-9  # exponents this close to 0.5 are uncorrelated


@dataclass(frozen=True, eq=False)
class DfaResult:
    """Fluctuation function and, from :func:`fit_hurst`, the Hurst fit."""

    scales: np.ndarray
    fluctuations: np.ndarray
    order: int
    hurst: float | None = None
    fit_r2: float | None = None
    fit_range: tuple[int, int] | None = None


def default_scales(n: int, order: int = 2) -> np.ndarray:
    """Up to 20 log-spaced integer scales from max(8, order + 2) to n // 4."""
    lo = max(_MIN_SCALE, order + 2)
    hi = n // 4
    if hi < lo:
        raise SeriesTooShort(f"n={n} leaves no valid scale (need n >= {4 * lo})")
    return log_spaced_ints(lo, hi, _SCALE_COUNT)


def dfa_fluctuation(ts, scales=None, order: int = 2) -> DfaResult:
    """Compute F(n) over the given scales (default grid if omitted)."""
    y = _series_values(ts)
    n = y.size
    order = as_int(order, "detrending order")
    if order < 0:
        raise InvalidParam(f"detrending order must be >= 0, got {order}")
    if scales is None:
        scale_arr = default_scales(n, order=order)
    else:
        scale_arr = np.asarray([as_int(s, "scale") for s in scales], dtype=np.int64)
        if scale_arr.size == 0:
            raise InvalidParam("empty scale list")
        for s in scale_arr:
            if s < order + 2 or s > n // 4:
                raise ScaleOutOfRange(
                    f"scale {s} outside [{order + 2}, {n // 4}] for n={n}"
                )
    profile = np.cumsum(_centre(y)[1])  # equal values deviate by exactly 0
    flucts = np.empty(scale_arr.size, dtype=np.float64)
    for idx, s in enumerate(scale_arr):
        flucts[idx] = _fluctuation_at_scale(profile, int(s), order)
    return DfaResult(scales=scale_arr, fluctuations=flucts, order=order)


def _fluctuation_at_scale(profile: np.ndarray, s: int, order: int) -> float:
    n = profile.size
    k = n // s
    # forward and backward segmentation; every sample contributes
    windows = np.concatenate(
        [profile[: k * s].reshape(k, s), profile[n - k * s :].reshape(k, s)]
    )
    # centered, range-normalized abscissa keeps the Vandermonde system
    # well conditioned even for large scales and high orders; every scale
    # is validated as s >= order + 2 >= 2, so x[-1] = (s - 1) / 2 > 0
    x = np.arange(s, dtype=np.float64) - (s - 1) / 2.0
    x /= x[-1]
    v = np.vander(x, order + 1, increasing=True)
    a = v.T @ v
    b = v.T @ windows.T
    coef = np.linalg.solve(a, b)
    resid = windows.T - v @ coef
    return float(np.sqrt(np.mean(resid * resid)))


def fit_hurst(result: DfaResult) -> DfaResult:
    """``result`` with the Hurst fit of its fluctuation function added.

    The slope of ln F(n) vs ln n is fitted over the scales with
    F(n) > 0; fewer than two such scales is a degenerate fit.
    """
    scales, flucts = result.scales, result.fluctuations
    positive = flucts > 0.0
    scales, flucts = scales[positive], flucts[positive]
    if scales.size < 2:
        raise DegenerateFit(
            f"{scales.size} usable scales after filtering, need 2"
        )
    fit = linear_fit(np.log(scales.astype(np.float64)), np.log(flucts))
    return replace(
        result,
        hurst=fit.slope,
        fit_r2=fit.r2,
        fit_range=(int(scales[0]), int(scales[-1])),
    )


def classify_persistence(h: float) -> str:
    """Label an exponent: anti-persistent (< 0.5), uncorrelated, persistent."""
    if not np.isfinite(h):
        raise InvalidParam(f"non-finite Hurst exponent {h!r}")
    if abs(h - 0.5) <= _PERSISTENCE_TOL:
        return "uncorrelated"
    return "anti-persistent" if h < 0.5 else "persistent"
