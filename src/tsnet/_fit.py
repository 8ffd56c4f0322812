"""Shared ordinary-least-squares line fit, integer log grids and integer checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, InvalidParam


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    r2: float


def linear_fit(x: np.ndarray, y: np.ndarray) -> LineFit:
    """OLS fit of ``y = slope*x + intercept`` with coefficient of determination.

    Raises :class:`DegenerateFit` on fewer than two points or zero
    variance in x.  A perfect fit of constant y is reported as r2 = 1.0
    (the 0/0 case).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise DegenerateFit(f"need >= 2 paired points, got {x.size} and {y.size}")
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    sxx = float(np.sum(dx * dx))
    if sxx == 0.0:
        raise DegenerateFit("zero variance in x; slope undefined")
    slope = float(np.sum(dx * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid * resid))
    ss_tot = float(np.sum((y - ym) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return LineFit(slope=slope, intercept=intercept, r2=float(min(max(r2, 0.0), 1.0)))


def log_spaced_ints(lo: int, hi: int, count: int) -> np.ndarray:
    """Deduplicated increasing integers, roughly log-spaced on [lo, hi], lo <= hi."""
    grid = np.exp(np.linspace(np.log(lo), np.log(hi), num=count))
    return np.unique(np.clip(np.round(grid).astype(np.int64), lo, hi))


def as_int(value, name: str) -> int:
    """``value`` as an int, or :class:`InvalidParam` unless it is an integer
    or an integral float (``is_integer`` is False on nan and infinities)."""
    if not (isinstance(value, (int, np.integer))
            or isinstance(value, (float, np.floating)) and value.is_integer()):
        raise InvalidParam(f"{name} must be an integer, got {value!r}")
    return int(value)
