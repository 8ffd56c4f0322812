"""Deterministic synthetic series for tests and experiments.

All stochastic kinds draw from numpy's default generator (PCG64) seeded
explicitly, so a (kind, n, seed, params) tuple always reproduces the
same series, on any platform with IEEE-754 doubles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParam
from .series import TimeSeries

_ALLOWED_PARAMS = {
    "constant": {"value"},
    "linear": {"slope", "intercept"},
    "convex": set(),
    "sawtooth": {"period"},
    "periodic": {"period", "amplitude"},
    "iid_uniform": set(),
    "iid_gaussian": set(),
    "fgn": {"hurst"},
    "spike": set(),
}

KINDS = tuple(sorted(_ALLOWED_PARAMS))


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _ALLOWED_PARAMS:
            raise InvalidParam(
                f"unknown kind {self.kind!r}; choose from {', '.join(KINDS)}"
            )
        if self.n < 2:
            raise InvalidParam(f"n must be >= 2, got {self.n}")
        extra = set(self.params) - _ALLOWED_PARAMS[self.kind]
        if extra:
            raise InvalidParam(
                f"{self.kind!r} does not take {sorted(extra)}"
            )
        if self.kind == "fgn":
            h = self.params.get("hurst")
            if h is None or not (0.0 < float(h) < 1.0):
                raise InvalidParam("fgn needs hurst in the open interval (0, 1)")


def generate(spec: GeneratorSpec) -> TimeSeries:
    n = spec.n
    p = spec.params
    label = f"{spec.kind}-{n}-s{spec.seed}"
    if spec.kind == "constant":
        values = np.full(n, float(p.get("value", 1.0)))
    elif spec.kind == "linear":
        values = float(p.get("intercept", 0.0)) + float(p.get("slope", 1.0)) * np.arange(
            n, dtype=np.float64
        )
    elif spec.kind == "convex":
        values = np.arange(n, dtype=np.float64) ** 2
    elif spec.kind == "sawtooth":
        period = int(p.get("period", 8))
        if period < 2:
            raise InvalidParam(f"sawtooth period must be >= 2, got {period}")
        values = np.arange(n, dtype=np.float64) % period
    elif spec.kind == "periodic":
        period = float(p.get("period", 64))
        if period <= 0:
            raise InvalidParam(f"periodic period must be > 0, got {period}")
        amp = float(p.get("amplitude", 1.0))
        values = amp * np.sin(2.0 * np.pi * np.arange(n) / period)
    elif spec.kind == "iid_uniform":
        values = np.random.default_rng(spec.seed).random(n)
    elif spec.kind == "iid_gaussian":
        values = np.random.default_rng(spec.seed).standard_normal(n)
    elif spec.kind == "fgn":
        values = _fgn(n, float(p["hurst"]), np.random.default_rng(spec.seed))
    elif spec.kind == "spike":
        values = np.zeros(n)
        values[n // 2] = 1.0
    else:  # pragma: no cover - guarded by GeneratorSpec
        raise InvalidParam(spec.kind)
    return TimeSeries(values=values, label=label)


def _fgn(n: int, h: float, rng: np.random.Generator) -> np.ndarray:
    """Fractional Gaussian noise by circulant embedding of the autocovariance.

    The length-2n circulant built from the fGn autocovariance has a real,
    non-negative spectrum for h in (0, 1); scaling complex normals by the
    eigenvalue roots and transforming back yields a draw with the exact
    target covariance (not an approximation).
    """
    k = np.arange(n + 1, dtype=np.float64)
    two_h = 2.0 * h
    rho = 0.5 * (
        np.abs(k - 1.0) ** two_h - 2.0 * k**two_h + (k + 1.0) ** two_h
    )
    row = np.concatenate([rho[:n], rho[n:], rho[n - 1 : 0 : -1]])
    lam = np.fft.fft(row).real
    if lam.min() < -1e-8 * max(lam.max(), 1.0):
        raise InvalidParam(f"embedding not non-negative definite for hurst={h}")
    lam = np.clip(lam, 0.0, None)
    gn = rng.standard_normal(n)
    gn2 = rng.standard_normal(n)
    m = 2 * n
    w = np.zeros(m, dtype=np.complex128)
    w[0] = np.sqrt(lam[0] / m) * gn[0]
    w[1:n] = np.sqrt(lam[1:n] / (2.0 * m)) * (gn[1:] + 1j * gn2[1:])
    w[n] = np.sqrt(lam[n] / m) * gn2[0]
    w[n + 1 :] = np.sqrt(lam[n + 1 :] / (2.0 * m)) * (
        gn[n - 1 : 0 : -1] - 1j * gn2[n - 1 : 0 : -1]
    )
    return np.fft.fft(w)[:n].real
