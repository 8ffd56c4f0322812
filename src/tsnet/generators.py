"""Deterministic synthetic series for tests and experiments.

All stochastic kinds draw from numpy's default generator (PCG64) seeded
explicitly, so a (kind, n, seed, params) tuple always reproduces the
same series, on any platform with IEEE-754 doubles.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParam
from .series import TimeSeries

# kind -> {parameter: default}; a default of None marks a required parameter
_ALLOWED_PARAMS = {
    "constant": {"value": 1.0},
    "linear": {"slope": 1.0, "intercept": 0.0},
    "convex": {},
    "sawtooth": {"period": 8},
    "periodic": {"period": 64.0, "amplitude": 1.0},
    "iid_uniform": {},
    "iid_gaussian": {},
    "fgn": {"hurst": None},
    "spike": {},
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
        if not isinstance(self.n, numbers.Integral) or self.n < 2:
            raise InvalidParam(f"n must be an integer >= 2, got {self.n!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise InvalidParam(f"seed must be a non-negative integer, got {self.seed!r}")
        extra = set(self.params) - set(_ALLOWED_PARAMS[self.kind])
        if extra:
            raise InvalidParam(f"{self.kind!r} does not take {sorted(extra)}")
        p = {**_ALLOWED_PARAMS[self.kind], **self.params}
        for name, value in p.items():
            # compared, not converted: an int past float64 fails the test
            if not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
                raise InvalidParam(f"{self.kind} needs a finite {name}, got {value!r}")
        if self.kind == "linear":  # the values are monotone, so check the last
            last = float(p["intercept"]) + float(p["slope"]) * (self.n - 1)
            rule, ok = "intercept + slope * (n - 1) within float64", math.isfinite(last)
        elif self.kind == "sawtooth":
            rule, ok = "an integer period >= 2", p["period"] >= 2 and p["period"] % 1 == 0
        elif self.kind == "periodic":
            rule, ok = "period > 0", p["period"] > 0
        else:  # fgn; the other kinds take any finite parameters
            rule, ok = "hurst in (0, 1)", self.kind != "fgn" or 0.0 < p["hurst"] < 1.0
        if not ok:
            raise InvalidParam(f"{self.kind} needs {rule}, got n={self.n} and {p}")


def generate(spec: GeneratorSpec) -> TimeSeries:
    n = spec.n
    p = {**_ALLOWED_PARAMS[spec.kind], **spec.params}
    t = np.arange(n, dtype=np.float64)
    if spec.kind == "constant":
        values = np.full(n, float(p["value"]))
    elif spec.kind == "linear":
        values = float(p["intercept"]) + float(p["slope"]) * t
    elif spec.kind == "convex":
        values = t**2
    elif spec.kind == "sawtooth":
        values = t % p["period"]
    elif spec.kind == "periodic":
        values = float(p["amplitude"]) * np.sin(2.0 * np.pi * t / float(p["period"]))
    elif spec.kind == "iid_uniform":
        values = np.random.default_rng(spec.seed).random(n)
    elif spec.kind == "iid_gaussian":
        values = np.random.default_rng(spec.seed).standard_normal(n)
    elif spec.kind == "fgn":
        values = _fgn(n, float(p["hurst"]), np.random.default_rng(spec.seed))
    else:  # spike; GeneratorSpec admits no other kind
        values = np.zeros(n)
        values[n // 2] = 1.0
    return TimeSeries(values=values, label=f"{spec.kind}-{n}-s{spec.seed}")


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
