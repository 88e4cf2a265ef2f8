"""Shared numerical helpers used across the package."""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

# Probabilities are floored at this value inside logarithms only; quadratic
# terms always see the raw values.
LOG_EPS = 1e-12


class ConvergenceError(RuntimeError):
    """Raised when a numerical solver fails to reach its tolerance."""


# numpy's counterpart of each math function, for the arguments where math
# raises instead of returning inf or nan
_UFUNCS = {math.exp: np.exp, math.log: np.log, math.pow: np.power}
_EXACT_POWERS = (-1.0, 0.5, 2.0)


def libm(fn, *args) -> np.ndarray:
    """Apply ``math.exp``, ``math.log`` or ``math.pow`` element by element.

    numpy may evaluate float64 exp/log/power with SIMD loops that are not
    correctly rounded (its AVX-512 exp and pow differ from libm on about 5%
    of arguments), so the same input gives different bits on different CPUs.
    Going through ``math`` gives libm's result on every numpy build. The
    arguments broadcast like a ufunc's; where ``math`` raises (log(0),
    overflow, pow of a negative base) the result is numpy's inf or nan.
    A scalar exponent of -1, 0.5 or 2 keeps the exactly rounded reciprocal,
    sqrt or square that ``**`` uses for it, which libm's pow is not.
    """
    arrays = [np.asarray(a, dtype=float) for a in args]
    if fn is math.pow and arrays[1].ndim == 0 and float(arrays[1]) in _EXACT_POWERS:
        return arrays[0] ** float(arrays[1])
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    # a 0-d argument (a scalar exponent, say) is repeated, not broadcast
    cols = [itertools.repeat(float(a)) if a.ndim == 0
            else (a if a.shape == shape else np.broadcast_to(a, shape)).ravel().tolist()
            for a in arrays]
    count = math.prod(shape)
    try:
        out = np.fromiter(map(fn, *cols), float, count=count)
    except (ValueError, OverflowError):
        out = np.fromiter(map(functools.partial(_libm_or_ufunc, fn), *cols), float, count=count)
    return out.reshape(shape)


def _libm_or_ufunc(fn, *xs):
    try:
        return fn(*xs)
    except (ValueError, OverflowError):
        with np.errstate(all="ignore"):
            return float(_UFUNCS[fn](*xs))


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``; exp goes through libm."""
    z = np.asarray(z, dtype=float)
    m = np.max(z, axis=axis, keepdims=True)
    e = libm(math.exp, z - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def as_simplex(values, mass_tol: float = 1e-8) -> np.ndarray:
    """Validate and renormalize a probability vector.

    Accepts any 1-D array-like with K >= 2 entries in [0, 1] whose mass is
    within ``mass_tol`` of 1, and returns a fresh float64 array rescaled to
    sum to exactly 1 (up to rounding).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.shape[0] < 2:
        raise ValueError(f"probability vector needs K >= 2 entries, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("probability vector has non-finite entries")
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise ValueError(f"probability entries outside [0, 1]: {v}")
    mass = float(v.sum())
    if abs(mass - 1.0) > mass_tol:
        raise ValueError(f"probability mass {mass} deviates from 1 by more than {mass_tol}")
    return v / mass


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats with the 0*log(0) = 0 convention."""
    p = np.asarray(p, dtype=float)
    nz = p > 0.0
    return float(-np.sum(p[nz] * np.log(p[nz])))


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats; q is floored at LOG_EPS inside the log."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    nz = p > 0.0
    return float(np.sum(p[nz] * (np.log(p[nz]) - np.log(np.maximum(q[nz], LOG_EPS)))))
