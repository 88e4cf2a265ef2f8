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


# the numpy ufunc that computes each math function
_UFUNCS = {math.exp: np.exp, math.log: np.log, math.pow: np.power}
# scalar exponents that take ``**``: the exactly rounded reciprocal, sqrt and
# square, and the identity, which is also libm's pow(x, 1)
_EXACT_POWERS = (-1.0, 0.5, 1.0, 2.0)


def libm(fn, *args, out: np.ndarray | None = None) -> np.ndarray:
    """Apply ``math.exp``, ``math.log`` or ``math.pow`` with libm's bits, at numpy speed.

    numpy may evaluate float64 exp/log/power with SIMD loops that are not
    correctly rounded (its AVX-512 exp and pow differ from libm on about 5%
    of arguments), so the same input gives different bits on different CPUs.
    The arguments broadcast like a ufunc's, and the result is a fresh
    C-contiguous float64 array of the broadcast shape; where ``math`` raises
    (log(0), overflow, pow of a negative base) it holds numpy's inf or nan,
    with no warning. A scalar exponent of -1, 0.5 or 2 keeps the exactly
    rounded reciprocal, sqrt or square that ``**`` uses for it, which
    libm's pow is not, and an exponent of 1 is the identity in both; that
    path is ``**`` itself, warnings included. With ``out``, a float64
    array of the broadcast shape, the result is written there and ``out``
    is returned; it may be an operand.

    Each array operand is raveled to 1-D and reversed, and the ufunc runs
    on those negatively strided views. numpy (checked on 2.4.6) takes its
    SIMD loops only for non-negative strides, so a reversed input runs the
    scalar loop, which calls libm. This is dispatch behaviour, not a
    documented API, so a probe at import (``_probe``) compares the route
    with ``math`` on 4,096 fixed arguments per function, and a function
    that fails it goes through ``math`` element by element instead
    (``_libm_map``). Three ways of writing the route silently bring the
    SIMD bits back: passing a reversed view as ``out=`` (numpy flips every
    operand back to positive strides), reversing only the last axis of a
    2-D array, and a 0-d operand as the only input (``np.exp`` of a 0-d
    array differs, so an all-0-d call runs on shape (1,)). A 0-d operand
    beside an array operand is safe, and is not repeated.

    A call has a fixed cost of about 4 µs however small its arrays (Xeon,
    numpy 2.4.6), against about 1 µs for the bare ufunc: the error state,
    the reversed views and the copy of the result (``_reversed``). 1-D
    operands of one shape, C-contiguous ones and a 0-d exponent take no
    copy on the way in. The ufunc's own output is a fresh array either
    way; ``out`` saves only the copy, so a loop that passes the same
    ``out`` on every pass allocates and frees one array per call.
    """
    arrays = [np.asarray(a, dtype=float) for a in args]
    if fn is math.pow and arrays[1].ndim == 0 and float(arrays[1]) in _EXACT_POWERS:
        result = arrays[0] ** float(arrays[1])
    elif not _STRIDED[fn]:
        result = _libm_map(fn, arrays)
    else:
        result = _reversed(_UFUNCS[fn], *arrays)
        if out is None:
            return result.copy()
    if out is None:
        return result
    np.copyto(out, result)
    return out


@np.errstate(all="ignore")
def _reversed(ufunc, *arrays) -> np.ndarray:
    """``ufunc`` over broadcast ``arrays``, run on negatively strided 1-D views.

    Returns a view of the ufunc's fresh output, in the operands' order.
    """
    shapes = [a.shape for a in arrays if a.ndim]
    shape = shapes[0] if shapes else ()
    if not shape:
        # np.exp of a 0-d array takes the SIMD loop, so an all-0-d call runs on shape (1,)
        arrays = [a.reshape(1) for a in arrays]
    elif shapes.count(shape) < len(shapes):
        arrays = np.broadcast_arrays(*arrays)
        shape = arrays[0].shape
    views = []
    for a in arrays:
        if a.ndim:
            col = a if a.ndim == 1 else a.reshape(-1)
            # a column that already runs backwards is copied first: reversing
            # it would hand numpy a forward stride
            a = (col.copy() if col.strides[0] < 0 else col)[::-1]
        views.append(a)
    result = ufunc(*views)[::-1]
    return result if len(shape) == 1 else result.reshape(shape)


def _libm_map(fn, arrays) -> np.ndarray:
    """``fn`` applied through ``math`` one element at a time."""
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


def _probe_args(fn) -> list[tuple]:
    """Fixed arguments for ``_probe``: 4,096 golden-ratio points per operand.

    A SIMD loop differs from libm on 0.5% (log) to 5% (exp, pow) of them.
    """
    i = np.arange(1.0, 4097.0)
    u, v = (i * 0.6180339887498949) % 1.0, (i * 0.7548776662466927) % 1.0
    if fn is math.exp:
        return [(60.0 * u - 40.0,)]
    if fn is math.log:
        return [(2.0 * u,)]
    return [(u, 9.0 * v - 3.0), (u, np.asarray(2.7))]


def _probe(fn, route=_reversed) -> bool:
    """True if ``route(ufunc, *args)`` gives ``math``'s bits on the probe arguments."""
    return all(np.array_equal(route(_UFUNCS[fn], *args), _libm_map(fn, args))
               for args in _probe_args(fn))


# whether each function takes the reversed-stride route; checked once, here
_STRIDED = {fn: _probe(fn) for fn in _UFUNCS}


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``; exp goes through libm."""
    z = np.asarray(z, dtype=float)
    e, s = exp_sums(z, np.max(z, axis=axis, keepdims=True), axis)
    return e / s


def exp_sums(z: np.ndarray, top: np.ndarray, axis: int = -1,
             out: np.ndarray | None = None):
    """(e, s): e = exp(z - top) through libm, and its sums along ``axis`` (kept as a length-1 axis).

    ``top`` is the max of ``z`` along ``axis``, kept; softmax(z) is e / s.
    With ``out``, a C-contiguous float64 array of z's shape (z itself, say),
    e is computed there and is ``out``.
    """
    # the exps overwrite z - top, so only libm's own output is allocated on top;
    # logits more than the largest float apart give -inf there, and exp(-inf) = 0
    with np.errstate(over="ignore"):
        e = np.subtract(z, top, out=out)
    libm(math.exp, e, out=e)
    return e, np.sum(e, axis=axis, keepdims=True)


def as_simplex(values, mass_tol: float = 1e-8, ndim: int = 1) -> np.ndarray:
    """Validate and renormalize a probability vector, or each row of a matrix.

    ``values`` is ``ndim``-D (1: a vector, 2: rows) with K >= 2 entries in [0, 1]
    on its last axis and mass within ``mass_tol`` of 1. Returns a fresh float64
    array, each vector rescaled to sum to 1; C-contiguous rows get their own bits.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != ndim or v.shape[-1] < 2:
        raise ValueError(f"probability vector needs K >= 2 entries, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("probability vector has non-finite entries")
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise ValueError(f"probability entries outside [0, 1]: {v}")
    mass = v.sum(axis=-1, keepdims=True)
    off = mass[np.abs(mass - 1.0) > mass_tol].tolist()
    if off:
        raise ValueError(f"probability mass {off[0]} deviates from 1 by more than {mass_tol}")
    return v / mass


def chain_arrays(obj, name: str, label: str, minus_id: bool = False):
    """Cast ``obj.knots`` and ``obj.<name>`` of a frozen chain map to float arrays and check them.

    They must be matching nonempty 1-D arrays, the knots strictly increasing,
    and ``obj.<name>``, less the identity if ``minus_id``, 1-Lipschitz between
    knots with 1e-12 slack; ``label`` names it in that error. Returns the
    array ``obj.<name>``.
    """
    knots = np.asarray(obj.knots, dtype=float)
    values = np.asarray(getattr(obj, name), dtype=float)
    object.__setattr__(obj, "knots", knots)
    object.__setattr__(obj, name, values)
    if knots.shape != values.shape or knots.ndim != 1 or knots.size == 0:
        raise ValueError(f"knots and {name} must be matching nonempty 1-D arrays")
    if np.any(np.diff(knots) <= 0.0):
        raise ValueError("knots must be strictly increasing")
    chain = values - knots if minus_id else values
    if np.any(np.abs(np.diff(chain)) > np.diff(knots) + 1e-12):
        raise ValueError(f"{label} violates the 1-Lipschitz chain constraint")
    return values


def newton_root(f, lo, hi, x0):
    """Zero of each element of a nondecreasing ``f`` inside its bracket [lo, hi].

    ``f(x)`` returns (value, slope) arrays. The start is clipped into the
    bracket. An element takes the Newton step where the slope is finite and
    > 0 and the step lands strictly inside its bracket, and bisects
    otherwise. It stops when its value is exactly 0, its raw Newton step is
    within 4 ulp, or its bracket has collapsed (an element whose bracket
    starts collapsed stays at ``lo``), or after 200 passes. Returns the
    roots, the slopes there and the number of passes. ``newton_root_scalar``
    is the same rule on one float.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x = np.clip(x0, lo, hi)
    active = lo < hi
    for it in range(1, 201):
        v, s = f(x)
        # a stopped element never moves again, so its bracket may shrink freely
        lo, hi = np.where(v < 0.0, x, lo), np.where(v > 0.0, x, hi)
        ok = (s > 0.0) & (s < np.inf)
        step = -v / np.where(ok, s, np.inf)
        xn = x + step
        done = ((v == 0.0) | (ok & (np.abs(step) <= 4.0 * np.spacing(np.abs(x))))
                | (hi <= np.nextafter(lo, np.inf)))
        move = active & ~done
        x = np.where(move, np.where(ok & (xn > lo) & (xn < hi), xn, 0.5 * (lo + hi)), x)
        active = move
        if not active.any():
            break
    # a stopped element stays put, so the last slopes belong to the roots
    return x, s, it


def unit_minimizers(slope_at, x0, lo: float, hi: float):
    """Each row's own minimizer over [lo, hi], and the curvature there, in one pass.

    ``slope_at(idx, x)`` returns per-row (f_i'(x_i), f_i''(x_i)) arrays for
    rows ``idx``, each f_i convex; ``x0`` holds a start per row, clipped into
    the bracket. Returns the minimizers, the curvatures and the passes of
    ``newton_root`` (1 if the bound tests settle every row).
    """
    x = np.clip(x0, lo, hi)
    rows = np.arange(x.size)
    g, h = slope_at(rows, x)
    y = x.copy()
    down, up = (g > 0.0) & (x > lo), (g < 0.0) & (x < hi)
    # the bound the slope points to is the minimizer if the slope keeps its sign there
    ends = rows[down | up]
    bound = np.where(up[ends], hi, lo)
    g, h_end = slope_at(ends, bound)
    pinned = np.where(up[ends], g <= 0.0, g >= 0.0)
    y[ends[pinned]], h[ends[pinned]] = bound[pinned], h_end[pinned]
    # otherwise the sign change lies between the start and that bound
    live = ends[~pinned]
    passes = 1
    if live.size:
        at, ahead = x[live], up[live]
        y[live], h[live], passes = newton_root(functools.partial(slope_at, live),
                                               np.where(ahead, at, lo), np.where(ahead, hi, at), at)
    return y, h, passes


def newton_root_scalar(f, lo: float, hi: float, x0: float):
    """``newton_root`` on one float, with its bits: returns (root, slope there)."""
    # on a tie np.clip returns the bound, so a -0.0 start at 0.0 becomes 0.0
    x = min(hi, max(lo, x0))
    for _ in range(200):
        v, s = f(x)
        if v < 0.0:
            lo = x
        elif v > 0.0:
            hi = x
        if v == 0.0 or hi <= math.nextafter(lo, math.inf):
            break
        if 0.0 < s < math.inf:
            step = -v / s
            # math.ulp(x) is np.spacing(|x|)
            if abs(step) <= 4.0 * math.ulp(x):
                break
            if lo < x + step < hi:
                x = x + step
                continue
        x = 0.5 * (lo + hi)
    return x, s
