"""Post-hoc temperature scaling and the post-processing-gap estimator.

The post-processing gap searches over remaps ``kappa: [0,1] -> [0,1]`` whose
offset ``delta(v) = kappa(v) - v`` is 1-Lipschitz. An optimal ``kappa`` for a
finite sample can be taken piecewise linear between the observed predicted
values, so the search reduces to a finite convex program over the kappa
values at the sorted distinct predictions, with the chain constraint
``0 <= kappa_{j+1} - kappa_j <= 2 (v_{j+1} - v_j)``. That program is solved
exactly by a block active-set method on the chain (generalised pool-adjacent-
violators; Best, Chakravarti & Ubhaya, SIAM J. Optim. 10(3), 2000), and the
answer is certified by its KKT residual.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._common import ConvergenceError, exp_sums, newton_root, newton_root_scalar, softmax
from .data import PredictionSet
from .losses import LossSpec, focal_phi
from .metrics import BinningConfig, binned_gaps

CONVEX_FAMILIES = ("ce", "brier", "focal", "fcl")

# pgap fails above this KKT residual, relative to 1 + sum_j |f_j'(kappa_j)|
# (the multipliers are prefix sums of the gradient and carry its rounding)
PGAP_KKT_TOL = 1e-9
# chain links closer than this to a bound count as tight in the certificate
_LINK_TOL = 1e-12
# temperatures scored per binning pass in the scan; with at most K of them,
# a chunk's (E, n) stacks are no larger than one (n, K) array of a grid point
_SCAN_CHUNK = 10


@dataclass
class TemperatureScanResult:
    best_t: float
    grid: list  # {"t", "ece"} rows in grid order
    pre_ece: float
    post_ece: float


@dataclass(frozen=True)
class PostProcessMap:
    knots: np.ndarray   # sorted distinct predicted values in [0, 1]
    kappa: np.ndarray   # remapped values at the knots

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        kappa = np.asarray(self.kappa, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "kappa", kappa)
        if knots.shape != kappa.shape or knots.ndim != 1 or knots.size == 0:
            raise ValueError("knots and kappa must be matching nonempty 1-D arrays")
        if np.any(np.diff(knots) <= 0.0):
            raise ValueError("knots must be strictly increasing")
        if np.any(kappa < -1e-12) or np.any(kappa > 1.0 + 1e-12):
            raise ValueError("kappa values must lie in [0, 1]")
        delta = kappa - knots
        if np.any(np.abs(np.diff(delta)) > np.diff(knots) + 1e-12):
            raise ValueError("kappa - id violates the 1-Lipschitz chain constraint")


@dataclass
class PGapResult:
    raw_risk: float
    optimized_risk: float
    pgap: float
    map: PostProcessMap
    kkt_residual: float = field(metadata={"payload": False})  # see PGAP_KKT_TOL


def temperature_grid(t_min: float = 0.1, t_max: float = 10.0, t_step: float = 0.1) -> np.ndarray:
    if not t_step > 0.0:
        raise ValueError("temperature step must be > 0")
    span = (t_max - t_min) / t_step
    if not all(map(math.isfinite, (t_min, t_max, t_step, span))):
        raise ValueError("temperature grid bounds and step must be finite")
    count = int(round(span)) + 1
    if count < 1:
        raise ValueError("empty temperature grid")
    return np.round(t_min + t_step * np.arange(count), 12)


def _scalable_logits(pset: PredictionSet, t: float) -> np.ndarray:
    """``pset.logits``, checked to scale by 1/T to finite values for every T >= ``t``."""
    if not t > 0.0:
        raise ValueError("temperature must be > 0")
    if pset.logits is None:
        raise ValueError("temperature scaling requires logits")
    # z / T is finite for all T >= t when max |z| / t is; a nan logit fails too
    largest = float(np.abs(pset.logits).max()) / t
    if not math.isfinite(largest):
        raise ValueError(f"logits overflow at temperature {t!r}: max |z| / T = {largest}")
    return pset.logits


def apply_temperature(pset: PredictionSet, t: float) -> PredictionSet:
    """Rescale logits by 1/t; labels and argmax are unchanged for t > 0.

    Raises ValueError unless t > 0 and max |z| / t is finite.
    """
    scaled = _scalable_logits(pset, t) / t
    return PredictionSet(probs=softmax(scaled, axis=1), labels=pset.labels.copy(),
                         logits=scaled, eta=None if pset.eta is None else pset.eta.copy())


@np.errstate(over="ignore")
def _near_ties(z: np.ndarray, t_max: float) -> np.ndarray:
    """Rows whose argmax of softmax(z / T) may differ from argmax(z) for some T <= t_max.

    argmax takes the first maximum, and the top entry of e / s is 1 / s, so
    another entry can take its place only if z / T, exp or the division
    rounds it to 1 / s. With m the row max, an entry z_j cannot: if m - z_j
    > T 2^-48 + (|m| + |z_j|) 2^-53 (plus a subnormal 2^-1074 T), the scaled
    difference rounds to at most -2^-48, its exp to below 1 - 2^-49 and its
    quotient by s to below the float 1 / s. The test takes twice that margin,
    at t_max, on the row's runner-up z_r, wherever it lies: an entry z_j <=
    z_r is farther from m by z_r - z_j, and its margin is larger by at most
    (z_r - z_j) 2^-52. A difference that overflows is far; a margin that
    overflows flags its row, which is safe.
    """
    second, top = np.partition(z, -2, axis=1)[:, -2:].T
    slack = t_max * 2.0 ** -47 + (np.abs(top) + np.abs(second)) * 2.0 ** -52
    return np.flatnonzero(top - second <= slack)


def _temperature_eces(pset: PredictionSet, ts: list, bins: int) -> list:
    """``ece(apply_temperature(pset, t))`` for each t in ``ts``, bit for bit, from 1 / sum exp.

    With m the row max of z, a grid point needs only e = exp(z/t - m/t) and
    its row sums s (``exp_sums``, softmax's own arithmetic): m/t is the max
    of z/t, since division by t > 0 is monotone, so the top entry of e is
    exp(0) = 1, and no e_j / s exceeds 1 / s, which is the confidence. The
    hits are those of argmax(z), except on the rows of ``_near_ties``,
    which take argmax(e / s) at each t. Chunks of up to _SCAN_CHUNK (at
    most K) temperatures are scored by one ``binned_gaps`` pass.
    """
    z = _scalable_logits(pset, min(ts))
    zmax = z.max(axis=1, keepdims=True)
    hit = z.argmax(axis=1) == pset.labels
    near = _near_ties(z, max(ts))
    cfg = BinningConfig(bins=bins)
    step = min(_SCAN_CHUNK, pset.k)
    # every grid point computes z / t and its exps in this one array, so the
    # scan allocates no (n, K) array per point but libm's own output
    e = np.empty_like(z)
    eces: list = []
    for lo in range(0, len(ts), step):
        chunk = ts[lo:lo + step]
        conf = np.empty((len(chunk), pset.n))
        hits = np.repeat(hit[None], len(chunk), axis=0)
        for i, t in enumerate(chunk):
            e, s = exp_sums(np.divide(z, t, out=e), zmax / t, out=e)
            conf[i] = 1.0 / s[:, 0]
            hits[i, near] = (e[near] / s[near]).argmax(axis=1) == pset.labels[near]
        eces += binned_gaps(conf, hits, cfg).tolist()
    return eces


def temperature_scan(val: PredictionSet, cfg: BinningConfig = BinningConfig(),
                     t_min: float = 0.1, t_max: float = 10.0,
                     t_step: float = 0.1) -> TemperatureScanResult:
    """Grid-search the temperature minimizing validation ECE.

    Ties are broken toward the T closest to 1.0, then toward the smaller T.
    Each ECE, and ``pre_ece`` at T = 1, has the bits of
    ``ece(apply_temperature(val, t), cfg)``.
    """
    if val.logits is None:
        raise ValueError("temperature scan requires logits")
    ts = temperature_grid(t_min, t_max, t_step).tolist()
    # pre_ece is the ECE at T = 1, which is scored with the grid if the grid skips it
    scored = ts if 1.0 in ts else ts + [1.0]
    eces = _temperature_eces(val, scored, cfg.bins)
    grid = [{"t": t, "ece": e} for t, e in zip(ts, eces)]
    best = min(grid, key=lambda r: (r["ece"], abs(r["t"] - 1.0), r["t"]))
    return TemperatureScanResult(best_t=best["t"], grid=grid, pre_ece=eces[scored.index(1.0)],
                                 post_ece=best["ece"])


def _binary_loss_terms(spec: LossSpec, kappa: np.ndarray, order: int = 0) -> list:
    """(label 1, label 0) pairs of the loss or its derivatives at class-1 probability ``kappa``.

    ``order`` 0 gives [(l1, l0)], the values over a 1-D ``kappa``; 1 gives
    [(d1, d0)], the first derivatives, and 2 gives [(d1, d0), (h1, h0)], with
    no values computed. Label 1 scores the loss table's focal term at kappa and
    label 0 at 1 - kappa; its a ||(1 - kappa, kappa) - e_y||^2 is 2a (kappa - y)^2.
    """
    gamma, a = spec.coeffs
    # keep the fractional powers real-valued for arguments a hair outside [0, 1]
    p = kappa.clip(0.0, 1.0)
    q = 1.0 - p
    if gamma is not None:
        # one call for both labels: elementwise terms, so the bits of two calls
        m = len(p)
        phi = focal_phi(np.concatenate([p, q]), gamma, order)
    out = []
    for k in range(min(order, 1), order + 1):
        if gamma is not None:
            # chain rule through q = 1 - kappa
            pair = (phi[k][:m], -phi[k][m:] if k == 1 else phi[k][m:])
        if a:
            quad = ((a * 2.0 * q ** 2, a * 2.0 * p ** 2) if k == 0
                    else (-(a * 4.0 * q), a * 4.0 * p) if k == 1
                    else (np.full_like(p, a * 4.0),) * 2)
            pair = quad if gamma is None else (pair[0] + quad[0], pair[1] + quad[1])
        out.append(pair)
    return out


def _unit_minimizers(slope_at, x: np.ndarray):
    """Each knot's own minimizer over [0, 1], and the curvature there, in one pass.

    ``slope_at(idx, x)`` returns per-knot (f_i'(x_i), f_i''(x_i)) arrays for
    knots ``idx``, each f_i convex; ``x`` holds a first guess per knot. The
    bounds 0 and 1 are tested first; the rows whose sign change lies between
    the guess and a bound are solved together by ``newton_root``.
    """
    rows = np.arange(x.size)
    g, h = slope_at(rows, x)
    y = x.copy()
    down, up = (g > 0.0) & (x > 0.0), (g < 0.0) & (x < 1.0)
    # the bound the slope points to is the minimizer if the slope keeps its sign there
    ends = rows[down | up]
    bound = up[ends].astype(float)
    g, h_end = slope_at(ends, bound)
    pinned = np.where(up[ends], g <= 0.0, g >= 0.0)
    y[ends[pinned]], h[ends[pinned]] = bound[pinned], h_end[pinned]
    # otherwise the sign change lies between x and that bound
    live = ends[~pinned]
    if live.size:
        at, ahead = x[live], up[live]
        y[live], h[live], _ = newton_root(functools.partial(slope_at, live),
                                          np.where(ahead, at, 0.0), np.where(ahead, 1.0, at), at)
    return y, h


def _solve_chain(slope_at, w: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Minimize sum_j f_j(kappa_j) over 0 <= kappa_{j+1} - kappa_j <= w_j, kappa in [0, 1].

    Each f_j is convex; ``slope_at(idx, x)`` returns per-knot arrays
    (f_i'(x_i), f_i''(x_i)) over knots ``idx`` (an index array or a slice)
    at the float array ``x``; ``start`` holds a first guess for each knot
    on its own.

    The first phase finds every knot's own minimizer r_j over [0, 1] at once
    (``_unit_minimizers``); it does not depend on the chain. The second, a
    forward pass, finds y_j, the minimizer over [0, 1] of the value function
    V_j(x) = f_j(x) + min over y in [x - w_{j-1}, x] of V_{j-1}(y). Since
    V_{j-1} is convex that inner minimum is attained at the clip of y_{j-1}
    to the window, so V_j'(x) is the sum of f_i' over the chain of knots tied
    to x by tight links (kappa_i = kappa_{i+1}, or kappa_i = kappa_{i+1} - w_i)
    back to the first slack one. Those chains are the blocks of the active
    set; they merge and split as x moves. If the link to y_{j-1} is slack at
    r_j then y_j = r_j, otherwise knot j joins the block ending at j-1 and
    y_j lies between r_j and the end of that link: ``newton_root_scalar``
    finds it, starting from the merged block's linearization, with the
    block's terms summed by ``math.fsum`` so the bits do not depend on their
    order. A block is a run of consecutive knots, so each Newton pass walks
    it in Python once for its points and hands ``slope_at`` a slice and one
    array of them; ``slope_at`` evaluates derivatives only.
    Backtracking from y_{m-1} through the clips then gives the minimizer.
    """
    ws = w.tolist()
    ys: list[float] = []
    hs: list[float] = []  # V_j'' near y_j, for first guesses only

    def slope(block, pts):
        g, h = slope_at(block, pts)
        return math.fsum(g.tolist()), math.fsum(h.tolist())

    def level(j, x):
        # the block's points, from knot j back to its first knot
        pts = [x]
        for i in range(j - 1, -1, -1):
            y, stretched = ys[i], x - ws[i]
            if y < stretched:
                x = stretched
            elif y <= x:
                break
            pts.append(x)
        return slope(slice(j + 1 - len(pts), j + 1), np.array(pts[::-1]))

    own, own_h = _unit_minimizers(slope_at, start)
    for j, (y, h) in enumerate(zip(own.tolist(), own_h.tolist())):
        if j and ys[-1] < y - ws[j - 1]:
            # link to j-1 stretched at y: V_j' > 0 there unless y is the bound 1
            lo = edge = ys[-1] + ws[j - 1]
            hi = y
            search = y < 1.0 or level(j, 1.0)[0] > 0.0
        elif j and ys[-1] > y:
            # link squeezed at y: V_j' < 0 there unless y is the bound 0
            lo, hi = y, ys[-1]
            edge = hi
            search = y > 0.0 or level(j, 0.0)[0] < 0.0
        else:
            search = False  # link slack at y: V_j' = f_j' there
        if search:
            # first guess: knot j merged into the block ending at j-1
            g, h = slope(slice(j, j + 1), np.array([edge]))
            y, h = newton_root_scalar(functools.partial(level, j), lo, hi,
                                      edge - g / (h + hs[-1]))
        ys.append(y)
        hs.append(h)

    kappa = np.empty(len(ys))
    x = kappa[-1] = ys[-1]
    for i in range(len(ys) - 2, -1, -1):
        x = kappa[i] = min(max(ys[i], x - ws[i]), x)
    return kappa


def _chain_kkt_residual(grad: np.ndarray, kappa: np.ndarray, w: np.ndarray) -> float:
    """KKT residual of ``kappa`` for the chain program of ``_solve_chain``.

    With gradient g and prefix sums s_j = g_0 + ... + g_j, stationarity fixes
    every multiplier in terms of nu >= 0, the one of kappa_0 >= 0: the force
    on link j is nu - s_j (>= 0 if only its lower bound is tight, <= 0 if only
    its upper bound is, 0 if slack), and the multiplier of kappa_{m-1} <= 1
    is nu - s_{m-1}. Each condition bounds nu from below or above; the
    residual is half the largest excess of a lower bound over an upper one.
    """
    s = np.cumsum(grad)
    dk = np.diff(kappa)
    lower_tight = dk <= _LINK_TOL
    upper_tight = dk >= w - _LINK_TOL
    lows = np.concatenate([[0.0, s[-1]], s[:-1][~upper_tight]])
    ups = np.concatenate([[] if kappa[-1] >= 1.0 - _LINK_TOL else [s[-1]],
                          [0.0] if kappa[0] > _LINK_TOL else [],
                          s[:-1][~lower_tight], [math.inf]])
    return float(np.maximum(lows.max() - ups.min(), 0.0)) / 2.0


def pgap(pset: PredictionSet, spec: LossSpec) -> PGapResult:
    """Risk reduction achievable by the best 1-Lipschitz-offset remap.

    Restricted to binary prediction sets and losses convex in the predicted
    probability (ce, brier, focal, fcl). The optimum is exact up to rounding;
    raises ConvergenceError if its KKT residual exceeds PGAP_KKT_TOL.
    """
    if pset.k != 2:
        raise ValueError("pgap is defined for binary predictors (K = 2)")
    if spec.family not in CONVEX_FAMILIES:
        raise ValueError(f"pgap requires a convex loss family, got {spec.family!r}")

    knots, inverse = np.unique(pset.probs[:, 1], return_inverse=True)
    n1 = np.bincount(inverse, weights=pset.labels == 1, minlength=knots.size)
    n0 = np.bincount(inverse, weights=pset.labels == 0, minlength=knots.size)
    w = 2.0 * np.diff(knots)

    def risk(kappa):
        (l1, l0), = _binary_loss_terms(spec, kappa)
        return math.fsum((n1 * l1 + n0 * l0).tolist()) / pset.n

    def slope_at(block, x):
        (d1, d0), (h1, h0) = _binary_loss_terms(spec, x, 2)
        a, b = n1[block], n0[block]
        return a * d1 + b * d0, a * h1 + b * h0

    kappa = _solve_chain(slope_at, w, knots)
    (d1, d0), = _binary_loss_terms(spec, kappa, 1)
    grad = (n1 * d1 + n0 * d0) / pset.n
    residual = _chain_kkt_residual(grad, kappa, w)
    if not residual <= PGAP_KKT_TOL * (1.0 + float(np.abs(grad).sum())):
        raise ConvergenceError(f"pgap optimum not certified (KKT residual {residual:.3e})")
    raw_risk, opt = risk(knots), risk(kappa)
    return PGapResult(raw_risk=raw_risk, optimized_risk=opt, pgap=raw_risk - opt,
                      map=PostProcessMap(knots=knots, kappa=kappa), kkt_residual=residual)
