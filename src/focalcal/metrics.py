"""Calibration and classification metrics.

Binned metrics follow the usual convention: equal-width bins use half-open
intervals (lo, hi] with 0 folded into the first bin; equal-mass bins are
contiguous runs of the stable confidence sort. Empty bins carry zero weight.

The smooth calibration error pools all (predicted value, residual) pairs over
samples and classes and maximizes the weighted sum of a 1-Lipschitz witness
bounded in [-1, 1]. On the sorted pooled values that is a linear program on a
chain, solved exactly by a slope-trick dynamic program (Hu, Jambulapati, Tian
& Yang, arXiv 2402.13187) and certified by the closed-form dual flow g = S, the
prefix sums of the pooled residuals, with bound sum_i d_i |S_i| + |S_{m-1}|.
It takes probability rows only: entries in [0, 1], each row summing to one.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._common import LOG_EPS, ConvergenceError, libm
from .data import PredictionSet

DEFAULT_BINS = 15

# smce fails above this duality gap, relative to 1 + sum_i |w_i|
SMCE_GAP_TOL = 1e-9
# slopes within this of each other, relative to max |w|, count as equal
_TIE_TOL = 1e-13


@dataclass(frozen=True)
class BinningConfig:
    bins: int = DEFAULT_BINS
    scheme: str = "equal_width"

    def __post_init__(self):
        if self.bins < 1:
            raise ValueError("need at least one bin")
        if self.scheme not in ("equal_width", "equal_mass"):
            raise ValueError(f"unknown binning scheme {self.scheme!r}")


@dataclass(frozen=True)
class BinSummary:
    lo: float
    hi: float
    count: int
    accuracy: float  # nan when the bin is empty
    confidence: float

    @property
    def gap(self) -> float:
        return self.accuracy - self.confidence


@dataclass(frozen=True)
class LipschitzWitness:
    """Piecewise-linear 1-Lipschitz function on [0, 1] bounded in [-1, 1]."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if knots.shape != values.shape or knots.ndim != 1 or knots.size == 0:
            raise ValueError("knots and values must be matching nonempty 1-D arrays")
        if np.any(np.diff(knots) <= 0.0):
            raise ValueError("knots must be strictly increasing")
        if np.any(np.abs(values) > 1.0 + 1e-12):
            raise ValueError("witness values must lie in [-1, 1]")
        if np.any(np.abs(np.diff(values)) > np.diff(knots) + 1e-12):
            raise ValueError("witness violates the 1-Lipschitz chain constraint")


@dataclass(frozen=True)
class SmceResult:
    value: float
    witness: LipschitzWitness
    duality_gap: float = field(metadata={"payload": False})  # sum d_i|S_i| + |S_{m-1}| - w.x


@dataclass
class MetricReport:
    ece: float
    mce: float
    adaece: float
    cwece: float
    smce: float
    nll: float
    brier: float
    error: float
    auroc: Optional[float] = None
    bins: list = field(default_factory=list)  # BinSummary rows


def _segment_sums(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each consecutive run of ``x``, the runs ``counts`` long.

    Each sum has the bits of ``np.sum`` over its run alone. A run whose
    length no other run shares is summed as a slice. The runs of a shared
    length are gathered into the rows of a 2-D array and summed along the
    last axis, which adds each row in numpy's pairwise order, as for the
    slice. (``np.add.reduceat`` adds each run in another order and gives
    other bits.)
    """
    ends = np.cumsum(counts)
    by_length = np.argsort(counts, kind="stable")
    lengths = counts[by_length].tolist()
    sums = np.zeros(counts.size)
    a = bisect.bisect_right(lengths, 0)
    while a < len(lengths):
        length = lengths[a]
        b = bisect.bisect_right(lengths, length, a)
        runs = by_length[a:b]
        if b - a == 1:
            end = int(ends[runs[0]])
            sums[runs] = np.add.reduce(x[end - length:end])
        else:
            sums[runs] = np.add.reduce(x[(ends[runs] - length)[:, None] + np.arange(length)],
                                       axis=1)
        a = b
    return sums


def _bin_stats(values: np.ndarray, hits: np.ndarray, cfg: BinningConfig):
    """Bin each row of the (E, n) stack ``values``; the one binned-statistics kernel.

    Returns (E, M) arrays of bin counts, the mean of ``hits`` and the mean
    of ``values`` in each bin (nan in an empty one). Equal width: a stable
    sort by bin index. Equal mass: contiguous runs of the stable sort by
    value, the first n mod M of them one longer. Members keep that order,
    so each mean has the bits of ``np.mean`` over ``values[rows]``.
    """
    e, n = values.shape
    m = cfg.bins
    if cfg.scheme == "equal_width":
        key = np.searchsorted(np.arange(1, m) / m, values, side="left") + m * np.arange(e)[:, None]
        order = np.argsort(key, axis=None, kind="stable")
        counts = np.bincount(key.ravel(), minlength=e * m)
    else:
        order = (np.argsort(values, axis=1, kind="stable") + n * np.arange(e)[:, None]).ravel()
        base, rem = divmod(n, m)
        counts = np.tile(base + (np.arange(m) < rem), e)
    # the count of hits is an exact integer whatever the order of the adds
    hit_sums = np.bincount(np.repeat(np.arange(e * m), counts),
                           weights=hits.ravel()[order], minlength=e * m)
    sums = _segment_sums(values.ravel()[order], counts)
    with np.errstate(invalid="ignore"):
        hit_means, means = hit_sums / counts, sums / counts
    return counts.reshape(e, m), hit_means.reshape(e, m), means.reshape(e, m)


def _gap_terms(counts, hit_means, means, denom) -> np.ndarray:
    """count / denom * |hit mean - mean| per bin, and 0 in an empty bin."""
    return np.where(counts > 0, counts / denom * np.abs(hit_means - means), 0.0)


def _in_order(terms: np.ndarray) -> np.ndarray:
    """Sum of each row of ``terms``, added one column after another."""
    # cumsum adds sequentially, as a Python loop over the bins does; np.sum
    # would add pairwise
    return np.cumsum(terms, axis=-1)[..., -1]


def _top_class_bins(probs: np.ndarray, labels: np.ndarray, cfg: BinningConfig):
    """``_bin_stats`` of the top-class confidence of each (n, K) slice of ``probs``."""
    return _bin_stats(probs.max(axis=-1), probs.argmax(axis=-1) == labels, cfg)


def bin_predictions(pset: PredictionSet, cfg: BinningConfig = BinningConfig()) -> list[BinSummary]:
    """Group samples by top-class confidence into M bins."""
    counts, acc, conf = (a[0].tolist()
                         for a in _top_class_bins(pset.probs[None], pset.labels, cfg))
    m = cfg.bins
    if cfg.scheme == "equal_width":
        edges = [(b / m, (b + 1) / m) for b in range(m)]
    else:
        ranked = np.sort(pset.confidences()).tolist()
        ends = np.cumsum(counts).tolist()
        nan = float("nan")
        edges = [(ranked[end - c], ranked[end - 1]) if c else (nan, nan)
                 for c, end in zip(counts, ends)]
    return [BinSummary(lo, hi, c, a, f) for (lo, hi), c, a, f in zip(edges, counts, acc, conf)]


def _binned_gap(pset: PredictionSet, cfg: BinningConfig) -> float:
    counts, acc, conf = _top_class_bins(pset.probs[None], pset.labels, cfg)
    return float(_in_order(_gap_terms(counts, acc, conf, pset.n))[0])


def ece(pset: PredictionSet, cfg: BinningConfig = BinningConfig()) -> float:
    return _binned_gap(pset, BinningConfig(bins=cfg.bins, scheme="equal_width"))


def mce(pset: PredictionSet, cfg: BinningConfig = BinningConfig()) -> float:
    counts, acc, conf = _top_class_bins(pset.probs[None], pset.labels, cfg)
    return float(max(np.abs(acc - conf)[counts > 0].tolist()))


def adaece(pset: PredictionSet, cfg: BinningConfig = BinningConfig(scheme="equal_mass")) -> float:
    return _binned_gap(pset, BinningConfig(bins=cfg.bins, scheme="equal_mass"))


def classwise_ece(pset: PredictionSet, cfg: BinningConfig = BinningConfig(),
                  norm: str = "global") -> float:
    """Average per-class binned gap over the per-class probability p_k.

    ``norm="global"`` weights bins by |B_km| / N; ``norm="per-class"`` uses
    the per-class count N_k instead.
    """
    if norm not in ("global", "per-class"):
        raise ValueError(f"unknown cwece norm {norm!r}")
    is_k = pset.labels == np.arange(pset.k)[:, None]
    denom = pset.n if norm == "global" else np.maximum(is_k.sum(axis=1), 1)[:, None]
    counts, hits, means = _bin_stats(pset.probs.T, is_k, cfg)
    # one running sum over the classes and, within each, over its bins
    return float(_in_order(_gap_terms(counts, hits, means, denom).ravel())) / pset.k


def _max_chain(w: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Greatest maximizer of sum_i w_i x_i over |x_i| <= 1, |x_{i+1} - x_i| <= d_i.

    d_i = knots[i+1] - knots[i]. A forward pass keeps V_i(x), the best prefix
    value with x_i = x, which is concave and piecewise linear on [-1, 1] (the
    slope trick). Its slope breakpoints right of the flat top [lo_i, hi_i]
    sit on one stack and those left of it on another, each with the amount
    by which the slope drops there, the one nearest the flat top last. Each
    side is kept in its own outward coordinate, u = x on the right and
    u = -x on the left, so both look alike and the bound is u = 1 on both.
    Adding w_i x moves the flat top towards the side w_i points to, across
    that side's breakpoints onto the other stack, until the slope |w_i| is
    used up or the bound is reached. New breakpoints appear only at the flat
    top, so each stack stays sorted without a heap. Going to the next knot
    widens the flat top by d_i to each side, which moves every breakpoint
    outwards by d_i, so a stack holds u - (d_0 + ... + d_{i-1}) for the knot
    i at which the breakpoint was placed. Breakpoints past the bound never
    come back: a stack whose last one lies there is empty as far as V is
    concerned, and clipping to [-1, 1] needs no breakpoint of its own.

    smce passes probability rows only, so the pooled residuals sum to zero,
    many witnesses are optimal, and rounding in the weights would pick among
    them. Hence slopes within _TIE_TOL * max |w| of each other count as
    equal. smce certifies the result with the prefix sums S of w as dual
    flow, whose bound is sum_i d_i |S_i| + |S_{m-1}|.

    The backtrack takes x_{m-1} = hi_{m-1} and x_i = clip(hi_i, x_{i+1} - d_i,
    x_{i+1} + d_i): the greatest maximizer of V_i within reach of x_{i+1}.
    """
    right, left = ([], []), ([], [])  # (u - knot, amount) as parallel lists
    tops = []  # hi_i
    tie = _TIE_TOL * float(np.abs(w).max())
    d = np.diff(knots).tolist()
    v = 0.0  # the shift of both stacks
    for wi, dv in zip(w.tolist(), [0.0] + d):
        v += dv
        if abs(wi) > tie:
            (us, amounts), (other_us, other_amounts) = (right, left) if wi > 0.0 else (left, right)
            slope = abs(wi)
            while True:
                u = us[-1] + v if us else 1.0
                if u >= 1.0:
                    # the flat top reaches the bound with slope to spare
                    other_us.append(-1.0 - v)
                    other_amounts.append(slope)
                    break
                amount = amounts[-1]
                if amount > slope + tie:
                    amounts[-1] = amount - slope
                    other_us.append(-u - v)
                    other_amounts.append(slope)
                    break
                us.pop()
                amounts.pop()
                other_us.append(-u - v)
                other_amounts.append(amount)
                slope -= amount
                if slope <= tie:
                    break
        hi = right[0][-1] + v if right[0] else 1.0
        tops.append(hi if hi < 1.0 else 1.0)

    values = [tops[-1]]
    for top, di in zip(tops[-2::-1], d[::-1]):
        x = values[-1]
        values.append(x - di if top < x - di else x + di if top > x + di else top)
    return np.array(values[::-1])


def smce(pset: PredictionSet) -> SmceResult:
    """Smooth calibration error of probability rows, with the optimizing 1-Lipschitz witness.

    Residual weights w are pooled at the sorted unique predicted values and
    the chain LP is solved exactly by ``_max_chain``; the value is normalized
    by the number of samples. The witness is the greatest optimal one.

    The dual flow g = S, the prefix sums S_i = w_0 + ... + w_i, certifies it:
    by Abel summation every feasible x has sum_i w_i x_i <= sum_i d_i |S_i| +
    |S_{m-1}|. With knots in [0, 1] the path x_{i+1} = x_i - d_i sign(S_i)
    fits in [-1, 1], so the bound exceeds the optimum by at most 2 |S_{m-1}|,
    which is rounding when every row sums to one. Hence smce raises ValueError
    unless the knots lie in [0, 1] and |S_{m-1}| <= SMCE_GAP_TOL / 2 relative
    to 1 + sum_i |w_i|, and ConvergenceError if the gap exceeds SMCE_GAP_TOL.
    """
    onehots = np.eye(pset.k)[pset.labels]
    preds = pset.probs.ravel()
    residuals = (onehots - pset.probs).ravel()
    knots, inverse = np.unique(preds, return_inverse=True)
    weights = np.zeros(knots.size)
    np.add.at(weights, inverse, residuals)
    if not (0.0 <= knots[0] and knots[-1] <= 1.0):
        raise ValueError("smce needs predicted probabilities in [0, 1]")
    flow = np.cumsum(weights)
    total = abs(float(flow[-1]))
    scale = 1.0 + float(np.abs(weights).sum())
    if not total <= 0.5 * SMCE_GAP_TOL * scale:
        raise ValueError(f"smce needs rows that sum to one (residuals sum to {flow[-1]:.3e})")

    values = _max_chain(weights, knots)
    witness = LipschitzWitness(knots=knots, values=values)
    attained = float(weights @ values)
    gap = float(np.diff(knots) @ np.abs(flow[:-1])) + total - attained
    if not gap <= SMCE_GAP_TOL * scale:
        raise ConvergenceError(f"smCE witness not certified (duality gap {gap:.3e})")
    return SmceResult(value=attained / pset.n, witness=witness, duality_gap=gap)


def _nll_and_error(probs: np.ndarray, labels: np.ndarray):
    """Mean NLL (log floored at 1e-12) and top-1 error of each (n, K) slice of ``probs``."""
    p_true = probs[..., np.arange(labels.size), labels]
    nll = np.mean(-libm(math.log, np.maximum(p_true, LOG_EPS)), axis=-1)
    return nll, np.mean(probs.argmax(axis=-1) != labels, axis=-1)


def score_metrics(pset: PredictionSet) -> dict:
    """Mean NLL (log floored at 1e-12), Brier score, and top-1 error."""
    nll, error = _nll_and_error(pset.probs, pset.labels)
    onehots = np.eye(pset.k)[pset.labels]
    brier = float(np.mean(np.sum((pset.probs - onehots) ** 2, axis=1)))
    return {"nll": float(nll), "brier": brier, "error": float(error)}


def stacked_scores(probs: np.ndarray, labels: np.ndarray,
                   cfg: BinningConfig = BinningConfig()) -> dict:
    """Equal-width ECE, NLL and error of each (n, K) slice of the (E, n, K) stack ``probs``.

    Each is an (E,) array with the bits that ``ece`` and ``score_metrics``
    give on ``PredictionSet(probs[e], labels)``, from one pass over the stack.
    """
    counts, acc, conf = _top_class_bins(probs, labels, BinningConfig(bins=cfg.bins))
    nll, error = _nll_and_error(probs, labels)
    return {"ece": _in_order(_gap_terms(counts, acc, conf, labels.size)), "nll": nll,
            "error": error}


def auroc(scores_pos, scores_neg) -> float:
    """Mann-Whitney AUROC with half credit for ties."""
    pos = np.asarray(scores_pos, dtype=float)
    neg = np.asarray(scores_neg, dtype=float)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score lists must be nonempty")
    if np.isnan(pos).any() or np.isnan(neg).any():
        raise ValueError("scores must not be nan")
    # U counts the pairs a positive wins, ties as half: (#neg < p + #neg <= p) / 2
    neg = np.sort(neg)
    u = int(np.sum(np.searchsorted(neg, pos, "left") + np.searchsorted(neg, pos, "right"))) / 2.0
    return float(u / (pos.size * neg.size))


def reliability_table(pset: PredictionSet, cfg: BinningConfig = BinningConfig()) -> list[BinSummary]:
    """Per-bin accuracy/confidence rows; the gap column is accuracy-confidence."""
    return bin_predictions(pset, cfg)


def compute_report(pset: PredictionSet, cfg: BinningConfig = BinningConfig(),
                   cwece_norm: str = "global") -> MetricReport:
    scores = score_metrics(pset)
    return MetricReport(
        ece=ece(pset, cfg),
        mce=mce(pset, cfg),
        adaece=adaece(pset, BinningConfig(bins=cfg.bins, scheme="equal_mass")),
        cwece=classwise_ece(pset, cfg, norm=cwece_norm),
        smce=smce(pset).value,
        nll=scores["nll"],
        brier=scores["brier"],
        error=scores["error"],
        bins=bin_predictions(pset, cfg),
    )
