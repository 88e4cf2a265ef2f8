"""Calibration and classification metrics.

Binned metrics follow the usual convention: equal-width bins use half-open
intervals (lo, hi] with 0 folded into the first bin; equal-mass bins are
contiguous runs of the stable confidence sort. Empty bins carry zero weight.

The smooth calibration error pools all (predicted value, residual) pairs over
samples and classes and maximizes the weighted sum of a 1-Lipschitz witness
bounded in [-1, 1]. On the sorted pooled values that is a linear program on a
chain. The prefix sums S of the pooled residuals solve it in closed form: the
signs of S fix each link where |S_i| is above a tie scaled by 1 + sum |w|, two
min-plus passes give the greatest witness under those links, and S as dual
flow certifies it with bound sum_i d_i |S_i| + |S_{m-1}|.
It takes probability rows only: entries in [0, 1], each row summing to one.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._common import LOG_EPS, ConvergenceError, chain_arrays, libm
from .data import PredictionSet

DEFAULT_BINS = 15

# smce fails above this duality gap, relative to 1 + sum_i |w_i|
SMCE_GAP_TOL = 1e-9
# prefix sums S_i of the pooled residuals within this of 0, relative to
# 1 + sum_i |w_i|, leave their link (or the last term) free
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
        values = chain_arrays(self, "values", "witness")
        if np.any(np.abs(values) > 1.0 + 1e-12):
            raise ValueError("witness values must lie in [-1, 1]")


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


def _top_class(pset: PredictionSet):
    """(1, n) stacks of the top-class confidences of ``pset`` and of their hits."""
    return pset.confidences()[None], (pset.predicted() == pset.labels)[None]


def bin_predictions(pset: PredictionSet, cfg: BinningConfig = BinningConfig()) -> list[BinSummary]:
    """Group samples by top-class confidence into M bins."""
    counts, acc, conf = (a[0].tolist()
                         for a in _bin_stats(*_top_class(pset), cfg))
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


def binned_gaps(confidences: np.ndarray, hits: np.ndarray, cfg: BinningConfig) -> np.ndarray:
    """Binned calibration gap of each row of the (E, n) stacks ``confidences`` and ``hits``.

    Under ``cfg``'s scheme: sum over bins of count / n * |hit mean - mean
    confidence|, added bin after bin; ECE with equal width, AdaECE with
    equal mass. Returns an (E,) array, from one ``_bin_stats`` pass.
    """
    counts, acc, conf = _bin_stats(confidences, hits, cfg)
    return _in_order(_gap_terms(counts, acc, conf, confidences.shape[-1]))


def _binned_gap(pset: PredictionSet, cfg: BinningConfig) -> float:
    return float(binned_gaps(*_top_class(pset), cfg)[0])


def ece(pset: PredictionSet, cfg: BinningConfig = BinningConfig()) -> float:
    return _binned_gap(pset, BinningConfig(bins=cfg.bins, scheme="equal_width"))


def mce(pset: PredictionSet, cfg: BinningConfig = BinningConfig()) -> float:
    counts, acc, conf = _bin_stats(*_top_class(pset), cfg)
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


def _greatest(up: list, down: list, top: float) -> list:
    """Greatest x <= 1 with x_{m-1} <= top, x_{i+1} - x_i <= up_i and x_i - x_{i+1} <= down_i.

    The links are difference constraints on a chain, so one forward and one
    backward min-plus pass give the least upper bound of every knot.
    """
    x = [1.0]
    for u in up:
        x.append(min(x[-1] + u, 1.0))
    x[-1] = min(x[-1], top)
    for i in range(len(down) - 1, -1, -1):
        x[i] = min(x[i], x[i + 1] + down[i])
    return x


def _max_chain(w: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Greatest maximizer of sum_i w_i x_i over |x_i| <= 1, |x_{i+1} - x_i| <= d_i.

    d_i = knots[i+1] - knots[i] and S_i = w_0 + ... + w_i. By Abel summation
    sum_i w_i x_i = sum_i S_i (x_i - x_{i+1}) + S_{m-1} x_{m-1}, so where
    |S_i| is above the tie, link i is tight, x_{i+1} = x_i - d_i sign(S_i);
    elsewhere it is free. With knots in [0, 1] the links span at most 1, so
    the greatest x <= 1 under them stays in [-1, 1] and takes x_{m-1} as high
    as it goes. If S_{m-1} is below -tie, x_{m-1} is first pinned to its
    least value under the links and x >= -1: the greatest of the negated
    chain, -x.

    smce passes probability rows only, so S_{m-1} is rounding, and many
    witnesses are optimal; rounding in the weights would pick among them.
    Hence the tie _TIE_TOL * (1 + sum_i |w_i|), which scales with the
    rounding in S.
    """
    s = np.cumsum(w)
    tie = _TIE_TOL * (1.0 + float(np.abs(w).sum()))
    d = np.diff(knots)
    up = np.where(s[:-1] > tie, -d, d).tolist()
    down = np.where(s[:-1] < -tie, -d, d).tolist()
    top = -_greatest(down, up, 1.0)[-1] if s[-1] < -tie else 1.0
    return np.array(_greatest(up, down, top))


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
    nll, error = _nll_and_error(probs, labels)
    return {"ece": binned_gaps(probs.max(axis=-1), probs.argmax(axis=-1) == labels,
                               BinningConfig(bins=cfg.bins)),
            "nll": nll, "error": error}


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
