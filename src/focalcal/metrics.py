"""Calibration and classification metrics.

Binned metrics follow the usual convention: equal-width bins use half-open
intervals (lo, hi] with 0 folded into the first bin; equal-mass bins are
contiguous runs of the stable confidence sort. Empty bins carry zero weight.

The smooth calibration error pools all (predicted value, residual) pairs over
samples and classes and maximizes the weighted sum of a 1-Lipschitz witness
bounded in [-1, 1]; the chain-constrained linear program is solved exactly
with HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.stats import rankdata

from ._common import LOG_EPS
from .data import PredictionSet

DEFAULT_BINS = 15


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
    bins: list = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "ece": self.ece, "mce": self.mce, "adaece": self.adaece,
            "cwece": self.cwece, "smce": self.smce, "nll": self.nll,
            "brier": self.brier, "error": self.error, "auroc": self.auroc,
            "bins": [
                {"lo": b.lo, "hi": b.hi, "count": b.count,
                 "accuracy": b.accuracy, "confidence": b.confidence}
                for b in self.bins
            ],
        }
        return out


def _bins(values: np.ndarray, cfg: BinningConfig) -> list[np.ndarray]:
    """Row indices of each of the ``cfg.bins`` bins of ``values``, in row order.

    Equal width: a stable sort by bin index. Equal mass: contiguous runs of
    the stable sort by value, the first n mod M of them one longer. Members
    keep their relative order, so sums over a bin run in a fixed order.
    """
    m = cfg.bins
    if cfg.scheme == "equal_width":
        idx = np.searchsorted(np.arange(1, m) / m, values, side="left")
        order = np.argsort(idx, kind="stable")
        bounds = np.searchsorted(idx[order], np.arange(m + 1), side="left")
    else:
        order = np.argsort(values, kind="stable")
        base, rem = divmod(values.size, m)
        bounds = np.concatenate([[0], np.cumsum(base + (np.arange(m) < rem))])
    return [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def bin_predictions(pset: PredictionSet, cfg: BinningConfig = BinningConfig()) -> list[BinSummary]:
    """Group samples by top-class confidence into M bins."""
    conf = pset.confidences()
    correct = (pset.predicted() == pset.labels).astype(float)
    m = cfg.bins
    nan = float("nan")
    out = []
    for b, rows in enumerate(_bins(conf, cfg)):
        if cfg.scheme == "equal_width":
            lo, hi = b / m, (b + 1) / m
        else:
            lo, hi = (float(conf[rows[0]]), float(conf[rows[-1]])) if rows.size else (nan, nan)
        acc, mean_conf = ((float(correct[rows].mean()), float(conf[rows].mean()))
                          if rows.size else (nan, nan))
        out.append(BinSummary(lo, hi, rows.size, acc, mean_conf))
    return out


def _weighted_gap(bins: list[BinSummary], n: int) -> float:
    return float(sum(b.count / n * abs(b.accuracy - b.confidence) for b in bins if b.count))


def ece(pset: PredictionSet, cfg: BinningConfig = BinningConfig()) -> float:
    if cfg.scheme != "equal_width":
        cfg = BinningConfig(bins=cfg.bins, scheme="equal_width")
    return _weighted_gap(bin_predictions(pset, cfg), pset.n)


def mce(pset: PredictionSet, cfg: BinningConfig = BinningConfig()) -> float:
    bins = bin_predictions(pset, cfg)
    gaps = [abs(b.accuracy - b.confidence) for b in bins if b.count]
    return float(max(gaps))


def adaece(pset: PredictionSet, cfg: BinningConfig = BinningConfig(scheme="equal_mass")) -> float:
    if cfg.scheme != "equal_mass":
        cfg = BinningConfig(bins=cfg.bins, scheme="equal_mass")
    return _weighted_gap(bin_predictions(pset, cfg), pset.n)


def classwise_ece(pset: PredictionSet, cfg: BinningConfig = BinningConfig(),
                  norm: str = "global") -> float:
    """Average per-class binned gap over the per-class probability p_k.

    ``norm="global"`` weights bins by |B_km| / N; ``norm="per-class"`` uses
    the per-class count N_k instead.
    """
    if norm not in ("global", "per-class"):
        raise ValueError(f"unknown cwece norm {norm!r}")
    total = 0.0
    for k in range(pset.k):
        pk = pset.probs[:, k]
        is_k = (pset.labels == k).astype(float)
        denom = pset.n if norm == "global" else max(int(is_k.sum()), 1)
        for rows in _bins(pk, cfg):
            if rows.size:
                total += rows.size / denom * abs(is_k[rows].mean() - pk[rows].mean())
    return total / pset.k


def smce(pset: PredictionSet) -> SmceResult:
    """Smooth calibration error with the optimizing 1-Lipschitz witness.

    Residual weights are aggregated at the sorted unique predicted values and
    the resulting chain LP is solved exactly; the value is normalized by the
    number of samples.
    """
    onehots = np.eye(pset.k)[pset.labels]
    preds = pset.probs.ravel()
    residuals = (onehots - pset.probs).ravel()
    knots, inverse = np.unique(preds, return_inverse=True)
    weights = np.zeros(knots.size)
    np.add.at(weights, inverse, residuals)

    if knots.size == 1:
        values = np.array([np.sign(weights[0]) if weights[0] != 0.0 else 0.0])
    else:
        d = np.diff(knots)
        m = knots.size
        rows = sp.diags([-np.ones(m - 1), np.ones(m - 1)], offsets=[0, 1],
                        shape=(m - 1, m), format="csr")
        a_ub = sp.vstack([rows, -rows], format="csr")
        b_ub = np.concatenate([d, d])
        res = linprog(-weights, A_ub=a_ub, b_ub=b_ub, bounds=(-1.0, 1.0),
                      method="highs")
        if not res.success:
            raise RuntimeError(f"smCE linear program failed: {res.message}")
        values = np.clip(res.x, -1.0, 1.0)
        # clip any solver round-off so the witness is strictly feasible
        for i in range(1, m):
            lo, hi = values[i - 1] - d[i - 1], values[i - 1] + d[i - 1]
            values[i] = min(max(values[i], lo), hi)
    value = float(weights @ values) / pset.n
    return SmceResult(value=value, witness=LipschitzWitness(knots=knots, values=values))


def score_metrics(pset: PredictionSet) -> dict:
    """Mean NLL (log floored at 1e-12), Brier score, and top-1 error."""
    p_true = pset.probs[np.arange(pset.n), pset.labels]
    nll = float(np.mean(-np.log(np.maximum(p_true, LOG_EPS))))
    onehots = np.eye(pset.k)[pset.labels]
    brier = float(np.mean(np.sum((pset.probs - onehots) ** 2, axis=1)))
    error = float(np.mean(pset.predicted() != pset.labels))
    return {"nll": nll, "brier": brier, "error": error}


def auroc(scores_pos, scores_neg) -> float:
    """Mann-Whitney AUROC with half credit for ties."""
    pos = np.asarray(scores_pos, dtype=float)
    neg = np.asarray(scores_neg, dtype=float)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score lists must be nonempty")
    if np.isnan(pos).any() or np.isnan(neg).any():
        raise ValueError("scores must not be nan")
    ranks = rankdata(np.concatenate([pos, neg]))
    u = ranks[: pos.size].sum() - pos.size * (pos.size + 1) / 2.0
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
