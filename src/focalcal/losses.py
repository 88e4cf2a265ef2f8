"""Surrogate losses with analytic gradients.

Families: cross-entropy (``ce``), label smoothing (``label_smoothing``),
Brier score (``brier``), focal loss (``focal``), the sample-dependent focal
schedule (``flsd53``: gamma 5 below true-class probability 0.2, else 3), and
the focal loss with an added squared-distance calibration term (``fcl``).

All evaluators accept soft targets; the focal term generalizes to
``sum_k t_k (1 - p_k)^gamma (-log p_k)``. Probabilities are floored at 1e-12
inside logarithms and divisions (see ``focal_phi``); the quadratic
calibration term is exact. With ``lam == 0`` the fcl path skips the
calibration term entirely so it matches the plain focal loss bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._common import LOG_EPS, entropy, kl_divergence, libm, softmax

FAMILIES = ("ce", "label_smoothing", "brier", "focal", "flsd53", "fcl")


@dataclass(frozen=True)
class LossSpec:
    family: str
    gamma: float = 0.0
    lam: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and >= 0")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("lambda must be finite and >= 0")
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("alpha must be in [0, 1)")


@dataclass(frozen=True)
class LossEval:
    value: float
    grad_logits: np.ndarray


def _check_pair(probs, target):
    p = np.asarray(probs, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"dimension mismatch: probs {p.shape} vs target {t.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise ValueError("non-finite input")
    return p, t


def focal_phi(q, gamma, order: int = 0) -> list:
    """[phi, phi', phi''][:order + 1] of phi_gamma(q) = -(1-q)^gamma log q.

    The one evaluator of the focal term. ``gamma`` may be an array that
    broadcasts with ``q``. ``q`` is floored at 1e-12 inside logs and
    divisions, and the base 1-q of the gamma-1 and gamma-2 powers at 1e-12;
    log and pow go through libm so the values are the same on every numpy
    build. gamma = 0 needs no special case: pow(x, 0) = 1 and 0 * finite = 0.
    """
    qe = np.maximum(q, LOG_EPS)
    logq = libm(math.log, qe)
    pg = libm(math.pow, 1.0 - q, gamma)
    out = [pg * (-logq)]
    if order >= 1:
        base = np.maximum(1.0 - q, LOG_EPS)
        pg1 = libm(math.pow, base, gamma - 1.0)
        out.append(gamma * pg1 * logq - pg / qe)
    if order >= 2:
        pg2 = libm(math.pow, base, gamma - 2.0)
        out.append(-gamma * (gamma - 1.0) * pg2 * logq + 2.0 * gamma * pg1 / qe + pg / qe ** 2)
    return out


def _brier_values(probs, targets):
    return np.sum((probs - targets) ** 2, axis=-1)


def _smoothed(spec: LossSpec, targets):
    """The targets the log term sees: label smoothing mixes in the uniform distribution."""
    if spec.family != "label_smoothing":
        return targets
    return (1.0 - spec.alpha) * targets + spec.alpha / targets.shape[-1]


def _terms(spec: LossSpec, probs, targets, order: int) -> list:
    """Per-sample values and, for ``order`` 1, gradients with respect to the probabilities."""
    fam = spec.family
    if fam == "brier":
        return [_brier_values(probs, targets), 2.0 * (probs - targets)][:order + 1]
    gamma = spec.gamma
    if fam in ("ce", "label_smoothing"):
        gamma = 0.0
    elif fam == "flsd53":
        # gamma = 5 when the true-class probability is below 0.2, else 3
        gamma = np.where(np.sum(probs * targets, axis=-1, keepdims=True) < 0.2, 5.0, 3.0)
    t = _smoothed(spec, targets)
    phi = focal_phi(probs, gamma, order)
    out = [np.sum(t * phi[0], axis=-1)] + [t * d for d in phi[1:]]
    if fam == "fcl" and spec.lam != 0.0:
        out[0] = out[0] + spec.lam * _brier_values(probs, targets)
        out[1:] = [g + spec.lam * 2.0 * (probs - targets) for g in out[1:]]
    return out


def batch_values(spec: LossSpec, probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-sample loss values; ``probs``/``targets`` broadcast as (..., K)."""
    return _terms(spec, probs, targets, 0)[0]


def batch_logit_grads(spec: LossSpec, logits: np.ndarray, targets: np.ndarray):
    """Per-sample (values, d value / d logits) through the softmax."""
    probs = softmax(logits, axis=-1)
    if spec.family in ("ce", "label_smoothing"):
        # exact softmax+CE form
        return batch_values(spec, probs, targets), probs - _smoothed(spec, targets)
    values, g = _terms(spec, probs, targets, 1)
    inner = np.sum(g * probs, axis=-1, keepdims=True)
    return values, probs * (g - inner)


def eval_loss(spec: LossSpec, probs, target) -> float:
    """Single-sample loss value for a prediction/target pair on the simplex."""
    p, t = _check_pair(probs, target)
    return float(batch_values(spec, p, t))


def eval_loss_grad(spec: LossSpec, logits, target) -> LossEval:
    """Loss value and exact analytic logit-gradient at ``softmax(logits)``."""
    z = np.asarray(logits, dtype=float)
    t = np.asarray(target, dtype=float)
    if z.shape != t.shape:
        raise ValueError(f"dimension mismatch: logits {z.shape} vs target {t.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    values, grads = batch_logit_grads(spec, z, t)
    return LossEval(value=float(values), grad_logits=grads)


def entropy_bound_check(probs, target, gamma: float) -> dict:
    """Check the focal-loss lower bound KL(t||p) + H[t] - gamma*H[p].

    The derivation uses Bernoulli's inequality and therefore requires
    gamma >= 1. Returns the two sides and whether the bound holds with
    1e-12 slack.
    """
    if gamma < 1.0:
        raise ValueError("the bound's derivation requires gamma >= 1")
    p, t = _check_pair(probs, target)
    if np.any(p <= 0.0):
        raise ValueError("probs must be strictly positive")
    lhs = float(batch_values(LossSpec("focal", gamma=gamma), p, t))
    rhs = kl_divergence(t, p) + entropy(t) - gamma * entropy(p)
    return {"holds": lhs >= rhs - 1e-12, "lhs": lhs, "rhs": rhs}
