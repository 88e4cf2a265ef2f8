"""Surrogate losses with analytic gradients.

Families: cross-entropy (``ce``), label smoothing (``label_smoothing``),
Brier score (``brier``), focal loss (``focal``), the focal schedule
``flsd53`` (gamma 5 where a class probability is below 0.2, else 3), and
the focal loss with an added squared-distance calibration term (``fcl``).

Each family is a row of ``_TABLE``: the per-class focal term
``t_k (1 - p_k)^gamma (-log p_k)`` on the (smoothed) targets t, plus
``a ||p - y||^2``. ``class_terms`` evaluates a row per class for the losses
here and ``theory``'s risk; pgap's binary terms read it by ``LossSpec.coeffs``.
Probabilities are floored at 1e-12 inside logs and divisions (``focal_phi``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._common import LOG_EPS, libm, softmax

# family -> spec -> (gamma of the focal term, a of a ||q - y||^2); gamma None:
# no focal term, a function: gamma at each class probability q
_TABLE = {
    "ce": lambda spec: (0.0, 0.0),
    "label_smoothing": lambda spec: (0.0, 0.0),
    "brier": lambda spec: (None, 1.0),
    "focal": lambda spec: (spec.gamma, 0.0),
    "flsd53": lambda spec: (lambda q: np.where(q < 0.2, 5.0, 3.0), 0.0),
    "fcl": lambda spec: (spec.gamma, spec.lam),
}
FAMILIES = tuple(_TABLE)


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

    @property
    def coeffs(self) -> tuple:
        """(gamma, a) of the family's row in the loss table."""
        return _TABLE[self.family](self)


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

    The one evaluator of the focal term. ``gamma`` is an array that
    broadcasts with ``q``, or a function of ``q``. ``q`` is floored at 1e-12
    inside logs and divisions, and the base 1-q of the gamma-1 and gamma-2
    powers at 1e-12; log and pow go through libm so the values are the same
    on every numpy build. gamma = 0 needs no special case.
    """
    if callable(gamma):
        gamma = gamma(q)
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


def _smoothed(spec: LossSpec, targets):
    """The targets the log term sees: label smoothing mixes in the uniform distribution."""
    if spec.family != "label_smoothing":
        return targets
    return (1.0 - spec.alpha) * targets + spec.alpha / targets.shape[-1]


def class_terms(spec: LossSpec, q, y, order: int = 0) -> list:
    """[t phi, d/dq, d2/dq2][:order + 1] per class at ``q``, with t the smoothed ``y``.

    The derivatives include a ||q - y||^2's, the value term (0 with no focal
    term) does not. ``q`` and ``y`` broadcast as (..., K).
    """
    gamma, a = spec.coeffs
    if gamma is None:
        d = q - y
        return [np.zeros_like(d), 2.0 * a * d, np.full_like(d, 2.0 * a)][:order + 1]
    t = _smoothed(spec, y)
    out = [t * d for d in focal_phi(q, gamma, order)]
    if a:
        out[1:] = [d + c for d, c in zip(out[1:], (2.0 * a * (q - y), 2.0 * a))]
    return out


def _terms(spec: LossSpec, probs, targets, order: int) -> list:
    """Per-sample values and, for ``order`` 1, gradients with respect to the probabilities."""
    out = class_terms(spec, probs, targets, order)
    out[0] = np.sum(out[0], axis=-1)
    a = spec.coeffs[1]
    if a:
        out[0] = out[0] + a * np.sum((probs - targets) ** 2, axis=-1)
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

    The derivation (Mukhoti et al., NeurIPS 2020) uses Bernoulli's inequality
    and therefore requires gamma >= 1. KL(t||p) + H[t] is -sum t log p, with
    KL's 1e-12 floor on p. Returns the two sides and whether the bound holds
    with 1e-12 slack.
    """
    if gamma < 1.0:
        raise ValueError("the bound's derivation requires gamma >= 1")
    p, t = _check_pair(probs, target)
    if np.any(p <= 0.0):
        raise ValueError("probs must be strictly positive")
    lhs = float(batch_values(LossSpec("focal", gamma=gamma), p, t))
    logp = libm(math.log, p)
    cross = -float(np.sum(t * np.where(p < LOG_EPS, math.log(LOG_EPS), logp)))
    rhs = cross + gamma * float(np.sum(p * logp))
    return {"holds": lhs >= rhs - 1e-12, "lhs": lhs, "rhs": rhs}
