"""Deterministic tiny-MLP training harness on synthetic 2-D data.

Full-batch training with analytic logit gradients from the loss module,
backpropagated through the network by hand. All randomness (initialization
and data splits) flows from explicit seeds through numpy's PCG64 generator,
so runs are bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._common import softmax
from .calibrate import apply_temperature, temperature_scan
from .data import DataFormatError, LabeledPoint, PredictionSet, _is_int, points_to_arrays
from .losses import LossSpec, batch_logit_grads, batch_values
from .metrics import (BinningConfig, adaece, classwise_ece, ece, score_metrics,
                      stacked_scores)

# epochs whose test logits are kept and then scored in one pass; bounds the
# history buffer at HISTORY_CHUNK * n_test * K floats
HISTORY_CHUNK = 64
# train/validation/test shares of a point list
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)


@dataclass(frozen=True)
class MLPConfig:
    layers: tuple = (2, 10, 10, 2)
    activation: str = "relu"
    seed: int = 1
    epochs: int = 500
    optimizer: str = "adam"
    lr: float = 1e-3
    weight_decay: float = 0.0

    def __post_init__(self):
        if len(self.layers) < 2:
            raise ValueError("need at least input and output layers")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not (self.epochs >= 1 and 0.0 < self.lr < math.inf
                and 0.0 <= self.weight_decay < math.inf):
            raise ValueError("need epochs >= 1, a finite lr > 0 and a finite weight_decay >= 0")


@dataclass
class ModelState:
    weights: list  # per layer, shape (fan_in, fan_out)
    biases: list   # per layer, shape (fan_out,)
    config: MLPConfig

    @classmethod
    def from_json(cls, obj) -> "ModelState":
        """The model of a saved payload; raises DataFormatError unless every
        array is finite and has the shape its config's layers give it."""
        if not isinstance(obj, dict) or not {"weights", "biases", "config"} <= obj.keys():
            raise DataFormatError("model file must be an object with 'weights', 'biases'"
                                  " and 'config'")
        config, fields = obj["config"], {f.name for f in dataclasses.fields(MLPConfig)}
        if not isinstance(config, dict) or config.keys() != fields:
            raise DataFormatError(f"model config must hold exactly {sorted(fields)}")
        layers = config["layers"]
        if not isinstance(layers, list) or not all(_is_int(n) and n >= 1 for n in layers):
            raise DataFormatError("model layers must be a list of positive integers")
        try:
            cfg = MLPConfig(**{**config, "layers": tuple(layers)})
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"model config: {exc}") from exc
        shapes = list(zip(layers[:-1], layers[1:]))
        weights, biases = obj["weights"], obj["biases"]
        if not (isinstance(weights, list) and isinstance(biases, list)
                and len(weights) == len(biases) == len(shapes)):
            raise DataFormatError(f"model needs {len(shapes)} weight and bias arrays"
                                  f" for layers {layers}")
        return cls(weights=[_model_array(w, f"weights[{i}]", shape)
                            for i, (w, shape) in enumerate(zip(weights, shapes))],
                   biases=[_model_array(b, f"biases[{i}]", shape[1:])
                           for i, (b, shape) in enumerate(zip(biases, shapes))],
                   config=cfg)

    @classmethod
    def load(cls, path) -> "ModelState":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _model_array(value, name: str, shape: tuple) -> np.ndarray:
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise DataFormatError(f"model {name}: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise DataFormatError(f"model {name} must be a numeric array")
    if arr.shape != shape:
        raise DataFormatError(f"model {name} has shape {arr.shape}, want {shape}")
    if not np.all(np.isfinite(arr)):
        raise DataFormatError(f"model {name} has non-finite entries")
    return arr.astype(float)


@dataclass
class TrainHistory:
    epochs: list = field(default_factory=list)  # dict rows


def init_model(cfg: MLPConfig) -> ModelState:
    """Uniform fan-in-scaled weights, zero biases, seeded."""
    rng = np.random.default_rng(cfg.seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(cfg.layers[:-1], cfg.layers[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelState(weights=weights, biases=biases, config=cfg)


def _activate(z, kind):
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def forward(model: ModelState, xs: np.ndarray) -> np.ndarray:
    """Logits for a batch of inputs."""
    return _forward_cached(model, xs)[1][-1]


def predictions(model: ModelState, xs: np.ndarray, ys: np.ndarray) -> PredictionSet:
    logits = forward(model, xs)
    return PredictionSet(probs=softmax(logits, axis=1), labels=ys, logits=logits)


def _forward_cached(model, xs):
    acts = [np.asarray(xs, dtype=float)]
    pre = []
    last = len(model.weights) - 1
    h = acts[0]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        pre.append(z)
        h = _activate(z, model.config.activation) if i < last else z
        acts.append(h)
    return pre, acts


def loss_and_grads(model: ModelState, spec: LossSpec, xs: np.ndarray, targets: np.ndarray):
    """Mean loss and parameter gradients by backprop through the MLP."""
    pre, acts = _forward_cached(model, xs)
    n = xs.shape[0]
    values, dlogits = batch_logit_grads(spec, acts[-1], targets)
    delta = dlogits / n
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if model.config.weight_decay > 0.0:
            grads_w[i] = grads_w[i] + model.config.weight_decay * model.weights[i]
        if i > 0:
            delta = delta @ model.weights[i].T
            if model.config.activation == "relu":
                delta = delta * (pre[i - 1] > 0.0)
            else:
                # acts[i] is tanh(pre[i - 1])
                delta = delta * (1.0 - acts[i] ** 2)
    return float(values.mean()), grads_w, grads_b


def _flat_params(model: ModelState) -> np.ndarray:
    """Make the model's weights and biases views into one flat vector, and return it."""
    params = model.weights + model.biases
    flat = np.concatenate([p.ravel() for p in params])
    ends = np.cumsum([p.size for p in params]).tolist()
    views = [flat[end - p.size:end].reshape(p.shape) for p, end in zip(params, ends)]
    model.weights, model.biases = views[:len(model.weights)], views[len(model.weights):]
    return flat


def _history_rows(spec: LossSpec, logits: np.ndarray, labels: np.ndarray, targets: np.ndarray,
                  train_losses: list, first_epoch: int, cfg_bins: BinningConfig) -> list[dict]:
    """History rows of consecutive epochs from their (E, n, K) stack of test logits.

    One pass scores the whole stack, with the bits that scoring each epoch's
    ``predictions`` on its own would give.
    """
    probs = softmax(logits, axis=-1)
    test_loss = batch_values(spec, probs, targets).mean(axis=1)
    scores = stacked_scores(probs, labels, cfg_bins)
    return [{"epoch": epoch, "train_loss": loss, "test_loss": test, "test_ece": e,
             "test_nll": nll, "test_error": err}
            for epoch, loss, test, e, nll, err in zip(
                range(first_epoch, first_epoch + len(train_losses)), train_losses,
                test_loss.tolist(), scores["ece"].tolist(), scores["nll"].tolist(),
                scores["error"].tolist())]


def train(cfg: MLPConfig, spec: LossSpec, train_points: list[LabeledPoint],
          test_points: list[LabeledPoint]):
    """Full-batch training; returns (ModelState, TrainHistory).

    History records per-epoch train/test loss and test ECE/NLL/error. Raises
    on divergence (non-finite loss) with the offending epoch index.

    The weights and biases are views into one flat vector, so an Adam or
    SGD step is one set of elementwise operations on it. Each epoch keeps
    its test logits; every HISTORY_CHUNK epochs (and after the last) they
    are scored together by ``_history_rows``.
    """
    if not train_points or not test_points:
        raise ValueError("train and test sets must be nonempty")
    xs, ys, _ = points_to_arrays(train_points)
    xt, yt, _ = points_to_arrays(test_points)
    k = cfg.layers[-1]
    if min(ys.min(), yt.min()) < 0 or max(ys.max(), yt.max()) >= k:
        raise ValueError("label out of range")
    targets = np.eye(k)[ys]
    test_targets = np.eye(k)[yt]

    model = init_model(cfg)
    params = _flat_params(model)
    # Adam's first and second moments
    m, v = np.zeros_like(params), np.zeros_like(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    history = TrainHistory()
    cfg_bins = BinningConfig()
    test_logits, train_losses = [], []
    for epoch in range(1, cfg.epochs + 1):
        train_loss, gw, gb = loss_and_grads(model, spec, xs, targets)
        if not np.isfinite(train_loss):
            raise FloatingPointError(f"training diverged at epoch {epoch}")
        g = np.concatenate([a.ravel() for a in gw + gb])
        if cfg.optimizer == "adam":
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g ** 2
            params -= (cfg.lr * (m / (1 - beta1 ** epoch))
                       / (np.sqrt(v / (1 - beta2 ** epoch)) + eps))
        else:
            params -= cfg.lr * g

        test_logits.append(forward(model, xt))
        train_losses.append(train_loss)
        if len(train_losses) == HISTORY_CHUNK or epoch == cfg.epochs:
            history.epochs += _history_rows(spec, np.stack(test_logits), yt, test_targets,
                                            train_losses, epoch + 1 - len(train_losses), cfg_bins)
            test_logits, train_losses = [], []
    return model, history


def split_points(points: list[LabeledPoint], seed: int) -> tuple[list, list, list]:
    """Seeded shuffle into train/val/test by SPLIT_FRACTIONS."""
    idx = np.random.default_rng(seed).permutation(len(points))
    n_train = int(round(SPLIT_FRACTIONS[0] * len(points)))
    n_val = int(round(SPLIT_FRACTIONS[1] * len(points)))
    tr = [points[i] for i in idx[:n_train]]
    va = [points[i] for i in idx[n_train:n_train + n_val]]
    te = [points[i] for i in idx[n_train + n_val:]]
    return tr, va, te


def decision_grid(model: ModelState, bounds, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major grid of predicted probabilities over a rectangle.

    ``bounds`` is (x0_min, x0_max, x1_min, x1_max). Returns the
    (resolution², 2) grid points, x1 varying fastest, and their
    (resolution², K) probabilities from one forward pass.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    x0_min, x0_max, x1_min, x1_max = bounds
    if not np.all(np.isfinite(bounds)):
        raise ValueError("bounds must be finite")
    if x0_max <= x0_min or x1_max <= x1_min:
        raise ValueError("degenerate bounds")
    g0 = np.linspace(x0_min, x0_max, resolution)
    g1 = np.linspace(x1_min, x1_max, resolution)
    points = np.column_stack([np.repeat(g0, resolution), np.tile(g1, resolution)])
    return points, softmax(forward(model, points), axis=1)


def lambda_sweep(cfg: MLPConfig, gammas, lambdas, points: list[LabeledPoint]) -> list[dict]:
    """Train one FCL model per (gamma, lambda); report pre/post-T metrics.

    The point list is split 60/20/20 into train/val/test with the config
    seed; the temperature is scanned on the validation third.
    """
    if not gammas or not lambdas:
        raise ValueError("gamma and lambda lists must be nonempty")
    tr, va, te = split_points(points, cfg.seed)
    xv, yv, _ = points_to_arrays(va)
    xt, yt, _ = points_to_arrays(te)
    cfg_bins = BinningConfig()
    rows = []
    for gamma in gammas:
        for lam in lambdas:
            spec = LossSpec(family="fcl", gamma=float(gamma), lam=float(lam))
            model, _ = train(cfg, spec, tr, te)
            val_set = predictions(model, xv, yv)
            scan = temperature_scan(val_set, cfg_bins)
            test_set = predictions(model, xt, yt)
            post_set = apply_temperature(test_set, scan.best_t)
            scores = score_metrics(test_set)
            rows.append({
                "gamma": float(gamma), "lambda": float(lam),
                "best_t": scan.best_t,
                "pre_ece": ece(test_set, cfg_bins),
                "post_ece": ece(post_set, cfg_bins),
                "adaece": adaece(test_set),
                "cwece": classwise_ece(test_set, cfg_bins),
                "nll": scores["nll"],
                "error": scores["error"],
            })
    return rows
