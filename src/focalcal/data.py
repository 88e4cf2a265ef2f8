"""Prediction-log ingestion and synthetic dataset generation.

File formats
------------
rows-json: one JSON object per line with keys ``"probs"`` or ``"logits"``
(array of K numbers), ``"label"`` (int), and optional ``"eta"`` (array of K
numbers, the known class posterior).

rows-csv: header ``p_0,...,p_{K-1},label`` for probabilities or
``z_0,...,z_{K-1},label`` for logits.

All randomness flows from the 64-bit seed of :class:`SyntheticConfig` through
numpy's PCG64 generator, so generated datasets are replay-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._common import as_simplex, libm, softmax


class DataFormatError(ValueError):
    """Raised for malformed or inconsistent prediction logs."""


@dataclass(frozen=True)
class SyntheticConfig:
    kind: str  # "moons" or "gauss2"
    n: int
    noise: float = 0.2
    seed: int = 1
    class_sep: float = 2.0

    def __post_init__(self):
        if self.kind not in ("moons", "gauss2"):
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("need at least 2 samples")
        if not 0.0 <= self.noise < math.inf:
            raise ValueError("noise must be finite and >= 0")
        if not 0.0 <= self.class_sep < math.inf:
            raise ValueError("class_sep must be finite and >= 0")


@dataclass(frozen=True)
class LabeledPoint:
    x: np.ndarray            # 2-vector
    label: int               # 0 or 1
    eta: Optional[np.ndarray] = None  # known posterior, gauss2 only


@dataclass
class PredictionSet:
    """Per-sample predicted probabilities with labels.

    ``probs`` has shape (N, K); ``labels`` shape (N,). ``logits`` and ``eta``
    are optional (N, K) arrays kept alongside when available.
    """

    probs: np.ndarray
    labels: np.ndarray
    logits: Optional[np.ndarray] = None
    eta: Optional[np.ndarray] = None

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.probs.ndim != 2 or self.probs.shape[0] == 0 or self.probs.shape[1] < 2:
            raise ValueError(f"probs must be a nonempty (N, K>=2) array, got {self.probs.shape}")
        if self.labels.shape != (self.probs.shape[0],):
            raise ValueError("labels must be one integer per row")
        if np.any(self.labels < 0) or np.any(self.labels >= self.k):
            raise ValueError("label out of range")
        for name in ("logits", "eta"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                if arr.shape != self.probs.shape:
                    raise ValueError(f"{name} shape {arr.shape} does not match probs")
                setattr(self, name, arr)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def k(self) -> int:
        return self.probs.shape[1]

    def confidences(self) -> np.ndarray:
        """Top-class probability per sample."""
        return self.probs.max(axis=1)

    def predicted(self) -> np.ndarray:
        """Argmax class per sample; ties go to the lowest class index."""
        return self.probs.argmax(axis=1)


def load_predictions(path, format: str = "rows-json", input_kind: str = "probs") -> PredictionSet:
    """Read a prediction log into a :class:`PredictionSet`.

    Logits are converted through softmax; probabilities are validated to sum
    to 1 within 1e-6 and renormalized. Row order is preserved. Malformed rows
    raise :class:`DataFormatError` naming the row by its 1-based line number
    in the file, blank lines included.
    """
    if format not in ("rows-json", "rows-csv"):
        raise ValueError(f"unknown format {format!r}")
    if input_kind not in ("probs", "logits"):
        raise ValueError(f"unknown input_kind {input_kind!r}")
    if format == "rows-json":
        raw, labels, etas, linenos = _read_rows_json(path, input_kind)
    else:
        raw, labels, etas, linenos = _read_rows_csv(path, input_kind)

    values = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(values)):
        raise DataFormatError("non-finite values in prediction log")
    if input_kind == "logits":
        logits = values
        probs = softmax(logits, axis=1)
        # renormalize exactly as the probability path does, so a log of
        # logits and a log of their softmaxed probabilities parse identically
        probs = probs / probs.sum(axis=1, keepdims=True)
    else:
        logits = None
        probs = _simplex_rows(values, "", linenos)
    eta = None if etas[0] is None else _simplex_rows(etas, "eta: ", linenos)
    try:
        return PredictionSet(probs=probs, labels=np.asarray(labels), logits=logits, eta=eta)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc


def _simplex_rows(rows, prefix: str, linenos: list) -> np.ndarray:
    """(N, K) array of the rows, checked and renormalized by one ``as_simplex`` call.

    An error names the first bad row by its line in the file, with that row's own message.
    """
    try:
        return as_simplex(rows, mass_tol=1e-6, ndim=2)
    except ValueError:
        for row, lineno in zip(rows, linenos):
            try:
                as_simplex(row, mass_tol=1e-6)
            except ValueError as exc:
                raise DataFormatError(f"row {lineno}: {prefix}{exc}") from exc
        raise


def _is_int(v) -> bool:
    # JSON true/false parse to bool, which Python counts as an int
    return isinstance(v, int) and not isinstance(v, bool)


def _numeric_array(vec, key: str, lineno: int, k) -> list:
    """``vec`` if it is a JSON array of numbers with k entries (any count if k is None)."""
    # JSON true/false parse to bool, whose type is neither int nor float
    if not isinstance(vec, list) or not set(map(type, vec)) <= {int, float}:
        raise DataFormatError(f"row {lineno}: {key!r} must be a numeric array")
    if k is not None and len(vec) != k:
        raise DataFormatError(f"row {lineno}: inconsistent K in {key!r} ({len(vec)} vs {k})")
    return vec


def _json_rows(path):
    """(line number, object) for each nonblank line of a JSON-lines file."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"row {lineno}: invalid JSON ({exc})") from exc
            if not isinstance(obj, dict):
                raise DataFormatError(f"row {lineno}: not a JSON object")
            yield lineno, obj


def _read_rows_json(path, input_kind):
    key = "probs" if input_kind == "probs" else "logits"
    raw, labels, etas, linenos = [], [], [], []
    k = None
    for lineno, obj in _json_rows(path):
        if key not in obj:
            raise DataFormatError(f"row {lineno}: missing {key!r}")
        if not _is_int(obj.get("label")):
            raise DataFormatError(f"row {lineno}: missing or non-integer label")
        vec = _numeric_array(obj[key], key, lineno, k)
        k = len(vec)
        eta = obj.get("eta")
        if etas and (eta is None) != (etas[0] is None):
            raise DataFormatError(f"row {lineno}: eta present on some rows but not all")
        raw.append(vec)
        labels.append(obj["label"])
        etas.append(None if eta is None else _numeric_array(eta, "eta", lineno, k))
        linenos.append(lineno)
    if not raw:
        raise DataFormatError("empty prediction log")
    return raw, labels, etas, linenos


def _read_rows_csv(path, input_kind):
    prefix = "p_" if input_kind == "probs" else "z_"
    raw, labels, linenos = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty prediction log") from None
        cols = [c.strip() for c in header]
        if cols[-1] != "label":
            raise DataFormatError("last CSV column must be 'label'")
        k = len(cols) - 1
        expected = [f"{prefix}{i}" for i in range(k)]
        if k < 2 or cols[:-1] != expected:
            raise DataFormatError(f"CSV header must be {','.join(expected + ['label'])}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != k + 1:
                raise DataFormatError(f"row {lineno}: expected {k + 1} fields, got {len(row)}")
            try:
                raw.append([float(v) for v in row[:-1]])
                labels.append(int(row[-1]))
            except ValueError as exc:
                raise DataFormatError(f"row {lineno}: {exc}") from exc
            linenos.append(lineno)
    if not raw:
        raise DataFormatError("empty prediction log")
    return raw, labels, [None] * len(raw), linenos


def gen_moons(cfg: SyntheticConfig) -> list[LabeledPoint]:
    """Two interleaving half-circles with isotropic Gaussian noise.

    The outer arc (class 0) is the upper unit half-circle; the inner arc
    (class 1) is its reflection shifted by (1, -0.5), the conventional
    two-moons construction. Class 0 gets ceil(n/2) points.
    """
    if cfg.kind != "moons":
        raise ValueError("config kind must be 'moons'")
    n_out = (cfg.n + 1) // 2
    n_in = cfg.n // 2
    t_out = np.linspace(0.0, math.pi, n_out)
    t_in = np.linspace(0.0, math.pi, n_in)
    xs = np.concatenate([
        np.column_stack([np.cos(t_out), np.sin(t_out)]),
        np.column_stack([1.0 - np.cos(t_in), 1.0 - np.sin(t_in) - 0.5]),
    ])
    labels = np.concatenate([np.zeros(n_out, dtype=int), np.ones(n_in, dtype=int)])
    rng = np.random.default_rng(cfg.seed)
    if cfg.noise > 0.0:
        xs = xs + rng.normal(0.0, cfg.noise, size=xs.shape)
    return [LabeledPoint(x=xs[i], label=int(labels[i])) for i in range(cfg.n)]


def gauss2_posterior(x1: np.ndarray, class_sep: float, noise: float) -> np.ndarray:
    """Exact class-1 posterior of the two-Gaussian mixture at abscissa x1."""
    return 1.0 / (1.0 + libm(math.exp, -class_sep * np.asarray(x1, dtype=float) / noise ** 2))


def gen_gauss2(cfg: SyntheticConfig) -> list[LabeledPoint]:
    """Equal-prior 2-class isotropic Gaussian mixture with known posteriors.

    Means sit at (-class_sep/2, 0) and (+class_sep/2, 0) with standard
    deviation ``noise`` per coordinate. Each point carries the exact Bayes
    posterior, which depends only on the first coordinate.
    """
    if cfg.kind != "gauss2":
        raise ValueError("config kind must be 'gauss2'")
    if cfg.noise <= 0.0:
        raise ValueError("gauss2 requires noise > 0 for a well-defined posterior")
    rng = np.random.default_rng(cfg.seed)
    labels = rng.integers(0, 2, size=cfg.n)
    means = np.where(labels[:, None] == 1, cfg.class_sep / 2.0, -cfg.class_sep / 2.0)
    means = np.column_stack([means[:, 0], np.zeros(cfg.n)])
    xs = means + rng.normal(0.0, cfg.noise, size=(cfg.n, 2))
    eta1 = gauss2_posterior(xs[:, 0], cfg.class_sep, cfg.noise)
    return [
        LabeledPoint(x=xs[i], label=int(labels[i]), eta=np.array([1.0 - eta1[i], eta1[i]]))
        for i in range(cfg.n)
    ]


def generate(cfg: SyntheticConfig) -> list[LabeledPoint]:
    return gen_moons(cfg) if cfg.kind == "moons" else gen_gauss2(cfg)


def points_to_arrays(points: list[LabeledPoint]):
    """Stack a point list into (X, y, eta-or-None) arrays."""
    xs = np.array([p.x for p in points], dtype=float)
    ys = np.array([p.label for p in points], dtype=int)
    eta = None
    if points and points[0].eta is not None:
        eta = np.array([p.eta for p in points], dtype=float)
    return xs, ys, eta


def save_points(points: list[LabeledPoint], path) -> None:
    """Write points as JSON rows: {"x": [..], "label": int, "eta": [..]?}."""
    with open(path, "w") as fh:
        for p in points:
            obj = {"x": [float(v) for v in p.x], "label": int(p.label)}
            if p.eta is not None:
                obj["eta"] = [float(v) for v in p.eta]
            fh.write(json.dumps(obj) + "\n")


def load_points(path) -> list[LabeledPoint]:
    """Points of a :func:`save_points` file; each error names its row's line."""
    points = []
    k = None
    for lineno, obj in _json_rows(path):
        if not _is_int(obj.get("label")):
            raise DataFormatError(f"row {lineno}: missing or non-integer label")
        x = _numeric_array(obj.get("x"), "x", lineno, k)
        k = len(x)
        if not all(map(math.isfinite, x)):
            raise DataFormatError(f"row {lineno}: non-finite values in 'x'")
        eta = obj.get("eta")
        if eta is not None:
            eta = np.asarray(_numeric_array(eta, "eta", lineno, None), dtype=float)
        points.append(LabeledPoint(x=np.asarray(x, dtype=float), label=obj["label"], eta=eta))
    if not points:
        raise DataFormatError("empty point file")
    return points
