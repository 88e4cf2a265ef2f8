"""The benchmark's workloads: seeded inputs, the focalcal CLI calls made on
them, and the checks of their outputs.

Every round of a run gets fresh inputs drawn from (seed, round index), so a
run's median round time averages over inputs as well as over repeats, and
the same seed always gives the same inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

BINS = 15

# report: K=10 probability log; pooled predictions are all distinct, so the
# smCE chain has REPORT_N * 10 knots
REPORT_N, REPORT_K = 1000, 10
# temp_scale: K=100 logit logs; labels follow softmax(z / TRUE_T), so the
# logits are overconfident and the best grid temperature sits near TRUE_T
TEMP_N, TEMP_K, TRUE_T = 1000, 100, 2.0
T_MIN, T_MAX, T_STEP = 0.1, 10.0, 0.1
# pgap: binary log of PGAP_DISTINCT values, each on PGAP_REPEAT rows, labels
# ~ Bernoulli(p^2). The solver's time varies by about 12% between inputs, so
# a run must average many rounds: the values are fewer than the 1-2k at which
# a single round would take seconds.
PGAP_DISTINCT, PGAP_REPEAT = 500, 2
# the paper's hyperparameters, also the CLI's defaults
GAMMA, LAMBDA = 3.0, 0.5
FCL = ("fcl", GAMMA, LAMBDA)
# train: two-moons points, the paper's FCL-versus-focal comparison
TRAIN_N, EPOCHS, MOONS_NOISE = 600, 500, 0.2
BOUNDS, RESOLUTION = (-1.5, 2.5, -1.0, 1.5), 100

NAMES = ("report", "temp_scale", "pgap", "train")


@dataclass
class Round:
    calls: list          # argv lists for focalcal.cli.run, in order
    payloads: list       # output files the calls write
    check: Callable[[], list]


def _draw_labels(rng, probs):
    """One categorical draw per row of ``probs``."""
    return (probs.cumsum(axis=1) > rng.random((probs.shape[0], 1))).argmax(axis=1)


def _write_rows(path, key, rows, labels):
    with open(path, "w") as fh:
        for row, y in zip(rows.tolist(), labels.tolist()):
            fh.write(json.dumps({key: row, "label": y}) + "\n")


def _report(rng, d: Path) -> Round:
    z = rng.normal(0.0, 2.0, size=(REPORT_N, REPORT_K))
    preds = d / "preds.jsonl"
    _write_rows(preds, "probs", checks.softmax(z), _draw_labels(rng, checks.softmax(z / 1.5)))
    metrics, reliability = d / "metrics.json", d / "reliability.csv"
    calls = [["metrics", "--input", str(preds), "--bins", str(BINS), "--out", str(metrics)],
             ["reliability", "--input", str(preds), "--bins", str(BINS),
              "--out", str(reliability)]]
    return Round(calls, [metrics, reliability],
                 lambda: checks.check_report(preds, metrics, reliability, BINS))


def _temp_scale(rng, d: Path) -> Round:
    logs = {}
    for split in ("val", "test"):
        z = rng.normal(0.0, 3.0, size=(TEMP_N, TEMP_K))
        logs[split] = d / f"{split}.jsonl"
        _write_rows(logs[split], "logits", z, _draw_labels(rng, checks.softmax(z / TRUE_T)))
    out, grid = d / "temp_scale.json", d / "grid.csv"
    calls = [["temp-scale", "--val", str(logs["val"]), "--test", str(logs["test"]),
              "--bins", str(BINS), "--t-min", str(T_MIN), "--t-max", str(T_MAX),
              "--t-step", str(T_STEP), "--out", str(out), "--grid-out", str(grid)]]
    return Round(calls, [out, grid], lambda: checks.check_temp_scale(
        logs["val"], logs["test"], out, grid, BINS, T_MIN, T_MAX, T_STEP))


def _pgap(rng, d: Path) -> Round:
    p = np.repeat(rng.random(PGAP_DISTINCT), PGAP_REPEAT)
    labels = (rng.random(p.size) < p * p).astype(int)
    preds = d / "binary.jsonl"
    _write_rows(preds, "probs", np.column_stack([1.0 - p, p]), labels)
    fcl, brier = d / "pgap_fcl.json", d / "pgap_brier.json"
    family, gamma, lam = FCL
    calls = [["pgap", "--input", str(preds), "--loss", family, "--gamma", str(gamma),
              "--lambda", str(lam), "--out", str(fcl)],
             ["pgap", "--input", str(preds), "--loss", "brier", "--out", str(brier)]]
    return Round(calls, [fcl, brier], lambda: (checks.check_pgap(preds, fcl, *FCL)
                                               + checks.check_pgap(preds, brier, "brier")))


def _moons(rng, n, noise):
    """Two interleaving half-circles at random angles, with Gaussian noise."""
    n_out = (n + 1) // 2
    t = rng.random(n) * np.pi
    outer = np.column_stack([np.cos(t), np.sin(t)])
    inner = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    labels = (np.arange(n) >= n_out).astype(int)
    xs = np.where(labels[:, None] == 1, inner, outer) + rng.normal(0.0, noise, size=(n, 2))
    return xs, labels


def _train(rng, d: Path) -> Round:
    xs, labels = _moons(rng, TRAIN_N, MOONS_NOISE)
    seed = int(rng.integers(1, 2**31))
    points = d / "points.jsonl"
    with open(points, "w") as fh:
        for x, y in zip(xs.tolist(), labels.tolist()):
            fh.write(json.dumps({"x": x, "label": y}) + "\n")
    bounds = ",".join(str(b) for b in BOUNDS)
    calls, payloads, parts = [], [], []
    for family, lam in (("fcl", LAMBDA), ("focal", 0.0)):
        model, history, grid = (d / f"{family}_model.json", d / f"{family}_history.csv",
                                d / f"{family}_boundary.csv")
        calls.append(["train", "--data", str(points), "--loss", family, "--gamma", str(GAMMA),
                      "--lambda", str(LAMBDA), "--epochs", str(EPOCHS), "--seed", str(seed),
                      "--out-model", str(model), "--out-history", str(history)])
        calls.append(["boundary", "--model", str(model), "--resolution", str(RESOLUTION),
                      f"--bounds={bounds}", "--out", str(grid)])
        payloads += [model, history, grid]
        parts.append((model, history, grid, lam))
    return Round(calls, payloads, lambda: [
        e for model, history, grid, lam in parts
        for e in checks.check_train(points, seed, model, history, grid, BOUNDS,
                                    RESOLUTION, BINS, EPOCHS, GAMMA, lam)])


_MAKERS = {"report": _report, "temp_scale": _temp_scale, "pgap": _pgap, "train": _train}


def make_round(name: str, seed: int, index: int, d: Path) -> Round:
    """Write round ``index``'s inputs for workload ``name`` into ``d``."""
    d.mkdir(parents=True, exist_ok=True)
    return _MAKERS[name](np.random.default_rng([seed, index]), d)
