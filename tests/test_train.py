import importlib
import math

import numpy as np
import pytest

from focalcal._common import softmax
from focalcal.cli import _json_text
from focalcal.data import LabeledPoint, SyntheticConfig, generate, points_to_arrays
from focalcal.losses import FAMILIES, LossSpec, batch_values
from focalcal.metrics import BinningConfig, ece, score_metrics
from focalcal.train import (HISTORY_CHUNK, MLPConfig, ModelState, decision_grid,
                            forward, init_model, lambda_sweep, loss_and_grads,
                            predictions, split_points, train)

# the package re-exports the function ``train``, which hides the module
train_module = importlib.import_module("focalcal.train")


def four_point_xor_free():
    # linearly separable in x0
    pts = [LabeledPoint(x=np.array([-1.0, 0.3]), label=0),
           LabeledPoint(x=np.array([-0.8, -0.2]), label=0),
           LabeledPoint(x=np.array([0.9, 0.1]), label=1),
           LabeledPoint(x=np.array([1.1, -0.4]), label=1)]
    return pts


class TestConfig:
    def test_defaults(self):
        cfg = MLPConfig()
        assert cfg.layers == (2, 10, 10, 2)
        assert cfg.activation == "relu" and cfg.optimizer == "adam"
        assert cfg.epochs == 500 and cfg.lr == 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            MLPConfig(layers=(2,))
        with pytest.raises(ValueError):
            MLPConfig(activation="gelu")
        with pytest.raises(ValueError):
            MLPConfig(epochs=0)
        with pytest.raises(ValueError):
            MLPConfig(lr=0.0)
        for bad in ({"lr": math.nan}, {"lr": math.inf}, {"weight_decay": math.nan},
                    {"weight_decay": math.inf}):
            with pytest.raises(ValueError, match="finite"):
                MLPConfig(**bad)


class TestModelState:
    def test_serialization_bit_exact(self, tmp_path):
        model = init_model(MLPConfig(seed=3))
        path = tmp_path / "m.json"
        path.write_text(_json_text(model))
        back = ModelState.load(path)
        for a, b in zip(model.weights, back.weights):
            assert np.array_equal(a, b)
        for a, b in zip(model.biases, back.biases):
            assert np.array_equal(a, b)
        assert back.config == model.config

    def test_init_shapes_and_bounds(self):
        cfg = MLPConfig(layers=(2, 5, 3))
        model = init_model(cfg)
        assert model.weights[0].shape == (2, 5) and model.weights[1].shape == (5, 3)
        for w, fan_in in zip(model.weights, (2, 5)):
            assert np.max(np.abs(w)) <= 1.0 / np.sqrt(fan_in)
        for b in model.biases:
            assert np.all(b == 0.0)


class TestTraining:
    def test_determinism(self):
        pts = generate(SyntheticConfig(kind="moons", n=100, noise=0.2, seed=2))
        tr, _, te = split_points(pts, 2)
        cfg = MLPConfig(seed=2, epochs=30)
        spec = LossSpec(family="ce")
        m1, h1 = train(cfg, spec, tr, te)
        m2, h2 = train(cfg, spec, tr, te)
        for a, b in zip(m1.weights, m2.weights):
            assert np.array_equal(a, b)
        assert h1.epochs == h2.epochs

    def test_separable_reaches_zero_error(self):
        pts = four_point_xor_free()
        model, hist = train(MLPConfig(seed=1, epochs=500, lr=0.05), LossSpec(family="ce"),
                            pts, pts)
        assert hist.epochs[-1]["test_error"] == 0.0

    def test_loss_decreases(self):
        pts = generate(SyntheticConfig(kind="moons", n=200, noise=0.2, seed=4))
        tr, _, te = split_points(pts, 4)
        _, hist = train(MLPConfig(seed=4, epochs=100), LossSpec(family="fcl", gamma=3.0, lam=0.5),
                        tr, te)
        assert hist.epochs[-1]["train_loss"] < hist.epochs[0]["train_loss"]

    def test_history_schema(self):
        pts = four_point_xor_free()
        _, hist = train(MLPConfig(seed=1, epochs=3, lr=0.01), LossSpec(family="ce"), pts, pts)
        assert len(hist.epochs) == 3
        assert set(hist.epochs[0]) == {"epoch", "train_loss", "test_loss",
                                       "test_ece", "test_nll", "test_error"}

    def test_parameter_gradients_match_finite_differences(self):
        pts = generate(SyntheticConfig(kind="moons", n=30, noise=0.2, seed=5))
        xs, ys, _ = points_to_arrays(pts)
        targets = np.eye(2)[ys]
        model = init_model(MLPConfig(seed=5, activation="tanh"))
        spec = LossSpec(family="fcl", gamma=2.0, lam=0.5)
        _, gw, gb = loss_and_grads(model, spec, xs, targets)
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(10):
            layer = int(rng.integers(0, len(model.weights)))
            i = int(rng.integers(0, model.weights[layer].shape[0]))
            j = int(rng.integers(0, model.weights[layer].shape[1]))
            orig = model.weights[layer][i, j]
            model.weights[layer][i, j] = orig + h
            up, _, _ = loss_and_grads(model, spec, xs, targets)
            model.weights[layer][i, j] = orig - h
            dn, _, _ = loss_and_grads(model, spec, xs, targets)
            model.weights[layer][i, j] = orig
            fd = (up - dn) / (2.0 * h)
            assert abs(gw[layer][i, j] - fd) / max(abs(fd), 1.0) < 1e-5

    def test_sgd_path(self):
        pts = four_point_xor_free()
        _, hist = train(MLPConfig(seed=1, epochs=50, optimizer="sgd", lr=0.1),
                        LossSpec(family="ce"), pts, pts)
        assert hist.epochs[-1]["train_loss"] < hist.epochs[0]["train_loss"]

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            train(MLPConfig(), LossSpec(family="ce"), [], four_point_xor_free())


def reference_train(cfg, spec, train_points, test_points, bins=15):
    """The per-epoch loop: Adam array by array, and each epoch's test set scored on its own."""
    xs, ys, _ = points_to_arrays(train_points)
    xt, yt, _ = points_to_arrays(test_points)
    k = cfg.layers[-1]
    targets, test_targets = np.eye(k)[ys], np.eye(k)[yt]
    model = init_model(cfg)
    params = model.weights + model.biases
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    rows = []
    for epoch in range(1, cfg.epochs + 1):
        train_loss, gw, gb = loss_and_grads(model, spec, xs, targets)
        for p, g, (m, v) in zip(params, gw + gb, moments):
            if cfg.optimizer == "adam":
                m[:] = 0.9 * m + (1 - 0.9) * g
                v[:] = 0.999 * v + (1 - 0.999) * g ** 2
                p -= cfg.lr * (m / (1 - 0.9 ** epoch)) / (np.sqrt(v / (1 - 0.999 ** epoch)) + 1e-8)
            else:
                p -= cfg.lr * g
        test_set = predictions(model, xt, yt)
        scores = score_metrics(test_set)
        rows.append({
            "epoch": epoch,
            "train_loss": train_loss,
            "test_loss": float(batch_values(spec, test_set.probs, test_targets).mean()),
            "test_ece": ece(test_set, BinningConfig(bins=bins)),
            "test_nll": scores["nll"],
            "test_error": scores["error"],
        })
    return model, rows


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def assert_same_training(cfg, spec, tr, te):
    model, hist = train(cfg, spec, tr, te)
    ref_model, ref_rows = reference_train(cfg, spec, tr, te)
    assert [r["epoch"] for r in hist.epochs] == list(range(1, cfg.epochs + 1))
    for key in ("train_loss", "test_loss", "test_ece", "test_nll", "test_error"):
        got = [r[key] for r in hist.epochs]
        assert all(type(v) is float for v in got), key
        assert np.array_equal(bits(got), bits([r[key] for r in ref_rows])), key
    for a, b in zip(model.weights + model.biases, ref_model.weights + ref_model.biases):
        assert a.shape == b.shape and np.array_equal(bits(a), bits(b))
    return hist


MOONS = generate(SyntheticConfig(kind="moons", n=100, noise=0.3, seed=12))
MOONS_SPLIT = split_points(MOONS, 12)


class TestMatchesPerEpochLoop:
    """``train`` takes one flat step and scores its history in chunks of epochs,
    with the bits of the per-epoch loop in ``reference_train``."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("optimizer, activation, weight_decay", [
        (opt, act, wd) for opt in ("adam", "sgd") for act in ("relu", "tanh")
        for wd in (0.0, 1e-3)])
    def test_bit_for_bit(self, family, optimizer, activation, weight_decay):
        spec = LossSpec(family=family, gamma=3.0, lam=0.5, alpha=0.1)
        cfg = MLPConfig(seed=3, epochs=12, optimizer=optimizer, activation=activation,
                        weight_decay=weight_decay, lr=0.05 if optimizer == "adam" else 0.5)
        tr, _, te = MOONS_SPLIT
        assert_same_training(cfg, spec, tr, te)

    def test_across_chunk_boundaries(self):
        # two full chunks and a part of a third; three classes and a deeper net
        pts = generate(SyntheticConfig(kind="moons", n=90, noise=0.3, seed=13))
        pts = [LabeledPoint(x=p.x, label=2 if p.x[0] > 1.2 else p.label) for p in pts]
        tr, _, te = split_points(pts, 13)
        cfg = MLPConfig(layers=(2, 6, 5, 3), seed=13, epochs=2 * HISTORY_CHUNK + 5,
                        activation="tanh", weight_decay=1e-3, lr=0.02)
        hist = assert_same_training(cfg, LossSpec(family="fcl", gamma=3.0, lam=0.5), tr, te)
        assert len({r["test_ece"] for r in hist.epochs}) > 10


def test_work_counts(monkeypatch):
    # one gradient evaluation per epoch, and one scoring pass per chunk of
    # epochs in place of an ece and a score_metrics call per epoch
    calls = {"grads": 0, "passes": 0, "single": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(train_module, "batch_logit_grads",
                        counting("grads", train_module.batch_logit_grads))
    monkeypatch.setattr(train_module, "_history_rows",
                        counting("passes", train_module._history_rows))
    monkeypatch.setattr(train_module, "ece", counting("single", train_module.ece))
    monkeypatch.setattr(train_module, "score_metrics",
                        counting("single", train_module.score_metrics))
    epochs = 2 * HISTORY_CHUNK + 1
    tr, _, te = MOONS_SPLIT
    _, hist = train(MLPConfig(seed=4, epochs=epochs), LossSpec(family="fcl", gamma=3.0, lam=0.5),
                    tr, te)
    assert len(hist.epochs) == epochs
    assert calls == {"grads": epochs, "passes": 3, "single": 0}


class TestSplit:
    def test_fractions_and_disjointness(self):
        pts = generate(SyntheticConfig(kind="moons", n=100, noise=0.2, seed=6))
        tr, va, te = split_points(pts, 6)
        assert (len(tr), len(va), len(te)) == (60, 20, 20)
        ids = [id(p) for p in tr + va + te]
        assert len(set(ids)) == 100

    def test_seed_determinism(self):
        pts = generate(SyntheticConfig(kind="moons", n=50, noise=0.2, seed=7))
        a = split_points(pts, 7)
        b = split_points(pts, 7)
        for xs, ys in zip(a, b):
            assert all(p is q for p, q in zip(xs, ys))


def per_row_grid(model, bounds, resolution):
    """The decision grid as one forward pass per grid row: the reference."""
    x0_min, x0_max, x1_min, x1_max = bounds
    g0 = np.linspace(x0_min, x0_max, resolution)
    g1 = np.linspace(x1_min, x1_max, resolution)
    points, probs = [], []
    for a in g0:
        xs = np.column_stack([np.full(resolution, a), g1])
        points.append(xs)
        probs.append(softmax(forward(model, xs), axis=1))
    return np.concatenate(points), np.concatenate(probs)


class TestDecisionGrid:
    def test_row_count(self):
        model = init_model(MLPConfig(seed=8))
        points, probs = decision_grid(model, (-1.0, 1.0, -1.0, 1.0), 7)
        assert points.shape == (49, 2) and probs.shape == (49, 2)
        # row-major: x1 varies fastest
        assert points[:7, 0].tolist() == [-1.0] * 7 and points[6, 1] == 1.0
        assert points[7].tolist() == [-1.0 + 2.0 / 6, -1.0]

    def test_constant_model_uniform(self):
        model = init_model(MLPConfig(seed=8))
        for w in model.weights:
            w[:] = 0.0
        _, probs = decision_grid(model, (0.0, 1.0, 0.0, 1.0), 3)
        assert probs.shape == (9, 2) and np.allclose(probs, 0.5)

    @pytest.mark.parametrize("resolution", [5, 37, 100])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_per_row_passes(self, activation, resolution):
        pts = generate(SyntheticConfig(kind="moons", n=40, noise=0.2, seed=3))
        cfg = MLPConfig(activation=activation, seed=3, epochs=30, lr=0.01)
        model, _ = train(cfg, LossSpec(family="fcl", gamma=3.0, lam=0.5), pts, pts)
        bounds = (-1.5, 2.5, -1.0, 1.5)
        got = decision_grid(model, bounds, resolution)
        want = per_row_grid(model, bounds, resolution)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_one_forward_pass(self, monkeypatch):
        calls = []

        def counted(model, xs):
            calls.append(len(xs))
            return forward(model, xs)

        monkeypatch.setattr(train_module, "forward", counted)
        decision_grid(init_model(MLPConfig(seed=8)), (0.0, 1.0, 0.0, 1.0), 100)
        assert calls == [10_000]

    def test_degenerate_bounds(self):
        model = init_model(MLPConfig(seed=8))
        with pytest.raises(ValueError):
            decision_grid(model, (1.0, 1.0, 0.0, 1.0), 3)
        with pytest.raises(ValueError):
            decision_grid(model, (0.0, 1.0, 0.0, 1.0), 1)


class TestSweep:
    def test_row_count_and_lambda_zero_reduction(self):
        pts = generate(SyntheticConfig(kind="moons", n=80, noise=0.2, seed=9))
        cfg = MLPConfig(seed=9, epochs=10)
        rows = lambda_sweep(cfg, [2.0, 3.0], [0.0, 0.5], pts)
        assert len(rows) == 4
        # lambda=0 cell must equal a plain focal-loss training run
        tr, va, te = split_points(pts, 9)
        model_focal, _ = train(cfg, LossSpec(family="focal", gamma=2.0), tr, te)
        xt, yt, _ = points_to_arrays(te)
        from focalcal.metrics import ece
        e = ece(predictions(model_focal, xt, yt))
        row = next(r for r in rows if r["gamma"] == 2.0 and r["lambda"] == 0.0)
        assert row["pre_ece"] == e

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            lambda_sweep(MLPConfig(), [], [0.5], four_point_xor_free())
