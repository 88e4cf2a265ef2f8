"""Tests of the benchmark's output checks and span arithmetic.

The checks must accept known answers and the CLI's own outputs on the small
fixtures in tests/fixtures (read, never written), and reject an output in
which one checked value has moved by 1e-6.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
from tracing import layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
FIX = ROOT / "tests" / "fixtures"
PREDS = FIX / "preds.jsonl"
MOVE = 1e-6


def cli_run(argv):
    sys.path.insert(0, str(ROOT / "src"))
    import focalcal.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert focalcal.cli.run([str(a) for a in argv]) == 0


def json_leaves(obj, path=()):
    """Paths of the finite numbers in a JSON document."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from json_leaves(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from json_leaves(v, path + (i,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool) and math.isfinite(obj):
        yield path


def moved_json(src, dst, path):
    obj = json.loads(Path(src).read_text())
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += MOVE
    Path(dst).write_text(json.dumps(obj))


def csv_cells(path, rows=None, cols=None):
    _, table = checks.read_csv(path)
    for r in range(len(table)) if rows is None else rows:
        for c in range(len(table[r])) if cols is None else cols:
            if math.isfinite(table[r][c]):
                yield r, c


def moved_csv(src, dst, cell, by=MOVE):
    lines = Path(src).read_text().splitlines()
    r, c = cell
    fields = lines[r + 1].split(",")
    fields[c] = repr(float(fields[c]) + by)
    lines[r + 1] = ",".join(fields)
    Path(dst).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# known answers

def test_smce_known_answer():
    values, labels = checks.read_rows(PREDS, "probs")
    assert abs(checks.smce(checks.normalize(values), labels) - 0.035) <= 1e-15


@pytest.mark.parametrize("seed", range(5))
def test_smce_matches_discretized_chain(seed):
    # on a 1/100 grid every knot gap and the optimal witness sit on the grid,
    # so a dense DP over witness values in steps of 1/100 is exact there
    rng = np.random.default_rng(seed)
    n, k = 12, 3
    probs = rng.dirichlet(np.ones(k), size=n).round(2)
    probs[:, -1] = 1.0 - probs[:, :-1].sum(axis=1)
    probs = probs[(probs >= 0).all(axis=1)].round(2)
    labels = rng.integers(0, k, size=len(probs))
    grid = np.arange(-100, 101)
    knots = np.unique(probs)
    weights = np.array([((np.eye(k)[labels] - probs)[probs == v]).sum() for v in knots])
    val = weights[0] * grid / 100.0
    for i in range(1, knots.size):
        d = int(round((knots[i] - knots[i - 1]) * 100))
        val = np.array([val[max(j - d, 0):j + d + 1].max() for j in range(grid.size)])
        val = val + weights[i] * grid / 100.0
    assert abs(checks.smce(probs, labels) - val.max() / len(probs)) <= 1e-12


def test_pgap_brier_known_optimum(tmp_path):
    out = tmp_path / "pgap.json"
    out.write_text(json.dumps({
        "raw_risk": 0.4, "optimized_risk": 0.31, "pgap": 0.09,
        "map": {"knots": [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9],
                "kappa": [0.0, 0.2, 0.4, 0.4, 0.7, 0.7, 0.7, 0.9]}}))
    assert checks.check_pgap(PREDS, out, "brier") == []
    moved_json(out, out, ("optimized_risk",))
    assert checks.check_pgap(PREDS, out, "brier")


def test_kkt_residual_flags_a_suboptimal_map():
    # one knot, f(k) = (k - 0.3)^2: the gradient at kappa = 0.5 is not balanced
    grad = np.array([0.4])
    assert checks.chain_kkt_residual(grad, np.array([0.5]), np.array([])) > 0.1
    assert checks.chain_kkt_residual(np.array([0.0]), np.array([0.3]), np.array([])) == 0.0


# ---------------------------------------------------------------------------
# the CLI's outputs pass; one value moved by 1e-6 fails

def test_report_checks(tmp_path):
    metrics, reliability = tmp_path / "metrics.json", tmp_path / "reliability.csv"
    cli_run(["metrics", "--input", PREDS, "--bins", 5, "--out", metrics])
    cli_run(["reliability", "--input", PREDS, "--bins", 5, "--out", reliability])
    assert checks.check_report(PREDS, metrics, reliability, 5) == []
    assert abs(json.loads(metrics.read_text())["smce"] - 0.035) <= 1e-12
    bad = tmp_path / "bad"
    for path in json_leaves(json.loads(metrics.read_text())):
        moved_json(metrics, bad, path)
        assert checks.check_report(PREDS, bad, reliability, 5), path
    for cell in csv_cells(reliability):
        moved_csv(reliability, bad, cell)
        assert checks.check_report(PREDS, metrics, bad, 5), cell


@pytest.mark.parametrize("family", [("brier",), ("fcl", 3.0, 0.5)])
def test_pgap_checks(tmp_path, family):
    out = tmp_path / "pgap.json"
    extra = ["--gamma", family[1], "--lambda", family[2]] if len(family) > 1 else []
    cli_run(["pgap", "--input", PREDS, "--loss", family[0], *extra, "--out", out])
    assert checks.check_pgap(PREDS, out, *family) == []
    if family == ("brier",):
        assert abs(json.loads(out.read_text())["optimized_risk"] - 0.31) <= 1e-12
    bad = tmp_path / "bad.json"
    for path in json_leaves(json.loads(out.read_text())):
        moved_json(out, bad, path)
        assert checks.check_pgap(PREDS, bad, *family), path


def test_temp_scale_checks(tmp_path):
    val, test = FIX / "logits_val.jsonl", FIX / "logits_test.jsonl"
    out, grid = tmp_path / "t.json", tmp_path / "grid.csv"
    args = (1.0, 3.0, 0.1)
    cli_run(["temp-scale", "--val", val, "--test", test, "--bins", 10, "--t-min", args[0],
             "--t-max", args[1], "--t-step", args[2], "--out", out, "--grid-out", grid])
    assert checks.check_temp_scale(val, test, out, grid, 10, *args) == []
    bad = tmp_path / "bad"
    for path in json_leaves(json.loads(out.read_text())):
        moved_json(out, bad, path)
        assert checks.check_temp_scale(val, test, bad, grid, 10, *args), path
    for cell in csv_cells(grid, rows=range(0, 21, 4)):
        moved_csv(grid, bad, cell)
        assert checks.check_temp_scale(val, test, out, bad, 10, *args), cell


def test_train_checks(tmp_path):
    points = FIX / "points.jsonl"
    model, history, grid = tmp_path / "m.json", tmp_path / "h.csv", tmp_path / "b.csv"
    bounds, res, epochs = (-1.5, 2.5, -1.0, 1.5), 6, 40
    cli_run(["train", "--data", points, "--loss", "fcl", "--epochs", epochs, "--seed", 3,
             "--lr", 0.01, "--out-model", model, "--out-history", history])
    cli_run(["boundary", "--model", model, "--resolution", res,
             "--bounds=" + ",".join(map(str, bounds)), "--out", grid])

    def check(m=model, h=history, g=grid):
        return checks.check_train(points, 3, m, h, g, bounds, res, 15, epochs, 3.0, 0.5)

    assert check() == []
    bad = tmp_path / "bad"
    # the history values recomputed from the saved model: the last epoch's test metrics
    for col in (2, 3, 4, 5):
        moved_csv(history, bad, (epochs - 1, col))
        assert check(h=bad), col
    _, rows = checks.read_csv(history)
    moved_csv(history, bad, (epochs - 1, 1), by=rows[0][1] - rows[-1][1] + 1e-3)
    assert any("did not fall" in e for e in check(h=bad))
    for cell in csv_cells(grid):
        moved_csv(grid, bad, cell)
        assert check(g=bad), cell
    obj = json.loads(model.read_text())
    for i in range(len(obj["biases"][-1])):
        moved_json(model, bad, ("biases", len(obj["biases"]) - 1, i))
        assert check(m=bad), i


# ---------------------------------------------------------------------------
# span arithmetic

def test_layer_metrics_self_time():
    spans = [
        ("cli.run", 0.0, 10.0, -1, 0),
        ("calibrate.pgap", 1.0, 9.0, 0, 4),
        ("common.libm", 2.0, 3.0, 1, 5),
        ("common.libm", 4.0, 6.0, 1, 7),
    ]
    m = layer_metrics(spans, 0, len(spans), 123)
    assert m["cli.self_s"] == 2.0
    assert m["calibrate.pgap_s"] == 5.0
    assert m["common.libm_s"] == 3.0
    assert m["common.libm_calls"] == 2 and m["common.libm_elems"] == 12
    assert m["calibrate.pgap_libm_calls_per_knot"] == 0.5
    assert m["cli.bytes_written"] == 123 and m["trace.spans"] == 4
