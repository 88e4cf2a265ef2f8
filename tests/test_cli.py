import argparse
import contextlib
import dataclasses
import io
import json
import math
import pathlib

import numpy as np
import pytest

from focalcal.calibrate import ConvergenceError
import focalcal.cli as cli
from focalcal.cli import _csv, _json_text, _payload, run

HERE = pathlib.Path(__file__).resolve().parent
FIX = HERE / "fixtures"
GOLD = HERE / "golden"

PREDS = str(FIX / "preds.jsonl")
POINTS = str(FIX / "points.jsonl")


def run_capture(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = run(argv)
    return rc, buf.getvalue(), err.getvalue()


def payload_lines(stdout):
    """Stdout without the leading resolved-config echo."""
    return "".join(line + "\n" for line in stdout.splitlines()
                   if not line.startswith("config: "))


class TestExitCodes:
    def test_success(self, tmp_path):
        rc, _, _ = run_capture(["metrics", "--input", PREDS,
                                "--out", str(tmp_path / "m.json")])
        assert rc == 0

    def test_missing_file(self):
        rc, _, err = run_capture(["metrics", "--input", "/nonexistent.jsonl"])
        assert rc == 1 and "error:" in err

    def test_malformed_row(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"probs": [0.5, 0.6], "label": 0}\n')
        rc, _, err = run_capture(["metrics", "--input", str(bad)])
        assert rc == 1 and "row 1" in err

    def test_invalid_flag_value(self):
        rc, _, err = run_capture(["minimize", "--eta", "0.7,0.4"])
        assert rc == 1 and "error:" in err

    def test_nonconvergence_maps_to_two(self, monkeypatch, tmp_path):
        import focalcal.cli as cli_mod

        def boom(*a, **kw):
            raise ConvergenceError("did not converge")

        monkeypatch.setattr(cli_mod, "pgap", boom)
        rc, _, err = run_capture(["pgap", "--input", PREDS, "--loss", "brier"])
        assert rc == 2 and "numerical error" in err

    def assert_rejected(self, argv):
        rc, _, err = run_capture(argv)
        assert rc == 1 and "error:" in err and "Traceback" not in err

    def test_zero_temperature_step(self):
        self.assert_rejected(["temp-scale", "--val", str(FIX / "logits_val.jsonl"),
                              "--t-step", "0"])

    @pytest.mark.parametrize("step", ["0", "-0.1"])
    def test_nonpositive_curve_step(self, step):
        self.assert_rejected(["curve", "--loss", "ce", "--step", step])

    @pytest.mark.parametrize("argv", [
        ["minimize", "--eta", "0.7,0.3", "--gamma", "nan"],
        ["curve", "--loss", "fcl", "--gamma", "nan"],
        ["sigma-root", "--gamma", "nan", "--lambda", "1"],
        ["pgap", "--input", PREDS, "--gamma", "nan"],
        ["minimize", "--eta", "0.2,0.3,0.5", "--lambda", "inf"],
        ["sigma-root", "--gamma", "1", "--lambda", "nan"],
        ["minimize", "--eta", "0.7,0.3", "--loss", "label_smoothing", "--alpha", "nan"],
    ], ids=lambda argv: " ".join(a for a in argv if a != PREDS))
    def test_nonfinite_loss_parameter(self, argv):
        self.assert_rejected(argv)

    @pytest.mark.parametrize("argv", [
        ["synth", "--kind", "moons", "--n", "20", "--noise", "nan"],
        ["synth", "--kind", "gauss2", "--n", "20", "--class-sep", "inf"],
        ["train", "--data", POINTS, "--lr", "nan"],
        ["train", "--data", POINTS, "--lr", "inf"],
        ["sweep", "--data", POINTS, "--lr", "nan"],
    ], ids=lambda argv: " ".join(a for a in argv if a != POINTS))
    def test_nonfinite_training_parameter(self, argv, tmp_path):
        out = tmp_path / "out"
        self.assert_rejected([*argv, "--out", str(out)] if argv[0] != "train" else argv)
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--t-max", "inf"], ["--t-min", "nan"],
                                      ["--t-step", "inf"]], ids=" ".join)
    def test_nonfinite_temperature_grid(self, flag):
        self.assert_rejected(["temp-scale", "--val", str(FIX / "logits_val.jsonl"), *flag])

    # z / T is not finite at the grid's first T, or is finite everywhere (exit 0)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("logit, flags, want", [
        ("1.7e308", [], 1), ("-1.7e308", [], 1), ("1e300", [], 0),
        ("1e300", ["--t-min", "1e-11", "--t-max", "1e-11"], 1)],
        ids=["1.7e308", "-1.7e308", "1e300", "1e300 at T 1e-11"])
    def test_logits_overflowing_at_smallest_temperature(self, tmp_path, logit, flags, want):
        log = tmp_path / "val.jsonl"
        log.write_text(f'{{"logits": [{logit}, 0.5], "label": 0}}\n'
                       '{"logits": [0.1, 0.5], "label": 1}\n')
        rc, _, err = run_capture(["temp-scale", "--val", str(log), *flags])
        assert rc == want and ("error:" in err) == bool(want) and "Traceback" not in err

    # logits more than the largest float apart overflow in z - max(z); exp takes
    # that -inf to 0, so the softmax is exact and the run succeeds
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_logits_whose_difference_overflows(self, tmp_path):
        log, out = tmp_path / "big.jsonl", tmp_path / "t.json"
        log.write_text('{"logits": [1.7e308, -1.7e308], "label": 0}\n'
                       '{"logits": [-1.7e308, 1.7e308], "label": 1}\n')
        rc, stdout, err = run_capture(["temp-scale", "--val", str(log), "--test", str(log),
                                       "--t-min", "2", "--t-max", "3", "--out", str(out)])
        assert rc == 0 and err == ""
        payload = json.loads(out.read_text())
        values = [payload[k] for k in ("best_t", "pre_ece", "post_ece", "test_pre_ece",
                                       "test_post_ece")]
        values += [v for row in payload["grid"] for v in row.values()]
        assert len(payload["grid"]) == 11 and all(math.isfinite(v) for v in values)
        assert payload["test_post_ece"] == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flags", [["--noise", "1e-200", "--class-sep", "0"],
                                       ["--noise", "1e-320"], ["--class-sep", "1e308"]],
                             ids=" ".join)
    def test_gauss2_posterior_slope_not_finite(self, tmp_path, flags):
        out = tmp_path / "g.jsonl"
        self.assert_rejected(["synth", "--kind", "gauss2", "--n", "4", *flags, "--out", str(out)])
        assert not out.exists()

    def test_nonfinite_boundary_bounds(self, tmp_path):
        self.assert_rejected(["boundary", "--model", str(FIX / "model.json"),
                              "--bounds", "0,1,0,nan", "--out", str(tmp_path / "b.csv")])

    def test_boolean_label(self, tmp_path):
        bad = tmp_path / "bool.jsonl"
        bad.write_text('{"probs": [0.4, 0.6], "label": true}\n'
                       '{"probs": [0.7, 0.3], "label": 0}\n')
        self.assert_rejected(["metrics", "--input", str(bad)])

    @pytest.mark.parametrize("eta", ['"eta": [true, false]', '"eta": [0.2, 0.3, 0.5]',
                                     '"eta": [0.7, 0.4]', '"eta": 0.5', '"eta": [0.5, null]',
                                     '"eta": [0.5, NaN]', '"eta": [1.5, -0.5]', '"x": 0'],
                             ids=["boolean", "ragged", "mass", "scalar", "null entry",
                                  "nan", "negative", "missing"])
    def test_bad_eta(self, tmp_path, eta):
        bad = tmp_path / "eta.jsonl"
        bad.write_text('{"probs": [0.4, 0.6], "label": 1, "eta": [0.5, 0.5]}\n'
                       f'{{"probs": [0.7, 0.3], "label": 0, {eta}}}\n')
        rc, _, err = run_capture(["metrics", "--input", str(bad)])
        assert rc == 1 and err.startswith("error: row 2: ") and "Traceback" not in err

    # the same bad third line of a log whose first line is blank: each check
    # names it by its line number in the file
    @pytest.mark.parametrize("bad_row, message", [
        ('{"probs": [0.5, 0.6], "label": 0}', "probability mass"),
        ('{"probs": [0.2, 0.3, 0.5], "label": 0}', "inconsistent K in 'probs'"),
        ('{"probs": [0.5, 0.5], "label": 0, "eta": [0.5, 0.6]}', "eta: "),
        ('{"probs": [0.5, 0.5], "label": 0, "eta": [0.2, 0.3, 0.5]}', "inconsistent K in 'eta'"),
    ], ids=["mass", "K", "eta mass", "eta K"])
    def test_row_number_counts_blank_lines(self, tmp_path, bad_row, message):
        eta = ', "eta": [0.4, 0.6]' if "eta" in bad_row else ""
        log = tmp_path / "log.jsonl"
        log.write_text(f'\n{{"probs": [0.4, 0.6], "label": 1{eta}}}\n{bad_row}\n')
        rc, _, err = run_capture(["metrics", "--input", str(log)])
        assert rc == 1 and err.startswith("error: row 3: ") and message in err

    @pytest.mark.parametrize("bad_row, message", [("0.5,0.6,0", "probability mass"),
                                                  ("0.5,0", "expected 3 fields")],
                             ids=["mass", "K"])
    def test_csv_row_number_counts_blank_lines(self, tmp_path, bad_row, message):
        log = tmp_path / "log.csv"
        log.write_text(f"p_0,p_1,label\n\n0.4,0.6,1\n{bad_row}\n")
        rc, _, err = run_capture(["metrics", "--input", str(log), "--format", "rows-csv"])
        assert rc == 1 and err.startswith("error: row 4: ") and message in err

    # one bad row among good ones, for each check the loader makes on a row of
    # probabilities or of eta; where two rows are bad, the first one is named
    # even when the later one fails an earlier check
    @pytest.mark.parametrize("bad, error", [
        ({3: '{"probs": [NaN, 0.6], "label": 1, "eta": [0.3, 0.7]}'},
         "non-finite values in prediction log"),
        ({3: '{"probs": [1.5, -0.5], "label": 1, "eta": [0.3, 0.7]}'},
         "row 3: probability entries outside [0, 1]: [ 1.5 -0.5]"),
        ({3: '{"probs": [0.5, 0.6], "label": 1, "eta": [0.3, 0.7]}'},
         "row 3: probability mass 1.1 deviates from 1 by more than 1e-06"),
        ({3: '{"probs": [0.4, 0.6], "label": 1, "eta": [NaN, 0.7]}'},
         "row 3: eta: probability vector has non-finite entries"),
        ({3: '{"probs": [0.4, 0.6], "label": 1, "eta": [1.5, -0.5]}'},
         "row 3: eta: probability entries outside [0, 1]: [ 1.5 -0.5]"),
        ({3: '{"probs": [0.4, 0.6], "label": 1, "eta": [0.5, 0.6]}'},
         "row 3: eta: probability mass 1.1 deviates from 1 by more than 1e-06"),
        ({3: '{"probs": [0.5, 0.6], "label": 1, "eta": [0.3, 0.7]}',
          5: '{"probs": [1.5, -0.5], "label": 1, "eta": [0.3, 0.7]}'},
         "row 3: probability mass 1.1 deviates from 1 by more than 1e-06"),
        ({3: '{"probs": [0.4, 0.6], "label": 1, "eta": [1.5, -0.5]}',
          5: '{"probs": [0.4, 0.6], "label": 1, "eta": [NaN, 0.7]}'},
         "row 3: eta: probability entries outside [0, 1]: [ 1.5 -0.5]"),
        ({i: '{"probs": [1.0], "label": 0}' for i in range(2, 7)} | {1: ""},
         "row 2: probability vector needs K >= 2 entries, got shape (1,)"),
    ], ids=["nan", "range", "mass", "eta nan", "eta range", "eta mass",
            "mass before range", "eta range before nan", "K < 2"])
    def test_bad_row_among_good(self, tmp_path, bad, error):
        good = '{"probs": [0.4, 0.6], "label": 1, "eta": [0.3, 0.7]}'
        log = tmp_path / "log.jsonl"
        log.write_text("".join(bad.get(i, good) + "\n" for i in range(1, 7)))
        rc, _, err = run_capture(["metrics", "--input", str(log)])
        assert rc == 1 and err == f"error: {error}\n"

    @pytest.mark.parametrize("bad, error", [
        ({3: "nan,0.6,1"}, "non-finite values in prediction log"),
        ({3: "1.5,-0.5,1"}, "row 3: probability entries outside [0, 1]: [ 1.5 -0.5]"),
        ({3: "0.5,0.6,1"}, "row 3: probability mass 1.1 deviates from 1 by more than 1e-06"),
        ({3: "0.5,0.6,1", 5: "1.5,-0.5,1"},
         "row 3: probability mass 1.1 deviates from 1 by more than 1e-06"),
    ], ids=["nan", "range", "mass", "mass before range"])
    def test_csv_bad_row_among_good(self, tmp_path, bad, error):
        log = tmp_path / "log.csv"
        log.write_text("p_0,p_1,label\n" + "".join(bad.get(i, "0.4,0.6,1") + "\n"
                                                    for i in range(2, 7)))
        rc, _, err = run_capture(["metrics", "--input", str(log), "--format", "rows-csv"])
        assert rc == 1 and err == f"error: {error}\n"

    @pytest.mark.parametrize("bad_row, message", [
        ('{"x": [0.5, 0.3], "label": true}', "missing or non-integer label"),
        ('{"x": [0.5, 0.3], "label": 1.7}', "missing or non-integer label"),
        ('{"x": [NaN, 0.2], "label": 1}', "non-finite values in 'x'"),
        ('{"x": [0.5, 0.3, 0.1], "label": 1}', "inconsistent K in 'x' (3 vs 2)"),
    ], ids=["boolean label", "fractional label", "nan x", "ragged x"])
    def test_bad_point_row(self, tmp_path, bad_row, message):
        rows = [json.dumps({"x": [0.1 * i, 0.3], "label": i % 2}) for i in range(20)]
        rows[3] = bad_row
        points = tmp_path / "points.jsonl"
        points.write_text("".join(row + "\n" for row in rows))
        rc, _, err = run_capture(["train", "--data", str(points), "--epochs", "3"])
        assert rc == 1 and err == f"error: row 4: {message}\n"

    @pytest.mark.parametrize("label", [2, -1])
    def test_point_label_out_of_range(self, tmp_path, label):
        points = tmp_path / "points.jsonl"
        rows = [{"x": [0.1 * i, 0.3], "label": label if i == 3 else i % 2} for i in range(20)]
        points.write_text("".join(json.dumps(row) + "\n" for row in rows))
        rc, _, err = run_capture(["train", "--data", str(points), "--epochs", "3"])
        assert rc == 1 and err == "error: label out of range\n"

    @pytest.mark.parametrize("row", ["5", "null", "[0.5, 0.5]", '"xprobsx"'],
                             ids=["number", "null", "array", "string"])
    def test_non_object_log_row(self, tmp_path, row):
        log = tmp_path / "log.jsonl"
        log.write_text('{"probs": [0.4, 0.6], "label": 1}\n\n' + row + "\n")
        rc, _, err = run_capture(["metrics", "--input", str(log)])
        assert rc == 1 and err == "error: row 3: not a JSON object\n"

    @pytest.mark.parametrize("bad_row, message", [
        ("7", "not a JSON object"),
        ('{"x": [0.5, 0.3], "label": 1, "eta": "ab"}', "'eta' must be a numeric array"),
        ('{"label": 1}', "'x' must be a numeric array"),
        ('{"x": [0.5, 0.3]', "invalid JSON"),
    ], ids=["number", "string eta", "missing x", "invalid JSON"])
    def test_bad_point_file_row(self, tmp_path, bad_row, message):
        points = tmp_path / "points.jsonl"
        points.write_text('{"x": [0.1, 0.3], "label": 0}\n' + bad_row + "\n")
        rc, _, err = run_capture(["train", "--data", str(points), "--epochs", "3"])
        assert rc == 1 and err.startswith(f"error: row 2: {message}") and "Traceback" not in err

    # a whole file, or an edit in place of the fixture model (layers (2, 10, 10, 2))
    # that breaks one check of ModelState.from_json
    @pytest.mark.parametrize("edit, message", [
        ({"weights": []}, "model file must be an object"),
        ([1, 2], "model file must be an object"),
        (lambda m: m["weights"][1][4].__setitem__(3, math.nan),
         "model weights[1] has non-finite entries"),
        (lambda m: m["config"].pop("seed"), "model config must hold exactly"),
        (lambda m: m["config"].__setitem__("depth", 3), "model config must hold exactly"),
        (lambda m: m["config"].__setitem__("layers", [2, 10, 0, 2]),
         "model layers must be a list of positive integers"),
        (lambda m: m["config"].__setitem__("activation", "gelu"), "model config: "),
        (lambda m: m["biases"].pop(), "model needs 3 weight and bias arrays"),
        (lambda m: m["weights"][0].pop(), "model weights[0] has shape (1, 10), want (2, 10)"),
        (lambda m: m["biases"][2].append(0.0), "model biases[2] has shape (3,), want (2,)"),
        (lambda m: m["weights"][2].__setitem__(0, "ab"), "model weights[2]"),
        (lambda m: m["biases"][0].__setitem__(0, None), "model biases[0] must be a numeric array"),
    ], ids=["missing keys", "array", "nan weight", "missing config field", "extra config field",
            "zero width", "activation", "array count", "weight shape", "bias shape",
            "ragged weight", "null bias"])
    def test_bad_model_file(self, tmp_path, edit, message):
        model = edit
        if callable(edit):
            model = json.loads((FIX / "model.json").read_text())
            edit(model)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        rc, _, err = run_capture(["boundary", "--model", str(path), "--resolution", "3",
                                  "--out", str(tmp_path / "b.csv")])
        assert rc == 1 and err.startswith(f"error: {message}") and "Traceback" not in err
        assert not (tmp_path / "b.csv").exists()

    def test_nan_auroc_score(self, tmp_path):
        pos, neg = tmp_path / "pos.txt", tmp_path / "neg.txt"
        pos.write_text("0.9\nnan\n")
        neg.write_text("0.2\n0.4\n")
        self.assert_rejected(["auroc", "--pos", str(pos), "--neg", str(neg)])

    def test_config_echo(self):
        rc, out, _ = run_capture(["sigma-root", "--gamma", "0", "--lambda", "1"])
        assert rc == 0
        assert out.splitlines()[0].startswith("config: ")
        cfg = json.loads(out.splitlines()[0][len("config: "):])
        assert cfg["subcommand"] == "sigma-root" and cfg["gamma"] == 0.0


class TestSmallOracles:
    def test_sigma_root_linear_case(self):
        rc, out, _ = run_capture(["sigma-root", "--gamma", "0", "--lambda", "1"])
        assert rc == 0
        assert payload_lines(out).strip() == "0.5"

    def test_metrics_perfect_predictor(self, tmp_path):
        src = tmp_path / "perfect.jsonl"
        src.write_text('{"probs": [1.0, 0.0], "label": 0}\n'
                       '{"probs": [0.0, 1.0], "label": 1}\n')
        out = tmp_path / "m.json"
        rc, _, _ = run_capture(["metrics", "--input", str(src), "--bins", "15",
                                "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["ece"] == 0.0 and report["error"] == 0.0

    def test_temp_scale_recovers_doubling(self, tmp_path):
        out = tmp_path / "t.json"
        rc, _, _ = run_capture(["temp-scale", "--val", str(FIX / "logits_val.jsonl"),
                                "--test", str(FIX / "logits_test.jsonl"),
                                "--out", str(out)])
        assert rc == 0
        result = json.loads(out.read_text())
        assert result["best_t"] == 2.0
        assert result["post_ece"] <= result["pre_ece"]
        assert "test_pre_ece" in result and "test_post_ece" in result

    def test_minimize_zero_entry_converges(self, tmp_path):
        out = tmp_path / "m.json"
        rc, _, _ = run_capture(["minimize", "--eta", "0,0.52,0.08,0.4", "--loss", "fcl",
                                "--gamma", "3", "--lambda", "0.5", "--out", str(out)])
        result = json.loads(out.read_text())
        assert rc == 0 and result["converged"] is True
        assert result["kkt_residual"] <= 1e-8

    def test_minimize_tiny_posterior_converges(self, tmp_path):
        # ce's minimizer is the posterior itself, far below any absolute width
        eta0 = 2.2222954526477277e-11
        out = tmp_path / "m.json"
        rc, _, _ = run_capture(["minimize", "--eta", f"{eta0!r},0.999999999977777",
                                "--loss", "ce", "--out", str(out)])
        result = json.loads(out.read_text())
        assert rc == 0 and result["converged"] is True
        assert result["q_star"][0] == eta0


class TestInputParity:
    def test_logits_and_probs_reports_identical(self, tmp_path):
        import numpy as np
        rng = np.random.default_rng(3)
        z = rng.normal(size=(50, 3)) * 2.0
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=50)
        f_logits = tmp_path / "z.jsonl"
        f_probs = tmp_path / "p.jsonl"
        with open(f_logits, "w") as fz, open(f_probs, "w") as fp:
            for zi, pi, y in zip(z, p, labels):
                fz.write(json.dumps({"logits": list(zi), "label": int(y)}) + "\n")
                fp.write(json.dumps({"probs": list(pi), "label": int(y)}) + "\n")
        out_z = tmp_path / "mz.json"
        out_p = tmp_path / "mp.json"
        assert run_capture(["metrics", "--input", str(f_logits),
                            "--input-kind", "logits", "--out", str(out_z)])[0] == 0
        assert run_capture(["metrics", "--input", str(f_probs),
                            "--out", str(out_p)])[0] == 0
        assert out_z.read_bytes() == out_p.read_bytes()

    def test_csv_and_jsonl_reports_identical(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run_capture(["metrics", "--input", PREDS, "--out", str(out_a)])[0] == 0
        assert run_capture(["metrics", "--input", str(FIX / "preds.csv"),
                            "--format", "rows-csv", "--out", str(out_b)])[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()


FILE_CASES = [
    ("metrics.json", ["metrics", "--input", PREDS, "--bins", "15"]),
    ("reliability.csv", ["reliability", "--input", PREDS, "--bins", "5"]),
    ("smce.json", ["smce", "--input", PREDS]),
    ("pgap.json", ["pgap", "--input", PREDS, "--loss", "brier"]),
    ("pgap_fcl.json", ["pgap", "--input", PREDS, "--loss", "fcl", "--gamma", "3",
                       "--lambda", "0.5"]),
    ("minimize.json", ["minimize", "--eta", "0.7,0.3", "--loss", "fcl",
                       "--gamma", "3", "--lambda", "0.5"]),
    ("curve.csv", ["curve", "--loss", "focal", "--gamma", "2", "--step", "0.05"]),
    ("boundary.csv", ["boundary", "--model", str(FIX / "model.json"),
                      "--resolution", "5"]),
    ("sweep.csv", ["sweep", "--data", POINTS, "--gammas", "2.0",
                   "--lambdas", "0.0,0.5", "--epochs", "5"]),
]

STDOUT_CASES = [
    ("sigma_root.txt", ["sigma-root", "--gamma", "2", "--lambda", "1"]),
    ("auroc.txt", ["auroc", "--pos", str(FIX / "pos.txt"),
                   "--neg", str(FIX / "neg.txt")]),
]


class TestGoldenFiles:
    @pytest.mark.parametrize("golden,argv", FILE_CASES, ids=[c[0] for c in FILE_CASES])
    def test_file_output_matches_golden(self, golden, argv, tmp_path):
        out = tmp_path / golden
        rc, _, _ = run_capture(argv + ["--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (GOLD / golden).read_bytes()

    @pytest.mark.parametrize("golden,argv", STDOUT_CASES, ids=[c[0] for c in STDOUT_CASES])
    def test_stdout_matches_golden(self, golden, argv):
        rc, out, _ = run_capture(argv)
        assert rc == 0
        assert payload_lines(out) == (GOLD / golden).read_text()

    def test_synth_matches_fixture(self, tmp_path):
        out = tmp_path / "points.jsonl"
        rc, _, _ = run_capture(["synth", "--kind", "moons", "--n", "20",
                                "--noise", "0.2", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (FIX / "points.jsonl").read_bytes()

    def test_train_matches_golden(self, tmp_path):
        model = tmp_path / "model.json"
        hist = tmp_path / "history.csv"
        rc, _, _ = run_capture(["train", "--data", POINTS, "--loss", "fcl",
                                "--gamma", "3", "--lambda", "0.5", "--epochs", "5",
                                "--seed", "1", "--out-model", str(model),
                                "--out-history", str(hist)])
        assert rc == 0
        assert model.read_bytes() == (FIX / "model.json").read_bytes()
        assert hist.read_bytes() == (GOLD / "train_history.csv").read_bytes()

    def test_temp_scale_matches_golden(self, tmp_path):
        out = tmp_path / "t.json"
        grid = tmp_path / "grid.csv"
        rc, _, _ = run_capture(["temp-scale", "--val", str(FIX / "logits_val.jsonl"),
                                "--test", str(FIX / "logits_test.jsonl"),
                                "--out", str(out), "--grid-out", str(grid)])
        assert rc == 0
        assert out.read_bytes() == (GOLD / "temp_scale.json").read_bytes()
        assert grid.read_bytes() == (GOLD / "temp_grid.csv").read_bytes()

    def test_run_twice_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            rc, _, _ = run_capture(["reliability", "--input", PREDS, "--bins", "5",
                                    "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()


class TestOutputFormats:
    def test_reliability_header(self):
        first = (GOLD / "reliability.csv").read_text().splitlines()[0]
        assert first == "lo,hi,count,accuracy,confidence,gap"

    def test_history_header(self):
        first = (GOLD / "train_history.csv").read_text().splitlines()[0]
        assert first == "epoch,train_loss,test_loss,test_ece,test_nll,test_error"

    def test_curve_header(self):
        first = (GOLD / "curve.csv").read_text().splitlines()[0]
        assert first == "q,p_hat_star"

    def test_grid_header(self):
        first = (GOLD / "temp_grid.csv").read_text().splitlines()[0]
        assert first == "t,ece"

    def test_boundary_header(self):
        first = (GOLD / "boundary.csv").read_text().splitlines()[0]
        assert first == "x0,x1,p_0,p_1"

    def test_sweep_header(self):
        first = (GOLD / "sweep.csv").read_text().splitlines()[0]
        assert first == "gamma,lambda,best_t,pre_ece,post_ece,adaece,cwece,nll,error"


class TestCsv:
    def test_matches_per_cell_format(self):
        # %.17g would write the int 10**17 as 1e+17, so the int column pins %d
        rng = np.random.default_rng(12)
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
                   1e17, 0.1, 2.0]
        scales = 10.0 ** rng.integers(-300, 300, size=90)
        floats = special + (rng.normal(size=90) * scales).tolist()
        ints = [10**17, -(10**17), 0, -1, 7] + rng.integers(-10**6, 10**6, size=95).tolist()
        rows = [[f, i, g] for f, i, g in zip(floats, ints, floats[::-1])]
        want = "a,count,b\n" + "".join(
            ",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in rows)
        assert _csv(["a", "count", "b"], rows) == want
        assert want.splitlines()[1].startswith("nan,100000000000000000,")


@dataclasses.dataclass
class _Inner:
    values: np.ndarray
    hidden: float = dataclasses.field(default=0.0, metadata={"payload": False})


@dataclasses.dataclass
class _Outer:
    name: str
    inner: _Inner
    rows: list
    matrix: np.ndarray
    pair: tuple
    score: float


class TestPayload:
    def test_fields_arrays_and_sequences(self):
        obj = _Outer(name="a", inner=_Inner(np.array([0.5, math.nan]), hidden=1.0),
                     rows=[_Inner(np.array([1.0])), {"t": 0.1, "ece": 0.2}],
                     matrix=np.arange(6.0).reshape(2, 3), pair=(1, 2.5), score=math.nan)
        out = _payload(obj)
        assert list(out) == ["name", "inner", "rows", "matrix", "pair", "score"]
        assert out["inner"].keys() == {"values"}
        assert out["inner"]["values"][0] == 0.5 and math.isnan(out["inner"]["values"][1])
        assert out["rows"] == [{"values": [1.0]}, {"t": 0.1, "ece": 0.2}]
        assert out["matrix"] == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        assert out["pair"] == [1, 2.5] and math.isnan(out["score"])
        assert '"score": NaN' in _json_text(obj)


def test_two_runs_build_one_parser(monkeypatch):
    cli.build_parser.cache_clear()
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *a, **kw: parsers.append(self) or parse_args(self, *a, **kw))
    for _ in range(2):
        assert run_capture(["sigma-root", "--gamma", "0", "--lambda", "1"])[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    assert cli.build_parser.cache_info().misses == 1


def test_temp_scale_softmax_calls(monkeypatch, tmp_path):
    # softmax once per log at load and once for the test set at the best T;
    # each grid point makes one exp pass of its own and no softmax, and the
    # T = 1 point takes its exps afresh, since the load renormalizes
    import focalcal._common
    import focalcal.calibrate
    import focalcal.data
    calls, exps = [], []
    softmax, libm = focalcal.data.softmax, focalcal._common.libm
    for module in (focalcal.calibrate, focalcal.data):
        monkeypatch.setattr(module, "softmax",
                            lambda z, axis=-1: calls.append(1) or softmax(z, axis=axis))

    def counted_libm(fn, *args, **kwargs):
        exps.append(fn is math.exp)
        return libm(fn, *args, **kwargs)

    monkeypatch.setattr(focalcal._common, "libm", counted_libm)
    rc, _, _ = run_capture(["temp-scale", "--val", str(FIX / "logits_val.jsonl"),
                            "--test", str(FIX / "logits_test.jsonl"),
                            "--out", str(tmp_path / "t.json")])
    assert rc == 0 and len(calls) == 1 + 1 + 1 and sum(exps) == len(calls) + 100
