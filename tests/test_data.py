import json
import math

import numpy as np
import pytest

from focalcal import data as data_module
from focalcal._common import as_simplex
from focalcal.data import (DataFormatError, PredictionSet, SyntheticConfig,
                           gauss2_posterior, gen_gauss2, gen_moons, generate,
                           load_points, load_predictions, points_to_arrays,
                           save_points)


def write_jsonl(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class TestLoadPredictions:
    def test_identity_parse(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"probs": [0.7, 0.3], "label": 0}])
        ps = load_predictions(p)
        assert np.allclose(ps.probs, [[0.7, 0.3]])
        assert ps.labels.tolist() == [0]

    def test_softmax_of_equal_logits(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"logits": [0, 0], "label": 1}])
        ps = load_predictions(p, input_kind="logits")
        assert np.allclose(ps.probs, [[0.5, 0.5]])
        assert ps.logits is not None

    def test_mass_violation(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"probs": [0.5, 0.6], "label": 0}])
        with pytest.raises(DataFormatError, match="row 1"):
            load_predictions(p)

    def test_renormalization_within_tolerance(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"probs": [0.5000004, 0.5], "label": 0}])
        ps = load_predictions(p)
        assert abs(ps.probs[0].sum() - 1.0) < 1e-12

    def test_row_number_in_errors(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"probs": [0.5, 0.5], "label": 0},
                        {"probs": [0.5, 0.5, 0.0], "label": 0}])
        with pytest.raises(DataFormatError, match="row 2"):
            load_predictions(p)

    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"probs": [0.5, 0.5], "label": 2}])
        with pytest.raises(DataFormatError, match="label"):
            load_predictions(p)

    @pytest.mark.parametrize("row", [{"probs": [0.5, 0.5], "label": True},
                                     {"probs": [True, 0.0], "label": 0}])
    def test_booleans_rejected(self, tmp_path, row):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [row])
        with pytest.raises(DataFormatError, match="row 1"):
            load_predictions(p)

    def test_missing_label(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"probs": [0.5, 0.5]}])
        with pytest.raises(DataFormatError, match="row 1"):
            load_predictions(p)

    def test_csv_round_trip(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("p_0,p_1,label\n0.7,0.3,0\n0.2,0.8,1\n")
        ps = load_predictions(p, format="rows-csv")
        assert np.allclose(ps.probs, [[0.7, 0.3], [0.2, 0.8]])
        assert ps.labels.tolist() == [0, 1]

    def test_csv_logits_header(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("z_0,z_1,label\n1.0,1.0,0\n")
        ps = load_predictions(p, format="rows-csv", input_kind="logits")
        assert np.allclose(ps.probs, [[0.5, 0.5]])

    def test_csv_bad_header(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b,label\n0.7,0.3,0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_predictions(p, format="rows-csv")

    def test_eta_all_or_none(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"probs": [0.7, 0.3], "label": 0, "eta": [0.6, 0.4]},
                        {"probs": [0.7, 0.3], "label": 0}])
        with pytest.raises(DataFormatError, match="eta"):
            load_predictions(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_predictions(p)

    def test_one_simplex_check_per_log(self, tmp_path, monkeypatch):
        calls = []

        def counted(values, *args, **kwargs):
            calls.append(np.shape(values))
            return as_simplex(values, *args, **kwargs)

        monkeypatch.setattr(data_module, "as_simplex", counted)
        probs = np.random.default_rng(5).dirichlet(np.ones(10), size=1000)
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"probs": row, "label": i % 10} for i, row in enumerate(probs.tolist())])
        assert load_predictions(p).n == 1000
        assert calls == [(1000, 10)]


class TestPredictionSet:
    def test_tie_break_to_lowest_index(self):
        ps = PredictionSet(probs=np.array([[0.5, 0.5]]), labels=np.array([1]))
        assert ps.predicted().tolist() == [0]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PredictionSet(probs=np.array([[1.0]]), labels=np.array([0]))


class TestMoons:
    def test_zero_noise_geometry(self):
        pts = gen_moons(SyntheticConfig(kind="moons", n=4, noise=0.0))
        outer = [p for p in pts if p.label == 0]
        inner = [p for p in pts if p.label == 1]
        assert len(outer) == 2 and len(inner) == 2
        for p in outer:
            assert abs(np.hypot(*p.x) - 1.0) < 1e-12 and p.x[1] >= 0.0
        for p in inner:
            # lower half-circle centered at (1, 0.5)
            assert abs(np.hypot(p.x[0] - 1.0, p.x[1] - 0.5) - 1.0) < 1e-12
            assert p.x[1] <= 0.5

    def test_determinism(self):
        cfg = SyntheticConfig(kind="moons", n=40, noise=0.3, seed=7)
        a = points_to_arrays(gen_moons(cfg))[0]
        b = points_to_arrays(gen_moons(cfg))[0]
        assert np.array_equal(a, b)

    def test_class_balance(self):
        pts = gen_moons(SyntheticConfig(kind="moons", n=1000, noise=0.2, seed=1))
        labels = [p.label for p in pts]
        assert labels.count(0) == 500 and labels.count(1) == 500

    def test_odd_n_split(self):
        pts = gen_moons(SyntheticConfig(kind="moons", n=5, noise=0.0))
        assert sum(p.label == 0 for p in pts) == 3


class TestGauss2:
    def test_midpoint_posterior(self):
        eta1 = gauss2_posterior(0.0, class_sep=2.0, noise=0.4)
        assert eta1 == 0.5

    def test_posterior_at_class1_mean(self):
        # sep=4, unit spread, x1 at the class-1 mean (+2)
        eta1 = gauss2_posterior(2.0, class_sep=4.0, noise=1.0)
        assert abs(eta1 - 1.0 / (1.0 + np.exp(-8.0))) < 1e-15

    def test_posterior_matches_density_quotient(self):
        rng = np.random.default_rng(0)
        sep, s = 3.0, 0.7
        for x1 in rng.uniform(-3, 3, size=20):
            d1 = np.exp(-((x1 - sep / 2) ** 2) / (2 * s * s))
            d0 = np.exp(-((x1 + sep / 2) ** 2) / (2 * s * s))
            assert abs(gauss2_posterior(x1, sep, s) - d1 / (d0 + d1)) < 1e-12

    def test_posterior_has_libm_bits(self):
        # the posterior is written out by `synth`, so its exp goes through libm
        x1 = np.random.default_rng(1).uniform(-3.0, 3.0, size=1000)
        want = [1.0 / (1.0 + math.exp(-3.0 * x / 0.7 ** 2)) for x in x1.tolist()]
        assert gauss2_posterior(x1, 3.0, 0.7).tolist() == want

    def test_eta_normalized(self):
        pts = gen_gauss2(SyntheticConfig(kind="gauss2", n=200, noise=0.5, seed=3))
        for p in pts:
            assert abs(p.eta.sum() - 1.0) < 1e-12

    def test_empirical_frequency_matches_eta(self):
        pts = gen_gauss2(SyntheticConfig(kind="gauss2", n=100000, noise=0.6, seed=9))
        eta1 = np.array([p.eta[1] for p in pts])
        y = np.array([p.label for p in pts])
        for lo in np.arange(0.0, 1.0, 0.1):
            mask = (eta1 >= lo) & (eta1 < lo + 0.1)
            cnt = mask.sum()
            if cnt < 50:
                continue
            mean_eta = eta1[mask].mean()
            se = np.sqrt(mean_eta * (1 - mean_eta) / cnt)
            assert abs(y[mask].mean() - mean_eta) <= 3 * se + 1e-9

    def test_zero_noise_rejected(self):
        with pytest.raises(ValueError):
            gen_gauss2(SyntheticConfig(kind="gauss2", n=10, noise=0.0))


class TestPointIO:
    def test_round_trip(self, tmp_path):
        pts = generate(SyntheticConfig(kind="gauss2", n=25, noise=0.5, seed=2))
        path = tmp_path / "pts.jsonl"
        save_points(pts, path)
        back = load_points(path)
        for a, b in zip(pts, back):
            assert np.array_equal(a.x, b.x) and a.label == b.label
            assert np.array_equal(a.eta, b.eta)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(kind="moons", n=1)
        with pytest.raises(ValueError):
            SyntheticConfig(kind="rings", n=10)
        with pytest.raises(ValueError):
            SyntheticConfig(kind="moons", n=10, noise=-0.1)
