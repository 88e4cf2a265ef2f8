"""Release acceptance suite: one test per criterion, at stated tolerances.

The summary hook in conftest prints one PASS/FAIL line per criterion at the
end of the run, plus the informational report lines recorded with
``acceptance_note``.

Three criteria assert idealized exact-calibration claims that the focusing
term mathematically rules out for gamma > 0 (the focal gradient at the true
posterior is nonzero and class-asymmetric, so the risk minimizer cannot sit
there, and the sigma curve rises before it falls near q = 0). Those
assertions are kept at face value rather than weakened, so c01, c02 and c07
fail by design; the implementation's true behavior is locked down by
brute-force-verified module tests instead.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import (acceptance_note, fd_logit_grads, naive_adaece,
                      naive_cwece, naive_ece_mce, naive_scores, pairwise_auroc,
                      pgap_bruteforce, rand_prediction_arrays, smce_bruteforce)
from focalcal.calibrate import ConvergenceError, pgap, temperature_scan
from focalcal.data import PredictionSet, SyntheticConfig, generate, points_to_arrays
from focalcal.losses import LossSpec, batch_logit_grads, entropy_bound_check
from focalcal.metrics import (BinningConfig, adaece, auroc, classwise_ece, ece,
                              mce, score_metrics, smce)
from focalcal.theory import (SigmaSpec, minimize_risk, oc_uc_bound,
                             optimal_curve, sigma_eval, sigma_root)
from focalcal.train import MLPConfig, predictions, split_points, train

GAMMAS = (0.0, 1.0, 2.0, 3.0, 5.0)
LAMBDAS = (0.5, 1.0, 1.5)


def binary_set(p1, labels):
    p1 = np.asarray(p1, dtype=float)
    return PredictionSet(probs=np.column_stack([1.0 - p1, p1]),
                         labels=np.asarray(labels, dtype=int))


@pytest.fixture(scope="module")
def toy_models():
    """Both toy-experiment models, trained once and shared across criteria."""
    t0 = time.perf_counter()
    pts = generate(SyntheticConfig(kind="moons", n=1000, noise=0.2, seed=1))
    tr, va, te = split_points(pts, 1)
    cfg = MLPConfig(seed=1, epochs=500, lr=1e-3)
    fl_spec = LossSpec(family="focal", gamma=10.0)
    fcl_spec = LossSpec(family="fcl", gamma=10.0, lam=1.5)
    fl_model, _ = train(cfg, fl_spec, tr, te)
    fcl_model, _ = train(cfg, fcl_spec, tr, te)
    xt, yt, _ = points_to_arrays(te)
    xv, yv, _ = points_to_arrays(va)
    out = {
        "fl_spec": fl_spec,
        "fcl_spec": fcl_spec,
        "fl_test": predictions(fl_model, xt, yt),
        "fcl_test": predictions(fcl_model, xt, yt),
        "fl_val": predictions(fl_model, xv, yv),
        "fcl_val": predictions(fcl_model, xv, yv),
    }
    out["ece_fl"] = ece(out["fl_test"], BinningConfig(bins=15))
    out["ece_fcl"] = ece(out["fcl_test"], BinningConfig(bins=15))
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_c01_risk_minimizer_recovers_posterior():
    t0 = time.perf_counter()
    etas = [np.array([e, 1.0 - e]) for e in np.arange(0.05, 0.951, 0.05)]
    tern = np.round(np.arange(0.1, 0.81, 0.1), 10)
    etas += [np.array([a, b, 1.0 - a - b])
             for a in tern for b in tern if 1.0 - a - b >= 0.1 - 1e-9]
    worst, arg = 0.0, None
    for gamma, lam in itertools.product(GAMMAS, LAMBDAS):
        spec = LossSpec(family="fcl", gamma=gamma, lam=lam)
        for eta in etas:
            res = minimize_risk(spec, eta)
            assert res.converged
            dev = float(np.max(np.abs(res.q_star - eta)))
            if dev > worst:
                worst, arg = dev, (gamma, lam, tuple(np.round(eta, 2)))
    focal = minimize_risk(LossSpec(family="focal", gamma=2.0), [0.9, 0.1])
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4, f"max deviation from eta {worst:.4g} at (gamma, lam, eta)={arg}"
    assert focal.q_star[0] <= 0.89
    assert elapsed < 30.0


def test_c02_sigma_shape_and_root():
    t0 = time.perf_counter()
    q_mono = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    q_grid = np.arange(1e-6, 1.0, 1e-6)
    non_monotone = []
    for gamma, lam in itertools.product(GAMMAS, LAMBDAS):
        spec = SigmaSpec(gamma=gamma, lam=lam)
        vals = np.array([sigma_eval(spec, x) for x in q_mono])
        if not np.all(np.diff(vals) < 0.0):
            non_monotone.append((gamma, lam))
        assert abs(sigma_eval(spec, 1e-9) - 1.0) < 1e-6
        # the right-endpoint limit is -2*lam for gamma > 0; the linear
        # gamma = 0 case keeps its constant term and tends to 1 - 2*lam
        right = 1.0 - 2.0 * lam if gamma == 0.0 else -2.0 * lam
        assert abs(sigma_eval(spec, 1.0 - 1e-9) - right) < 1e-6
        # independent grid oracle for the descending zero crossing
        grid_vals = ((1.0 - q_grid) ** gamma
                     - gamma * q_grid * np.log(q_grid) * (1.0 - q_grid) ** max(gamma - 1.0, 0.0)
                     - 2.0 * lam * q_grid)
        if gamma == 0.0:
            grid_vals = 1.0 - 2.0 * lam * q_grid
        flips = np.where(np.diff(np.sign(grid_vals)) < 0)[0]
        if flips.size == 0:
            with pytest.raises(ConvergenceError):
                sigma_root(spec)
        else:
            assert flips.size == 1
            root = sigma_root(spec)
            assert q_grid[flips[0]] - 1e-6 <= root <= q_grid[flips[0] + 1] + 1e-6
    assert sigma_root(SigmaSpec(gamma=0.0, lam=1.0)) == 0.5
    elapsed = time.perf_counter() - t0
    assert not non_monotone, f"not strictly decreasing for (gamma, lam) in {non_monotone}"
    assert elapsed < 5.0


def test_c03_smooth_calibration_error_exact():
    perfect = PredictionSet(probs=np.array([[1.0, 0.0], [0.0, 1.0]]),
                            labels=np.array([0, 1]))
    assert smce(perfect).value == 0.0
    rng = np.random.default_rng(30)
    pool = np.round(np.linspace(0.02, 0.98, 97), 2)
    for _ in range(100):
        k = int(rng.integers(1, 5))  # <= 8 LP knots counting complements
        vals = rng.choice(pool, size=k, replace=False)
        n = int(rng.integers(k, 13))
        p1 = np.concatenate([vals, rng.choice(vals, size=n - k)])
        labels = rng.integers(0, 2, size=n)
        probs = np.column_stack([1.0 - p1, p1])
        pset = PredictionSet(probs=probs, labels=labels)
        res = smce(pset)
        assert abs(res.value - smce_bruteforce(probs, labels)) < 2e-3
        # the returned witness is feasible (validated on construction) and
        # attains the reported value
        w = res.witness
        onehot = np.eye(2)[labels]
        weights = np.zeros(w.knots.size)
        for p, r in zip(probs.ravel(), (onehot - probs).ravel()):
            weights[np.searchsorted(w.knots, p)] += r
        assert abs(weights @ w.values / n - res.value) < 1e-9


def test_c04_post_processing_gap(toy_models):
    rng = np.random.default_rng(40)
    # nonnegativity
    for _ in range(30):
        n = int(rng.integers(2, 25))
        ps = binary_set(rng.uniform(0.02, 0.98, size=n), rng.integers(0, 2, size=n))
        spec = LossSpec(family="fcl", gamma=float(rng.uniform(0, 4)),
                        lam=float(rng.uniform(0, 2)))
        assert pgap(ps, spec).pgap >= 0.0
    # lambda = 0 reduces to the plain focusing loss
    for _ in range(15):
        n = int(rng.integers(2, 20))
        ps = binary_set(rng.uniform(0.05, 0.95, size=n), rng.integers(0, 2, size=n))
        gamma = float(rng.uniform(0, 4))
        a = pgap(ps, LossSpec(family="fcl", gamma=gamma, lam=0.0)).pgap
        b = pgap(ps, LossSpec(family="focal", gamma=gamma)).pgap
        assert abs(a - b) < 1e-9
    # brute-force agreement on tiny instances
    specs = [LossSpec(family="ce"), LossSpec(family="brier"),
             LossSpec(family="focal", gamma=2.0),
             LossSpec(family="fcl", gamma=3.0, lam=0.5)]
    for i in range(10):
        n = int(rng.integers(2, 7))
        p1 = rng.uniform(0.1, 0.9, size=n)
        labels = rng.integers(0, 2, size=n)
        res = pgap(binary_set(p1, labels), specs[i % len(specs)])
        raw_b, opt_b, gap_b = pgap_bruteforce(p1, labels, specs[i % len(specs)],
                                              step=1e-4)
        assert abs(res.raw_risk - raw_b) < 1e-9
        assert abs(res.pgap - gap_b) < 1e-4
    # two toy models: the model trained with the calibration-regularized loss
    # should admit less post-hoc improvement than the plain-focusing model
    # when both are scored under a common loss
    d = toy_models
    gaps = {}
    for name, eval_spec in (("fcl", d["fcl_spec"]), ("brier", LossSpec(family="brier")),
                            ("focal", d["fl_spec"])):
        gaps[name] = (pgap(d["fcl_test"], eval_spec).pgap,
                      pgap(d["fl_test"], eval_spec).pgap)
    acceptance_note("pgap (calibration-trained model, focusing-trained model) "
                    "by evaluation loss: "
                    + ", ".join(f"{k}=({a:.4g}, {b:.4g})" for k, (a, b) in gaps.items()))
    # report-only sweep: same random predictor scored under the regularized
    # loss versus the plain focusing loss
    violations = 0
    for _ in range(100):
        n = int(rng.integers(3, 15))
        ps = binary_set(rng.uniform(0.05, 0.95, size=n), rng.integers(0, 2, size=n))
        gamma = float(rng.uniform(0.5, 5.0))
        lam = float(rng.uniform(0.1, 2.0))
        a = pgap(ps, LossSpec(family="fcl", gamma=gamma, lam=lam)).pgap
        b = pgap(ps, LossSpec(family="focal", gamma=gamma)).pgap
        if a > b + 1e-9:
            violations += 1
    acceptance_note(f"same-predictor gap inequality (regularized <= plain focusing): "
                    f"{violations}/100 random instances violate it (logged, not asserted)")
    for name in ("fcl", "brier"):
        a, b = gaps[name]
        assert a <= b + 1e-6, f"under {name}: {a:.6g} > {b:.6g}"


def test_c05_gradients_match_finite_differences():
    rng = np.random.default_rng(50)
    families = [LossSpec(family="ce"), LossSpec(family="label_smoothing", alpha=0.05),
                LossSpec(family="brier"), LossSpec(family="focal", gamma=2.0),
                LossSpec(family="flsd53"), LossSpec(family="fcl", gamma=3.0, lam=0.5)]
    worst = 0.0
    for spec in families:
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            z = rng.normal(scale=2.0, size=(1, k))
            t = np.eye(k)[int(rng.integers(0, k))][None, :]
            _, grads = batch_logit_grads(spec, z, t)
            fd = fd_logit_grads(lambda zz: batch_logit_grads(spec, zz, t)[0], z)
            rel = np.max(np.abs(grads - fd) / np.maximum(np.abs(fd), 1.0))
            worst = max(worst, float(rel))
    assert worst <= 1e-6


def test_c06_bounds_hold_on_random_sweeps():
    rng = np.random.default_rng(60)
    chunk = 10000
    for k in (2, 3, 4, 5, 6, 8, 10, 2, 3, 5):
        p = rng.dirichlet(np.ones(k), size=chunk * 10)
        e = rng.dirichlet(np.ones(k), size=chunk * 10)
        for pi, ei in zip(p, e):
            out = oc_uc_bound(pi, ei)
            assert out["holds"]
            assert out["lhs"] <= out["rhs_linf"] + 1e-12
            assert out["rhs_linf"] <= out["rhs_l2"] + 1e-12
    # the same draws, in the same order, checked as one stack per K
    groups = {}
    for _ in range(100000):
        k = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(k))
        t = np.eye(k)[int(rng.integers(0, k))]
        groups.setdefault(k, []).append((p, t))
    for k, pairs in groups.items():
        p, t = map(np.array, zip(*pairs))
        for gamma in (1.0, 2.0, 3.0):
            assert all(entropy_bound_check(p, t, gamma)["holds"]), (k, gamma)


def test_c07_optimal_prediction_curves():
    grid = np.round(np.arange(0.0, 1.0001, 0.01), 10)
    ce_curve = optimal_curve(LossSpec(family="ce"), grid)
    ce_dev = max(abs(p - q) for q, p in ce_curve)
    fcl_dev, arg = 0.0, None
    dominated = True
    for gamma in (1.0, 2.0, 3.0):
        fcl = optimal_curve(LossSpec(family="fcl", gamma=gamma, lam=0.5), grid)
        fl = optimal_curve(LossSpec(family="focal", gamma=gamma), grid)
        for (q, a), (_, b) in zip(fcl, fl):
            if abs(a - q) > fcl_dev:
                fcl_dev, arg = abs(a - q), (gamma, q)
            if abs(a - q) > abs(b - q) + 1e-9:
                dominated = False
    assert ce_dev <= 1e-4
    assert fcl_dev <= 1e-4, f"max curve deviation {fcl_dev:.4g} at (gamma, q)={arg}"
    assert dominated


def test_c08_metrics_match_naive_oracles():
    rng = np.random.default_rng(80)
    for _ in range(100):
        probs, labels = rand_prediction_arrays(rng, n_max=200, k_max=5)
        ps = PredictionSet(probs=probs, labels=labels)
        e, m = naive_ece_mce(probs, labels, 15)
        assert abs(ece(ps) - e) < 1e-12
        assert abs(mce(ps) - m) < 1e-12
        assert abs(adaece(ps, BinningConfig(bins=15, scheme="equal_mass"))
                   - naive_adaece(probs, labels, 15)) < 1e-12
        assert abs(classwise_ece(ps) - naive_cwece(probs, labels, 15)) < 1e-12
        scores = score_metrics(ps)
        nll, brier, err = naive_scores(probs, labels)
        assert abs(scores["nll"] - nll) < 1e-12
        assert abs(scores["brier"] - brier) < 1e-12
        assert scores["error"] == err
    for _ in range(100):
        pos = np.round(rng.uniform(size=int(rng.integers(1, 40))), 1)
        neg = np.round(rng.uniform(size=int(rng.integers(1, 40))), 1)
        assert auroc(pos, neg) == pairwise_auroc(pos, neg)


def test_c09_toy_training_calibration(toy_models):
    d = toy_models
    scan = temperature_scan(d["fcl_val"])
    in_range = 0.8 <= scan.best_t <= 1.3
    acceptance_note(f"toy experiment: test ECE regularized={d['ece_fcl']:.5f} "
                    f"plain focusing={d['ece_fl']:.5f}; chosen temperature "
                    f"{scan.best_t:.2f} ({'inside' if in_range else 'outside'} "
                    f"[0.8, 1.3]; reported, not asserted)")
    assert d["ece_fcl"] <= d["ece_fl"]
    assert d["elapsed"] < 120.0


def test_c10_cli_bit_reproducible(tmp_path):
    from test_cli import (FILE_CASES, STDOUT_CASES, FIX, GOLD, payload_lines,
                          run_capture)
    for golden, argv in FILE_CASES:
        outs = []
        for rep in range(2):
            out = tmp_path / f"{rep}-{golden}"
            rc, _, _ = run_capture(argv + ["--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] == (GOLD / golden).read_bytes()
    for golden, argv in STDOUT_CASES:
        rc, stdout, _ = run_capture(argv)
        assert rc == 0
        assert payload_lines(stdout) == (GOLD / golden).read_text()
    out = tmp_path / "points.jsonl"
    rc, _, _ = run_capture(["synth", "--kind", "moons", "--n", "20",
                            "--noise", "0.2", "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (FIX / "points.jsonl").read_bytes()
