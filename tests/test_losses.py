import math

import numpy as np
import pytest

from conftest import fd_logit_grads, naive_softmax
from focalcal._common import softmax
from focalcal.calibrate import _binary_loss_terms
from focalcal.losses import (FAMILIES, LossSpec, batch_logit_grads, batch_values, class_terms,
                             entropy_bound_check, eval_loss, eval_loss_grad, focal_phi)
from focalcal.theory import _risk_terms

ALL_SPECS = [
    LossSpec(family="ce"),
    LossSpec(family="label_smoothing", alpha=0.05),
    LossSpec(family="brier"),
    LossSpec(family="focal", gamma=2.0),
    LossSpec(family="flsd53"),
    LossSpec(family="fcl", gamma=3.0, lam=0.5),
]


class TestLossSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossSpec(family="hinge")
        with pytest.raises(ValueError):
            LossSpec(family="focal", gamma=-1.0)
        with pytest.raises(ValueError):
            LossSpec(family="fcl", lam=-0.5)
        with pytest.raises(ValueError):
            LossSpec(family="label_smoothing", alpha=1.0)


class TestEvalLoss:
    def test_fcl_zero_at_perfect_onehot(self):
        spec = LossSpec(family="fcl", gamma=2.0, lam=0.5)
        assert eval_loss(spec, [1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_fcl_gamma0_lam0_is_ce(self):
        spec = LossSpec(family="fcl", gamma=0.0, lam=0.0)
        assert abs(eval_loss(spec, [0.5, 0.5], [1.0, 0.0]) - np.log(2)) < 1e-15

    def test_fcl_hand_value(self):
        # 0.16*(-ln 0.6) + (0.16 + 0.16) evaluated independently
        spec = LossSpec(family="fcl", gamma=2.0, lam=1.0)
        expected = 0.16 * -np.log(0.6) + 0.32
        assert abs(eval_loss(spec, [0.6, 0.4], [1.0, 0.0]) - expected) < 1e-15

    def test_ce_value(self):
        assert abs(eval_loss(LossSpec(family="ce"), [0.6, 0.4], [1.0, 0.0])
                   + np.log(0.6)) < 1e-15

    def test_brier_sum_convention(self):
        v = eval_loss(LossSpec(family="brier"), [0.6, 0.4], [1.0, 0.0])
        assert abs(v - (0.16 + 0.16)) < 1e-15

    def test_label_smoothing_is_ce_on_smoothed_target(self):
        spec = LossSpec(family="label_smoothing", alpha=0.1)
        p = np.array([0.6, 0.4])
        smoothed = np.array([0.9 * 1.0 + 0.05, 0.05])
        expected = float(-smoothed @ np.log(p))
        assert abs(eval_loss(spec, p, [1.0, 0.0]) - expected) < 1e-15

    def test_flsd_schedule(self):
        # true-class prob below 0.2 uses gamma 5, else gamma 3
        lo = eval_loss(LossSpec(family="flsd53"), [0.1, 0.9], [1.0, 0.0])
        assert abs(lo - 0.9 ** 5 * -np.log(0.1)) < 1e-15
        hi = eval_loss(LossSpec(family="flsd53"), [0.6, 0.4], [1.0, 0.0])
        assert abs(hi - 0.4 ** 3 * -np.log(0.6)) < 1e-15

    def test_flsd_hard_labels_match_the_per_sample_schedule(self):
        # the schedule as first written: one gamma per sample, from the
        # true-class probability sum p t, for values and logit gradients
        rng = np.random.default_rng(11)
        z = rng.normal(size=(200, 4)) * 2.0
        t = np.eye(4)[rng.integers(0, 4, size=200)]
        p = softmax(z)
        gamma = np.where(np.sum(p * t, axis=-1, keepdims=True) < 0.2, 5.0, 3.0)
        assert 0 < np.sum(gamma == 5.0) < 200
        phi, d1 = focal_phi(p, gamma, 1)
        g = t * d1
        spec = LossSpec(family="flsd53")
        values, grads = batch_logit_grads(spec, z, t)
        assert values.tobytes() == np.sum(t * phi, axis=-1).tobytes()
        assert grads.tobytes() == (p * (g - np.sum(g * p, axis=-1, keepdims=True))).tobytes()
        assert batch_values(spec, p, t).tobytes() == values.tobytes()

    def test_flsd_soft_target_is_the_mixture_of_hard_ones(self):
        # gamma goes per class probability, so a soft target t scores sum_k t_k loss(p, e_k)
        rng = np.random.default_rng(12)
        p = rng.dirichlet(np.ones(3) * 0.5, size=100)
        t = rng.dirichlet(np.ones(3), size=100)
        spec = LossSpec(family="flsd53")
        mixed = sum(t[:, k] * batch_values(spec, p, np.eye(3)[k]) for k in range(3))
        assert np.allclose(batch_values(spec, p, t), mixed, rtol=1e-14, atol=0.0)

    def test_lambda_zero_reduction_bitwise(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(4), size=50)
        targets = np.eye(4)[rng.integers(0, 4, size=50)]
        for gamma in (0.0, 0.5, 1.0, 3.0):
            a = batch_values(LossSpec(family="fcl", gamma=gamma, lam=0.0), probs, targets)
            b = batch_values(LossSpec(family="focal", gamma=gamma), probs, targets)
            assert np.array_equal(a, b)

    def test_nonnegative_on_onehot_targets(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(3), size=100)
        targets = np.eye(3)[rng.integers(0, 3, size=100)]
        for spec in ALL_SPECS:
            assert np.all(batch_values(spec, probs, targets) >= 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            eval_loss(LossSpec(family="ce"), [0.5, 0.5], [1.0, 0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            eval_loss(LossSpec(family="ce"), [np.nan, 0.5], [1.0, 0.0])

    def test_log_clamp_keeps_value_finite(self):
        v = eval_loss(LossSpec(family="ce"), [0.0, 1.0], [1.0, 0.0])
        assert np.isfinite(v) and v > 0


class TestGradients:
    def test_ce_equal_logits(self):
        ev = eval_loss_grad(LossSpec(family="ce"), [0.0, 0.0], [1.0, 0.0])
        assert np.allclose(ev.grad_logits, [-0.5, 0.5], atol=1e-15)

    def test_ce_grad_is_p_minus_t_exactly(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(20, 3))
        t = np.eye(3)[rng.integers(0, 3, size=20)]
        _, g = batch_logit_grads(LossSpec(family="ce"), z, t)
        assert np.array_equal(g, naive_softmax(z) - t)

    def test_fcl_grad_linearity(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(30, 4))
        t = np.eye(4)[rng.integers(0, 4, size=30)]
        lam = 0.7
        _, g_fcl = batch_logit_grads(LossSpec(family="fcl", gamma=2.0, lam=lam), z, t)
        _, g_f = batch_logit_grads(LossSpec(family="focal", gamma=2.0), z, t)
        _, g_b = batch_logit_grads(LossSpec(family="brier"), z, t)
        assert np.allclose(g_fcl, g_f + lam * g_b, atol=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_matches_finite_differences(self, spec):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(50, 4)) * 2.0
        t = np.eye(4)[rng.integers(0, 4, size=50)]
        _, g = batch_logit_grads(spec, z, t)
        fd = fd_logit_grads(lambda zz: batch_logit_grads(spec, zz, t)[0], z)
        assert np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-6

    def test_soft_target_gradients(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(20, 3))
        t = rng.dirichlet(np.ones(3), size=20)
        for spec in ALL_SPECS:
            _, g = batch_logit_grads(spec, z, t)
            fd = fd_logit_grads(lambda zz: batch_logit_grads(spec, zz, t)[0], z)
            assert np.max(np.abs(g - fd)) < 1e-7

    def test_value_matches_eval_loss(self):
        spec = LossSpec(family="fcl", gamma=1.5, lam=0.3)
        z = np.array([0.4, -1.2, 0.8])
        t = np.array([0.0, 1.0, 0.0])
        ev = eval_loss_grad(spec, z, t)
        assert abs(ev.value - eval_loss(spec, naive_softmax(z), t)) < 1e-12

    def test_non_finite_logits_rejected(self):
        with pytest.raises(ValueError):
            eval_loss_grad(LossSpec(family="ce"), [np.inf, 0.0], [1.0, 0.0])


class TestEntropyBound:
    def test_hand_case(self):
        out = entropy_bound_check([0.5, 0.5], [1.0, 0.0], 1.0)
        assert out["holds"]
        assert abs(out["lhs"] - 0.5 * np.log(2)) < 1e-12
        assert abs(out["rhs"]) < 1e-12

    def test_soft_target_equal_distributions(self):
        p = np.array([0.3, 0.7])
        out = entropy_bound_check(p, p, 2.0)
        assert out["holds"] and out["rhs"] <= 0.0 <= out["lhs"] + 1e-12

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError):
            entropy_bound_check([0.5, 0.5], [1.0, 0.0], 0.5)

    def test_matches_the_three_term_formula(self):
        # KL(t||p) + H[t] - gamma H[p] term by term, as the bound is stated
        def three_terms(p, t, gamma):
            nz = t > 0.0
            kl = np.sum(t[nz] * (np.log(t[nz]) - np.log(np.maximum(p[nz], 1e-12))))
            return kl - np.sum(t[nz] * np.log(t[nz])) + gamma * np.sum(p * np.log(p))

        rng = np.random.default_rng(13)
        for i in range(600):
            k = 2 + i % 4
            p = rng.dirichlet(np.ones(k) * (0.3 if i % 3 else 2.0))
            t = np.eye(k)[i % k] if i % 2 else rng.dirichlet(np.ones(k))
            if i % 5 == 0:
                p[0] = 1e-13  # below the 1e-12 floor
                p /= p.sum()
            gamma = 1.0 + i % 4
            out, want = entropy_bound_check(p, t, gamma), three_terms(p, t, gamma)
            assert abs(out["rhs"] - want) <= 1e-13 * max(1.0, abs(want))
            assert out["holds"] == (out["lhs"] >= want - 1e-12)

    def test_random_sweep(self):
        rng = np.random.default_rng(10)
        probs = rng.dirichlet(np.ones(3), size=500)
        labels = rng.integers(0, 3, size=500)
        for gamma in (1.0, 2.0, 3.0):
            for p, y in zip(probs, labels):
                t = np.zeros(3)
                t[y] = 1.0
                assert entropy_bound_check(p, t, gamma)["holds"]


class TestFocalPhi:
    Q = np.linspace(0.03, 0.97, 48)
    # per-element gamma, as the flsd53 schedule produces
    FLSD = np.where(np.arange(48) % 3 == 0, 5.0, 3.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0, 3.0, FLSD], ids=["0", "0.5", "2", "3", "flsd53"])
    def test_derivatives_match_central_differences(self, gamma):
        q, h = self.Q, 1e-5
        phi, d1, d2 = focal_phi(q, gamma, 2)
        assert np.allclose(phi, -(1.0 - q) ** gamma * np.log(q), rtol=1e-14, atol=0.0)
        fd1 = (focal_phi(q + h, gamma)[0] - focal_phi(q - h, gamma)[0]) / (2.0 * h)
        fd2 = (focal_phi(q + h, gamma)[0] - 2.0 * phi + focal_phi(q - h, gamma)[0]) / h ** 2
        assert np.max(np.abs(d1 - fd1) / np.maximum(np.abs(d1), 1.0)) < 1e-6
        assert np.max(np.abs(d2 - fd2) / np.maximum(np.abs(d2), 1.0)) < 1e-4

    def test_orders_share_their_values(self):
        for order in (0, 1):
            got = focal_phi(self.Q, 2.5, order)
            assert len(got) == order + 1
            for a, b in zip(got, focal_phi(self.Q, 2.5, 2)):
                assert np.array_equal(a, b)

    def test_gamma_zero_is_the_log_loss_bitwise(self):
        q = np.array([1e-13, 0.2, 0.5, 1.0 - 1e-9, 1.0])
        qe = np.maximum(q, 1e-12)
        logq = np.array([math.log(v) for v in qe])
        phi, d1, d2 = focal_phi(q, 0.0, 2)
        assert np.array_equal(phi, -logq)
        assert np.array_equal(d1, -1.0 / qe)
        assert np.array_equal(d2, 1.0 / qe ** 2)

    def test_floors_keep_the_ends_finite(self):
        for gamma in (0.0, 0.5, 3.0):
            for d in focal_phi(np.array([0.0, 1.0]), gamma, 2):
                assert np.all(np.isfinite(d))


def _close(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(b), 1e-300))


class TestFamilyTable:
    """theory's risk and pgap's binary terms agree with the per-class evaluator."""

    SPECS = ALL_SPECS + [LossSpec(family="focal", gamma=0.5),
                         LossSpec(family="fcl", gamma=0.0, lam=1.5)]

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_risk_is_the_posterior_mixture(self, spec, k):
        rng = np.random.default_rng(k)
        q = rng.dirichlet(np.ones(k), size=30)
        eta = rng.dirichlet(np.ones(k))
        eye = np.eye(k)
        grad, hess = _risk_terms(spec, q, eta, 2)
        per_class = [class_terms(spec, q, eye[y], 2) for y in range(k)]
        assert _close(grad, sum(eta[y] * per_class[y][1] for y in range(k)))
        assert _close(hess, sum(eta[y] * per_class[y][2] for y in range(k)))
        value, = _risk_terms(spec, q, eta, 0)
        assert _close(value, sum(eta[y] * batch_values(spec, q, eye[y]) for y in range(k)))

    # pgap scores hard labels on unsmoothed targets, and does not take label smoothing
    @pytest.mark.parametrize("spec", [s for s in SPECS if s.family != "label_smoothing"],
                             ids=repr)
    def test_binary_terms_are_the_two_class_evaluator(self, spec):
        kappa = np.linspace(0.01, 0.99, 99)
        probs = np.stack([1.0 - kappa, kappa], axis=-1)
        (l1, l0), = _binary_loss_terms(spec, kappa)
        (d1, d0), (h1, h0) = _binary_loss_terms(spec, kappa, 2)
        for label, (value, d, h) in ((1, (l1, d1, h1)), (0, (l0, d0, h0))):
            y = np.eye(2)[label]
            _, g, gg = class_terms(spec, probs, y, 2)
            # d/d kappa of f(1 - kappa, kappa): -f_0' + f_1', and f_0'' + f_1''
            assert _close(value, batch_values(spec, probs, y))
            assert _close(d, g[:, 1] - g[:, 0])
            assert _close(h, gg[:, 0] + gg[:, 1])


def test_families_frozen():
    assert FAMILIES == ("ce", "label_smoothing", "brier", "focal", "flsd53", "fcl")
