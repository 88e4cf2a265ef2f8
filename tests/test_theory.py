import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import definition_risk, simplex_minimizer_slsqp
from focalcal import _common, theory
from focalcal._common import newton_root, newton_root_scalar
from focalcal.calibrate import ConvergenceError
from focalcal.cli import _payload
from focalcal.losses import LossSpec, eval_loss
from focalcal.theory import (KKT_TOL, Q_HI, Q_LO, MinimizerResult, SigmaSpec, _kkt_residual,
                             _risk_terms, minimize_risk, oc_uc_bound, optimal_curve,
                             order_preservation_check, pointwise_risk,
                             sigma_eval, sigma_root)


class TestPointwiseRisk:
    def test_onehot_eta_degenerates(self):
        spec = LossSpec(family="focal", gamma=2.0)
        q = np.array([0.3, 0.7])
        v = pointwise_risk(spec, q, [0.0, 1.0])
        assert abs(v - eval_loss(spec, q, [0.0, 1.0])) < 1e-15

    def test_ce_at_eta_is_entropy(self):
        eta = np.array([0.2, 0.3, 0.5])
        v = pointwise_risk(LossSpec(family="ce"), eta, eta)
        assert abs(v + float(eta @ np.log(eta))) < 1e-12

    def test_fcl_hand_sum(self):
        spec = LossSpec(family="fcl", gamma=2.0, lam=1.0)
        per_class = 0.25 * np.log(2) + 0.5  # same loss for either one-hot target
        v = pointwise_risk(spec, [0.5, 0.5], [0.7, 0.3])
        assert abs(v - per_class) < 1e-12

    def test_mismatch(self):
        with pytest.raises(ValueError):
            pointwise_risk(LossSpec(family="ce"), [0.5, 0.5], [0.2, 0.3, 0.5])


class TestMinimizeRisk:
    def test_gamma_zero_recovers_eta(self):
        # with no focusing term the loss is CE plus a squared penalty centred at
        # the target, so the risk minimizer is the target distribution itself
        for lam in (0.5, 1.0, 1.5):
            res = minimize_risk(LossSpec(family="fcl", gamma=0.0, lam=lam), [0.7, 0.3])
            assert res.converged
            assert np.max(np.abs(res.q_star - [0.7, 0.3])) < 1e-9

    def test_fcl_binary_matches_bruteforce(self):
        # for gamma > 0 the focusing term shifts the minimizer below eta; the
        # solver must agree with a 1e-6-step grid search on the true optimum
        gamma, lam, eta1 = 3.0, 0.5, 0.7
        res = minimize_risk(LossSpec(family="fcl", gamma=gamma, lam=lam), [eta1, 1 - eta1])
        assert res.converged and res.kkt_residual <= 1e-8
        grid = np.arange(1e-6, 1.0, 1e-6)
        risks = (eta1 * (1 - grid) ** gamma * -np.log(grid)
                 + (1 - eta1) * grid ** gamma * -np.log(1 - grid)
                 + lam * ((grid - eta1) ** 2 + (eta1 - grid) ** 2))
        q_grid = grid[np.argmin(risks)]
        assert abs(res.q_star[0] - q_grid) < 1e-4
        assert res.q_star[0] < eta1  # underconfident, not calibrated

    def test_quadratic_term_pulls_toward_eta(self):
        # larger lam moves the minimizer monotonically closer to the target
        eta = [0.7, 0.3]
        devs = [abs(minimize_risk(LossSpec(family="fcl", gamma=3.0, lam=lam), eta).q_star[0]
                    - 0.7)
                for lam in (0.5, 2.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(devs, devs[1:]))
        focal_dev = abs(minimize_risk(LossSpec(family="focal", gamma=3.0), eta).q_star[0]
                        - 0.7)
        assert devs[0] < focal_dev

    def test_uniform_eta_gives_uniform(self):
        for spec in (LossSpec(family="ce"), LossSpec(family="brier"),
                     LossSpec(family="fcl", gamma=2.0, lam=1.0)):
            res = minimize_risk(spec, [1 / 3, 1 / 3, 1 / 3])
            assert np.max(np.abs(res.q_star - 1 / 3)) < 1e-6

    def test_focal_underconfident(self):
        res = minimize_risk(LossSpec(family="focal", gamma=2.0), [0.9, 0.1])
        # brute-force 1-D grid confirmation at step 1e-5
        grid = np.arange(1e-5, 1.0, 1e-5)
        risks = 0.9 * (1 - grid) ** 2 * -np.log(grid) + 0.1 * grid ** 2 * -np.log(1 - grid)
        q_grid = grid[np.argmin(risks)]
        assert res.q_star[0] <= 0.89
        assert abs(res.q_star[0] - q_grid) < 1e-4

    def test_simplex_and_kkt_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            eta = rng.dirichlet(np.ones(k))
            res = minimize_risk(LossSpec(family="fcl", gamma=2.0, lam=1.0), eta)
            assert abs(res.q_star.sum() - 1.0) < 1e-10
            assert res.converged and res.kkt_residual <= 1e-8

    def test_flsd_rejected(self):
        with pytest.raises(ValueError, match="flsd"):
            minimize_risk(LossSpec(family="flsd53"), [0.5, 0.5])

    def test_objective_matches_pointwise_risk(self):
        spec = LossSpec(family="fcl", gamma=1.0, lam=0.5)
        eta = np.array([0.2, 0.3, 0.5])
        res = minimize_risk(spec, eta)
        assert abs(res.objective - pointwise_risk(spec, res.q_star, eta)) < 1e-10

    def test_json_keys(self):
        res = minimize_risk(LossSpec(family="ce"), [0.4, 0.6])
        assert set(_payload(res)) == {"q_star", "objective", "iterations",
                                      "converged", "kkt_residual"}


# every family with a well-defined minimizer (flsd53's risk is discontinuous)
SIMPLEX_SPECS = [LossSpec(family="ce"), LossSpec(family="label_smoothing", alpha=0.1),
                 LossSpec(family="brier"), LossSpec(family="focal", gamma=0.5),
                 LossSpec(family="focal", gamma=2.0), LossSpec(family="focal", gamma=5.0),
                 LossSpec(family="fcl", gamma=0.0, lam=0.5),
                 LossSpec(family="fcl", gamma=1.0, lam=0.5),
                 LossSpec(family="fcl", gamma=3.0, lam=0.5),
                 LossSpec(family="fcl", gamma=5.0, lam=1.5)]


# the parameters each family reads, in the order of a test id
SPEC_PARAMS = {"focal": ("gamma",), "flsd53": ("gamma",), "fcl": ("gamma", "lam"),
               "label_smoothing": ("alpha",)}


def spec_id(spec):
    params = SPEC_PARAMS.get(spec.family, ())
    return "-".join([spec.family] + [str(getattr(spec, p)) for p in params])


def simplex_etas():
    rng = np.random.default_rng(6)
    etas = [rng.dirichlet(np.full(k, conc))
            for k in range(3, 11) for conc in (0.1, 1.0) for _ in range(2)]
    return etas + [np.eye(3)[0], np.eye(5)[3], np.array([0.0, 0.52, 0.08, 0.4]),
                   np.array([0.5, 0.0, 0.5]), np.array([0.0, 0.0, 0.3, 0.7, 0.0, 0.0])]


class TestSimplexMinimizer:
    @pytest.mark.parametrize("spec", SIMPLEX_SPECS, ids=spec_id)
    def test_no_worse_than_slsqp_oracle(self, spec):
        # SLSQP itself may stop short, so only the objectives are compared
        for eta in simplex_etas():
            res = minimize_risk(spec, eta)
            assert res.converged and res.kkt_residual <= 1e-8, (eta, res)
            assert np.all(res.q_star >= 1e-12) and abs(res.q_star.sum() - 1.0) <= 1e-12
            risk, _ = definition_risk(spec, res.q_star, eta)
            assert abs(res.objective - risk) <= 1e-12 * (1.0 + abs(risk))
            q_oracle = simplex_minimizer_slsqp(spec, eta)
            assert risk <= definition_risk(spec, q_oracle, eta)[0] + 1e-12, eta

    def test_flat_derivative_stays_on_simplex(self):
        # phi' of gamma = 50 underflows to 0 near q = 1, so the whole top of the
        # interval solves the stationarity equation; the feasible end is taken
        res = minimize_risk(LossSpec(family="focal", gamma=50.0), [1.0, 0.0, 0.0])
        assert res.converged and res.q_star.tolist() == [1.0 - 2e-12, 1e-12, 1e-12]

    def test_off_simplex_point_is_not_converged(self, monkeypatch):
        # at gamma = 50 phi' underflows near 1, so the KKT residual of this point,
        # which sums to 1 + 2e-12, is 0; only the simplex check can reject it
        spec, eta = LossSpec(family="focal", gamma=50.0), np.array([1.0, 0.0, 0.0])
        q = np.array([1.0, 1e-12, 1e-12])
        monkeypatch.setattr(theory, "_minimize_simplex", lambda spec, eta: (q.copy(), 1))
        res = minimize_risk(spec, eta)
        assert res.kkt_residual == _kkt_residual(spec, q, eta) <= KKT_TOL
        assert not res.converged

    def test_certificate_flags_wrong_points(self):
        # each wrong point breaks exactly one KKT condition
        ce, brier = LossSpec(family="ce"), LossSpec(family="brier")
        eta = np.array([0.2, 0.3, 0.5])
        assert _kkt_residual(ce, eta, eta) <= 1e-15
        for spec, e, q in [
                (ce, eta, [0.3, 0.3, 0.4]),                  # stationarity, free coordinates
                (ce, eta, [1e-12, 0.375, 0.625]),            # held at the lower bound
                (brier, [0.25, 0.25, 0.5], [4e-10, 4e-10, 1.0 - 8e-10])]:  # at the upper end
            assert _kkt_residual(spec, np.array(q), np.array(e)) > 0.1

    def test_inner_level_follows_the_scalar_rule(self, monkeypatch):
        # each row of the inner level, collapsed brackets and starts outside
        # the bracket included, takes the scalar rule's steps bit for bit
        seen = set()

        def checked(f, lo, hi, x0):
            x, s, it = newton_root(f, lo, hi, x0)
            if np.ndim(lo):  # the inner level; the outer one solves for mu
                for i in range(x.size):
                    row = lambda v: tuple(float(a[i]) for a in f(np.full(x.size, v)))  # noqa: E731
                    scalar = newton_root_scalar(row, float(lo[i]), float(hi[i]), float(x0[i]))
                    assert np.array([x[i], s[i]]).tobytes() == np.array(scalar).tobytes()
                    seen.add((lo[i] == hi[i], lo[i] <= x0[i] <= hi[i]))
            return x, s, it

        monkeypatch.setattr(theory, "newton_root", checked)
        for spec in SIMPLEX_SPECS:
            for eta in simplex_etas()[::3]:
                minimize_risk(spec, eta)
        assert (True, False) in seen and (False, True) in seen

    def test_equal_eta_entries_give_equal_q(self):
        res = minimize_risk(LossSpec(family="fcl", gamma=5.0, lam=0.5), [0.1, 0.1, 0.8])
        assert res.q_star[0] == res.q_star[1]
        rng = np.random.default_rng(7)
        for spec in SIMPLEX_SPECS:
            half = rng.dirichlet(np.ones(3)) / 2.0
            q = minimize_risk(spec, np.concatenate([half, half])).q_star
            assert np.array_equal(q[:3], q[3:])


def scalar_bisection(spec, eta):
    """One posterior at a time: bisect the risk derivative until the bracket is
    below 1e-16, or for 200 steps, then take the midpoint."""
    def deriv(x):
        g, = _risk_terms(spec, np.array([x, 1.0 - x]), eta, 1)
        return g[0] - g[1]

    lo, hi = 1e-12, 1.0 - 1e-12
    if deriv(lo) >= 0.0:
        return lo
    if deriv(hi) <= 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if deriv(mid) > 0.0 else (mid, hi)
        if hi - lo < 1e-16:
            break
    return 0.5 * (lo + hi)


BINARY_GRID = np.concatenate([np.round(np.arange(0.0, 1.0001, 0.05), 10),
                              [1e-9, 0.5 + 1e-12, 1.0 - 1e-9]])
# posteriors in the tails: 1e-1 ... 1e-16 and 1 - 1e-1 ... 1 - 1e-16
BINARY_TAILS = np.concatenate([10.0 ** -np.arange(1.0, 17.0), 1.0 - 10.0 ** -np.arange(1.0, 17.0)])
BINARY_SPECS = SIMPLEX_SPECS + [LossSpec(family="flsd53"), LossSpec(family="focal", gamma=50.0),
                                LossSpec(family="focal", gamma=1e6),
                                LossSpec(family="fcl", gamma=1e6, lam=0.5)]


def reference_minimize_binary(spec, eta):
    """The binary minimizer with its own end tests: a derivative that keeps one
    sign over [Q_LO, Q_HI] pins the row to an end, Q_LO first, as a collapsed
    bracket of ``newton_root``. Returns q (n, 2) and the Newton passes."""
    def deriv(x):
        g, h = _risk_terms(spec, np.stack([x, 1.0 - x], axis=-1), eta, 2)
        return g[..., 0] - g[..., 1], h[..., 0] + h[..., 1]

    d_lo, d_hi = deriv(np.array([[Q_LO], [Q_HI]]))[0]
    lo = np.where(~(d_lo >= 0.0) & (d_hi <= 0.0), Q_HI, Q_LO)
    hi = np.where(d_lo >= 0.0, Q_LO, Q_HI)
    x, _, passes = newton_root(deriv, lo, hi, eta[:, 0])
    return np.stack([x, 1.0 - x], axis=-1), passes


class TestBinaryBisection:
    @pytest.mark.parametrize("spec", SIMPLEX_SPECS + [LossSpec(family="flsd53")], ids=spec_id)
    def test_batch_matches_scalar_loop_and_pointwise_minimizer(self, spec):
        # Newton lands within a few ulp of the bisection oracle's point, and
        # never at a higher risk; flsd53's risk jumps at q = 0.2, so only the risk
        # is compared there
        curve = optimal_curve(spec, BINARY_GRID)
        assert [q for q, _ in curve] == BINARY_GRID.tolist()
        for q, p in curve:
            eta = np.array([q, 1.0 - q])
            x = scalar_bisection(spec, eta)
            risk, = _risk_terms(spec, np.array([[p, 1.0 - p], [x, 1.0 - x]]), eta, 0)
            assert risk[0] <= risk[1] + 1e-15, (q, p, x)
            if spec.family != "flsd53":
                assert abs(p - x) <= 1e-15, (q, p, x)
                assert minimize_risk(spec, eta).q_star[0] == p

    def test_rows_follow_the_scalar_rule(self, monkeypatch):
        # each row that reaches newton_root takes the scalar rule's steps bit
        # for bit
        seen = set()

        def checked(f, lo, hi, x0):
            x, s, it = newton_root(f, lo, hi, x0)
            for i in range(x.size):
                row = lambda v: tuple(float(a[i]) for a in f(np.full(x.size, v)))  # noqa: E731
                scalar = newton_root_scalar(row, float(lo[i]), float(hi[i]), float(x0[i]))
                assert np.array([x[i], s[i]]).tobytes() == np.array(scalar).tobytes()
                seen.add(bool(lo[i] == hi[i]))
            return x, s, it

        monkeypatch.setattr(_common, "newton_root", checked)
        for spec in SIMPLEX_SPECS + [LossSpec(family="flsd53")]:
            optimal_curve(spec, BINARY_GRID)
        # pinned rows never reach newton_root; test_matches_end_test_reference holds their bits
        assert seen == {False}

    @pytest.mark.parametrize("spec", BINARY_SPECS, ids=spec_id)
    def test_matches_end_test_reference(self, spec):
        # the shared per-row rule gives the reference's q bits on the batch,
        # and on each row alone its pass count too
        eta0 = np.concatenate([BINARY_GRID, BINARY_TAILS])
        eta = np.stack([eta0, 1.0 - eta0], axis=-1)
        q, _ = theory._minimize_binary(spec, eta)
        assert q.tobytes() == reference_minimize_binary(spec, eta)[0].tobytes()
        for row in eta:
            q, passes = theory._minimize_binary(spec, row[None])
            want, want_passes = reference_minimize_binary(spec, row[None])
            assert (q.tobytes(), passes) == (want.tobytes(), want_passes), row

    def test_flat_risk_keeps_the_start(self):
        # at gamma 1e15 the focal risk derivative is exactly 0 on the open
        # bracket, so every point there has the least computed risk, and a row
        # keeps eta_0 clipped into the bracket rather than taking an end
        spec = LossSpec(family="focal", gamma=1e15)
        assert optimal_curve(spec, [0.0, 0.3, 1.0]) == [(0.0, Q_LO), (0.3, 0.3), (1.0, Q_HI)]
        res = minimize_risk(spec, [0.2, 0.8])
        assert res.q_star.tolist() == [0.2, 0.8] and res.converged and res.iterations == 1

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([LossSpec(family="ce"), LossSpec(family="brier"),
                            LossSpec(family="focal", gamma=0.5),
                            LossSpec(family="focal", gamma=2.0),
                            LossSpec(family="focal", gamma=5.0),
                            LossSpec(family="fcl", gamma=1.0, lam=0.1),
                            LossSpec(family="fcl", gamma=3.0, lam=0.5),
                            LossSpec(family="fcl", gamma=5.0, lam=1.5)]),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_curve_is_nondecreasing(self, spec, a, b):
        # the risk derivative falls in eta_0 for every convex family, so the exact
        # curve is nondecreasing; the computed one may only stray by rounding
        (q1, p1), (q2, p2) = optimal_curve(spec, [min(a, b), max(a, b)])
        assert p1 <= p2 + 1e-15, (q1, p1, q2, p2)


class TestSigma:
    def test_linear_case(self):
        spec = SigmaSpec(gamma=0.0, lam=1.0)
        assert sigma_eval(spec, 0.25) == 0.5
        assert abs(sigma_root(spec) - 0.5) < 1e-10

    def test_limits(self):
        for gamma, lam in [(1.0, 0.5), (2.0, 1.0), (5.0, 2.0)]:
            spec = SigmaSpec(gamma=gamma, lam=lam)
            assert abs(sigma_eval(spec, 1e-9) - 1.0) < 1e-6
            assert abs(sigma_eval(spec, 1.0 - 1e-9) + 2.0 * lam) < 1e-6

    def test_root_matches_grid_sign_change(self):
        for gamma, lam in [(2.0, 1.0), (3.0, 0.5)]:
            spec = SigmaSpec(gamma=gamma, lam=lam)
            root = sigma_root(spec)
            q = np.arange(1e-6, 1.0, 1e-6)
            one_m = 1.0 - q
            vals = one_m ** gamma - gamma * q * np.log(q) * one_m ** (gamma - 1.0) - 2 * lam * q
            flip = np.where(np.diff(np.sign(vals)) < 0)[0]
            assert flip.size == 1
            assert abs(root - q[flip[0]]) < 1e-6

    def test_decreasing_tail_and_positive_head(self):
        # for gamma > 0 the curve rises slightly above 1 near q=0 before
        # descending; it stays above 1 on that stretch and is strictly
        # decreasing from 0.1 onward, so the zero crossing is unique
        head = np.linspace(1e-4, 0.1, 200)
        tail = np.linspace(0.1, 1 - 1e-4, 1000)
        for gamma in (0.0, 1.0, 2.0, 5.0):
            for lam in (0.5, 1.0, 2.0):
                spec = SigmaSpec(gamma=gamma, lam=lam)
                tail_vals = [sigma_eval(spec, x) for x in tail]
                assert np.all(np.diff(tail_vals) < 0.0)
                if gamma == 0.0:
                    head_vals = [sigma_eval(spec, x) for x in head]
                    assert np.all(np.diff(head_vals) < 0.0)
                else:
                    assert all(sigma_eval(spec, x) > 0.5 for x in head)

    def test_root_to_adjacent_floats(self):
        for gamma in (0.5, 1.0, 2.0, 3.0, 5.0):
            for lam in (0.5, 1.0, 2.0):
                spec = SigmaSpec(gamma=gamma, lam=lam)
                root = sigma_root(spec)
                at = sigma_eval(spec, root)
                sides = [sigma_eval(spec, math.nextafter(root, end)) for end in (0.0, 1.0)]
                assert at == 0.0 or any(at * side < 0.0 for side in sides), (gamma, lam)
                assert abs(at) <= 1e-15

    def test_domain_and_lambda_validation(self):
        with pytest.raises(ValueError):
            sigma_eval(SigmaSpec(gamma=1.0, lam=1.0), 1.0)
        with pytest.raises(ValueError):
            sigma_root(SigmaSpec(gamma=1.0, lam=0.0))


class TestOptimalCurve:
    def test_ce_diagonal(self):
        curve = optimal_curve(LossSpec(family="ce"), np.arange(0.0, 1.01, 0.05))
        for q, p in curve:
            assert abs(p - q) < 1e-6

    def test_fcl_between_focal_and_diagonal(self):
        # the squared penalty pulls the optimum toward the diagonal relative to
        # the plain focusing loss, without reaching it for gamma > 0
        grid = np.arange(0.0, 1.01, 0.05)
        for gamma in (1.0, 2.0, 3.0):
            fcl = optimal_curve(LossSpec(family="fcl", gamma=gamma, lam=0.5), grid)
            fl = optimal_curve(LossSpec(family="focal", gamma=gamma), grid)
            for (q, a), (_, b) in zip(fcl, fl):
                assert abs(a - q) <= abs(b - q) + 1e-9

    def test_fcl_curve_matches_bruteforce(self):
        gamma, lam = 2.0, 0.5
        curve = dict(optimal_curve(LossSpec(family="fcl", gamma=gamma, lam=lam),
                                   [0.05, 0.3, 0.7, 0.95]))
        grid = np.arange(1e-6, 1.0, 1e-6)
        for q, p_hat in curve.items():
            risks = (q * (1 - grid) ** gamma * -np.log(grid)
                     + (1 - q) * grid ** gamma * -np.log(1 - grid)
                     + 2 * lam * (grid - q) ** 2)
            assert abs(p_hat - grid[np.argmin(risks)]) < 1e-4

    def test_focal_pulled_inward(self):
        curve = dict(optimal_curve(LossSpec(family="focal", gamma=3.0), [0.9]))
        assert 0.5 < curve[0.9] < 0.9

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            optimal_curve(LossSpec(family="ce"), [1.5])


class TestOcUcBound:
    def test_equal_inputs(self):
        out = oc_uc_bound([0.3, 0.7], [0.3, 0.7])
        assert out == {"lhs": 0.0, "rhs_linf": 0.0, "rhs_l2": 0.0, "holds": True}

    def test_hand_case(self):
        out = oc_uc_bound([0.6, 0.4], [0.4, 0.6])
        assert out["lhs"] == 0.0
        assert abs(out["rhs_l2"] - np.sqrt(0.08)) < 1e-12
        assert out["holds"]

    def test_chain_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(2, 11))
            p = rng.dirichlet(np.ones(k))
            e = rng.dirichlet(np.ones(k))
            out = oc_uc_bound(p, e)
            assert out["lhs"] <= out["rhs_linf"] + 1e-12
            assert out["rhs_linf"] <= out["rhs_l2"] + 1e-12

    def test_numpy_reductions_bit_for_bit(self):
        rng = np.random.default_rng(2)
        for k in (2, 3, 5, 10):
            for p, e in zip(rng.dirichlet(np.ones(k), 500), rng.dirichlet(np.ones(k), 500)):
                out = oc_uc_bound(p, e)
                assert out["lhs"] == abs(float(p.max()) - float(e.max()))
                assert out["rhs_linf"] == float(np.max(np.abs(p - e)))


class TestOrderPreservation:
    def test_fcl(self):
        assert order_preservation_check(
            LossSpec(family="fcl", gamma=3.0, lam=0.5), [0.5, 0.3, 0.2])

    def test_focal_binary(self):
        assert order_preservation_check(LossSpec(family="focal", gamma=2.0), [0.6, 0.4])

    def test_ties_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            order_preservation_check(LossSpec(family="ce"), [0.4, 0.4, 0.2])


# a matrix of posteriors is not one posterior: both reject it with the shape
# error, before the tie check
@pytest.mark.parametrize("fn", [minimize_risk, order_preservation_check])
@pytest.mark.parametrize("eta", [[[0.2, 0.3, 0.5], [0.1, 0.6, 0.3]], [[0.4, 0.4, 0.2]]],
                         ids=["distinct", "tied"])
def test_matrix_eta_rejected(fn, eta):
    shape = np.shape(eta)
    with pytest.raises(ValueError) as exc:
        fn(LossSpec(family="fcl", gamma=3.0, lam=0.5), eta)
    assert str(exc.value) == f"probability vector needs K >= 2 entries, got shape {shape}"
