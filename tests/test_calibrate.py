import functools
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import focalcal.calibrate as calibrate
from conftest import _binary_loss_at, naive_softmax, pgap_bruteforce
from focalcal._common import newton_root, newton_root_scalar, unit_minimizers
from focalcal.calibrate import (CONVEX_FAMILIES, PGAP_KKT_TOL, ConvergenceError, PGapResult,
                                PostProcessMap, apply_temperature, pgap,
                                temperature_grid, temperature_scan)
from focalcal.cli import _payload
from focalcal.data import PredictionSet, load_predictions
from focalcal.losses import LossSpec
from focalcal.metrics import BinningConfig, ece


def logit_set(z, labels):
    z = np.asarray(z, dtype=float)
    return PredictionSet(probs=naive_softmax(z), labels=np.asarray(labels, dtype=int),
                         logits=z)


class TestTemperatureGrid:
    def test_length_and_endpoints(self):
        grid = temperature_grid()
        assert grid.size == 100
        assert grid[0] == 0.1 and grid[-1] == 10.0
        assert 1.0 in grid


class TestApplyTemperature:
    def test_identity_at_one(self):
        ps = logit_set([[2.0, -1.0], [0.5, 0.3]], [0, 1])
        out = apply_temperature(ps, 1.0)
        assert np.array_equal(out.probs, ps.probs)

    def test_limit_to_uniform(self):
        ps = logit_set([[2.0, 0.0]], [0])
        prev_gap = 1.0
        for t in (1.0, 10.0, 100.0, 1000.0):
            p = apply_temperature(ps, t).probs[0]
            gap = p[0] - 0.5
            assert 0.0 < gap < prev_gap
            prev_gap = gap

    def test_argmax_preserved(self):
        rng = np.random.default_rng(0)
        ps = logit_set(rng.normal(size=(1000, 4)), rng.integers(0, 4, size=1000))
        base = ps.predicted()
        for t in (0.1, 1.0, 10.0):
            assert np.array_equal(apply_temperature(ps, t).predicted(), base)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 30), st.integers(2, 6), st.data(),
           st.floats(0.1, 10.0, allow_nan=False))
    def test_argmax_preserved_property(self, n, k, data, t):
        # logits on a 0.25 grid: distinct logits stay distinct after scaling
        # by 1/t, and exactly tied ones stay tied and go to the lower index
        z = 0.25 * np.array(data.draw(st.lists(st.integers(-40, 40), min_size=n * k,
                                               max_size=n * k))).reshape(n, k)
        ps = logit_set(z, np.zeros(n, dtype=int))
        assert np.array_equal(apply_temperature(ps, t).predicted(), z.argmax(axis=1))

    def test_invalid_temperature(self):
        ps = logit_set([[0.0, 0.0]], [0])
        with pytest.raises(ValueError):
            apply_temperature(ps, 0.0)

    def test_requires_logits(self):
        ps = PredictionSet(probs=np.array([[0.5, 0.5]]), labels=np.array([0]))
        with pytest.raises(ValueError, match="logits"):
            apply_temperature(ps, 2.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("top", [1.7e308, -1.7e308, np.inf, np.nan])
    def test_overflowing_logits_rejected(self, top):
        ps = PredictionSet(probs=np.array([[0.5, 0.5]] * 2), labels=np.array([0, 1]),
                           logits=np.array([[top, 0.5], [0.1, 0.5]]))
        with pytest.raises(ValueError, match="overflow"):
            apply_temperature(ps, 0.5)
        with pytest.raises(ValueError, match="overflow"):
            temperature_scan(ps)
        if math.isfinite(top):
            # max |z| / T is finite for every T of this grid
            assert temperature_scan(ps, t_min=1.0, t_max=2.0).best_t >= 1.0


class TestTemperatureScan:
    def test_uniform_logits_tie_breaks_to_one(self):
        ps = logit_set(np.zeros((6, 2)), [0, 1, 0, 1, 0, 1])
        assert temperature_scan(ps).best_t == 1.0

    def test_doubled_logits_recovers_two(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(400, 3)) * 2.0
        p = naive_softmax(z)
        labels = np.array([rng.choice(3, p=pi) for pi in p])
        scan = temperature_scan(logit_set(2.0 * z, labels))
        assert scan.best_t == 2.0

    def test_post_ece_bitwise(self):
        rng = np.random.default_rng(8)
        ps = logit_set(rng.normal(size=(150, 3)) * 3.0, rng.integers(0, 3, size=150))
        scan = temperature_scan(ps)
        assert scan.post_ece == ece(apply_temperature(ps, scan.best_t), BinningConfig())

    def test_grid_point_one_does_not_reuse_the_loaded_rows(self, tmp_path):
        # the loader renormalizes each softmax row, which moves this set's ECE
        # by an ulp, so the T = 1 point scores softmax(logits / 1) afresh
        rng = np.random.default_rng(3)
        z, labels = rng.normal(size=(60, 4)) * 3.0, rng.integers(0, 4, size=60)
        path = tmp_path / "val.jsonl"
        path.write_text("".join(json.dumps({"logits": row, "label": int(y)}) + "\n"
                                for row, y in zip(z.tolist(), labels)))
        val = load_predictions(str(path), input_kind="logits")
        scan = temperature_scan(val)
        assert scan.pre_ece == ece(apply_temperature(val, 1.0), BinningConfig())
        assert scan.pre_ece != ece(val, BinningConfig())

    def test_post_le_pre(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            r = np.random.default_rng(seed)
            ps = logit_set(r.normal(size=(80, 2)) * 4.0, r.integers(0, 2, size=80))
            scan = temperature_scan(ps)
            assert scan.post_ece <= scan.pre_ece

    def test_grid_in_result(self):
        ps = logit_set(np.zeros((2, 2)), [0, 1])
        scan = temperature_scan(ps)
        assert len(scan.grid) == 100
        assert any(row["t"] == scan.best_t for row in scan.grid)
        assert all(row.keys() == {"t", "ece"} for row in scan.grid)


@st.composite
def tied_logits(draw):
    """(z, labels): logits with exact ties or runner-ups a few ulp below the row max.

    On a 0.25 lattice many entries tie exactly; otherwise each row gets one
    entry 0-3 ulp below its max, before or after it. Scales 1e-3 to 1e3.
    """
    n, k = draw(st.integers(1, 20)), draw(st.integers(2, 6))
    scale = 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        z = 0.25 * np.array(draw(st.lists(st.integers(-8, 8), min_size=n * k, max_size=n * k)))
    else:
        z = np.array(draw(st.lists(st.floats(-4.0, 4.0, allow_nan=False),
                                   min_size=n * k, max_size=n * k)))
    z = (scale * z).reshape(n, k)
    if draw(st.booleans()):
        top = z.argmax(axis=1)
        for row, (col, ulps) in enumerate(draw(st.lists(
                st.tuples(st.integers(0, k - 1), st.integers(0, 3)), min_size=n, max_size=n))):
            v = z[row, top[row]]
            for _ in range(ulps):
                v = np.nextafter(v, -np.inf)
            z[row, col] = v
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    return z, labels


class TestStackedScanMatchesPerTemperatureLoop:
    """The scan against the reference: one ``ece(apply_temperature(val, t))`` per grid point."""

    @staticmethod
    def reference(ps, cfg, t_min, t_max, t_step):
        grid = [{"t": t, "ece": ece(apply_temperature(ps, t), cfg)}
                for t in temperature_grid(t_min, t_max, t_step).tolist()]
        best = min(grid, key=lambda r: (r["ece"], abs(r["t"] - 1.0), r["t"]))
        return grid, best["t"], ece(apply_temperature(ps, 1.0), cfg), best["ece"]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tied_logits(), st.integers(1, 20),
           st.sampled_from([(0.1, 10.0, 0.1), (0.15, 4.05, 0.3), (0.05, 0.95, 0.05),
                            (2.0, 40.0, 2.0), (0.001, 1000.0, 50.0)]))
    @example((np.array([[1.0, np.nextafter(1.0, 2.0)], [3.0, 3.0]]), np.array([1, 0])), 15,
             (0.15, 4.05, 0.3))
    def test_bit_identical(self, logits, bins, grid):
        z, labels = logits
        ps = logit_set(z, labels)
        cfg = BinningConfig(bins=bins)
        scan = temperature_scan(ps, cfg, *grid)
        want, best_t, pre_ece, post_ece = self.reference(ps, cfg, *grid)
        assert scan.grid == want
        assert (scan.best_t, scan.pre_ece, scan.post_ece) == (best_t, pre_ece, post_ece)

    def test_near_ties_flag_the_rows_that_need_them(self):
        # at T = 3 the 1-ulp runner-up before the max rounds to the same z / T,
        # and the first index wins; a runner-up after the max is flagged too
        z = np.array([[np.nextafter(1e3, 0.0), 1e3], [1e3, np.nextafter(1e3, 0.0)],
                      [0.0, 5.0]])
        assert calibrate._near_ties(z, 10.0).tolist() == [0, 1]
        assert apply_temperature(logit_set(z, [1, 0, 1]), 3.0).predicted()[0] == 0


class TestPostProcessMap:
    def test_chain_violation_rejected(self):
        with pytest.raises(ValueError, match="chain"):
            PostProcessMap(knots=np.array([0.1, 0.2]), kappa=np.array([0.0, 0.5]))

    def test_identity_accepted(self):
        knots = np.array([0.1, 0.4, 0.9])
        PostProcessMap(knots=knots, kappa=knots.copy())


def binary_set(p1, labels):
    p1 = np.asarray(p1, dtype=float)
    return PredictionSet(probs=np.column_stack([1.0 - p1, p1]),
                         labels=np.asarray(labels, dtype=int))


class TestBinaryLossTerms:
    KAPPA = np.linspace(0.02, 0.98, 49)

    # ce ignores gamma, which the CLI always passes
    @pytest.mark.parametrize("spec", [LossSpec(family="ce", gamma=3.0),
                                      LossSpec(family="brier"),
                                      LossSpec(family="focal", gamma=0.5),
                                      LossSpec(family="focal", gamma=2.0),
                                      LossSpec(family="fcl", gamma=3.0, lam=0.5)],
                             ids=["ce", "brier", "focal0.5", "focal2", "fcl"])
    def test_matches_oracle(self, spec):
        k, h = self.KAPPA, 1e-5
        (l1, l0), = calibrate._binary_loss_terms(spec, k)
        (d1, d0), (h1, h0) = calibrate._binary_loss_terms(spec, k, 2)
        # order 1 gives the first derivatives of order 2, bit for bit
        (g1, g0), = calibrate._binary_loss_terms(spec, k, 1)
        assert g1.tobytes() == d1.tobytes() and g0.tobytes() == d0.tobytes()
        for label, (val, d, dd) in ((1, (l1, d1, h1)), (0, (l0, d0, h0))):
            f = lambda x: _binary_loss_at(spec, x, label)  # noqa: E731
            assert np.allclose(val, f(k), rtol=1e-13, atol=0.0)
            fd1 = (f(k + h) - f(k - h)) / (2.0 * h)
            fd2 = (f(k + h) - 2.0 * f(k) + f(k - h)) / h ** 2
            assert np.max(np.abs(d - fd1) / np.maximum(np.abs(d), 1.0)) < 1e-6
            assert np.max(np.abs(dd - fd2) / np.maximum(np.abs(dd), 1.0)) < 1e-4


class TestPgap:
    def test_conditional_mean_attained(self):
        ps = binary_set([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        res = pgap(ps, LossSpec(family="brier"))
        assert abs(res.pgap) < 1e-12

    def test_single_record_brier(self):
        # p1=0.2, y=1: both-class squared sum is 2*(0.2-1)^2 = 1.28, best remap 1.0
        res = pgap(binary_set([0.2], [1]), LossSpec(family="brier"))
        assert abs(res.raw_risk - 1.28) < 1e-12
        assert abs(res.optimized_risk) < 1e-9
        assert abs(res.pgap - 1.28) < 1e-9
        assert abs(res.map.kappa[0] - 1.0) < 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            ps = binary_set(rng.uniform(0.02, 0.98, size=n), rng.integers(0, 2, size=n))
            spec = LossSpec(family="fcl", gamma=float(rng.uniform(0, 4)),
                            lam=float(rng.uniform(0, 2)))
            assert pgap(ps, spec).pgap >= 0.0

    def test_lambda_zero_matches_focal(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            ps = binary_set(rng.uniform(0.05, 0.95, size=n), rng.integers(0, 2, size=n))
            gamma = float(rng.uniform(0, 4))
            a = pgap(ps, LossSpec(family="fcl", gamma=gamma, lam=0.0)).pgap
            b = pgap(ps, LossSpec(family="focal", gamma=gamma)).pgap
            assert abs(a - b) < 1e-9

    def test_bruteforce_agreement(self):
        rng = np.random.default_rng(3)
        specs = [LossSpec(family="ce"), LossSpec(family="brier"),
                 LossSpec(family="focal", gamma=2.0),
                 LossSpec(family="fcl", gamma=3.0, lam=0.5)]
        for i in range(12):
            n = int(rng.integers(2, 7))
            p1 = rng.uniform(0.1, 0.9, size=n)
            labels = rng.integers(0, 2, size=n)
            ps = binary_set(p1, labels)
            spec = specs[i % len(specs)]
            res = pgap(ps, spec)
            raw_b, opt_b, gap_b = pgap_bruteforce(p1, labels, spec)
            assert abs(res.raw_risk - raw_b) < 1e-9
            assert abs(res.optimized_risk - opt_b) < 1e-4
            assert abs(res.pgap - gap_b) < 1e-4

    def test_map_is_feasible(self):
        rng = np.random.default_rng(4)
        ps = binary_set(rng.uniform(0.05, 0.95, size=25), rng.integers(0, 2, size=25))
        res = pgap(ps, LossSpec(family="ce"))
        assert isinstance(res.map, PostProcessMap)  # constructor validates

    def test_multiclass_rejected(self):
        ps = PredictionSet(probs=np.full((2, 3), 1 / 3), labels=np.array([0, 1]))
        with pytest.raises(ValueError, match="binary"):
            pgap(ps, LossSpec(family="ce"))

    def test_nonconvex_family_rejected(self):
        ps = binary_set([0.5], [0])
        with pytest.raises(ValueError, match="convex"):
            pgap(ps, LossSpec(family="flsd53"))

    def test_fixture_brier_optimum(self):
        # kappa = [0, .2, .4, .4, .7, .7, .7, .9] is feasible with risk 0.31,
        # and KKT holds there, so 0.31 is the optimum; a 1e-4 brute-force
        # tolerance could not see a solver stopping 6e-8 short of it
        pset = load_predictions(str(pathlib.Path(__file__).parent / "fixtures" / "preds.jsonl"))
        res = pgap(pset, LossSpec(family="brier"))
        assert abs(res.optimized_risk - 0.31) <= 1e-12
        assert res.kkt_residual <= PGAP_KKT_TOL

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(5)
        specs = [LossSpec(family="ce"), LossSpec(family="brier"),
                 LossSpec(family="focal", gamma=0.5),
                 LossSpec(family="fcl", gamma=3.0, lam=0.5)]
        for i in range(16):
            n = int(rng.integers(1, 80))
            ps = binary_set(rng.beta(0.5, 0.5, size=n), rng.integers(0, 2, size=n))
            assert pgap(ps, specs[i % len(specs)]).kkt_residual <= PGAP_KKT_TOL

    def test_uncertified_map_raises(self, monkeypatch):
        # the identity map is feasible but not optimal here; the KKT check
        # must refuse it rather than report it
        monkeypatch.setattr(calibrate, "_solve_chain", lambda slope_at, w, start: start)
        ps = binary_set([0.1, 0.4, 0.6, 0.9], [1, 0, 1, 0])
        with pytest.raises(ConvergenceError, match="KKT"):
            pgap(ps, LossSpec(family="brier"))

    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="the label-0 slope at 1 - kappa_0 rounds to -0.0 when kappa_0 "
                              "is within rounding of 0, so the certificate refuses an optimal map")
    def test_optimal_knot_within_rounding_of_zero_is_certified(self):
        # kappa = (5.55e-17, 0.25000000000000006) is optimal: no kappa_0 has a
        # lower risk than 0.09159248923746302, but the true slope at knot 0 is
        # about (14/15)(1 + gamma) kappa_0^gamma = 0.30, not -0.0
        ps = binary_set([0.0] * 14 + [0.125], [0] * 14 + [1])
        res = pgap(ps, LossSpec(family="focal", gamma=0.03125))
        assert res.optimized_risk <= 0.09159248923746302

    def test_json_round_trip_keys(self):
        res = pgap(binary_set([0.3, 0.6], [0, 1]), LossSpec(family="brier"))
        out = _payload(res)
        assert set(out) == {"raw_risk", "optimized_risk", "pgap", "map"}
        assert set(out["map"]) == {"knots", "kappa"}


def knot_slopes(spec, n1, n0):
    """Per-knot (f', f'') arrays of the pgap objective over index lists."""
    def slope_at(idx, x):
        (d1, d0), (h1, h0) = calibrate._binary_loss_terms(spec, np.asarray(x, dtype=float), 2)
        return n1[idx] * d1 + n0[idx] * d0, n1[idx] * h1 + n0[idx] * h0
    return slope_at


def unit_minimizer(slope, x0, lo, hi):
    """One knot's minimizer over [lo, hi] by the scalar rule: the oracle of the batch."""
    x = float(np.clip(x0, lo, hi))
    g, h = slope(x)
    if g > 0.0 and x > lo:
        g0, h0 = slope(lo)
        return (lo, h0) if g0 >= 0.0 else newton_root_scalar(slope, lo, x, x)
    if g < 0.0 and x < hi:
        g1, h1 = slope(hi)
        return (hi, h1) if g1 <= 0.0 else newton_root_scalar(slope, x, hi, x)
    return x, h


def one_knot(slope_at, j):
    """Knot j's (f', f'') as floats, for the scalar rule."""
    return lambda v: tuple(float(a[0]) for a in slope_at([j], [v]))


@st.composite
def knot_sets(draw):
    """(spec, knots, n1, n0): bounds 0 and 1 as knots, and knots with one label only."""
    family = draw(st.sampled_from(CONVEX_FAMILIES))
    gamma = draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
    lam = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    value = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    knots = np.array(sorted(draw(st.sets(value, min_size=1, max_size=25))))
    counts = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any)
    n1, n0 = np.array(draw(st.lists(counts, min_size=knots.size, max_size=knots.size)),
                       dtype=float).T
    return LossSpec(family=family, gamma=gamma, lam=lam), knots, n1, n0


@st.composite
def bracketed_knot_sets(draw):
    """A knot set with one bracket for all knots, [0, 1] (pgap's), [1e-12, 1 - 1e-12]
    (theory's) or a drawn one, and starts at the knots or drawn, some outside it."""
    spec, knots, n1, n0 = draw(knot_sets())
    unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    lo, hi = draw(st.one_of(st.sampled_from([(0.0, 1.0), (1e-12, 1.0 - 1e-12)]),
                            st.tuples(unit, unit).map(sorted)))
    x0 = draw(st.one_of(st.just(knots), st.lists(st.floats(-0.5, 1.5), min_size=knots.size,
                                                  max_size=knots.size).map(np.array)))
    return spec, knots, n1, n0, lo, hi, x0


@st.composite
def bracket_sets(draw):
    """A knot set with a bracket and a start per knot: some brackets start
    collapsed (lo == hi) and some starts lie outside, as theory's inner level
    hands them over."""
    spec, knots, n1, n0 = draw(knot_sets())
    m = knots.size
    unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    lo, hi = np.sort(draw(st.lists(st.tuples(unit, unit), min_size=m, max_size=m)), axis=1).T
    hi = np.where(draw(st.lists(st.booleans(), min_size=m, max_size=m)), lo, hi)
    x0 = np.array(draw(st.lists(st.floats(-0.5, 1.5), min_size=m, max_size=m)))
    return spec, knots, n1, n0, lo, hi, x0


class TestUnitMinimizers:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(bracketed_knot_sets())
    @example((LossSpec(family="ce"), np.array([0.0]), np.array([1.0]), np.array([0.0]),
              0.0, 1.0, np.array([0.0])))
    @example((LossSpec(family="fcl", gamma=3.0, lam=0.5), np.array([1.0]), np.array([0.0]),
              np.array([2.0]), 0.0, 1.0, np.array([1.0])))
    @example((LossSpec(family="focal", gamma=0.0), np.array([0.3]), np.array([1.0]),
              np.array([1.0]), 0.0, 1.0, np.array([0.3])))
    @example((LossSpec(family="focal", gamma=2.0), np.array([0.0, 0.5, 1.0]),
              np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0]), 1e-12, 1.0 - 1e-12,
              np.array([-0.5, 0.5, 1.5])))
    def test_batch_matches_scalar_root_bit_for_bit(self, case):
        spec, knots, n1, n0, lo, hi, x0 = case
        slope_at = knot_slopes(spec, n1, n0)
        y, h, passes = unit_minimizers(slope_at, x0, lo, hi)
        assert 1 <= passes <= 200
        for j, x in enumerate(x0.tolist()):
            assert (np.array([y[j], h[j]]).tobytes()
                    == np.array(unit_minimizer(one_knot(slope_at, j), x, lo, hi)).tobytes())

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(bracket_sets())
    @example((LossSpec(family="fcl", gamma=3.0, lam=0.5), np.array([0.2, 0.7]),
              np.array([1.0, 2.0]), np.array([1.0, 0.0]),
              np.array([0.4, 0.1]), np.array([0.4, 0.9]), np.array([0.9, -0.5])))
    def test_vector_rule_matches_scalar_rule_bit_for_bit(self, case):
        spec, knots, n1, n0, lo, hi, x0 = case
        slope_at = knot_slopes(spec, n1, n0)
        x, s, _ = newton_root(functools.partial(slope_at, np.arange(knots.size)), lo, hi, x0)
        for j in range(knots.size):
            scalar = newton_root_scalar(one_knot(slope_at, j), lo[j], hi[j], x0[j])
            assert np.array([x[j], s[j]]).tobytes() == np.array(scalar).tobytes()


def seeded_pgap_set(seed, distinct=500):
    """``distinct`` values p ~ U(0, 1) on two rows each, labels ~ Bernoulli(p^2)."""
    rng = np.random.default_rng(seed)
    p1 = np.repeat(rng.uniform(0.0, 1.0, distinct), 2)
    return binary_set(p1, (rng.random(p1.size) < p1 ** 2).astype(int))


def test_pgap_loss_evaluations(monkeypatch):
    # every knot's own minimizer comes from one batched pass; a separate
    # solve per knot would take 4,828 loss evaluations here
    calls = []
    terms = calibrate._binary_loss_terms
    monkeypatch.setattr(calibrate, "_binary_loss_terms",
                        lambda spec, kappa, order=0: calls.append(1) or terms(spec, kappa, order))
    res = pgap(seeded_pgap_set(12), LossSpec(family="fcl", gamma=3.0, lam=0.5))
    assert res.map.knots.size == 500
    assert len(calls) == 2990


@st.composite
def pgap_cases(draw):
    """(prediction set, convex loss spec) with ties, bounds and one-label sets."""
    n = draw(st.integers(1, 30))
    value = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    p1 = draw(st.lists(value, min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    spec = LossSpec(family=draw(st.sampled_from(CONVEX_FAMILIES)),
                    gamma=draw(st.floats(0.0, 4.0)), lam=draw(st.floats(0.0, 2.0)))
    return binary_set(p1, labels), spec


def reference_solve_chain(slope_at, w, start):
    """The chain solver's forward pass over index lists, one knot at a time: the
    oracle of its block slices. ``slope_at(idx, x)`` takes a list of knots."""
    ws = w.tolist()
    ys, hs = [], []

    def slope(idx, pts):
        g, h = slope_at(idx, pts)
        return math.fsum(g.tolist()), math.fsum(h.tolist())

    def level(j, x):
        idx, pts = [j], [x]
        for i in range(j - 1, -1, -1):
            y = ys[i]
            if y < x - ws[i]:
                x = x - ws[i]
            elif y <= x:
                break
            idx.append(i)
            pts.append(x)
        return slope(idx, pts)

    own, own_h, _ = unit_minimizers(slope_at, start, 0.0, 1.0)
    for j, (y, h) in enumerate(zip(own.tolist(), own_h.tolist())):
        if j and ys[-1] < y - ws[j - 1]:
            lo = edge = ys[-1] + ws[j - 1]
            hi = y
            search = y < 1.0 or level(j, 1.0)[0] > 0.0
        elif j and ys[-1] > y:
            lo, hi = y, ys[-1]
            edge = hi
            search = y > 0.0 or level(j, 0.0)[0] < 0.0
        else:
            search = False
        if search:
            g, h = slope([j], [edge])
            y, h = newton_root_scalar(functools.partial(level, j), lo, hi,
                                      edge - g / (h + hs[-1]))
        ys.append(y)
        hs.append(h)

    kappa = np.empty(len(ys))
    x = kappa[-1] = ys[-1]
    for i in range(len(ys) - 2, -1, -1):
        x = kappa[i] = min(max(ys[i], x - ws[i]), x)
    return kappa


def reference_kappa(pset, spec):
    """pgap's map by ``reference_solve_chain``."""
    knots, inverse = np.unique(pset.probs[:, 1], return_inverse=True)
    n1 = np.bincount(inverse, weights=pset.labels == 1, minlength=knots.size)
    n0 = np.bincount(inverse, weights=pset.labels == 0, minlength=knots.size)
    return reference_solve_chain(knot_slopes(spec, n1, n0), 2.0 * np.diff(knots), knots)


class TestChainSolverOracle:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("spec", [LossSpec(family="ce"), LossSpec(family="brier"),
                                      LossSpec(family="focal", gamma=2.0),
                                      LossSpec(family="fcl", gamma=3.0, lam=0.5)],
                             ids=["ce", "brier", "focal", "fcl"])
    def test_seeded_sets_bit_for_bit(self, spec, seed):
        ps = seeded_pgap_set(seed)
        assert pgap(ps, spec).map.kappa.tobytes() == reference_kappa(ps, spec).tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pgap_cases())
    def test_cases_bit_for_bit(self, case):
        ps, spec = case
        assert pgap(ps, spec).map.kappa.tobytes() == reference_kappa(ps, spec).tobytes()


class TestPgapProperties:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(pgap_cases())
    def test_nonnegative(self, case):
        ps, spec = case
        assert pgap(ps, spec).pgap >= 0.0

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(pgap_cases(), st.data())
    def test_no_feasible_map_has_lower_risk(self, case, data):
        ps, spec = case
        res = pgap(ps, spec)
        knots = res.map.knots
        # a random feasible remap: kappa'_0 in [0, 1], steps in [0, w], capped at 1
        unit = st.floats(0.0, 1.0)
        first = data.draw(unit)
        steps = np.array(data.draw(st.lists(unit, min_size=knots.size - 1,
                                            max_size=knots.size - 1))) * 2.0 * np.diff(knots)
        kappa = np.minimum(first + np.concatenate([[0.0], np.cumsum(steps)]), 1.0)
        at = kappa[np.searchsorted(knots, ps.probs[:, 1])]
        risk = sum(float(_binary_loss_at(spec, at[i], int(y)))
                   for i, y in enumerate(ps.labels)) / ps.n
        assert res.optimized_risk <= risk + 1e-12
