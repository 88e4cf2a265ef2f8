import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (_width_bin_masks, naive_adaece, naive_cwece, naive_ece_mce, naive_scores,
                      naive_softmax, pairwise_auroc, rand_prediction_arrays,
                      smce_bruteforce, smce_lp)
from focalcal import metrics
from focalcal._common import ConvergenceError
from focalcal.cli import _payload
from focalcal.data import PredictionSet
from focalcal.metrics import (BinningConfig, LipschitzWitness, adaece, auroc,
                              bin_predictions, classwise_ece, compute_report,
                              ece, mce, reliability_table, score_metrics, smce)


def pset(probs, labels, **kw):
    return PredictionSet(probs=np.asarray(probs, dtype=float),
                         labels=np.asarray(labels, dtype=int), **kw)


PERFECT = pset([[1.0, 0.0], [0.0, 1.0]], [0, 1])
FOUR = pset([[0.9, 0.1], [0.1, 0.9], [0.6, 0.4], [0.4, 0.6]], [0, 0, 0, 0])


class TestBinning:
    def test_degenerate_single_bin(self):
        bins = bin_predictions(PERFECT, BinningConfig(bins=1))
        assert len(bins) == 1
        b = bins[0]
        assert b.count == 2 and b.accuracy == 1.0 and b.confidence == 1.0

    def test_equal_mass_two_bins(self):
        bins = bin_predictions(FOUR, BinningConfig(bins=2, scheme="equal_mass"))
        assert [(b.accuracy, b.confidence) for b in bins] == [(0.5, 0.6), (0.5, 0.9)]

    def test_empty_bins_have_zero_count(self):
        bins = bin_predictions(PERFECT, BinningConfig(bins=15))
        assert sum(b.count for b in bins) == 2
        assert sum(1 for b in bins if b.count == 0) == 14

    def test_zero_confidence_joins_first_bin(self):
        # binary confidence is always >= 0.5, so use K=3 with a 1/3 tie
        ps = pset([[1 / 3, 1 / 3, 1 / 3]], [0])
        bins = bin_predictions(ps, BinningConfig(bins=3))
        assert bins[0].count == 1

    def test_boundary_goes_to_lower_bin(self):
        ps = pset([[0.8, 0.2]], [0])
        bins = bin_predictions(ps, BinningConfig(bins=5))
        # 0.8 sits on the edge between (0.6, 0.8] and (0.8, 1.0]
        assert bins[3].count == 1 and bins[4].count == 0

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            BinningConfig(bins=0)


class TestBinnedMetrics:
    def test_perfect_predictor(self):
        assert ece(PERFECT) == 0.0
        assert mce(PERFECT) == 0.0

    def test_single_record(self):
        ps = pset([[0.6, 0.4]], [1])
        assert ece(ps, BinningConfig(bins=1)) == 0.6
        assert mce(ps, BinningConfig(bins=1)) == 0.6

    def test_adaece_four_record(self):
        assert adaece(FOUR, BinningConfig(bins=2, scheme="equal_mass")) == 0.25

    def test_scheme_coercion(self):
        cfg = BinningConfig(bins=4, scheme="equal_mass")
        assert ece(FOUR, cfg) == ece(FOUR, BinningConfig(bins=4))

    def test_ece_le_mce(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            probs, labels = rand_prediction_arrays(rng, n_max=60)
            ps = pset(probs, labels)
            assert ece(ps) <= mce(ps) + 1e-15

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        probs, labels = rand_prediction_arrays(rng, n_max=50)
        perm = rng.permutation(len(labels))
        a = compute_report(pset(probs, labels))
        b = compute_report(pset(probs[perm], labels[perm]))
        for key in ("ece", "mce", "adaece", "cwece", "smce", "nll", "brier", "error"):
            assert abs(getattr(a, key) - getattr(b, key)) < 1e-12


@st.composite
def prediction_sets(draw):
    """(probs, labels, bins, permutation); coarse logits make ties and bin edges likely."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(2, 4))
    logit = st.one_of(st.sampled_from([0.0, np.log(2.0), np.log(3.0)]),
                      st.floats(-6.0, 6.0, allow_nan=False))
    z = np.array(draw(st.lists(logit, min_size=n * k, max_size=n * k))).reshape(n, k)
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    bins = draw(st.integers(1, 20))
    perm = np.array(draw(st.permutations(range(n))))
    return naive_softmax(z), labels, bins, perm


class TestBinningProperties:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(prediction_sets())
    def test_match_oracles_and_ignore_row_order(self, case):
        probs, labels, m, perm = case
        cfg = BinningConfig(bins=m)
        mass = BinningConfig(bins=m, scheme="equal_mass")

        def metrics(p, y):
            ps = pset(p, y)
            return np.array([ece(ps, cfg), mce(ps, cfg), adaece(ps, mass),
                             classwise_ece(ps, cfg), classwise_ece(ps, cfg, norm="per-class")])

        got = metrics(probs, labels)
        oracle = [*naive_ece_mce(probs, labels, m), naive_adaece(probs, labels, m),
                  naive_cwece(probs, labels, m), naive_cwece(probs, labels, m, norm="per-class")]
        assert np.max(np.abs(got - oracle)) <= 1e-12
        moved = np.abs(metrics(probs[perm], labels[perm]) - got)
        conf = probs.max(axis=1)
        # equal-mass runs split ties by row order, so only distinct confidences
        # make adaece independent of it
        if np.unique(conf).size < conf.size:
            moved[2] = 0.0
        assert np.max(moved) <= 1e-12


# bin sizes around the points where numpy's pairwise summation changes its
# order: fewer than 8 terms are added one by one, 8 to 128 in eight
# interleaved partial sums, and more than 128 are split in two
PAIRWISE_SIZES = (0, 1, 7, 8, 9, 128, 129, 130, 200, 257)


@st.composite
def binned_stacks(draw):
    """(values, hits, bins): an (E, n) stack whose rows fill chosen equal-width bins.

    Every row has the same bin sizes in another order over the bins; its
    members are shuffled, so each bin's members are spread over the row, and
    some values lie exactly on a bin edge (0 in the first bin).
    """
    m = draw(st.integers(1, 12))
    sizes = draw(st.lists(st.one_of(st.sampled_from(PAIRWISE_SIZES), st.integers(0, 20)),
                          min_size=m, max_size=m).filter(sum))
    rows = [sizes] + draw(st.lists(st.permutations(sizes), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on_edge = draw(st.sampled_from([0.0, 0.3, 1.0]))
    values = []
    for row in rows:
        parts = []
        for b, size in enumerate(row):
            lo, hi = b / m, (b + 1) / m
            v = rng.uniform(lo, hi, size)
            v[v <= lo] = hi
            v[rng.random(size) < on_edge] = 0.0 if b == 0 and rng.random() < 0.5 else hi
            parts.append(v)
        values.append(rng.permutation(np.concatenate(parts)))
    values = np.array(values)
    return values, rng.random(values.shape) < 0.6, m


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))
                and np.array_equal(np.where(nan, 0.0, a).view(np.uint64),
                                   np.where(nan, 0.0, b).view(np.uint64)))


class TestBinStats:
    """The binned-statistics kernel against the definition, bin by bin."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(binned_stacks())
    def test_equal_width_means_in_row_order(self, case):
        values, hits, m = case
        counts, hit_means, means = metrics._bin_stats(values, hits, BinningConfig(bins=m))
        for e, (row, row_hits) in enumerate(zip(values, hits.astype(float))):
            masks = _width_bin_masks(row, m)
            assert counts[e].tolist() == [int(mask.sum()) for mask in masks]
            want = [(row_hits[mask].mean(), row[mask].mean()) if mask.any() else (np.nan, np.nan)
                    for mask in masks]
            assert same_bits(hit_means[e], [w[0] for w in want])
            assert same_bits(means[e], [w[1] for w in want])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(binned_stacks())
    def test_equal_mass_means_in_value_order(self, case):
        values, hits, m = case
        # coarse values make ties, which equal-mass runs split by row order
        values = np.round(values * 8.0) / 8.0
        counts, hit_means, means = metrics._bin_stats(
            values, hits, BinningConfig(bins=m, scheme="equal_mass"))
        base, rem = divmod(values.shape[1], m)
        sizes = [base + (b < rem) for b in range(m)]
        ends = np.cumsum(sizes)
        for e, (row, row_hits) in enumerate(zip(values, hits.astype(float))):
            order = np.argsort(row, kind="stable")
            runs = [order[end - size:end] for size, end in zip(sizes, ends)]
            assert counts[e].tolist() == sizes
            assert same_bits(hit_means[e],
                             [row_hits[r].mean() if r.size else np.nan for r in runs])
            assert same_bits(means[e], [row[r].mean() if r.size else np.nan for r in runs])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 4), st.integers(1, 300), st.integers(2, 4), st.integers(1, 20),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_stacked_scores_match_each_slice(self, e, n, k, m, on_edges, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.full(k, 0.7), size=(e, n))
        if on_edges:
            # top-class confidences on the bin edges of 1..20 bins
            top = rng.integers(20, 41, size=(e, n)) / 40.0
            probs = np.stack([top, 1.0 - top], axis=-1) if k == 2 else probs
        labels = rng.integers(0, k, size=n)
        cfg = BinningConfig(bins=m)
        got = metrics.stacked_scores(probs, labels, cfg)
        for i in range(e):
            ps = pset(probs[i], labels)
            scores = score_metrics(ps)
            # the definition: a running sum over the nonempty bins, in bin order
            total = 0.0
            for b in bin_predictions(ps, cfg):
                if b.count:
                    total += b.count / n * abs(b.accuracy - b.confidence)
            assert same_bits(got["ece"][i], total)
            assert same_bits(got["ece"][i], ece(ps, cfg))
            assert same_bits(got["nll"][i], scores["nll"])
            assert same_bits(got["error"][i], scores["error"])


class TestClasswise:
    def test_perfect(self):
        assert classwise_ece(PERFECT) == 0.0

    def test_binary_mirror_symmetry(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(2), size=40)
        labels = rng.integers(0, 2, size=40)
        ps = pset(probs, labels)
        v = classwise_ece(ps, BinningConfig(bins=10))
        assert abs(v - naive_cwece(probs, labels, 10)) < 1e-12

    def test_naive_oracle_10_records(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(4), size=10)
        labels = rng.integers(0, 4, size=10)
        ps = pset(probs, labels)
        assert abs(classwise_ece(ps) - naive_cwece(probs, labels, 15)) < 1e-12

    def test_per_class_norm(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(3), size=30)
        labels = rng.integers(0, 3, size=30)
        ps = pset(probs, labels)
        got = classwise_ece(ps, norm="per-class")
        assert abs(got - naive_cwece(probs, labels, 15, norm="per-class")) < 1e-12

    def test_unknown_norm(self):
        with pytest.raises(ValueError):
            classwise_ece(PERFECT, norm="macro")


class TestSmce:
    def test_perfect_is_zero(self):
        assert smce(PERFECT).value == 0.0

    def test_single_binary_record(self):
        res = smce(pset([[0.7, 0.3]], [0]))
        assert abs(res.value - 0.12) < 1e-9

    def test_witness_feasible_and_attains(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            probs, labels = rand_prediction_arrays(rng, n_max=20, k_max=3)
            ps = pset(probs, labels)
            res = smce(ps)
            w = res.witness  # constructor validates feasibility
            onehot = np.eye(ps.k)[labels]
            weights = np.zeros(w.knots.size)
            for p, r in zip(probs.ravel(), (onehot - probs).ravel()):
                weights[np.searchsorted(w.knots, p)] += r
            assert abs(weights @ w.values / ps.n - res.value) < 1e-9

    def test_bruteforce_agreement(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            n = int(rng.integers(1, 5))
            p1 = np.round(rng.uniform(0.05, 0.95, size=n), 2)
            probs = np.column_stack([p1, 1.0 - p1])
            labels = rng.integers(0, 2, size=n)
            exact = smce(pset(probs, labels)).value
            brute = smce_bruteforce(probs, labels)
            assert abs(exact - brute) < 2e-3

    def test_dominates_random_feasible_witnesses(self):
        rng = np.random.default_rng(7)
        probs, labels = rand_prediction_arrays(rng, n_max=15, k_max=2)
        ps = pset(probs, labels)
        res = smce(ps)
        knots = res.witness.knots
        onehot = np.eye(ps.k)[labels]
        weights = np.zeros(knots.size)
        for p, r in zip(probs.ravel(), (onehot - probs).ravel()):
            weights[np.searchsorted(knots, p)] += r
        d = np.diff(knots)
        for _ in range(1000):
            vals = [rng.uniform(-1, 1)]
            for gap in d:
                lo, hi = max(vals[-1] - gap, -1.0), min(vals[-1] + gap, 1.0)
                vals.append(rng.uniform(lo, hi))
            assert weights @ np.array(vals) / ps.n <= res.value + 1e-9

    def test_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            probs, labels = rand_prediction_arrays(rng, n_max=40)
            v = smce(pset(probs, labels)).value
            assert 0.0 <= v <= 2.0


def pooled_weights(probs, labels, knots):
    """Residuals [y = k] - p_k summed at each knot, one sample at a time."""
    weights = np.zeros(knots.size)
    onehot = np.eye(probs.shape[1])[labels]
    for p, r in zip(probs.ravel(), (onehot - probs).ravel()):
        weights[np.searchsorted(knots, p)] += r
    return weights


def lp_cases():
    """Random prediction logs up to about 2,000 knots, most with heavy ties.

    The last three have rows that do not sum to one, which smce rejects.
    """
    rng = np.random.default_rng(12)
    for decimals in (1, 2, 3):
        p1 = np.round(rng.uniform(size=3000), decimals)
        yield np.column_stack([1.0 - p1, p1]), (rng.uniform(size=p1.size) < p1 ** 2).astype(int)
    for decimals in (2, 3, None):
        probs = rng.dirichlet(np.full(10, 0.3), size=200)
        if decimals is not None:
            probs = np.round(probs, decimals)
            probs = probs / probs.sum(axis=1, keepdims=True)
        yield probs, rng.integers(0, 10, size=200)
    for decimals in (1, 2):
        probs = np.round(rng.uniform(size=(500, 2)), decimals)
        yield probs, rng.integers(0, 2, size=500)
    yield rng.uniform(size=(100, 10)) ** 3, rng.integers(0, 10, size=100)


LP_CASES = list(lp_cases())
# the off-simplex logs of lp_cases, and rows that sum to one with entries outside [0, 1]
OFF_SIMPLEX = LP_CASES[6:] + [(np.array([[0.3, 0.7], [1.25, -0.25]]), np.array([1, 0]))]


def knot_count(case):
    return f"m{np.unique(case[0]).size}"


class TestSmceSolver:
    @pytest.mark.parametrize("case", LP_CASES[:6], ids=knot_count)
    def test_matches_lp(self, case):
        probs, labels = case
        res = smce(pset(probs, labels))
        assert abs(res.value - smce_lp(probs, labels)) <= 1e-12
        # rounding only: far below the SMCE_GAP_TOL bound
        assert abs(res.duality_gap) <= 1e-14 * probs.size

    @pytest.mark.parametrize("case", OFF_SIMPLEX, ids=knot_count)
    def test_off_simplex_rows_rejected(self, case):
        probs, labels = case
        reason = r"in \[0, 1\]" if probs.min() < 0.0 else "sum to one"
        with pytest.raises(ValueError, match=reason):
            smce(pset(probs, labels))

    def test_bound_counts_the_residual_total(self):
        # a row that sums to 1 + 2^-34, within the tolerance: the optimum
        # 1.5 * 2^-34 (x = (-1 + 2^-34, -1)) is the bound d_0 |S_0| + |S_1| itself
        delta = 2.0 ** -34
        res = smce(pset([[0.5, 0.5 + delta]], [0]))
        assert res.value == 1.5 * delta
        assert abs(res.duality_gap) <= 1e-14

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(prediction_sets())
    def test_bounded_attained_and_ignores_row_order(self, case):
        probs, labels, _, perm = case
        res = smce(pset(probs, labels))
        assert 0.0 <= res.value <= 2.0
        weights = pooled_weights(probs, labels, res.witness.knots)
        assert abs(weights @ res.witness.values / labels.size - res.value) <= 1e-9
        assert abs(res.duality_gap) <= 1e-14 * probs.size
        # the greatest optimal witness is unique, so rounding in the pooled
        # weights, which depends on row order, must not change it
        moved = smce(pset(probs[perm], labels[perm]))
        assert abs(moved.value - res.value) <= 1e-12
        assert np.max(np.abs(moved.witness.values - res.witness.values)) <= 1e-9

    def test_greatest_witness(self):
        # one knot with zero pooled residual: every value in [-1, 1] is
        # optimal, and the greatest is 1
        res = smce(pset([[0.5, 0.5]], [0]))
        assert res.witness.values.tolist() == [1.0]
        assert res.value == 0.0

    def test_tie_scales_with_the_residual_mass(self):
        # a 1000x10 softmax log has 10^4 knots and a residual total S_{m-1}
        # of pure rounding; removing it must not move the witness
        rng = np.random.default_rng(0)
        probs = naive_softmax(rng.normal(0.0, 2.0, size=(1000, 10)))
        labels = rng.integers(0, 10, size=1000)
        knots, inverse = np.unique(probs.ravel(), return_inverse=True)
        w = np.zeros(knots.size)
        np.add.at(w, inverse, (np.eye(10)[labels] - probs).ravel())
        # below a tie of 1e-13 max|w|, so that tie would pin x_{m-1}
        assert np.cumsum(w)[-1] < -1e-13 * np.abs(w).max()
        w2 = w.copy()
        w2[-1] -= np.cumsum(w)[-1]
        moved = metrics._max_chain(w, knots) - metrics._max_chain(w2, knots)
        assert np.max(np.abs(moved)) <= 1e-12

    @pytest.mark.parametrize("perturb", [lambda x: 0.999 * x, np.zeros_like],
                             ids=["shrunk", "zero"])
    def test_uncertified_witness_raises(self, monkeypatch, perturb):
        solve = metrics._max_chain
        # a feasible but suboptimal witness in place of the solver's
        monkeypatch.setattr(metrics, "_max_chain", lambda w, knots: perturb(solve(w, knots)))
        rng = np.random.default_rng(13)
        probs, labels = rand_prediction_arrays(rng, n_max=30)
        with pytest.raises(ConvergenceError, match="duality gap"):
            smce(pset(probs, labels))


class TestLipschitzWitness:
    def test_violating_chain_rejected(self):
        with pytest.raises(ValueError, match="Lipschitz"):
            LipschitzWitness(knots=np.array([0.1, 0.2]), values=np.array([0.0, 0.5]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="-1, 1"):
            LipschitzWitness(knots=np.array([0.5]), values=np.array([1.5]))


class TestScores:
    def test_perfect(self):
        assert score_metrics(PERFECT) == {"nll": 0.0, "brier": 0.0, "error": 0.0}

    def test_uniform_binary(self):
        ps = pset([[0.5, 0.5], [0.5, 0.5]], [0, 1])
        out = score_metrics(ps)
        assert abs(out["nll"] - np.log(2)) < 1e-15
        assert abs(out["brier"] - 0.5) < 1e-15
        assert out["error"] == 0.5  # argmax ties to class 0

    def test_naive_oracle(self):
        rng = np.random.default_rng(9)
        probs, labels = rand_prediction_arrays(rng)
        out = score_metrics(pset(probs, labels))
        nll, brier, err = naive_scores(probs, labels)
        assert abs(out["nll"] - nll) < 1e-12
        assert abs(out["brier"] - brier) < 1e-12
        assert out["error"] == err

    def test_nll_has_libm_bits(self):
        # numpy's AVX-512 log gives -0.3553172433897132 here; libm gives ...327.
        # The mean of 16 equal values is exact, so nll is -log(x) itself
        x = 0.7009510358491696
        out = score_metrics(pset(np.tile([x, 1.0 - x], (16, 1)), np.zeros(16)))
        assert out["nll"] == -math.log(x) == 0.35531724338971327


class TestAuroc:
    def test_separated(self):
        assert auroc([0.9, 0.8], [0.1, 0.2]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5, 0.5], [0.5, 0.5, 0.5]) == 0.5

    def test_pairwise_oracle(self):
        rng = np.random.default_rng(10)
        pos = np.round(rng.uniform(size=20), 1)
        neg = np.round(rng.uniform(size=20), 1)
        assert auroc(pos, neg) == pairwise_auroc(pos, neg)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auroc([], [0.5])


class TestReport:
    def test_naive_oracles_random_instance(self):
        rng = np.random.default_rng(11)
        probs, labels = rand_prediction_arrays(rng)
        ps = pset(probs, labels)
        rep = compute_report(ps)
        e, m = naive_ece_mce(probs, labels, 15)
        assert abs(rep.ece - e) < 1e-12
        assert abs(rep.mce - m) < 1e-12
        assert abs(rep.adaece - naive_adaece(probs, labels, 15)) < 1e-12
        assert abs(rep.cwece - naive_cwece(probs, labels, 15)) < 1e-12

    def test_json_keys(self):
        out = _payload(compute_report(PERFECT))
        assert set(out) == {"ece", "mce", "adaece", "cwece", "smce", "nll",
                            "brier", "error", "auroc", "bins"}
        assert set(out["bins"][0]) == {"lo", "hi", "count", "accuracy", "confidence"}

    def test_reliability_gap_column(self):
        rows = reliability_table(FOUR, BinningConfig(bins=2))
        for b in rows:
            if b.count:
                assert b.gap == b.accuracy - b.confidence
