import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixlab.errors import (
    AllZeroAdjusted,
    DuplicateCombination,
    EmptyRecords,
    MissingCombination,
    MixLabError,
    MixLabWarning,
    SingularSystem,
)
from mixlab import heuristics
from mixlab.heuristics import (
    AlphaConfig,
    alpha_weights,
    colinearity_weights,
    leave_one_out_weights,
)
from mixlab.records import BenchmarkSpec, PerformanceRecord, bundled_suite, table2_fixture
from tests import heuristics_reference
from tests.conftest import make_record


@pytest.fixture
def trio(two_bench_suite):
    """Two singles plus the pair: the worked alpha-family example."""
    return [
        make_record("1", [1], 2, 0.2, 0.4),
        make_record("2", [2], 2, 0.6, 0.2),
        make_record("12", [1, 2], 2, 0.5, 0.5),
    ]


class TestAlphaWeights:
    # hand trace: sums S_in=[.7,1.1], S_out=[.9,.7]; min-max gives [0,1] / [1,0]

    def test_balanced(self, trio, two_bench_suite):
        w = alpha_weights(trio, AlphaConfig(alpha=0.5, alpha_single=1.0), suite=two_bench_suite)
        assert w.weights == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_in_only(self, trio, two_bench_suite):
        w = alpha_weights(trio, AlphaConfig(alpha=1.0, alpha_single=1.0), suite=two_bench_suite)
        assert w.weights == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_out_only(self, trio, two_bench_suite):
        w = alpha_weights(trio, AlphaConfig(alpha=0.0, alpha_single=1.0), suite=two_bench_suite)
        assert w.weights == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_alpha_one_ignores_out_column(self, trio, two_bench_suite):
        cfg = AlphaConfig(alpha=1.0)
        baseline = alpha_weights(trio, cfg, suite=two_bench_suite)
        perturbed = [
            make_record(r.id, list(r.datasets), 2, r.scores["bin"], r.scores["bout"] * 0.123 + 0.1)
            for r in trio
        ]
        assert alpha_weights(perturbed, cfg, suite=two_bench_suite) == baseline

    def test_alpha_zero_ignores_in_column(self, trio, two_bench_suite):
        cfg = AlphaConfig(alpha=0.0)
        baseline = alpha_weights(trio, cfg, suite=two_bench_suite)
        perturbed = [
            make_record(r.id, list(r.datasets), 2, r.scores["bin"] * 0.5 + 0.2, r.scores["bout"])
            for r in trio
        ]
        assert alpha_weights(perturbed, cfg, suite=two_bench_suite) == baseline

    def test_alpha_single_scales_singles(self, two_bench_suite):
        records = [
            make_record("1", [1], 3, 0.9, 0.9),
            make_record("2", [2], 3, 0.5, 0.5),
            make_record("3", [3], 3, 0.1, 0.1),
            make_record("13", [1, 3], 3, 0.6, 0.6),
        ]
        undamped = alpha_weights(records, AlphaConfig(alpha=0.5, alpha_single=1.0), suite=two_bench_suite)
        damped = alpha_weights(records, AlphaConfig(alpha=0.5, alpha_single=0.5), suite=two_bench_suite)
        # hand traces: sums [1.5, .5, .7] -> [1, 0, 0.2]/1.2 undamped,
        # sums [1.05, .25, .65] -> [1, 0, 0.5]/1.5 damped
        assert undamped.weights == pytest.approx((1 / 1.2, 0.0, 0.2 / 1.2), abs=1e-12)
        assert damped.weights == pytest.approx((2 / 3, 0.0, 1 / 3), abs=1e-12)

    def test_all_equal_sums_falls_back_uniform(self, two_bench_suite):
        records = [
            make_record("1", [1], 2, 0.5, 0.5),
            make_record("2", [2], 2, 0.5, 0.5),
        ]
        with pytest.warns(MixLabWarning):
            w = alpha_weights(records, AlphaConfig(), suite=two_bench_suite)
        assert w.weights == (0.5, 0.5)

    def test_empty_records(self, two_bench_suite):
        with pytest.raises(EmptyRecords):
            alpha_weights([], AlphaConfig(), suite=two_bench_suite)

    def test_simplex_output(self, trio, two_bench_suite):
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            w = alpha_weights(trio, AlphaConfig(alpha=alpha), suite=two_bench_suite)
            assert all(v >= 0 for v in w.weights)
            assert sum(w.weights) == pytest.approx(1.0, abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlphaConfig(alpha=1.5)

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=2, max_size=5),
        alpha=st.floats(0.0, 1.0),
        alpha_single=st.floats(0.0, 1.0),
    )
    def test_any_scores_give_a_simplex(self, scores, alpha, alpha_single):
        # each min-max normalized sum has an entry of exactly 1, so the blend sums to >= 1
        suite = [BenchmarkSpec("bin", 1, "in"), BenchmarkSpec("bout", 1, "out")]
        records = [make_record(str(i), [i], len(scores), s_in, s_out)
                   for i, (s_in, s_out) in enumerate(scores, start=1)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MixLabWarning)
            w = alpha_weights(records, AlphaConfig(alpha=alpha, alpha_single=alpha_single), suite=suite)
        assert all(v >= 0 for v in w.weights)
        assert sum(w.weights) == pytest.approx(1.0, abs=1e-12)


class TestColinearityWeights:
    def test_identity_design_oracle(self, two_bench_suite):
        # closed-form ridge on an identity design: beta_i / VIF_i == y_i exactly
        records = [
            make_record("1", [1], 2, 0.0, 0.4),
            make_record("2", [2], 2, 0.0, 0.2),
        ]
        w = colinearity_weights(records, lam=1e-3, suite=two_bench_suite)
        assert w.weights == pytest.approx((2 / 3, 1 / 3), abs=1e-9)

    def test_symmetry(self, two_bench_suite):
        records = [
            make_record("1", [1], 2, 0.0, 0.3),
            make_record("2", [2], 2, 0.0, 0.3),
        ]
        w = colinearity_weights(records, suite=two_bench_suite)
        assert w.weights == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_negative_adjusted_clamps_to_zero(self, two_bench_suite):
        # one dataset drags the out score down; its coefficient goes negative
        records = [
            make_record("1", [1], 2, 0.0, 0.4),
            make_record("2", [2], 2, 0.0, 0.0),
            make_record("12", [1, 2], 2, 0.0, 0.1),
        ]
        w = colinearity_weights(records, suite=two_bench_suite)
        assert w.weights[1] == 0.0
        assert w.weights[0] == 1.0

    def test_identity_design_matches_clamped_scores(self, two_bench_suite):
        rng = np.random.default_rng(3)
        y = rng.uniform(0.1, 0.9, size=4)
        records = [make_record(str(i + 1), [i + 1], 4, 0.0, float(y[i])) for i in range(4)]
        w = colinearity_weights(records, lam=1e-2, suite=two_bench_suite)
        expected = y / y.sum()
        assert w.to_array() == pytest.approx(expected, abs=1e-12)

    def test_lambda_zero_rejected(self, two_bench_suite):
        records = [make_record("1", [1], 1, 0.0, 0.4)]
        with pytest.raises(SingularSystem):
            colinearity_weights(records, lam=0.0, suite=two_bench_suite)

    def test_all_zero_adjusted(self, two_bench_suite):
        records = [
            make_record("1", [1], 2, 0.0, 0.0),
            make_record("2", [2], 2, 0.0, 0.0),
        ]
        with pytest.raises(AllZeroAdjusted):
            colinearity_weights(records, suite=two_bench_suite)

    def test_outputs_nonnegative(self, two_bench_suite):
        rng = np.random.default_rng(11)
        records = []
        for i in range(8):
            labels = sorted(rng.choice(range(1, 5), size=rng.integers(1, 5), replace=False).tolist())
            records.append(make_record(f"r{i}", labels, 4, 0.0, float(rng.uniform(0, 1))))
        w = colinearity_weights(records, suite=two_bench_suite)
        assert all(v >= 0 for v in w.weights)


def loo_oracle(out_scores):
    """Independent trace of the leave-one-out weighting for the test's use.

    out_scores[i] is the Out-Score of the run that excluded dataset i+1.
    """
    lo, hi = min(out_scores), max(out_scores)
    normalized = [(s - lo) / (hi - lo) for s in out_scores]
    raw = [0.2 - 0.1 * s for s in normalized]
    total = sum(raw)
    return [r / total for r in raw]


class TestLeaveOneOutWeights:
    # printed exclude-one out scores, ordered by the dataset they exclude
    PRINTED = {1: 0.5146, 2: 0.4783, 3: 0.4889, 4: 0.4721, 5: 0.4930}

    def exclude_one_records(self):
        records = []
        for missing, out in self.PRINTED.items():
            labels = [d for d in range(1, 6) if d != missing]
            records.append(make_record("".join(map(str, labels)), labels, 5, 0.5, out))
        return records

    def test_published_trace(self, two_bench_suite):
        w = leave_one_out_weights(self.exclude_one_records(), suite=two_bench_suite)
        oracle = loo_oracle([self.PRINTED[i] for i in range(1, 6)])
        assert w.to_array() == pytest.approx(np.array(oracle), abs=1e-12)
        assert w.to_array() == pytest.approx(
            np.array([0.1255, 0.2327, 0.2015, 0.2510, 0.1893]), abs=1e-4
        )

    def test_two_dataset_trace(self, two_bench_suite):
        records = [
            make_record("2", [2], 2, 0.5, 0.6),  # excludes dataset 1
            make_record("1", [1], 2, 0.5, 0.4),  # excludes dataset 2
        ]
        w = leave_one_out_weights(records, suite=two_bench_suite)
        # normalized scores [1, 0] -> raw [0.1, 0.2] -> [1/3, 2/3]
        assert w.weights == pytest.approx((1 / 3, 2 / 3), abs=1e-12)

    def test_min_scoring_combination_gets_largest_raw_weight(self, two_bench_suite):
        w = leave_one_out_weights(self.exclude_one_records(), suite=two_bench_suite)
        # dataset 4's exclusion scored lowest, so it gets the full 0.2 raw weight
        assert max(range(5), key=lambda i: w.weights[i]) == 3

    def test_raw_weight_ratio_bounded(self, two_bench_suite):
        # raw weights live in [0.1, 0.2], so no weight exceeds twice another
        rng = np.random.default_rng(5)
        for _ in range(20):
            scores = rng.uniform(0.2, 0.8, size=4)
            if scores.max() == scores.min():
                continue
            records = [
                make_record(f"miss{i}", [d for d in range(1, 5) if d != i], 4, 0.5, float(s))
                for i, s in enumerate(scores, start=1)
            ]
            w = leave_one_out_weights(records, suite=two_bench_suite)
            assert max(w.weights) <= 2.0 * min(w.weights) + 1e-12

    def test_missing_combination(self, two_bench_suite):
        records = self.exclude_one_records()[:-1]
        with pytest.raises(MissingCombination):
            leave_one_out_weights(records, suite=two_bench_suite)

    def test_duplicate_combination(self, two_bench_suite):
        records = self.exclude_one_records()
        records.append(make_record("dup", [2, 3, 4, 5], 5, 0.5, 0.5))
        with pytest.raises(DuplicateCombination):
            leave_one_out_weights(records, suite=two_bench_suite)

    def test_all_equal_scores_falls_back_uniform(self, two_bench_suite):
        records = [
            make_record("2", [2], 2, 0.5, 0.4),
            make_record("1", [1], 2, 0.5, 0.4),
        ]
        with pytest.warns(MixLabWarning):
            w = leave_one_out_weights(records, suite=two_bench_suite)
        assert w.weights == (0.5, 0.5)

    def test_ignores_non_loo_records(self, two_bench_suite):
        records = self.exclude_one_records()
        baseline = leave_one_out_weights(records, suite=two_bench_suite)
        extra = records + [
            make_record("12345", [1, 2, 3, 4, 5], 5, 0.5, 0.46),
            make_record("1", [1], 5, 0.3, 0.46),
        ]
        assert leave_one_out_weights(extra, suite=two_bench_suite) == baseline


def test_all_heuristics_return_valid_simplex(two_bench_suite):
    from mixlab.mixtures import validate

    rng = np.random.default_rng(17)
    m = 4
    records = []
    for i in range(1, m + 1):
        records.append(make_record(f"s{i}", [i], m, float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8))))
    for i in range(1, m + 1):
        labels = [d for d in range(1, m + 1) if d != i]
        records.append(make_record(f"x{i}", labels, m, float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8))))
    records.append(make_record("all", list(range(1, m + 1)), m, 0.5, 0.5))

    validate(alpha_weights(records, AlphaConfig(), suite=two_bench_suite).weights)
    validate(colinearity_weights(records, suite=two_bench_suite).weights)
    validate(leave_one_out_weights(records, suite=two_bench_suite).weights)


def _outcome(predict, *args, **kwargs):
    """The weights ``predict`` returns, or the type of the error it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MixLabWarning)
        try:
            return predict(*args, **kwargs).weights
        except Exception as exc:
            return type(exc)


def _each_heuristic(records, cfg, lam, suite, module):
    return (_outcome(module.alpha_weights, records, cfg, suite=suite),
            _outcome(module.colinearity_weights, records, lam, suite=suite),
            _outcome(module.leave_one_out_weights, records, suite=suite))


_SCORES = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
_RATES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def pilot_records(draw):
    """Weighted records over random label sets, unweighted rows among them, often a full exclude-one family."""
    m = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(st.sets(st.integers(1, m)), st.booleans(), _SCORES, _SCORES), max_size=10))
    records = []
    for i, (labels, weighted, s_in, s_out) in enumerate(rows):
        if weighted and labels:
            records.append(make_record(f"r{i}", sorted(labels), m, s_in, s_out))
        else:
            records.append(PerformanceRecord(f"u{i}", tuple(sorted(labels)), None, {"bin": s_in, "bout": s_out}))
    if m > 1 and draw(st.booleans()):
        records += [make_record(f"x{d}", [e for e in range(1, m + 1) if e != d], m, draw(_SCORES), draw(_SCORES))
                    for d in range(1, m + 1)]
    return draw(st.permutations(records))


@settings(max_examples=400, deadline=None)
@given(records=pilot_records(), alpha=_RATES, alpha_single=_RATES,
       lam=st.sampled_from([0.0, 1e-3]) | st.floats(0.0, 10.0))
def test_same_weights_or_error_as_the_per_label_reference(records, alpha, alpha_single, lam):
    suite = [BenchmarkSpec("bin", 1, "in"), BenchmarkSpec("bout", 1, "out")]
    cfg = AlphaConfig(alpha=alpha, alpha_single=alpha_single)
    assert (_each_heuristic(records, cfg, lam, suite, heuristics)
            == _each_heuristic(records, cfg, lam, suite, heuristics_reference))


class TestDroppedDataset:
    """The bundled fixture without the records that use one dataset: m is the largest label left."""

    def predict(self, dropped):
        records = [r for r in table2_fixture() if dropped not in r.datasets]
        suite = bundled_suite()
        outcomes = _each_heuristic(records, AlphaConfig(), 1e-3, suite, heuristics)
        assert outcomes == _each_heuristic(records, AlphaConfig(), 1e-3, suite, heuristics_reference)
        return outcomes

    def test_largest_label_leaves_four_datasets(self):
        alpha, coli, loo = self.predict(5)
        assert len(alpha) == len(coli) == 4
        assert loo is MissingCombination

    def test_middle_label_is_a_dataset_no_record_uses(self):
        alpha, coli, loo = self.predict(3)
        assert alpha is MixLabError
        assert len(coli) == 5 and coli[2] == 0.0
        assert loo is MissingCombination
