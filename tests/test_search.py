import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mixlab.errors import EmptyCandidates, MixLabError, NoSurvivors, TooFewPoints
from mixlab import search
from mixlab.mixtures import MixtureWeights, validate
from mixlab.records import bundled_suite, table2_fixture
from mixlab.search import (
    GaussianModel,
    ProposalConfig,
    fit_gaussian,
    propose,
    rank_candidates,
    sample_candidates,
)
from mixlab.surrogate import FitConfig, SurrogateModel
from tests import search_reference


class TestFitGaussian:
    def test_two_opposed_vertices(self):
        gm = fit_gaussian(np.array([[1.0, 0.0], [0.0, 1.0]]), jitter=0.0)
        assert gm.mean == pytest.approx([0.5, 0.5])
        assert gm.covariance == pytest.approx(np.array([[0.25, -0.25], [-0.25, 0.25]]))

    def test_identical_points_leave_jitter_only(self):
        point = MixtureWeights((0.3, 0.3, 0.4))
        gm = fit_gaussian(np.array([point.weights] * 5), jitter=1e-4)
        assert gm.mean == pytest.approx([0.3, 0.3, 0.4])
        assert gm.covariance == pytest.approx(1e-4 * np.eye(3))

    def test_mean_in_convex_hull(self):
        rng = np.random.default_rng(0)
        points = [MixtureWeights(tuple(v / v.sum())) for v in rng.uniform(0.01, 1, (12, 4))]
        W = np.array([p.to_array() for p in points])
        gm = fit_gaussian(W)
        assert (gm.mean >= W.min(axis=0) - 1e-12).all()
        assert (gm.mean <= W.max(axis=0) + 1e-12).all()

    def test_covariance_symmetric(self):
        rng = np.random.default_rng(1)
        points = [MixtureWeights(tuple(v / v.sum())) for v in rng.uniform(0.01, 1, (9, 5))]
        gm = fit_gaussian(np.array([p.weights for p in points]))
        assert np.abs(gm.covariance - gm.covariance.T).max() <= 1e-12

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_gaussian(np.array([[1.0]]))


class TestSampleCandidates:
    def test_concentration_near_degenerate_point(self):
        point = MixtureWeights((0.3, 0.3, 0.4))
        gm = fit_gaussian(np.array([point.weights] * 3), jitter=1e-4)
        rng = np.random.default_rng(42)
        candidates = sample_candidates(gm, 1000, rng)
        assert candidates.shape[1] == 3
        assert np.abs(candidates - point.to_array()).max() < 0.05

    def test_rejects_negative_draws(self):
        # mean with a negative coordinate: most draws die, survivors are clean
        gm = GaussianModel(mean=np.array([0.7, -0.2]), covariance=0.01 * np.eye(2))
        rng = np.random.default_rng(0)
        candidates = sample_candidates(gm, 4000, rng)
        assert 0 < len(candidates) < 4000
        for row in candidates:
            validate(row)

    def test_all_rejected(self):
        gm = GaussianModel(mean=np.array([-5.0, -5.0]), covariance=1e-6 * np.eye(2))
        with pytest.raises(NoSurvivors):
            sample_candidates(gm, 100, np.random.default_rng(0))

    def test_candidates_normalized(self):
        gm = fit_gaussian(np.array([[0.5, 0.5], [0.25, 0.75]]), jitter=1e-3)
        for row in sample_candidates(gm, 500, np.random.default_rng(7)):
            validate(row)

    def test_not_positive_definite_raises(self):
        gm = GaussianModel(mean=np.zeros(2), covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(MixLabError):
            sample_candidates(gm, 10, np.random.default_rng(0))


B = search._BLOCK_ROWS
EDGE_ROWS = (0, 1, 2, B - 1, B, B + 1, B + 2, 2 * B + 1)


def _gaussian(m, seed, scale=0.1, shift=0.0):
    """A random m-dimensional Gaussian near the simplex; far below zero, so nothing survives, when shifted."""
    rng = np.random.default_rng(seed)
    root = scale * rng.standard_normal((m, m))
    return GaussianModel(mean=rng.dirichlet(np.ones(m)) - shift, covariance=root @ root.T + 1e-4 * np.eye(m))


gaussians = st.builds(_gaussian, m=st.integers(2, 10), seed=st.integers(0, 2**32 - 1),
                      scale=st.sampled_from([0.01, 0.1, 0.5]), shift=st.sampled_from([0.0, 5.0]))


def _outcome(sampler, gm, n, seed):
    """The sampler's array, or the type and message of the toolkit error it raised."""
    try:
        return sampler(gm, n, np.random.default_rng(seed))
    except MixLabError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(gm=gaussians, n=st.one_of(st.sampled_from(EDGE_ROWS), st.integers(0, 3 * B)),
       seed=st.integers(0, 2**32 - 1))
@example(gm=_gaussian(2, 0), n=1, seed=0)
# a trailing one-row block whose survivor gemv rounds away from gemm (found with OpenBLAS)
@example(gm=_gaussian(3, 0), n=B + 1, seed=0)
@example(gm=_gaussian(4, 2), n=B + 1, seed=2)
@example(gm=_gaussian(4, 1), n=2 * B + 1, seed=1)
@example(gm=_gaussian(3, 3), n=0, seed=3)
@example(gm=_gaussian(4, 4, shift=5.0), n=B + 1, seed=4)
def test_block_draws_equal_one_big_draw(gm, n, seed):
    # the blocked sampler returns the one-draw reference's array bit for bit, or its error
    got = _outcome(sample_candidates, gm, n, seed)
    want = _outcome(search_reference.sample_candidates, gm, n, seed)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    else:
        assert got == want


def test_not_positive_definite_error_equals_reference():
    gm = GaussianModel(mean=np.zeros(2), covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert _outcome(sample_candidates, gm, B + 1, 0) == _outcome(search_reference.sample_candidates, gm, B + 1, 0)


def _traced_peak(sampler, gm, n):
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        result = sampler(gm, n, rng)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_follows_the_block_not_n():
    # one block's draw, product and sum, the previous block, plus the survivors twice
    # (the kept pieces and their concatenation): no term grows with n
    m, n = 6, 25 * B
    gm = GaussianModel(mean=np.full(m, 1.0 / m), covariance=0.0625 * np.eye(m))
    survivors, peak = _traced_peak(sample_candidates, gm, n)
    bound = 4 * B * m * 8 + 2 * survivors.nbytes + (64 << 10)
    assert len(survivors) < n / 4
    assert peak < bound
    # the one-draw reference holds n-row arrays, so the bound is not met by chance
    _, reference_peak = _traced_peak(search_reference.sample_candidates, gm, n)
    assert reference_peak > 2 * bound


class TestRankCandidates:
    MODEL = SurrogateModel(degree=1, intercept=0.0, linear=np.array([1.0, 0.0]))

    def test_orders_by_first_coordinate(self):
        candidates = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        top = rank_candidates(self.MODEL, candidates, k=2)
        assert [c.weights for c, _ in top] == [(1.0, 0.0), (0.5, 0.5)]
        assert all(isinstance(c, MixtureWeights) for c, _ in top)
        assert [s for _, s in top] == pytest.approx([1.0, 0.5])

    def test_full_sorted_list(self):
        candidates = np.array([[0.2, 0.8], [0.9, 0.1], [0.5, 0.5]])
        top = rank_candidates(self.MODEL, candidates, k=3)
        scores = [s for _, s in top]
        assert scores == sorted(scores, reverse=True)

    def test_constant_model_preserves_input_order(self):
        constant = SurrogateModel(degree=1, intercept=0.5, linear=np.zeros(2))
        candidates = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        top = rank_candidates(constant, candidates, k=3)
        assert [c.weights for c, _ in top] == [tuple(row) for row in candidates]

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidates):
            rank_candidates(self.MODEL, np.empty((0, 2)), k=0)

    def test_k_too_large(self):
        with pytest.raises(MixLabError):
            rank_candidates(self.MODEL, np.array([[1.0, 0.0]]), k=2)

    def test_k_zero(self):
        assert rank_candidates(self.MODEL, np.array([[1.0, 0.0]]), k=0) == []


@pytest.fixture(scope="module")
def seed_records():
    return [r for r in table2_fixture() if r.weights is not None]


class TestPropose:
    def test_on_bundled_seed_records(self, seed_records):
        result = propose(
            seed_records,
            FitConfig(degree=2, seed=0),
            ProposalConfig(n_samples=500, k=10, jitter=1e-4, seed=0),
            suite=bundled_suite(),
        )
        assert len(result.candidates) == 10
        for mixture, _ in result.candidates:
            validate(mixture.weights)
        scores = [s for _, s in result.candidates]
        assert scores == sorted(scores, reverse=True)

    def test_bit_deterministic(self, seed_records):
        kwargs = dict(
            fit_config=FitConfig(degree=2, seed=5),
            proposal_config=ProposalConfig(n_samples=300, k=5, jitter=1e-4, seed=5),
            suite=bundled_suite(),
        )
        a = propose(seed_records, **kwargs)
        b = propose(seed_records, **kwargs)
        assert [(c.weights, s) for c, s in a.candidates] == [(c.weights, s) for c, s in b.candidates]
        assert a.report == b.report

    def test_a_stream_proposes_what_the_list_does(self):
        # the whole fixture: its seed rows and the unweighted rows propose skips, read once
        records = table2_fixture()
        kwargs = dict(
            fit_config=FitConfig(degree=1, seed=1),
            proposal_config=ProposalConfig(n_samples=400, k=4, jitter=1e-4, seed=1),
            suite=bundled_suite(),
        )
        streamed, listed = propose(iter(records), **kwargs), propose(records, **kwargs)
        assert streamed.candidates == listed.candidates
        assert streamed.model.to_dict() == listed.model.to_dict()
        assert streamed.report.to_dict() == listed.report.to_dict()

    def test_vertex_optimum_found(self):
        # records generated from g(w) = w_1: the top candidate has the largest
        # first coordinate among all survivors
        from mixlab.mixtures import normalize_to_simplex
        from mixlab.records import BenchmarkSpec, PerformanceRecord

        suite = [BenchmarkSpec("obj", 1, "out"), BenchmarkSpec("d", 1, "in")]
        rng = np.random.default_rng(3)
        records = []
        for i in range(20):
            w = normalize_to_simplex(rng.uniform(0.05, 1.0, size=3))
            records.append(PerformanceRecord(
                id=f"r{i}", datasets=w.dataset_labels(), weights=w,
                scores={"obj": w.weights[0], "d": 0.5},
            ))
        gaussian = fit_gaussian(np.array([r.weights.weights for r in records]), jitter=1e-4)
        candidates = sample_candidates(gaussian, 2000, np.random.default_rng(11))
        model = SurrogateModel(degree=1, intercept=0.0, linear=np.array([1.0, 0.0, 0.0]))
        (top, _), = rank_candidates(model, candidates, k=1)
        best_w1 = candidates[:, 0].max()
        assert top.weights[0] == best_w1

        # the fitted surrogate agrees with the constructed one end to end
        result = propose(records, FitConfig(degree=1, seed=2), ProposalConfig(n_samples=2000, k=1, seed=11), suite=suite)
        assert result.candidates[0][0].weights[0] == pytest.approx(best_w1, abs=1e-6)

    def test_k_zero_returns_empty(self, seed_records):
        result = propose(
            seed_records,
            FitConfig(degree=2, seed=0),
            ProposalConfig(n_samples=100, k=0, seed=0),
            suite=bundled_suite(),
        )
        assert result.candidates == []
        assert result.model is not None

    def test_proposal_config_validation(self):
        with pytest.raises(ValueError):
            ProposalConfig(n_samples=10, k=11)
        with pytest.raises(ValueError):
            ProposalConfig(jitter=-1.0)

    def test_non_finite_jitter_rejected(self):
        for jitter in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="jitter must be finite"):
                ProposalConfig(jitter=jitter)
