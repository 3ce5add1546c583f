import numpy as np
import pytest
from scipy import stats

from mixlab.errors import DimensionMismatch, Exhausted
from mixlab.mixtures import MixtureWeights, seed_all
from mixlab.sampler import draw_domains, draw_stream, empirical_frequencies, init, next_sample, stream


class TestInit:
    def test_same_seed_same_permutations(self):
        a = init((8, 5), MixtureWeights((0.5, 0.5)), seed=3)
        b = init((8, 5), MixtureWeights((0.5, 0.5)), seed=3)
        for qa, qb in zip(a.queues, b.queues):
            assert (qa == qb).all()

    def test_pool_of_one(self):
        state = init((1,), MixtureWeights((1.0,)), seed=0)
        assert list(state.queues[0]) == [0]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            init((3, 3, 3), MixtureWeights((0.5, 0.5)), seed=0)


class TestNextSample:
    def test_single_domain_deterministic(self):
        state = init((3, 5), MixtureWeights((1.0, 0.0)), seed=7)
        drawn = list(stream(state))
        assert [d for d, _ in drawn] == [0, 0, 0]
        assert sorted(i for _, i in drawn) == [0, 1, 2]
        assert next_sample(state) is None

    def test_zero_weight_domain_never_consumed(self):
        state = init((4, 9), MixtureWeights((1.0, 0.0)), seed=1)
        list(stream(state))
        assert state.remaining(1) == 9

    def test_reproducible_interleaving(self):
        first = list(stream(init((20, 20), MixtureWeights((0.5, 0.5)), seed=5), max_steps=30))
        second = list(stream(init((20, 20), MixtureWeights((0.5, 0.5)), seed=5), max_steps=30))
        assert first == second
        assert {d for d, _ in first} == {0, 1}

    def test_stops_at_redraw_of_tiny_pool(self):
        state = init((1, 1000), MixtureWeights((0.5, 0.5)), seed=11)
        drawn = list(stream(state))
        assert [d for d, _ in drawn].count(0) == 1
        assert state.remaining(1) > 0  # stopped while the big pool still had items
        assert next_sample(state) is None

    def test_without_replacement_random_configs(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            m = int(rng.integers(1, 5))
            sizes = [int(rng.integers(1, 30)) for _ in range(m)]
            weights = rng.uniform(0.05, 1.0, size=m)
            mixture = MixtureWeights(tuple(weights / weights.sum()))
            state = init(sizes, mixture, seed=trial)
            drawn = list(stream(state))
            assert len(set(drawn)) == len(drawn), "an item repeated"
            assert len(drawn) <= sum(sizes)
            per_domain = {d: [i for dd, i in drawn if dd == d] for d in range(m)}
            for d, items in per_domain.items():
                assert len(set(items)) == len(items)
                assert len(items) <= sizes[d]

    def test_single_weight_stream_length_equals_pool(self):
        for size in (1, 4, 17):
            state = init((size, 50), MixtureWeights((1.0, 0.0)), seed=size)
            assert len(list(stream(state))) == size

    def test_renormalize_consumes_everything(self):
        state = init((2, 5), MixtureWeights((0.5, 0.5)), seed=9, renormalize=True)
        drawn = list(stream(state))
        assert len(drawn) == 7
        assert sorted(set(d for d, _ in drawn)) == [0, 1]
        assert next_sample(state) is None

    def test_steps_emitted_counter(self):
        state = init((10, 10), MixtureWeights((0.5, 0.5)), seed=0)
        list(stream(state, max_steps=6))
        assert state.steps_emitted == 6


class TestEmpiricalFrequencies:
    def test_degenerate_weights(self):
        freqs = empirical_frequencies(MixtureWeights((1.0, 0.0)), n=100, seed=0)
        assert freqs == pytest.approx([1.0, 0.0])

    def test_uniform_five_domains(self):
        freqs = empirical_frequencies(seed_all(5), n=100_000, seed=1)
        assert freqs == pytest.approx([0.2] * 5, abs=0.01)

    def test_seventy_thirty(self):
        freqs = empirical_frequencies(MixtureWeights((0.7, 0.3)), n=100_000, seed=2)
        assert freqs == pytest.approx([0.7, 0.3], abs=0.01)

    def test_exhausted(self):
        with pytest.raises(Exhausted):
            empirical_frequencies(MixtureWeights((1.0, 0.0)), n=100, seed=0, pool_sizes=[10, 10])

    def test_chi_square_goodness_of_fit(self):
        weights = MixtureWeights((0.1, 0.2, 0.3, 0.4))
        n = 100_000
        freqs = empirical_frequencies(weights, n=n, seed=3)
        observed = freqs * n
        expected = weights.to_array() * n
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.001

    def test_marginals_match_sequential_sampler(self):
        # the vectorized harness and the stepwise sampler draw from the same rule
        weights = MixtureWeights((0.6, 0.4))
        state = init((5000, 5000), weights, seed=4)
        counts = np.zeros(2)
        for domain, _ in stream(state, max_steps=5000):
            counts[domain] += 1
        assert counts / 5000 == pytest.approx(weights.to_array(), abs=0.02)


class TestDrawDomains:
    def test_counts_cumulative_weights_at_or_below_u(self):
        weights = np.array([0.2, 0.0, 0.5, 0.3])
        u = np.array([0.0, 0.1999, 0.2, 0.69, 0.7, 0.9999])
        assert list(draw_domains(np.cumsum(weights), weights, u)) == [0, 0, 2, 2, 3, 3]

    def test_overshoot_falls_back_to_last_positive_domain(self):
        weights = np.array([0.5, 0.4999999999, 0.0])
        cumulative = np.cumsum(weights)
        assert int(draw_domains(cumulative, weights, 0.99999999995)) == 1
        assert list(draw_domains(cumulative, weights, np.array([0.25, 0.99999999995]))) == [0, 1]


def sequential(state):
    return [(int(d), int(i)) for d, i in stream(state)]


def bulk(state, max_steps):
    domains, items = draw_stream(state, max_steps)
    return list(zip(domains.tolist(), items.tolist()))


class TestDrawStream:
    def test_matches_next_sample_random_configs(self):
        rng = np.random.default_rng(12)
        stopped_early = 0
        for trial in range(40):
            m = int(rng.integers(1, 6))
            sizes = [int(rng.integers(1, 40)) for _ in range(m)]
            weights = rng.uniform(0.0, 1.0, size=m) * (rng.random(m) < 0.8)
            if weights.sum() == 0.0:
                weights[0] = 1.0
            mixture = MixtureWeights(tuple(weights / weights.sum()))
            max_steps = int(rng.integers(0, 80))
            expected = list(stream(init(sizes, mixture, seed=trial), max_steps=max_steps))
            got = bulk(init(sizes, mixture, seed=trial), max_steps)
            assert got == expected
            stopped_early += len(expected) < max_steps
        assert stopped_early > 5  # the exhaustion stop was exercised

    def test_stop_on_exhaustion_leaves_state_finished(self):
        state = init((1, 1000), MixtureWeights((0.5, 0.5)), seed=11)
        expected = sequential(init((1, 1000), MixtureWeights((0.5, 0.5)), seed=11))
        assert bulk(state, 500) == expected
        assert state.positions == [1, len(expected) - 1]
        assert state.steps_emitted == len(expected)
        assert state.finished and next_sample(state) is None

    def test_overshoot_fallback_matches_next_sample(self):
        # shrink the CDF so about half the uniforms land past its end
        def shrunk(seed):
            state = init((400, 400, 400), MixtureWeights((0.3, 0.7, 0.0)), seed=seed)
            state.cumulative = state.cumulative * 0.5
            return state

        expected = list(stream(shrunk(3), max_steps=300))
        assert bulk(shrunk(3), 300) == expected
        assert sum(d == 1 for d, _ in expected) > 200

    def test_zero_steps_and_finished_state(self):
        state = init((5, 5), MixtureWeights((0.5, 0.5)), seed=0)
        assert bulk(state, 0) == []
        assert bulk(state, 10) == []

    def test_renormalize_rejected(self):
        state = init((5, 5), MixtureWeights((0.5, 0.5)), seed=0, renormalize=True)
        with pytest.raises(ValueError):
            draw_stream(state, 3)
