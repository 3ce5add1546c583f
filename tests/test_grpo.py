import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mixlab.errors import DimensionMismatch
from mixlab import grpo
from mixlab.grpo import (
    GrpoConfig,
    RunSpec,
    learning_rate_at,
    train_policies,
    run_streams,
    train_runs,
    train_with_mixture,
)
from mixlab.mixtures import MixtureWeights
from mixlab.records import serialize_record
from mixlab.sampler import init as sampler_init
from mixlab.sampler import next_sample
from mixlab.world import BenchmarkDef, WorldSpec, benchmark_scores, make_world
from tests import grpo_reference
from tests.grpo_reference import (
    GroupTooSmall,
    PolicyParams,
    SupportMismatch,
    categorical_kl,
    clipped_term,
    grpo_objective,
    grpo_step,
    group_advantages,
    group_from_rows,
    objective_row_gradient,
    sample_actions,
)


class TestGroupAdvantages:
    def test_zero_spread_guard(self):
        assert group_advantages([1, 1, 1, 1, 1, 1]) == pytest.approx(np.zeros(6))

    def test_two_rewards(self):
        assert group_advantages([2, 0]) == pytest.approx([1.0, -1.0])

    def test_alternating(self):
        assert group_advantages([1, 0, 1, 0, 1, 0]) == pytest.approx([1, -1, 1, -1, 1, -1])

    def test_group_too_small(self):
        with pytest.raises(GroupTooSmall):
            group_advantages([1.0])

    def test_affine_reward_shift_is_invisible(self):
        # total = 2 * accuracy + 1 shifts and scales the raw 0/1 signal, which
        # group normalization removes
        acc = [1, 0, 0, 1, 1, 0]
        shifted = [2 * a + 1 for a in acc]
        assert group_advantages(shifted) == pytest.approx(group_advantages(acc))

    @given(st.lists(st.floats(min_value=0, max_value=3, allow_nan=False), min_size=2, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_mean_zero_unit_std(self, rewards):
        adv = group_advantages(rewards)
        assert abs(adv.mean()) <= 1e-12
        spread = max(rewards) - min(rewards)
        pop_std = math.sqrt(float((adv**2).mean()))
        if spread == 0:
            assert pop_std == 0.0
        elif spread >= 1e-6:
            # verifiable reward totals are unit-scale; spreads near the
            # subnormal floor legitimately underflow into the zero guard
            assert abs(pop_std - 1.0) <= 1e-9
        assert np.isfinite(adv).all()


class TestClippedTerm:
    def test_positive_advantage_clips_high_ratio(self):
        assert clipped_term(1.5, 1.0, 0.2) == pytest.approx(1.2)

    def test_negative_advantage_clips_low_ratio(self):
        assert clipped_term(0.5, -1.0, 0.2) == pytest.approx(-0.8)

    def test_unit_ratio_passes_advantage(self):
        for advantage in (-2.0, 0.0, 1.3):
            assert clipped_term(1.0, advantage, 0.37) == advantage

    def test_min_property(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            ratio = float(rng.uniform(0.01, 3.0))
            advantage = float(rng.normal())
            eps = float(rng.uniform(0.05, 0.9))
            value = clipped_term(ratio, advantage, eps)
            clipped = min(max(ratio, 1 - eps), 1 + eps)
            assert value <= ratio * advantage + 1e-15
            assert value <= clipped * advantage + 1e-15


class TestCategoricalKl:
    def test_equal_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert categorical_kl(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        assert categorical_kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert categorical_kl(p, q) >= -1e-15

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            kl = categorical_kl(p, q)
            if np.abs(p - q).max() > 1e-5:
                assert kl > 1e-12

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            categorical_kl([0.5, 0.5], [1.0, 0.0])
        with pytest.raises(SupportMismatch):
            categorical_kl([0.5, 0.5], [0.3, 0.3, 0.4])


class TestGrpoObjective:
    def test_all_policies_equal_gives_zero(self):
        config = GrpoConfig(group_size=4, steps=1)
        row = [0.3, -0.1, 0.2]
        group = group_from_rows(row, row, row, [0, 1, 2, 0], gold=0, config=config)
        # ratios are 1 and KL is 0, so the objective is the advantage mean: 0
        assert grpo_objective(group, config) == pytest.approx(0.0, abs=1e-15)

    def test_beta_zero_interior_equals_mean_ratio_advantage(self):
        config = GrpoConfig(group_size=4, clip_epsilon=0.5, kl_coeff=0.0, steps=1)
        theta = [0.32, -0.08]
        old = [0.3, -0.1]
        group = group_from_rows(theta, old, [0.0, 0.0], [0, 1, 1, 0], gold=0, config=config)
        ratios = np.exp(group.logp_theta - group.logp_old)
        assert (ratios > 0.5).all() and (ratios < 1.5).all()
        expected = float(np.mean(ratios * group.advantages))
        assert grpo_objective(group, config) == pytest.approx(expected, abs=1e-15)

    def test_two_action_spreadsheet_oracle(self):
        # every quantity recomputed with plain math calls, no shared code paths
        config = GrpoConfig(group_size=2, clip_epsilon=0.2, kl_coeff=0.04, steps=1)
        theta, old, ref = [0.3, -0.2], [0.1, 0.0], [0.0, 0.0]
        group = group_from_rows(theta, old, ref, [0, 1], gold=0, config=config)

        p0 = math.exp(0.3) / (math.exp(0.3) + math.exp(-0.2))
        p1 = math.exp(-0.2) / (math.exp(0.3) + math.exp(-0.2))
        q0 = math.exp(0.1) / (math.exp(0.1) + 1.0)
        q1 = 1.0 / (math.exp(0.1) + 1.0)
        # rewards 3 and 1 -> advantages +1 and -1
        ratio0, ratio1 = p0 / q0, p1 / q1
        term0 = min(ratio0 * 1.0, min(max(ratio0, 0.8), 1.2) * 1.0)
        term1 = min(ratio1 * -1.0, min(max(ratio1, 0.8), 1.2) * -1.0)
        kl = p0 * math.log(p0 / 0.5) + p1 * math.log(p1 / 0.5)
        expected = 0.5 * (term0 + term1) - 0.04 * kl

        assert grpo_objective(group, config) == pytest.approx(expected, abs=1e-14)


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(7)
        config = GrpoConfig(group_size=6, clip_epsilon=0.2, kl_coeff=0.04, steps=1)
        n_actions = 5
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            theta = rng.normal(0, 1, n_actions)
            old = theta + rng.normal(0, 0.01, n_actions)  # ratios strictly interior
            ref = rng.normal(0, 1, n_actions)
            gold = int(rng.integers(n_actions))
            actions = rng.integers(0, n_actions, size=6)
            if len(set(int(a) for a in actions)) == 1:
                actions[0] = (actions[0] + 1) % n_actions
            group = group_from_rows(theta, old, ref, actions, gold, config)
            ratios = np.exp(group.logp_theta - group.logp_old)
            assert (ratios > 0.81).all() and (ratios < 1.19).all()

            analytic = objective_row_gradient(group, config)
            numeric = np.zeros(n_actions)
            for b in range(n_actions):
                plus, minus = theta.copy(), theta.copy()
                plus[b] += h
                minus[b] -= h
                jp = grpo_objective(group_from_rows(plus, old, ref, actions, gold, config), config)
                jm = grpo_objective(group_from_rows(minus, old, ref, actions, gold, config), config)
                numeric[b] = (jp - jm) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            worst = max(worst, rel)
        assert worst <= 1e-4

    def test_zero_spread_leaves_only_kl_term(self):
        config = GrpoConfig(group_size=4, kl_coeff=0.04, steps=1)
        theta, ref = [0.4, -0.3, 0.0], [0.1, 0.2, -0.1]
        group = group_from_rows(theta, theta, ref, [0, 0, 0, 0], gold=0, config=config)
        assert group.advantages == pytest.approx(np.zeros(4))
        grad = objective_row_gradient(group, config)
        p = group.dist_theta
        q = group.dist_ref
        kl = categorical_kl(p, q)
        assert grad == pytest.approx(-config.kl_coeff * p * (np.log(p / q) - kl), abs=1e-14)

    def test_zero_spread_at_reference_is_exact_zero(self):
        config = GrpoConfig(group_size=4, kl_coeff=0.04, steps=1)
        theta = [0.4, -0.3, 0.0]
        group = group_from_rows(theta, theta, theta, [1, 1, 1, 1], gold=1, config=config)
        assert objective_row_gradient(group, config) == pytest.approx(np.zeros(3), abs=1e-15)


class TestSchedule:
    def test_warmup_then_decay(self):
        config = GrpoConfig(steps=100, warmup_fraction=0.1, peak_learning_rate=0.5)
        rates = [learning_rate_at(t, config) for t in range(100)]
        assert rates[9] == pytest.approx(0.5)  # end of warm-up
        assert all(a < b for a, b in zip(rates[:9], rates[1:10]))  # rising
        assert all(a > b for a, b in zip(rates[10:], rates[11:]))  # falling
        assert rates[-1] > 0.0

    def test_fraction_zero_is_flat_decay(self):
        config = GrpoConfig(steps=10, warmup_fraction=0.0, peak_learning_rate=0.2)
        assert learning_rate_at(0, config) == pytest.approx(0.2)


class TestGrpoStep:
    def test_single_skill_probability_rises_in_expectation(self):
        config = GrpoConfig(group_size=6, steps=40, peak_learning_rate=0.1, kl_coeff=0.04)
        checkpoints = np.zeros((10, 5))
        for seed in range(10):
            rng = np.random.default_rng(seed)
            policy = PolicyParams.zeros(1, 4)
            ref = policy
            gold = 2
            for step in range(40):
                policy = grpo_step(policy, (0, gold), config, rng, ref, step=step)
                if (step + 1) % 8 == 0:
                    checkpoints[seed, (step + 1) // 8 - 1] = policy.action_dist(0)[gold]
        means = checkpoints.mean(axis=0)
        assert means[0] > 0.25
        assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))

    def test_inner_epochs_move_further(self):
        base = GrpoConfig(group_size=6, steps=1, peak_learning_rate=0.2)
        multi = GrpoConfig(group_size=6, steps=1, peak_learning_rate=0.2, inner_epochs=4)
        policy = PolicyParams.zeros(1, 3)
        one = grpo_step(policy, (0, 1), base, np.random.default_rng(0), policy, step=0)
        four = grpo_step(policy, (0, 1), multi, np.random.default_rng(0), policy, step=0)
        assert np.abs(four.theta).sum() > np.abs(one.theta).sum()

    def test_sample_actions_deterministic(self):
        policy = PolicyParams.zeros(2, 4)
        config = GrpoConfig(group_size=6, steps=1)
        a = sample_actions(policy, 0, config, np.random.default_rng(3))
        b = sample_actions(policy, 0, config, np.random.default_rng(3))
        assert (a == b).all()


def tiny_world(pool=200, seed=0):
    spec = WorldSpec(
        m=2, k=20, A=4,
        pool_sizes=(pool, pool),
        domain_skills=(tuple(range(0, 10)), tuple(range(10, 20))),
        benchmarks=(
            BenchmarkDef.uniform_over("in-0", "in", range(0, 10), 20),
            BenchmarkDef.uniform_over("out-all", "out", range(0, 20), 20),
        ),
    )
    return make_world(spec, seed=seed)


class TestTrainWithMixture:
    def test_untrained_policy_scores_one_over_A_in_expectation(self):
        from mixlab.world import benchmark_scores

        values = []
        for seed in range(100):
            world = tiny_world(seed=seed)
            scores = benchmark_scores(world, np.zeros((1, 20, 4)))[0]
            values.append(scores["out-all"])
        assert np.mean(values) == pytest.approx(0.25, abs=0.03)

    def test_vertex_with_generous_budget_reaches_oracle_bar(self):
        world = tiny_world(pool=300)
        config = GrpoConfig(steps=200, peak_learning_rate=0.1)
        record = train_with_mixture(world, MixtureWeights((1.0, 0.0)), config, seed=5)
        # oracle: a supervised argmax fit learns exactly the pooled skills, so
        # its in-benchmark score is the benchmark mass the pool covers
        pooled = set(int(s) for s in world.pools[0])
        oracle = sum(w for s, w in enumerate(world.benchmarks[0].skill_weights) if s in pooled)
        assert oracle >= 0.9
        assert record.scores["in-0"] >= 0.9

    def test_deterministic_records(self):
        world = tiny_world()
        config = GrpoConfig(steps=60)
        kwargs = dict(weights=MixtureWeights((0.5, 0.5)), config=config, seed=9)
        first = train_with_mixture(world, **kwargs)
        second = train_with_mixture(world, **kwargs)
        assert serialize_record(first) == serialize_record(second)

    def test_stops_on_exhaustion(self):
        world = tiny_world(pool=30)
        config = GrpoConfig(steps=10_000)
        record = train_with_mixture(world, MixtureWeights((1.0, 0.0)), config, seed=1)
        assert record.step == 30

    def test_zero_step_budget_keeps_uniform_policy(self):
        world = tiny_world()
        config = GrpoConfig(steps=0)
        record = train_with_mixture(world, MixtureWeights((0.5, 0.5)), config, seed=2)
        assert record.step == 0

    def test_dimension_mismatch(self):
        world = tiny_world()
        with pytest.raises(DimensionMismatch):
            train_with_mixture(world, MixtureWeights((1.0,)), GrpoConfig(steps=1), seed=0)

    def test_record_fields(self):
        world = tiny_world()
        record = train_with_mixture(world, MixtureWeights((0.5, 0.5)), GrpoConfig(steps=20), seed=3)
        assert record.datasets == (1, 2)
        assert set(record.scores) == {"in-0", "out-all"}
        assert all(0.0 <= v <= 1.0 for v in record.scores.values())


def reference_run(world, weights, config, seed):
    """One run as a plain per-step grpo_step loop: (final theta, steps taken)."""
    key = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    # spawn from a fresh copy: spawning advances the sequence it is called on
    data_stream, action_stream = np.random.SeedSequence(key.entropy, spawn_key=key.spawn_key).spawn(2)
    state = sampler_init(world.spec.pool_sizes, weights, seed=data_stream)
    rng = np.random.default_rng(action_stream)
    policy = ref = PolicyParams.zeros(world.k, world.A)
    steps = 0
    while steps < config.steps:
        drawn = next_sample(state)
        if drawn is None:
            break
        policy = grpo_step(policy, world.task(*drawn), config, rng, ref, step=steps)
        steps += 1
    return policy.theta, steps


RUN_MIXTURES = (
    MixtureWeights((1.0, 0.0)),
    MixtureWeights((0.0, 1.0)),
    MixtureWeights((0.5, 0.5)),
    MixtureWeights((0.3, 0.7)),
    MixtureWeights((0.9, 0.1)),
)


def assert_lockstep_matches_reference(world, config, runs):
    theta, steps = train_policies(world, runs, config)
    records = train_runs(world, runs, config)
    assert theta.shape == (len(runs), world.k, world.A)
    for r, run in enumerate(runs):
        ref_theta, ref_steps = reference_run(world, run.mixture, config, run.seed)
        assert np.array_equal(theta[r], ref_theta), f"run {r} theta differs"
        assert steps[r] == ref_steps
        assert records[r].step == ref_steps
        assert records[r].scores == benchmark_scores(world, ref_theta[None])[0]
        assert records[r].id == run.record_id
    return steps


class TestTrainRuns:
    def test_fixed_length_runs_bit_equal(self):
        world = tiny_world(pool=200)
        config = GrpoConfig(group_size=6, steps=80)
        runs = [RunSpec(mix, 10 + i, f"run{i}") for i, mix in enumerate(RUN_MIXTURES)]
        steps = assert_lockstep_matches_reference(world, config, runs)
        assert list(steps) == [80] * len(runs)

    def test_ragged_runs_bit_equal(self):
        world = tiny_world(pool=25)
        config = GrpoConfig(group_size=6, steps=60)
        runs = [RunSpec(mix, 20 + i, f"run{i}") for i, mix in enumerate(RUN_MIXTURES)]
        steps = assert_lockstep_matches_reference(world, config, runs)
        assert len(set(steps.tolist())) > 1 and steps.max() < 60

    @pytest.mark.parametrize("inner_epochs", [2, 3])
    def test_inner_epochs_clip_path_bit_equal(self, monkeypatch, inner_epochs):
        # epochs after the first reuse the step's one-hot mask and old log-probabilities
        world = tiny_world(pool=40)
        config = GrpoConfig(group_size=16, steps=50, inner_epochs=inner_epochs,
                            clip_epsilon=0.05, peak_learning_rate=0.5)
        runs = [RunSpec(mix, 30 + i, f"run{i}") for i, mix in enumerate(RUN_MIXTURES)]
        clipped = []
        original = grpo_reference.objective_row_gradient

        def counting(group, cfg):
            ratios = np.exp(group.logp_theta - group.logp_old)
            bounded = np.clip(ratios, 1 - cfg.clip_epsilon, 1 + cfg.clip_epsilon)
            clipped.append(int((ratios * group.advantages > bounded * group.advantages).sum()))
            return original(group, cfg)

        monkeypatch.setattr(grpo_reference, "objective_row_gradient", counting)
        assert_lockstep_matches_reference(world, config, runs)
        assert sum(clipped) > 0  # some samples left the trust region and were dropped

    def test_kl_coeff_zero_bit_equal(self):
        world = tiny_world(pool=60)
        config = GrpoConfig(group_size=6, steps=70, kl_coeff=0.0)
        runs = [RunSpec(mix, 40 + i, f"run{i}") for i, mix in enumerate(RUN_MIXTURES)]
        assert_lockstep_matches_reference(world, config, runs)

    def test_wider_action_space_bit_equal(self):
        spec = WorldSpec(m=3, k=30, A=16, pool_sizes=(15, 40, 90), held_out_skills=3)
        world = make_world(spec, seed=4)
        config = GrpoConfig(group_size=16, steps=60, inner_epochs=2)
        mixtures = (MixtureWeights((0.2, 0.3, 0.5)), MixtureWeights((1 / 3, 1 / 3, 1 / 3)),
                    MixtureWeights((0.0, 0.0, 1.0)))
        runs = [RunSpec(mix, 50 + i, f"run{i}") for i, mix in enumerate(mixtures)]
        assert_lockstep_matches_reference(world, config, runs)

    def test_shared_spawn_key_bit_equal(self):
        # verification runs share one key across mixtures, as the pipeline plans them
        world = tiny_world(pool=60)
        config = GrpoConfig(group_size=6, steps=40)
        key = np.random.SeedSequence(5, spawn_key=(1, 0))
        runs = [RunSpec(mix, key, f"run{i}") for i, mix in enumerate(RUN_MIXTURES)]
        assert_lockstep_matches_reference(world, config, runs)
        assert key.n_children_spawned == 0

    def test_shared_key_gives_equal_streams_and_records(self):
        world = tiny_world(pool=60)
        config = GrpoConfig(steps=40)
        key = np.random.SeedSequence(5, spawn_key=(1, 3))
        mixture = MixtureWeights((0.3, 0.7))
        runs = [RunSpec(mixture, key, "a"), RunSpec(mixture, key, "b")]
        first, second = train_runs(world, runs, config)
        again, = train_runs(world, runs[:1], config)
        assert (first.scores, first.step) == (second.scores, second.step) == (again.scores, again.step)

    def test_default_record_id(self):
        world = tiny_world()
        mixture = MixtureWeights((0.5, 0.5))
        runs = [RunSpec(mixture, 3), RunSpec(mixture, np.random.SeedSequence(5, spawn_key=(1, 2))),
                RunSpec(mixture, np.random.SeedSequence([7, 8]))]
        records = train_runs(world, runs, GrpoConfig(steps=5))
        assert [record.id for record in records] == ["mix12-s3", "mix12-s5-k1.2", "mix12-s7.8"]

    def test_no_runs(self):
        theta, steps = train_policies(tiny_world(), [], GrpoConfig(steps=5))
        assert theta.shape == (0, 20, 4) and steps.shape == (0,)

    def test_memory_follows_the_pools_not_the_budget(self):
        # two 30-item pools end every run by its 61st draw, so no array grows with steps
        world = tiny_world(pool=30)
        tracemalloc.start()
        try:
            record, = train_runs(world, [RunSpec(MixtureWeights((0.5, 0.5)), 1)], GrpoConfig(steps=10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.step <= 60
        assert peak < 1 << 20  # a 10**6-step budget's uniforms alone would take 8 MB

    def test_wrong_m_raises_before_training(self):
        world = tiny_world()
        runs = [RunSpec(MixtureWeights((0.5, 0.5)), 0), RunSpec(MixtureWeights((0.2, 0.3, 0.5)), 1)]
        with pytest.raises(DimensionMismatch):
            train_runs(world, runs, GrpoConfig(steps=5))


class TestLevelSchedule:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, data):
        runs = data.draw(st.integers(0, 6))
        steps = data.draw(st.integers(0, 12))
        k = data.draw(st.integers(1, 4))
        skills = np.array(data.draw(st.lists(st.lists(st.integers(0, k - 1), min_size=steps, max_size=steps),
                                             min_size=runs, max_size=runs)), dtype=np.int64).reshape(runs, steps)
        lengths = np.array(data.draw(st.lists(st.integers(0, steps), min_size=runs, max_size=runs)),
                           dtype=np.int64)
        taken, bounds = grpo._level_schedule(skills, lengths, k)
        run_at, step_at = np.divmod(taken, steps)
        assert sorted(zip(run_at.tolist(), step_at.tolist())) == [
            (r, t) for r in range(runs) for t in range(lengths[r])]  # each exactly once
        assert bounds[0] == 0 and bounds[-1] == len(taken) and (np.diff(bounds) > 0).all()
        level_of = {}
        for level, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
            rows = run_at[start:stop] * k + skills[run_at[start:stop], step_at[start:stop]]
            assert len(set(rows.tolist())) == len(rows)  # distinct rows within a level
            for r, t in zip(run_at[start:stop].tolist(), step_at[start:stop].tolist()):
                level_of[r, t] = level
        for r in range(runs):
            for skill in range(k):
                on_row = [level_of[r, t] for t in range(lengths[r]) if skills[r, t] == skill]
                assert on_row == list(range(len(on_row)))  # in step order, one per level

    @pytest.mark.parametrize("inner_epochs", [1, 2, 3])
    def test_two_skill_world_bit_equal(self, inner_epochs):
        # with k=2 a run revisits its rows almost every step: many short levels
        spec = WorldSpec(
            m=2, k=2, A=4, pool_sizes=(80, 80), domain_skills=((0,), (0, 1)),
            benchmarks=(BenchmarkDef.uniform_over("all", "out", range(2), 2),),
        )
        world = make_world(spec, seed=3)
        config = GrpoConfig(group_size=6, steps=70, inner_epochs=inner_epochs,
                            clip_epsilon=0.05, peak_learning_rate=0.5)
        runs = [RunSpec(mix, 60 + i, f"run{i}") for i, mix in enumerate(RUN_MIXTURES)]
        assert_lockstep_matches_reference(world, config, runs)

    def test_levels_split_into_blocks_bit_equal(self, monkeypatch):
        world = tiny_world(pool=40)
        config = GrpoConfig(group_size=6, steps=50, inner_epochs=2)
        monkeypatch.setattr(grpo, "_block_columns", lambda group_size, actions: 3)  # 3 rows a block
        runs = [RunSpec(mix, 70 + i, f"run{i}") for i, mix in enumerate(RUN_MIXTURES)]
        level_sizes = []
        original = grpo._level_schedule

        def recording(skills, lengths, k):
            schedule = original(skills, lengths, k)
            level_sizes.extend(np.diff(schedule[1]).tolist())
            return schedule

        monkeypatch.setattr(grpo, "_level_schedule", recording)
        block_rows = []
        original_step = grpo.grpo_step

        def counting_step(old, *args):
            block_rows.append(old.shape[1])  # a block's rows are the columns of its (A, n) logits
            return original_step(old, *args)

        monkeypatch.setattr(grpo, "grpo_step", counting_step)  # the binding perfbench's tracer wraps
        steps = assert_lockstep_matches_reference(world, config, runs)
        assert sum(size > 3 for size in level_sizes) > 5  # levels that span several blocks
        # one call a block, through the module global; train_policies and train_runs each train once
        assert max(block_rows) == 3 and sum(block_rows) == 2 * steps.sum()

    @pytest.mark.parametrize("group_size, actions", [(16, 16), (8, 4), (6, 12)])
    def test_wide_blocks_bit_equal(self, monkeypatch, group_size, actions):
        # ragged-refine's shape, G=16 and A=16, in blocks as narrow as one row and as wide
        # as a whole level; the widest hold A * n logits above numpy's 8 192-element ufunc buffer.
        # (8, 4) and (6, 12) sum 8 or more values over only the group or only the actions
        spec = WorldSpec(m=3, k=240, A=actions, pool_sizes=(30, 80, 400), held_out_skills=10)
        world = make_world(spec, seed=5)
        config = GrpoConfig(group_size=group_size, steps=50, inner_epochs=2, clip_epsilon=0.05,
                            peak_learning_rate=0.5)
        mixtures = (MixtureWeights((0.2, 0.3, 0.5)), MixtureWeights((1 / 3, 1 / 3, 1 / 3)),
                    MixtureWeights((0.0, 0.0, 1.0)), MixtureWeights((0.6, 0.4, 0.0)))
        runs = [RunSpec(mixtures[i % 4], 90 + i, f"run{i}") for i in range(20)]
        expected = [reference_run(world, run.mixture, config, run.seed) for run in runs]
        original_step = grpo.grpo_step
        for width in (1, 64, 256, len(runs) * world.k):
            block_rows = []

            def counting_step(old, *args):
                block_rows.append(old.shape[1])
                return original_step(old, *args)

            monkeypatch.setattr(grpo, "grpo_step", counting_step)
            monkeypatch.setattr(grpo, "_block_columns", lambda group_size, actions: width)
            theta, steps = train_policies(world, runs, config)
            for r, (ref_theta, ref_steps) in enumerate(expected):
                assert steps[r] == ref_steps
                assert theta[r].tobytes() == ref_theta.tobytes(), f"run {r} differs in blocks of {width}"
            assert sum(block_rows) == steps.sum() and max(block_rows) == min(width, block_rows[0])
        assert len(set(steps.tolist())) > 1  # ragged: some runs stop on an empty pool
        if (group_size, actions) == (16, 16):
            assert block_rows[0] * world.A > 8192  # the whole first level in one block

    def test_zero_steps(self):
        theta, steps = train_policies(tiny_world(), [RunSpec(mix, i) for i, mix in enumerate(RUN_MIXTURES)],
                                      GrpoConfig(steps=0))
        assert not theta.any() and not steps.any()

    def test_run_dry_at_step_zero_beside_full_runs(self, monkeypatch):
        world = tiny_world(pool=200)
        config = GrpoConfig(group_size=6, steps=40)
        runs = [RunSpec(mix, 80 + i, f"run{i}") for i, mix in enumerate(RUN_MIXTURES)]
        original = grpo.draw_streams

        def first_run_dry(weights, uniforms, available):
            domains, ranks, lengths = original(weights, uniforms, available)
            lengths[0] = 0  # row 0 is the first run
            return domains, ranks, lengths

        monkeypatch.setattr(grpo, "draw_streams", first_run_dry)
        theta, steps = train_policies(world, runs, config)
        assert steps[0] == 0 and not theta[0].any()
        for r, run in enumerate(runs[1:], start=1):
            ref_theta, ref_steps = reference_run(world, run.mixture, config, run.seed)
            assert steps[r] == ref_steps == 40
            assert np.array_equal(theta[r], ref_theta)


class TestBlockColumns:
    def test_accept_train_blocks_are_unchanged(self):
        assert grpo._block_columns(6, 4) == 682 == (1 << 14) // (6 * 4)

    def test_wide_actions_get_at_least_256_columns(self):
        assert grpo._block_columns(16, 16) >= 256

    def test_large_shapes_stay_under_the_ceiling(self):
        n = grpo._block_columns(64, 512)
        assert n >= 1 and n * 64 * 512 <= grpo._MAX_BLOCK_ELEMENTS
        assert grpo._block_columns(1024, 1024) == 1  # one column is over the ceiling: one row still


def mixed_magnitudes(length, columns, seed):
    """``(length, columns)`` values of both signs spread over 17 decades."""
    rng = np.random.default_rng(seed)
    shape = (length, columns)
    return rng.choice([-1.0, 1.0], shape) * rng.uniform(1.0, 2.0, shape) * 10.0 ** rng.integers(-8, 9, shape)


def assert_numpy_sum_order(x):
    """``grpo._sum_columns(x)`` has the bits of numpy's sums of each column as a contiguous run."""
    got = grpo._sum_columns(x)
    last_axis = np.ascontiguousarray(x.T).sum(axis=1)
    one_d = np.array([column.sum() for column in np.ascontiguousarray(x.T)])
    assert got.tobytes() == last_axis.tobytes() == one_d.tobytes(), (
        f"grpo._sum_columns does not round as numpy {np.__version__} sums {len(x)} contiguous float64 values; "
        "the trainer's bit-identity with tests/grpo_reference.py rests on that order")


ORDER_BOUNDARIES = (7, 8, 9, 15, 16, 127, 128, 129, 257)  # where numpy's pairwise order changes


class TestColumnLayout:
    """What the column-major blocks of grpo_step rest on."""

    @pytest.mark.parametrize("length", ORDER_BOUNDARIES)
    def test_sum_columns_at_order_boundaries(self, length):
        for seed in range(10):
            assert_numpy_sum_order(mixed_magnitudes(length, 7, seed))

    @pytest.mark.parametrize("length", ORDER_BOUNDARIES)
    def test_sum_columns_of_negative_zeros(self, length):
        # numpy's sum starts from 0.0, so a column of -0.0 sums to +0.0
        assert_numpy_sum_order(np.full((length, 2), -0.0))

    @pytest.mark.parametrize("length", [8, 16, 129])
    @pytest.mark.parametrize("columns", [256, 1024, 4035])
    def test_sum_columns_at_block_widths(self, length, columns):
        # the trainer's blocks: a tall (columns, length) copy, summed along its rows
        for seed in range(3):
            assert_numpy_sum_order(mixed_magnitudes(length, columns, seed))

    @given(st.integers(1, 300), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_sum_columns_mixed_magnitudes(self, length, columns, seed):
        assert_numpy_sum_order(mixed_magnitudes(length, columns, seed))

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 300), st.integers(1, 3)),
                      elements=st.floats(-1e100, 1e100, allow_nan=False)))
    @settings(max_examples=200, deadline=None)
    def test_sum_columns_any_values(self, x):
        assert_numpy_sum_order(x)

    def test_step_bits_do_not_depend_on_input_layout(self):
        # F-ordered inputs would make G the innermost axis of the (G, A, n)
        # temporaries, and numpy would sum G pairwise instead of in order
        G, A, n = 16, 16, 40
        config = GrpoConfig(group_size=G, steps=50, inner_epochs=2, clip_epsilon=0.05, peak_learning_rate=0.5)
        rng = np.random.default_rng(3)
        old, uniforms = rng.normal(0.0, 1.0, (A, n)), rng.random((G, n))
        golds, lr = rng.integers(0, A, n), rng.uniform(0.1, 0.5, n)
        ref = grpo._softmax_columns(np.zeros((A, 1)))

        def strided(x):
            padded = np.zeros((2 * x.shape[0], 3 * x.shape[1]))
            padded[::2, ::3] = x
            return padded[::2, ::3]

        def reversed_view(x):
            return x[::-1, ::-1].copy()[::-1, ::-1]

        expected = grpo.grpo_step(old, uniforms, golds, lr, ref, config)
        for layout in (np.asfortranarray, strided, reversed_view):
            got = grpo.grpo_step(layout(old), layout(uniforms), golds, lr, ref, config)
            assert got.tobytes() == expected.tobytes(), f"{layout.__name__} inputs change the bits"
        columns = [grpo.grpo_step(old[:, [i]], uniforms[:, [i]], golds[[i]], lr[[i]], ref, config)
                   for i in range(n)]
        assert np.hstack(columns).tobytes() == expected.tobytes()  # no column depends on its block


def per_run_streams(world, run, config):
    """One run's stream the per-run way: (length, (domain, item) draws, skills, golds, taken steps' uniforms)."""
    data_stream, action_stream = run_streams(run.seed)
    state = sampler_init(world.spec.pool_sizes, run.mixture, seed=data_stream)
    draws = []
    while len(draws) < config.steps:
        drawn = next_sample(state)
        if drawn is None:
            break
        draws.append(drawn)
    tasks = [world.task(*drawn) for drawn in draws]
    n = len(tasks)
    uniforms = np.zeros((config.steps, config.group_size))
    np.random.default_rng(action_stream).random(out=uniforms[:n])
    skills, golds = (np.array([task[i] for task in tasks], dtype=np.int64) for i in range(2))
    return n, draws, skills, golds, uniforms[:n]


@st.composite
def stream_runs(draw):
    """A small world, a config and runs over it; runs often share a stream key."""
    m = draw(st.integers(1, 5))
    spec = WorldSpec(m=m, k=m + draw(st.integers(0, 3)), A=draw(st.integers(2, 4)),
                     pool_sizes=tuple(draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))))
    world = make_world(spec, seed=draw(st.integers(0, 3)))
    config = GrpoConfig(group_size=draw(st.integers(2, 4)), steps=draw(st.integers(0, 30)))
    seeds = st.one_of(
        st.integers(0, 3),
        st.builds(np.random.SeedSequence, st.integers(0, 3)),  # SeedSequence(s) shares int s's key
        st.builds(lambda entropy, v: np.random.SeedSequence(entropy, spawn_key=(1, v)),
                  st.integers(0, 2), st.integers(0, 2)),
    )
    runs = []
    for _ in range(draw(st.integers(0, 6))):
        weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 3.0]),
                                         min_size=m, max_size=m)))
        if weights.sum() == 0.0:
            weights[draw(st.integers(0, m - 1))] = 1.0
        runs.append(RunSpec(MixtureWeights(tuple(weights / weights.sum())), draw(seeds)))
    return world, config, runs


class TestTaskStreams:
    @given(stream_runs())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_run_path(self, case):
        world, config, runs = case
        lengths, skills, golds, uniforms, key_of_run = grpo._task_streams(world, runs, config)
        domains, items, data_lengths, data_keys, _ = grpo.data_streams(world.spec.pool_sizes, runs, config.steps)
        assert lengths.shape == key_of_run.shape == (len(runs),)
        width = min(config.steps, sum(world.spec.pool_sizes) + 1)  # every stream has stopped by then
        assert skills.shape == golds.shape == domains.shape == items.shape == (len(runs), width)
        assert uniforms.shape == (len(set(key_of_run.tolist())), width, config.group_size)
        assert np.array_equal(data_lengths, lengths) and np.array_equal(data_keys, key_of_run)
        for r, run in enumerate(runs):
            n, want_draws, want_skills, want_golds, want_uniforms = per_run_streams(world, run, config)
            assert lengths[r] == n
            assert list(zip(domains[r, :n].tolist(), items[r, :n].tolist())) == want_draws
            assert np.array_equal(skills[r, :n], want_skills)
            assert np.array_equal(golds[r, :n], want_golds)
            assert np.array_equal(uniforms[key_of_run[r], :n], want_uniforms)


class TestStreamSharing:
    """What sharing one key's draws between runs rests on."""

    @pytest.mark.parametrize("n", [0, 1, 17, 240])
    def test_random_n_is_a_prefix_of_random_N(self, n):
        assert np.array_equal(np.random.default_rng(7).random(n), np.random.default_rng(7).random(240)[:n])

    @pytest.mark.parametrize("n", [0, 1, 17, 240])
    def test_filling_leading_rows_is_a_prefix_of_the_full_draw(self, n):
        full = np.random.default_rng(8).random((240, 6))
        rows = np.zeros((240, 6))
        np.random.default_rng(8).random(out=rows[:n])
        assert np.array_equal(rows[:n], full[:n])

    def test_verify_phase_inits_one_sampler_per_stream(self, monkeypatch):
        from mixlab.pipeline import PipelineConfig, plan_phase

        world = tiny_world(pool=60)
        verify_seeds, k = 3, 4
        config = PipelineConfig(world_spec=world.spec, train=GrpoConfig(steps=30), verify_seeds=verify_seeds)
        mixtures = [(str(c), mix) for c, mix in enumerate(RUN_MIXTURES[:k])] + [("uniform", RUN_MIXTURES[2])]
        plan = plan_phase(config, "verify", mixtures)
        calls = []
        original = grpo.sampler_init

        def counting(*args, **kwargs):
            calls.append(kwargs["seed"].spawn_key)
            return original(*args, **kwargs)

        monkeypatch.setattr(grpo, "sampler_init", counting)
        records = train_runs(world, plan.runs, plan.train)
        assert len(records) == (k + 1) * verify_seeds
        assert sorted(calls) == [(1, v, 0) for v in range(verify_seeds)]


class TestRunStreams:
    @staticmethod
    def draws(stream):
        return np.random.default_rng(stream).random(8)

    def test_int_seed_children_match_spawn(self):
        for seed in (0, 7, 2**40):
            expected = np.random.SeedSequence(seed).spawn(2)
            for got, want in zip(run_streams(seed), expected):
                assert np.array_equal(self.draws(got), self.draws(want))

    def test_action_stream_is_not_next_runs_data_stream(self):
        for seed in range(20):
            _, action = run_streams(seed)
            data_next, _ = run_streams(seed + 1)
            assert not np.array_equal(self.draws(action), self.draws(data_next))

    def test_data_and_action_streams_differ(self):
        data, action = run_streams(3)
        assert not np.array_equal(self.draws(data), self.draws(action))

    def test_children_extend_the_key_without_spawning(self):
        key = np.random.SeedSequence(9, spawn_key=(2, 1, 4))
        first = run_streams(key)
        second = run_streams(key)
        assert [s.spawn_key for s in first] == [(2, 1, 4, 0), (2, 1, 4, 1)]
        assert all(s.entropy == 9 for s in first)
        assert key.n_children_spawned == 0
        for a, b in zip(first, second):
            assert np.array_equal(self.draws(a), self.draws(b))


def test_config_validation():
    with pytest.raises(ValueError):
        GrpoConfig(group_size=1)
    with pytest.raises(ValueError):
        GrpoConfig(clip_epsilon=1.0)
    with pytest.raises(ValueError):
        GrpoConfig(kl_coeff=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="kl_coeff"):
            GrpoConfig(kl_coeff=bad)
    for bad in (math.nan, math.inf, -math.inf, -0.1):
        with pytest.raises(ValueError, match="peak_learning_rate"):
            GrpoConfig(peak_learning_rate=bad)
    assert GrpoConfig(peak_learning_rate=0.0, kl_coeff=0.0).peak_learning_rate == 0.0
    with pytest.raises(ValueError):
        GrpoConfig(steps=-1)
