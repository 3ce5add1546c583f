import statistics

import numpy as np
import pytest

from mixlab.errors import InvalidSpec
from mixlab.grpo import GrpoConfig, train_with_mixture
from mixlab.mixtures import MixtureWeights
from mixlab.world import (
    BenchmarkDef,
    WorldSpec,
    benchmark_scores,
    make_world,
    world_spec_from_dict,
)


class TestWorldSpec:
    def test_rejects_small_k(self):
        with pytest.raises(InvalidSpec):
            WorldSpec(m=3, k=2, A=4, pool_sizes=(1, 1, 1))

    def test_rejects_single_answer(self):
        with pytest.raises(InvalidSpec):
            WorldSpec(m=1, k=4, A=1, pool_sizes=(5,))

    def test_rejects_bad_pool_list(self):
        with pytest.raises(InvalidSpec):
            WorldSpec(m=2, k=4, A=3, pool_sizes=(5,))

    def test_rejects_bad_benchmark_distribution(self):
        bench = BenchmarkDef(name="b", group="out", skill_weights=(0.5, 0.6))
        with pytest.raises(InvalidSpec):
            WorldSpec(m=1, k=2, A=2, pool_sizes=(4,), benchmarks=(bench,))

    def test_rejects_out_of_range_domain_skills(self):
        with pytest.raises(InvalidSpec):
            WorldSpec(m=1, k=4, A=2, pool_sizes=(4,), domain_skills=((7,),))


class TestMakeWorld:
    def test_deterministic(self):
        spec = WorldSpec(m=3, k=12, A=4, pool_sizes=(30, 30, 30), overlap=0.4)
        a = make_world(spec, seed=5)
        b = make_world(spec, seed=5)
        assert (a.answer_map == b.answer_map).all()
        assert (a.domain_dists == b.domain_dists).all()
        for pa, pb in zip(a.pools, b.pools):
            assert (pa == pb).all()

    def test_different_seeds_differ(self):
        spec = WorldSpec(m=2, k=16, A=4, pool_sizes=(40, 40))
        a = make_world(spec, seed=0)
        b = make_world(spec, seed=1)
        assert (a.answer_map != b.answer_map).any()

    def test_disjoint_windows_at_zero_overlap(self):
        spec = WorldSpec(m=4, k=16, A=3, pool_sizes=(10,) * 4, overlap=0.0)
        world = make_world(spec, seed=2)
        supports = [set(np.flatnonzero(world.domain_dists[d])) for d in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not supports[i] & supports[j]

    def test_overlap_shares_skills(self):
        spec = WorldSpec(m=2, k=12, A=3, pool_sizes=(10, 10), overlap=0.5)
        world = make_world(spec, seed=3)
        supports = [set(np.flatnonzero(world.domain_dists[d])) for d in range(2)]
        assert supports[0] & supports[1]

    def test_held_out_skills_stay_uncovered(self):
        spec = WorldSpec(m=2, k=14, A=3, pool_sizes=(10, 10), overlap=0.0, held_out_skills=4)
        world = make_world(spec, seed=4)
        covered = set(np.flatnonzero(world.domain_dists.sum(axis=0)))
        assert covered <= set(range(10))
        names = [b.name for b in world.benchmarks]
        assert "out-core" in names and "out-broad" in names

    def test_pools_draw_from_own_support(self):
        spec = WorldSpec(m=3, k=9, A=2, pool_sizes=(25, 25, 25), overlap=0.0)
        world = make_world(spec, seed=6)
        for d in range(3):
            support = set(np.flatnonzero(world.domain_dists[d]))
            assert set(int(s) for s in world.pools[d]) <= support

    def test_task_gold_matches_answer_map(self):
        spec = WorldSpec(m=1, k=6, A=3, pool_sizes=(12,))
        world = make_world(spec, seed=7)
        for item in range(12):
            skill, gold = world.task(0, item)
            assert gold == world.answer_map[skill]

    def test_catalog_and_suite(self):
        spec = WorldSpec(m=2, k=8, A=2, pool_sizes=(5, 9))
        world = make_world(spec, seed=8)
        assert tuple(len(pool) for pool in world.pools) == (5, 9)
        groups = {b.group for b in world.suite()}
        assert groups == {"in", "out"}


class TestBenchmarkScores:
    def test_perfect_policy_scores_one(self):
        spec = WorldSpec(m=1, k=6, A=3, pool_sizes=(5,))
        world = make_world(spec, seed=0)
        theta = np.zeros((6, 3))
        theta[np.arange(6), world.answer_map] = 5.0
        for value in benchmark_scores(world, theta).values():
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_shape_guard(self):
        spec = WorldSpec(m=1, k=6, A=3, pool_sizes=(5,))
        world = make_world(spec, seed=0)
        with pytest.raises(InvalidSpec):
            benchmark_scores(world, np.zeros((5, 3)))


class TestMixtureStructure:
    def test_disjoint_world_rewards_spreading_mass(self):
        # brute-force a weight grid; the out benchmark draws equally from both
        # domains, so mass concentrated on one vertex leaves half unlearned
        spec = WorldSpec(
            m=2, k=24, A=4,
            pool_sizes=(120, 120),
            domain_skills=(tuple(range(0, 12)), tuple(range(12, 24))),
            benchmarks=(
                BenchmarkDef.uniform_over("in-0", "in", range(0, 12), 24),
                BenchmarkDef.uniform_over("out-all", "out", range(0, 24), 24),
            ),
        )
        world = make_world(spec, seed=1)
        config = GrpoConfig(steps=48, peak_learning_rate=0.1)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        means = {}
        for w1 in grid:
            mixture = MixtureWeights((w1, 1.0 - w1))
            outs = [
                train_with_mixture(world, mixture, config, seed=100 + s).scores["out-all"]
                for s in range(6)
            ]
            means[w1] = statistics.mean(outs)
        best = max(means, key=means.get)
        assert best not in (0.0, 1.0)
        assert means[best] > means[0.0] and means[best] > means[1.0]

    def test_twin_domains_are_exchangeable_in_expectation(self):
        spec = WorldSpec(
            m=2, k=12, A=4,
            pool_sizes=(200, 200),
            domain_skills=(tuple(range(12)), tuple(range(12))),
            benchmarks=(
                BenchmarkDef.uniform_over("in-0", "in", range(12), 12),
                BenchmarkDef.uniform_over("out-all", "out", range(12), 12),
            ),
        )
        world = make_world(spec, seed=2)
        config = GrpoConfig(steps=36, peak_learning_rate=0.1)
        lop, swapped = [], []
        for s in range(20):
            lop.append(train_with_mixture(world, MixtureWeights((0.3, 0.7)), config, seed=s).scores["out-all"])
            swapped.append(train_with_mixture(world, MixtureWeights((0.7, 0.3)), config, seed=s).scores["out-all"])
        assert abs(statistics.mean(lop) - statistics.mean(swapped)) < 0.05


class TestWorldSpecFromDict:
    def test_full_round_trip(self):
        obj = {
            "m": 2, "k": 6, "A": 3,
            "pool_sizes": [4, 5],
            "domain_skills": [[0, 1, 2], [3, 4, 5]],
            "benchmarks": [
                {"name": "in-a", "group": "in", "skills": [0, 1, 2]},
                {"name": "out-b", "group": "out", "skill_weights": [0, 0, 0, 0.5, 0.25, 0.25], "count": 123},
            ],
        }
        spec = world_spec_from_dict(obj)
        assert spec.m == 2
        assert spec.domain_skills == ((0, 1, 2), (3, 4, 5))
        assert spec.benchmarks[0].skill_weights == pytest.approx((1 / 3, 1 / 3, 1 / 3, 0, 0, 0))
        assert spec.benchmarks[1].count == 123

    @pytest.mark.parametrize("skills", [[0, 8], [-1], [0.5, 3], [True], []])
    def test_bad_benchmark_skills_rejected(self, skills):
        obj = {"m": 2, "k": 8, "A": 4, "pool_sizes": [3, 3],
               "benchmarks": [{"name": "b", "group": "out", "skills": skills}]}
        with pytest.raises(InvalidSpec, match="integers in"):
            world_spec_from_dict(obj)

    def test_defaults(self):
        spec = world_spec_from_dict({"m": 2, "k": 8, "A": 4, "pool_sizes": [3, 3]})
        assert spec.overlap == 0.5
        assert spec.benchmarks is None
