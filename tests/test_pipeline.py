import json
import statistics

import numpy as np
import pytest

from mixlab.errors import DimensionMismatch
from mixlab.grpo import GrpoConfig, run_streams
from mixlab.mixtures import MixtureWeights, seed_all
from mixlab.pipeline import (
    PipelineConfig,
    SeedPlan,
    pipeline_config_from_dict,
    plan_phase,
    plan_seed_mixtures,
    refine,
    run_full,
    run_seed_phase,
    write_report,
)
from mixlab.records import PerformanceRecord, read_records, serialize_record, write_records
from mixlab.search import ProposalConfig
from mixlab.surrogate import FitConfig, cross_validated_fit
from mixlab.world import BenchmarkDef, WorldSpec, make_world


def small_spec():
    return WorldSpec(
        m=3, k=24, A=4,
        pool_sizes=(80, 80, 80),
        domain_skills=(tuple(range(0, 8)), tuple(range(6, 16)), tuple(range(16, 24))),
        benchmarks=(
            BenchmarkDef.uniform_over("in-0", "in", range(0, 8), 24),
            BenchmarkDef.uniform_over("in-1", "in", range(6, 16), 24),
            BenchmarkDef.uniform_over("out-all", "out", range(0, 16), 24),
        ),
    )


def small_config(**overrides):
    defaults = dict(
        world_spec=small_spec(),
        world_seed=3,
        train=GrpoConfig(steps=60, peak_learning_rate=0.08),
        seed_plan=SeedPlan(replicates=2),
        fit=FitConfig(degree=2, n_splits=4, test_fraction=0.25, seed=1),
        proposal=ProposalConfig(n_samples=400, k=3, jitter=1e-4, seed=1),
        verify_seeds=2,
        base_seed=7,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestPlanSeedMixtures:
    def test_five_domains_gives_eleven(self):
        plan = plan_seed_mixtures(5)
        assert len(plan) == 11

    def test_two_domains_dedups_exclude_ones(self):
        plan = plan_seed_mixtures(2)
        assert [p.weights for p in plan] == [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]


class TestSeedPhase:
    def test_record_count_and_ids(self):
        config = small_config()
        records = run_seed_phase(config)
        assert len(records) == 7 * 2  # 3 singles + 3 exclude-ones + all, twice
        assert all(r.id.startswith("seed:") for r in records)
        assert all(r.weights is not None for r in records)

    def test_deterministic(self):
        config = small_config()
        first = run_seed_phase(config)
        second = run_seed_phase(config)
        assert [serialize_record(r) for r in first] == [serialize_record(r) for r in second]

    def test_distinct_seeds_per_replicate(self):
        config = small_config()
        records = run_seed_phase(config)
        by_mixture = {}
        for record in records:
            by_mixture.setdefault(record.weights.weights, []).append(record)
        for rows in by_mixture.values():
            assert len(rows) == 2
            # different training seeds should almost surely differ somewhere
            assert serialize_record(rows[0]) != serialize_record(rows[1])


@pytest.fixture(scope="module")
def report():
    return run_full(small_config())


class TestRunFull:
    def test_proposals_sorted_by_prediction(self, report):
        predicted = [row.predicted for row in report.proposals]
        assert predicted == sorted(predicted, reverse=True)
        assert len(report.proposals) == 3

    def test_one_row_per_proposal_with_realizations(self, report):
        for row in report.proposals:
            assert len(row.realized) == 2
            assert all(0.0 <= v <= 1.0 for v in row.realized)
        assert len(report.uniform.realized) == 2

    def test_no_leakage_between_fit_and_verification(self, report):
        fit_ids = {r.id for r in report.fitting_records}
        verify_ids = {r.id for r in report.verification_records}
        assert not fit_ids & verify_ids
        assert all(i.startswith("seed:") for i in fit_ids)
        assert all(i.startswith("verify:") for i in verify_ids)
        config = report.config
        pilots = plan_phase(config, "seed", [("", mix) for mix in plan_seed_mixtures(3)]).runs
        verify = plan_phase(config, "verify", [("uniform", report.uniform.weights)]).runs
        assert [run.record_id for run in pilots] == [r.id for r in report.fitting_records]
        assert {run.record_id for run in verify} == {"verify:uniform:123-v0", "verify:uniform:123-v1"}
        assert {run.record_id for run in verify} <= verify_ids
        assert not stream_states(pilots) & stream_states(verify)

    def test_report_serializes(self, report, tmp_path):
        paths = write_report(report, tmp_path / "out")
        assert all(p.exists() for p in paths.values())
        reloaded = json.loads(paths["report"].read_text())
        assert len(reloaded["proposals"]) == 3
        records = read_records(paths["records"])
        assert len(records) == len(report.fitting_records) + len(report.verification_records)
        summary = paths["summary"].read_text()
        assert "delta of top predicted mixture vs uniform" in summary

    def test_quadratic_dominates_linear_on_same_splits(self, report):
        import math

        records = report.fitting_records
        suite = make_world(small_spec(), 3).suite()
        _, linear = cross_validated_fit(records, FitConfig(degree=1, seed=4), suite=suite)
        _, quad = cross_validated_fit(records, FitConfig(degree=2, seed=4), suite=suite)
        compared = 0
        for lo, hi in zip(linear.train_r2, quad.train_r2):
            if math.isnan(lo) or math.isnan(hi):
                continue
            assert hi >= lo - 1e-12
            compared += 1
        assert compared > 0

    def test_uniform_realized_present(self, report):
        assert report.uniform.weights.weights == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        assert isinstance(report.delta_vs_uniform, float)


class TestKZero:
    def test_report_contains_only_uniform(self):
        config = small_config(proposal=ProposalConfig(n_samples=50, k=0, jitter=1e-4, seed=1))
        report = run_full(config)
        assert report.proposals == ()
        assert report.delta_vs_uniform == 0.0
        assert report.best_proposal is None
        assert len(report.uniform.realized) == 2


class TestRefine:
    def test_zero_rounds_is_identity(self):
        report = run_full(small_config())
        assert refine(report, 0) is report

    def test_one_round_grows_fitting_set_by_k(self):
        report = run_full(small_config())
        refined = refine(report, 1)
        assert len(refined.fitting_records) == len(report.fitting_records) + 3
        assert refined.refine_rounds == 1
        new_ids = {r.id for r in refined.fitting_records} - {r.id for r in report.fitting_records}
        assert all(i.startswith("refine:0:") for i in new_ids)

    def test_two_rounds(self):
        report = run_full(small_config())
        refined = refine(report, 2)
        assert len(refined.fitting_records) == len(report.fitting_records) + 6
        assert refined.refine_rounds == 2

    def test_refit_uses_appended_rows(self):
        report = run_full(small_config())
        refined = refine(report, 1)
        assert refined.fit_report.n_records == len(refined.fitting_records)

    def test_more_noiseless_quadratic_samples_do_not_hurt_fit(self):
        # the data-level content of one refinement round: on an exactly
        # quadratic noiseless target, extra records improve the held-out fit
        # (median over seeds); live training runs are stochastic, so the
        # property is asserted where it actually holds
        from mixlab.mixtures import normalize_to_simplex
        from mixlab.records import BenchmarkSpec, PerformanceRecord
        from mixlab.surrogate import SurrogateModel, predict

        suite = [BenchmarkSpec("obj", 1, "out"), BenchmarkSpec("d", 1, "in")]
        quad = np.array([
            [0.5, -0.3, 0.1, 0.0],
            [-0.3, 0.4, 0.0, 0.1],
            [0.1, 0.0, -0.4, 0.2],
            [0.0, 0.1, 0.2, 0.3],
        ])
        truth = SurrogateModel(degree=2, intercept=0.45,
                               linear=np.array([0.1, -0.05, 0.05, 0.0]), quad=quad)

        def sample_records(n, rng):
            out = []
            for _ in range(n):
                w = normalize_to_simplex(rng.uniform(0.05, 1.0, 4))
                out.append(PerformanceRecord(
                    f"r{rng.integers(10**9)}", w.dataset_labels(), w,
                    {"obj": predict(truth, w), "d": 0.5},
                ))
            return out

        before, after = [], []
        for seed in range(9):
            rng = np.random.default_rng(seed)
            base = sample_records(10, rng)
            extra = sample_records(3, rng)
            _, rep_before = cross_validated_fit(base, FitConfig(degree=2, seed=seed), suite=suite)
            _, rep_after = cross_validated_fit(base + extra, FitConfig(degree=2, seed=seed), suite=suite)
            before.append(float(np.nanmax(rep_before.test_r2)))
            after.append(float(np.nanmax(rep_after.test_r2)))
        assert statistics.median(after) >= statistics.median(before)


def report_lines(report):
    records = report.fitting_records + report.verification_records
    return json.dumps(report.to_dict()), [serialize_record(r) for r in records]


class TestRefineRounds:
    def test_run_full_rounds_match_chained_refines(self, report):
        one_shot = report_lines(run_full(small_config(), refine_rounds=2))
        assert one_shot == report_lines(refine(report, 2))
        assert one_shot == report_lines(refine(refine(report, 1), 1))

    def test_one_round_trains_three_phases(self, monkeypatch):
        import mixlab.pipeline as pipeline

        phases = []
        original = pipeline._run_all

        def recording(world, plan):
            phases.append(sorted({run.record_id.split(":")[0] for run in plan.runs}))
            return original(world, plan)

        monkeypatch.setattr(pipeline, "_run_all", recording)
        report = run_full(small_config(), refine_rounds=1)
        assert phases == [["seed"], ["refine"], ["verify"]]
        assert report.refine_rounds == 1

    def test_negative_rounds_rejected(self, report, monkeypatch):
        import mixlab.pipeline as pipeline

        def fail(*args, **kwargs):
            raise AssertionError("training started with a negative round count")

        monkeypatch.setattr(pipeline, "_run_all", fail)
        with pytest.raises(ValueError, match="refine_rounds"):
            run_full(small_config(), refine_rounds=-1)
        with pytest.raises(ValueError, match="rounds"):
            refine(report, -1)


def stream_states(runs):
    """The distinct data and action streams of ``runs``, each as its first generated words."""
    return {tuple(stream.generate_state(4)) for run in runs for stream in run_streams(run.seed)}


class TestPlanPhase:
    def test_seed_phase_seeds_and_ids(self):
        config = small_config()
        mixtures = [("", mix) for mix in plan_seed_mixtures(3)]
        plan = plan_phase(config, "seed", mixtures)
        assert plan.train is config.train
        assert [run.seed.spawn_key for run in plan.runs] == [(0, c, r) for c in range(7) for r in range(2)]
        assert all(run.seed.entropy == 7 for run in plan.runs)
        assert [run.record_id for run in plan.runs[:3]] == ["seed:1:r0", "seed:1:r1", "seed:2:r0"]
        assert plan.runs[-1].record_id == "seed:123:r1"

    def test_verify_phase_shares_seeds_across_mixtures(self):
        config = small_config()
        mixtures = [("0", MixtureWeights((0.2, 0.3, 0.5))), ("uniform", seed_all(3))]
        runs = plan_phase(config, "verify", mixtures).runs
        assert [run.seed.spawn_key for run in runs] == [(1, 0), (1, 1)] * 2
        assert all(run.seed.entropy == 7 for run in runs)
        assert [run.record_id for run in runs] == [
            "verify:0:123-v0", "verify:0:123-v1",
            "verify:uniform:123-v0", "verify:uniform:123-v1",
        ]

    def test_refine_phase_one_run_per_mixture(self):
        config = small_config()
        mixtures = [("", MixtureWeights((1.0, 0.0, 0.0))), ("", MixtureWeights((0.0, 0.5, 0.5)))]
        runs = plan_phase(config, "refine", mixtures, round_index=2).runs
        assert [(run.seed.spawn_key, run.record_id) for run in runs] == [
            ((2, 2, 0), "refine:2:1-c0"), ((2, 2, 1), "refine:2:23-c1"),
        ]
        assert all(run.seed.entropy == 7 for run in runs)

    def test_verify_streams_pair_across_mixtures(self):
        config = small_config(verify_seeds=3)
        mixtures = [("0", MixtureWeights((0.2, 0.3, 0.5))), ("1", MixtureWeights((1.0, 0.0, 0.0))),
                    ("uniform", seed_all(3))]
        runs = plan_phase(config, "verify", mixtures).runs
        by_mixture = [runs[c * 3:(c + 1) * 3] for c in range(3)]
        for v in range(3):
            states = {tuple(tuple(s.generate_state(4)) for s in run_streams(rows[v].seed)) for rows in by_mixture}
            assert len(states) == 1
        assert len(stream_states(runs)) == 2 * 3

    def test_keys_distinct_past_the_old_offsets(self):
        # pilots reach 7 * 1500 >= 10_000 runs and refinement rounds 1_001 proposals,
        # sizes at which fixed seed offsets overlapped the next phase or round
        config = small_config(seed_plan=SeedPlan(replicates=1500), verify_seeds=4)
        pilots = plan_phase(config, "seed", [("", mix) for mix in plan_seed_mixtures(3)]).runs
        verify = plan_phase(config, "verify", [("0", seed_all(3)), ("uniform", seed_all(3))]).runs
        proposals = [("", seed_all(3))] * 1001
        refines = [run for r in range(2) for run in plan_phase(config, "refine", proposals, round_index=r).runs]
        assert len(pilots) == 10_500 and len(refines) == 2002
        keys = [run.seed.spawn_key for run in pilots + verify[:4] + refines]
        assert len(set(keys)) == len(keys)
        assert len(stream_states(pilots + verify + refines)) == 2 * len(keys)

    def test_planning_twice_gives_equal_streams(self):
        config = small_config()
        mixtures = [("", mix) for mix in plan_seed_mixtures(3)]
        first = plan_phase(config, "seed", mixtures).runs
        second = plan_phase(config, "seed", mixtures).runs
        assert [stream_states([a]) for a in first] == [stream_states([b]) for b in second]

    def test_unknown_phase(self):
        with pytest.raises(ValueError):
            plan_phase(small_config(), "pilot", [("", seed_all(3))])


class TestRecordsPath:
    def test_wrong_m_records_rejected_before_fitting(self, tmp_path, monkeypatch):
        import mixlab.pipeline as pipeline

        path = tmp_path / "records.jsonl"
        suite_scores = {"in-0": 0.5, "in-1": 0.5, "out-all": 0.5}
        records = [
            PerformanceRecord(f"r{i}", (1, 2, 3, 4), MixtureWeights(w), dict(suite_scores))
            for i, w in enumerate([(0.25,) * 4, (0.4, 0.2, 0.2, 0.2), (0.1, 0.2, 0.3, 0.4)])
        ]
        write_records(records, path)

        def fail(*args, **kwargs):
            raise AssertionError("fitting started on records of the wrong dimension")

        monkeypatch.setattr(pipeline, "propose", fail)
        with pytest.raises(DimensionMismatch, match="4 weights for a world with 3 domains"):
            run_full(small_config(records_path=str(path)))

    def test_matching_records_are_reused(self, tmp_path):
        config = small_config()
        path = tmp_path / "records.jsonl"
        pilots = run_seed_phase(config)
        write_records(pilots, path)
        report = run_full(small_config(records_path=str(path)))
        assert [r.id for r in report.fitting_records] == [r.id for r in pilots]


class TestConfigFromDict:
    def test_full_parse(self):
        obj = {
            "world": {"m": 2, "k": 8, "A": 4, "pool_sizes": [20, 20]},
            "world_seed": 5,
            "train": {"steps": 30},
            "seed_plan": {"replicates": 2},
            "fit": {"degree": 2, "seed": 3},
            "proposal": {"n_samples": 100, "k": 2, "seed": 3},
            "verify_seeds": 2,
            "base_seed": 9,
        }
        config = pipeline_config_from_dict(obj)
        assert config.train.steps == 30
        assert config.seed_plan.replicates == 2
        assert config.proposal.k == 2
        assert config.base_seed == 9

    def test_minimal_parse(self):
        config = pipeline_config_from_dict({"world": {"m": 2, "k": 8, "A": 4, "pool_sizes": [20, 20]}})
        assert config == PipelineConfig(world_spec=WorldSpec(m=2, k=8, A=4, pool_sizes=(20, 20)))
