"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np
import pytest

from mixlab import grpo
from mixlab.cli import dispatch
from mixlab.grpo import GrpoConfig
from mixlab.heuristics import AlphaConfig, alpha_weights, colinearity_weights, leave_one_out_weights
from mixlab.mixtures import MixtureWeights, normalize_to_simplex
from mixlab.pipeline import PipelineConfig, SeedPlan, run_full
from mixlab.records import (
    BenchmarkSpec,
    PerformanceRecord,
    bundled_suite,
    summarize,
    table2_fixture,
    table2_printed_summary,
    write_records,
)
from mixlab.rewards import BoundingBox, combined_reward, extract_answer, iou
from mixlab.sampler import init as sampler_init
from mixlab.search import ProposalConfig
from mixlab.surrogate import FitConfig, SurrogateModel, predict
from mixlab.world import BenchmarkDef, WorldSpec
from tests.conftest import fit_records, make_record, write_mixture_file
from tests.grpo_reference import group_from_rows, grpo_objective
from tests.sampler_reference import empirical_frequencies, stream

TWO_BENCH = [BenchmarkSpec("bin", 1, "in"), BenchmarkSpec("bout", 1, "out")]


def report(line: str) -> None:
    print(line, flush=True)


def test_c1_results_table_aggregation_reproduction():
    started = time.perf_counter()
    fixture = table2_fixture()
    suite = bundled_suite()
    printed = table2_printed_summary()
    assert len(fixture) == 42
    worst = 0.0
    for record in fixture:
        got = summarize([record], suite)[0]
        want = printed[record.id]
        worst = max(worst, abs(got.in_score - want.in_score), abs(got.out_score - want.out_score))
        assert got.in_score == pytest.approx(want.in_score, abs=1e-3), record.id
        assert got.out_score == pytest.approx(want.out_score, abs=1e-3), record.id
    spot = {r.id: summarize([r], suite)[0] for r in fixture}
    assert spot["Base"].out_score == pytest.approx(0.3059, abs=1e-3)
    assert spot["12345"].in_score == pytest.approx(0.5638, abs=1e-3)
    assert spot["4"].out_score == pytest.approx(0.4915, abs=1e-3)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(f"PASS criterion 1: 42/42 rows within +-0.001 (worst {worst:.2e}), {elapsed:.2f}s")


def test_c2_leave_one_out_oracle_trace():
    printed_out = {1: 0.5146, 2: 0.4783, 3: 0.4889, 4: 0.4721, 5: 0.4930}
    records = []
    for missing, out in printed_out.items():
        labels = [d for d in range(1, 6) if d != missing]
        records.append(make_record("".join(map(str, labels)), labels, 5, 0.5, out))
    got = leave_one_out_weights(records, suite=TWO_BENCH).to_array()

    # independent hand trace of the published scores
    scores = [printed_out[i] for i in range(1, 6)]
    lo, hi = min(scores), max(scores)
    raw = [0.2 - 0.1 * (s - lo) / (hi - lo) for s in scores]
    oracle = np.array([r / sum(raw) for r in raw])

    assert np.abs(got - oracle).max() <= 1e-4
    assert np.abs(got - np.array([0.1255, 0.2327, 0.2015, 0.2510, 0.1893])).max() <= 1e-4
    report(f"PASS criterion 2: leave-one-out trace max deviation {np.abs(got - oracle).max():.2e}")


def test_c3_alpha_and_ridge_micro_oracles():
    trio = [
        make_record("1", [1], 2, 0.2, 0.4),
        make_record("2", [2], 2, 0.6, 0.2),
        make_record("12", [1, 2], 2, 0.5, 0.5),
    ]
    cases = {0.5: (0.5, 0.5), 1.0: (0.0, 1.0), 0.0: (1.0, 0.0)}
    for alpha, expected in cases.items():
        got = alpha_weights(trio, AlphaConfig(alpha=alpha, alpha_single=1.0), suite=TWO_BENCH)
        assert np.abs(got.to_array() - np.array(expected)).max() <= 1e-9, alpha

    identity = [make_record("1", [1], 2, 0.0, 0.4), make_record("2", [2], 2, 0.0, 0.2)]
    ridge = colinearity_weights(identity, lam=1e-3, suite=TWO_BENCH)
    assert np.abs(ridge.to_array() - np.array([2 / 3, 1 / 3])).max() <= 1e-9
    report("PASS criterion 3: alpha-family and ridge/VIF micro-oracles exact to 1e-9")


def test_c4_surrogate_recovery_and_nested_models():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    m = 4
    quad = np.array([
        [0.5, -0.3, 0.1, 0.0],
        [-0.3, 0.4, 0.0, 0.1],
        [0.1, 0.0, -0.4, 0.2],
        [0.0, 0.1, 0.2, 0.3],
    ])
    truth = SurrogateModel(degree=2, intercept=0.45, linear=np.array([0.1, -0.05, 0.05, 0.0]), quad=quad)
    records = []
    for i in range(40):
        w = normalize_to_simplex(rng.uniform(0.05, 1.0, size=m))
        y = predict(truth, w)
        assert 0.0 < y < 1.0
        records.append(PerformanceRecord(
            id=f"r{i}", datasets=w.dataset_labels(), weights=w,
            scores={"bin": 0.5, "bout": y},
        ))

    _, quad_report = fit_records(records, FitConfig(degree=2, seed=1), suite=TWO_BENCH)
    assert all(r2 >= 0.999 for r2 in quad_report.test_r2)

    _, linear_report = fit_records(records, FitConfig(degree=1, seed=1), suite=TWO_BENCH)
    for lo, hi in zip(linear_report.train_r2, quad_report.train_r2):
        assert lo < hi

    seed_rows = [r for r in table2_fixture() if r.weights is not None]
    _, lin_t2 = fit_records(seed_rows, FitConfig(degree=1, seed=2), suite=bundled_suite())
    _, quad_t2 = fit_records(seed_rows, FitConfig(degree=2, seed=2), suite=bundled_suite())
    for lo, hi in zip(lin_t2.train_r2, quad_t2.train_r2):
        if not (math.isnan(lo) or math.isnan(hi)):
            assert hi >= lo - 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(f"PASS criterion 4: quadratic test R^2 >= {min(quad_report.test_r2):.6f}, "
           f"nested property holds, {elapsed:.2f}s")


def test_c5_grpo_numerics():
    # the column functions the trainer runs; the objective they differentiate is the scalar reference's
    rng = np.random.default_rng(7)
    for _ in range(50):
        size = int(rng.integers(2, 10))
        rewards = rng.choice([0.0, 1.0, 3.0], size=size)
        adv = grpo._advantage_columns(rewards[:, None])[:, 0]
        assert abs(adv.mean()) <= 1e-9
        if rewards.max() > rewards.min():
            assert abs(math.sqrt(float((adv**2).mean())) - 1.0) <= 1e-9

    config = GrpoConfig(group_size=6, clip_epsilon=0.2, kl_coeff=0.04, steps=1)
    n_actions, h, worst = 5, 1e-6, 0.0
    for _ in range(100):
        theta = rng.normal(0, 1, n_actions)
        old = theta + rng.normal(0, 0.01, n_actions)
        ref = rng.normal(0, 1, n_actions)
        gold = int(rng.integers(n_actions))
        actions = rng.integers(0, n_actions, size=6)
        if len(set(int(a) for a in actions)) == 1:
            actions[0] = (actions[0] + 1) % n_actions
        # an inner epoch's sample weights: advantage * ratio where the unclipped term attains the min
        p, p_old, q = (grpo._softmax_columns(row[:, None]) for row in (theta, old, ref))
        advantages = grpo._advantage_columns(np.array([[combined_reward(1, accuracy=int(a == gold)).total
                                                        for a in actions]]).T)
        ratios = np.exp(np.log(p[actions]) - np.log(p_old[actions]))
        clipped = np.clip(ratios, 1 - config.clip_epsilon, 1 + config.clip_epsilon)
        weights = np.where(ratios * advantages <= clipped * advantages, advantages * ratios, 0.0)
        onehot = (actions[:, None, None] == np.arange(n_actions)[:, None]).astype(float)
        analytic = grpo._gradient_columns(p, onehot, weights, q, config)[:, 0]
        numeric = np.zeros(n_actions)
        for b in range(n_actions):
            plus, minus = theta.copy(), theta.copy()
            plus[b] += h
            minus[b] -= h
            numeric[b] = (
                grpo_objective(group_from_rows(plus, old, ref, actions, gold, config), config)
                - grpo_objective(group_from_rows(minus, old, ref, actions, gold, config), config)
            ) / (2 * h)
        worst = max(worst, float(np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)))
    assert worst <= 1e-4

    for _ in range(100):
        p = rng.dirichlet(np.ones(4))[:, None]
        q = rng.dirichlet(np.ones(4))[:, None]
        assert grpo._kl_columns(p, q)[1][0] >= 0.0
        assert grpo._kl_columns(p, p)[1][0] <= 1e-12
    report(f"PASS criterion 5: advantages exact, gradient rel err {worst:.2e} <= 1e-4, KL sound")


def test_c6_reward_suite():
    assert extract_answer(
        "<think> the diatom makes its own food </think> <answer> B </answer>"
    ) == (1, "B")
    assert extract_answer("The answer is B") == (0, None)
    flag, boxes = extract_answer(
        "<think>...</think> <answer>[{'Position': [422, 781, 464, 926], 'Confidence': 1}]</answer>",
        mode="box",
    )
    assert flag == 1 and boxes == [(BoundingBox(422, 781, 464, 926), 1.0)]

    box = BoundingBox(0, 0, 2, 2)
    assert iou(box, box) == 1.0
    assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(3, 3, 4, 4)) == 0.0
    assert iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-15)

    assert combined_reward(1, accuracy=1).total == 3.0
    assert combined_reward(0, accuracy=1).total == 0.0
    assert combined_reward(1, iou_value=0.5).total == 2.0

    from tests.test_rewards import pixel_iou

    rng = np.random.default_rng(1)
    for _ in range(1000):
        c = rng.integers(0, 12, size=8)
        a = BoundingBox(min(c[0], c[1]), min(c[2], c[3]), max(c[0], c[1]), max(c[2], c[3]))
        b = BoundingBox(min(c[4], c[5]), min(c[6], c[7]), max(c[4], c[5]), max(c[6], c[7]))
        union_area = a.area + b.area
        tolerance = 1.0 / union_area if union_area > 0 else 1e-12
        assert abs(iou(a, b) - pixel_iou(a, b)) <= tolerance
    report("PASS criterion 6: extraction, IoU cases, totals, and 1000-box pixel oracle agree")


def test_c7_sampler_statistics():
    freqs = empirical_frequencies(MixtureWeights((0.2,) * 5), n=100_000, seed=1)
    assert np.abs(freqs - 0.2).max() <= 0.01
    freqs = empirical_frequencies(MixtureWeights((0.7, 0.3)), n=100_000, seed=2)
    assert np.abs(freqs - np.array([0.7, 0.3])).max() <= 0.01

    rng = np.random.default_rng(3)
    for trial in range(20):
        m = int(rng.integers(1, 5))
        sizes = tuple(int(rng.integers(1, 40)) for _ in range(m))
        weights = rng.uniform(0.05, 1.0, size=m)
        mixture = MixtureWeights(tuple(weights / weights.sum()))
        state = sampler_init(sizes, mixture, seed=trial)
        drawn = list(stream(state))
        assert len(set(drawn)) == len(drawn)
        assert len(drawn) <= sum(sizes)
        for d in range(m):
            items = [i for dd, i in drawn if dd == d]
            assert len(items) <= sizes[d]
        assert state.finished or len(drawn) == sum(sizes)
    report("PASS criterion 7: 100k-draw frequencies within +-0.01; pool invariants hold")


def acceptance_pipeline_config() -> PipelineConfig:
    """Synthetic world with overlapping skills and one out-irrelevant domain.

    Domains 0 and 1 are twins, domain 2 half-overlaps them, and domain 3
    trains skills the out benchmark never asks about, so budget placed there
    is wasted.  The training budget is tight enough that allocation matters.
    """
    k = 138
    spec = WorldSpec(
        m=4, k=k, A=4,
        pool_sizes=(400, 400, 400, 400),
        domain_skills=(
            tuple(range(0, 40)),
            tuple(range(0, 40)),
            tuple(range(30, 90)),
            tuple(range(90, 120)),
        ),
        benchmarks=(
            BenchmarkDef.uniform_over("in-01", "in", range(0, 40), k),
            BenchmarkDef.uniform_over("in-2", "in", range(30, 90), k),
            BenchmarkDef.uniform_over("in-3", "in", range(90, 120), k),
            BenchmarkDef.uniform_over(
                "out-main", "out", list(range(0, 90)) + list(range(130, 138)), k
            ),
        ),
    )
    return PipelineConfig(
        world_spec=spec,
        world_seed=0,
        train=GrpoConfig(steps=240, peak_learning_rate=0.07),
        seed_plan=SeedPlan(replicates=2),
        fit=FitConfig(degree=2, n_splits=5, test_fraction=0.25, seed=11),
        proposal=ProposalConfig(n_samples=2000, k=5, jitter=1e-4, seed=11),
        verify_seeds=10,
        base_seed=42,
    )


def test_c8_end_to_end_methodology():
    started = time.perf_counter()
    pipeline_report = run_full(acceptance_pipeline_config())
    top = pipeline_report.proposals[0]
    uniform = pipeline_report.uniform
    assert len(top.realized) == 10

    wins = sum(t > u for t, u in zip(top.realized, uniform.realized))
    assert top.realized_mean >= uniform.realized_mean
    assert wins >= 8
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(
        f"PASS criterion 8: top mixture out {top.realized_mean:.4f} vs uniform "
        f"{uniform.realized_mean:.4f} (+{top.realized_mean - uniform.realized_mean:.4f}), "
        f"{wins}/10 paired wins, {elapsed:.1f}s"
    )


def test_c9_determinism(tmp_path, capsys):
    fixture_path = tmp_path / "records.jsonl"
    write_records(table2_fixture(), fixture_path)
    mixture_path = tmp_path / "mix.txt"
    write_mixture_file(MixtureWeights((0.5, 0.5)), mixture_path)
    world_path = tmp_path / "world.json"
    world_path.write_text(json.dumps({
        "m": 2, "k": 12, "A": 4, "pool_sizes": [40, 40],
        "domain_skills": [[0, 1, 2, 3, 4, 5], [4, 5, 6, 7, 8, 9]],
    }))
    config_path = tmp_path / "pipe.json"
    config_path.write_text(json.dumps({
        "world": {"m": 2, "k": 12, "A": 4, "pool_sizes": [40, 40],
                  "domain_skills": [[0, 1, 2, 3, 4, 5], [4, 5, 6, 7, 8, 9]]},
        "train": {"steps": 30},
        "seed_plan": {"replicates": 2},
        "fit": {"degree": 2, "n_splits": 3, "test_fraction": 0.34, "seed": 2},
        "proposal": {"n_samples": 200, "k": 2, "seed": 2},
        "verify_seeds": 2,
        "base_seed": 6,
    }))

    def run(argv):
        code = dispatch(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    # stdout-producing randomized commands
    for argv in (
        ["propose", "--records", str(fixture_path), "--n", "300", "--k", "3", "--seed", "9"],
        ["sample", "--weights", str(mixture_path), "--pools", "6,6", "--seed", "9"],
    ):
        assert run(list(argv)) == run(list(argv))

    # file-producing randomized commands
    sim_a, sim_b = tmp_path / "sim_a.jsonl", tmp_path / "sim_b.jsonl"
    for out in (sim_a, sim_b):
        run(["simulate", "--world", str(world_path), "--weights", str(mixture_path),
             "--steps", "25", "--seed", "9", "--out", str(out)])
    assert sim_a.read_bytes() == sim_b.read_bytes()

    fit_a, fit_b = tmp_path / "fit_a.json", tmp_path / "fit_b.json"
    for out in (fit_a, fit_b):
        run(["fit", "--records", str(fixture_path), "--seed", "9", "--out", str(out)])
    assert fit_a.read_bytes() == fit_b.read_bytes()

    dir_a, dir_b = tmp_path / "pipe_a", tmp_path / "pipe_b"
    for out_dir in (dir_a, dir_b):
        run(["pipeline", "--config", str(config_path), "--out-dir", str(out_dir)])
    for name in ("records.jsonl", "model.json", "report.json", "summary.txt"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    report("PASS criterion 9: propose/sample stdout and simulate/fit/pipeline files byte-identical")
