import contextlib
import io
import json
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from mixlab.cli import build_parser, dispatch
from mixlab.grpo import GrpoConfig, RunSpec, _task_streams, train_with_mixture
from mixlab.heuristics import AlphaConfig
from mixlab.mixtures import MixtureWeights, format_mixture, normalize_to_simplex, parse_mixture, read_mixture_file
from mixlab.records import bundled_suite, serialize_record, table2_fixture, write_records
from mixlab.world import BenchmarkDef, WorldSpec, make_world
from tests import heuristics_reference
from tests.conftest import write_mixture_file
from tests.sampler_reference import sample_stdout


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "results.jsonl"
    write_records(table2_fixture(), path)
    return path


@pytest.fixture
def world_file(tmp_path):
    path = tmp_path / "world.json"
    path.write_text(json.dumps({
        "m": 2, "k": 12, "A": 4, "pool_sizes": [40, 40],
        "domain_skills": [[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]],
        "benchmarks": [
            {"name": "in-0", "group": "in", "skills": [0, 1, 2, 3, 4, 5]},
            {"name": "out-all", "group": "out", "skills": list(range(12))},
        ],
    }))
    return path


@pytest.fixture
def mixture_file(tmp_path):
    path = tmp_path / "mix.txt"
    write_mixture_file(MixtureWeights((0.5, 0.5)), path)
    return path


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "aggregate", "--bogus")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["--version"])
        assert exc.value.code == 0


class TestParserReuse:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_flags_do_not_carry_over(self, capsys, fixture_file, monkeypatch):
        monkeypatch.delenv("MIXLAB_SEED", raising=False)
        _, plain, _ = run_cli(capsys, "aggregate", "--records", str(fixture_file))
        _, pretty, _ = run_cli(capsys, "aggregate", "--records", str(fixture_file), "--pretty")
        assert pretty != plain
        assert run_cli(capsys, "aggregate", "--records", str(fixture_file)) == (0, plain, "")
        _, seeded, err = run_cli(capsys, "fit", "--records", str(fixture_file), "--seed", "3")
        assert "seed: 3" in err
        code, out, err = run_cli(capsys, "fit", "--records", str(fixture_file))
        assert code == 0 and "seed: 0" in err and out != seeded


class TestAggregate:
    def test_fixture_rows(self, capsys, fixture_file):
        code, out, _ = run_cli(capsys, "aggregate", "--records", str(fixture_file))
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 42
        base = next(r for r in rows if r["id"] == "Base")
        assert base["out_score"] == pytest.approx(0.3059, abs=5e-4)

    def test_pretty_table(self, capsys, fixture_file):
        code, out, _ = run_cli(capsys, "aggregate", "--records", str(fixture_file), "--pretty")
        assert code == 0
        assert out.splitlines()[0].startswith("id")
        assert len(out.splitlines()) == 43

    def test_data_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x", "datasets": [1], "weights": null, "scores": {"LISA": 1.2}}\n')
        code, _, err = run_cli(capsys, "aggregate", "--records", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "aggregate", "--records", "/nonexistent.jsonl")
        assert code == 2

    GOOD_SUITE = [{"name": "A", "count": 10, "group": "in"}, {"name": "B", "count": 5, "group": "out"}]

    def aggregate_with_suite(self, capsys, tmp_path, suite_text):
        records = tmp_path / "records.jsonl"
        records.write_text('{"id": "r", "datasets": [1], "weights": null, "scores": {"A": 0.5, "B": 0.25}}\n')
        suite = tmp_path / "suite.json"
        suite.write_text(suite_text)
        return run_cli(capsys, "aggregate", "--records", str(records), "--suite", str(suite))

    def test_suite_file(self, capsys, tmp_path):
        code, out, _ = self.aggregate_with_suite(capsys, tmp_path, json.dumps(self.GOOD_SUITE))
        assert (code, json.loads(out)) == (0, {"id": "r", "in_score": 0.5, "out_score": 0.25})

    @pytest.mark.parametrize("suite_text", [
        json.dumps([{"name": "A", "group": "in"}, GOOD_SUITE[1]]),
        json.dumps([{**GOOD_SUITE[0], "count": 0}, GOOD_SUITE[1]]),
        json.dumps([{**GOOD_SUITE[0], "group": "mid"}, GOOD_SUITE[1]]),
        json.dumps([["A", 10, "in"], GOOD_SUITE[1]]),
        json.dumps(GOOD_SUITE)[:-1],
        json.dumps([{**GOOD_SUITE[0], "count": True}, GOOD_SUITE[1]]),
        json.dumps([{**GOOD_SUITE[0], "weight": 2}, GOOD_SUITE[1]]),
    ], ids=["no-count", "zero-count", "unknown-group", "not-an-object", "invalid-json", "bool-count",
            "unknown-key"])
    def test_bad_suite_file_is_data_error(self, capsys, tmp_path, suite_text):
        code, out, err = self.aggregate_with_suite(capsys, tmp_path, suite_text)
        assert code == 2
        assert out == "" and err.startswith("error: line ")


class TestHeuristic:
    def test_norm_matches_module(self, capsys, fixture_file):
        code, out, _ = run_cli(capsys, "heuristic", "--method", "norm", "--records", str(fixture_file))
        assert code == 0
        weights = parse_mixture(out.strip())
        # recomputed aggregates put these close to the published trace
        assert weights.weights == pytest.approx((0.1255, 0.2327, 0.2015, 0.2510, 0.1893), abs=5e-4)

    def test_alpha_runs(self, capsys, fixture_file):
        code, out, _ = run_cli(capsys, "heuristic", "--method", "alpha", "--alpha", "1.0",
                               "--records", str(fixture_file))
        assert code == 0
        parse_mixture(out.strip())

    def test_coli_runs(self, capsys, fixture_file):
        code, out, _ = run_cli(capsys, "heuristic", "--method", "coli", "--lambda", "1e-3",
                               "--records", str(fixture_file))
        assert code == 0
        parse_mixture(out.strip())

    @pytest.mark.parametrize("method, flags, predict", [
        ("alpha", ["--alpha", "0.25", "--alpha-single", "0.5"],
         lambda records, suite: heuristics_reference.alpha_weights(records, AlphaConfig(0.25, 0.5), suite=suite)),
        ("coli", ["--lambda", "0.1"], lambda records, suite: heuristics_reference.colinearity_weights(
            records, 0.1, suite=suite)),
        ("norm", [], lambda records, suite: heuristics_reference.leave_one_out_weights(records, suite=suite)),
    ])
    def test_prints_the_per_label_reference_weights(self, capsys, fixture_file, method, flags, predict):
        code, out, _ = run_cli(capsys, "heuristic", "--method", method, *flags, "--records", str(fixture_file))
        assert code == 0
        assert out == format_mixture(predict(table2_fixture(), bundled_suite())) + "\n"

    @pytest.mark.parametrize("method, flags, named", [
        ("norm", ["--lambda", "1e-3"], "--lambda"),
        ("norm", ["--lambda", "-1"], "--lambda"),
        ("norm", ["--alpha", "5"], "--alpha"),
        ("norm", ["--alpha-single", "0.5"], "--alpha-single"),
        ("alpha", ["--lambda", "1e-3"], "--lambda"),
        ("coli", ["--alpha", "0.5"], "--alpha"),
        ("coli", ["--lambda", "-1"], "--lambda"),
        ("coli", ["--lambda", "0"], "--lambda"),
        ("coli", ["--lambda", "nan"], "--lambda"),
        ("coli", ["--lambda", "inf"], "--lambda"),
    ])
    def test_flag_the_method_cannot_take_is_usage_error(self, capsys, fixture_file, method, flags, named):
        code, out, err = run_cli(capsys, "heuristic", "--method", method, *flags, "--records", str(fixture_file))
        assert code == 1
        assert err.startswith("usage error:") and named in err
        assert out == ""


class TestFit:
    def test_prints_model_and_report(self, capsys, fixture_file, tmp_path):
        model_path = tmp_path / "model.json"
        code, out, err = run_cli(capsys, "fit", "--records", str(fixture_file),
                                 "--degree", "2", "--seed", "3", "--out", str(model_path))
        assert code == 0
        assert "seed: 3" in err
        payload = json.loads(out)
        assert payload["report"]["degree"] == 2
        assert len(payload["model"]["a"]) == 5
        saved = json.loads(model_path.read_text())
        assert saved == payload["model"]

    def test_deterministic_model_file(self, capsys, fixture_file, tmp_path):
        paths = [tmp_path / "m1.json", tmp_path / "m2.json"]
        for path in paths:
            run_cli(capsys, "fit", "--records", str(fixture_file), "--seed", "9", "--out", str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("command", ["fit", "propose"])
def test_mixed_weight_lengths_are_data_error(capsys, tmp_path, command):
    fixture = table2_fixture()
    short = max(i for i, r in enumerate(fixture) if r.weights is not None)
    fixture[short] = replace(fixture[short], datasets=(1, 2), weights=MixtureWeights((0.5, 0.5)))
    records = tmp_path / "mixed.jsonl"
    write_records(fixture, records)
    code, _, err = run_cli(capsys, command, "--records", str(records))
    assert code == 2
    assert f"error: record {fixture[short].id!r} has 2 weights, the first weighted record has 5" in err


class TestPropose:
    def test_emits_mixture_lines_with_scores(self, capsys, fixture_file):
        code, out, _ = run_cli(capsys, "propose", "--records", str(fixture_file),
                               "--n", "500", "--k", "4", "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        scores = []
        for line in lines:
            mixture_part, score_part = line.split("\t")
            parse_mixture(mixture_part)
            scores.append(float(score_part))
        assert scores == sorted(scores, reverse=True)

    def test_byte_identical_with_same_seed(self, capsys, fixture_file):
        _, first, _ = run_cli(capsys, "propose", "--records", str(fixture_file),
                              "--n", "300", "--k", "3", "--seed", "7")
        _, second, _ = run_cli(capsys, "propose", "--records", str(fixture_file),
                               "--n", "300", "--k", "3", "--seed", "7")
        assert first == second

    def test_env_seed_fallback(self, capsys, fixture_file, monkeypatch):
        monkeypatch.setenv("MIXLAB_SEED", "7")
        _, from_env, err = run_cli(capsys, "propose", "--records", str(fixture_file),
                                   "--n", "300", "--k", "3")
        assert "seed: 7" in err
        monkeypatch.delenv("MIXLAB_SEED")
        _, from_flag, _ = run_cli(capsys, "propose", "--records", str(fixture_file),
                                  "--n", "300", "--k", "3", "--seed", "7")
        assert from_env == from_flag


class TestSample:
    def test_prints_domain_item_lines(self, capsys, mixture_file):
        code, out, err = run_cli(capsys, "sample", "--weights", str(mixture_file),
                                 "--pools", "5,5", "--seed", "2", "--max-steps", "6")
        assert code == 0
        assert "seed: 2" in err
        lines = out.splitlines()
        assert len(lines) == 6
        assert all(line.startswith("(") and line.endswith(")") for line in lines)

    def test_prints_the_stream_a_run_trains_on(self, capsys, mixture_file):
        world = make_world(WorldSpec(m=2, k=40, A=2, pool_sizes=(30, 30), overlap=0.0), 0)
        for seed in range(5):
            code, out, _ = run_cli(capsys, "sample", "--weights", str(mixture_file), "--pools", "30,30",
                                   "--seed", str(seed), "--max-steps", "8")
            assert code == 0
            items = [map(int, line.strip("()").split(",")) for line in out.splitlines()]
            printed = [int(world.pools[domain][item]) for domain, item in items]
            run = RunSpec(MixtureWeights((0.5, 0.5)), seed)
            _, skills, *_ = _task_streams(world, [run], GrpoConfig(steps=8))
            assert printed == skills[0].tolist(), seed

    @given(
        case=st.integers(1, 5).flatmap(lambda m: st.tuples(
            st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.5, 1.0, 2.0]), min_size=m, max_size=m)
            .filter(lambda raw: sum(raw) > 0.0),
            st.lists(st.integers(1, 40), min_size=m, max_size=m))),
        seed=st.integers(0, 2 ** 32),
        max_steps=st.one_of(st.none(), st.just(0), st.just(1), st.integers(0, 250)),
    )
    @settings(max_examples=300, deadline=None)
    def test_prints_the_per_draw_stream(self, tmp_path_factory, case, seed, max_steps):
        # the bulk draw prints what drawing one uniform at a time printed, up to every exhaustion stop
        raw, pools = case
        path = tmp_path_factory.mktemp("sample") / "mix.txt"
        write_mixture_file(normalize_to_simplex(raw), path)
        argv = ["sample", "--weights", str(path), "--pools", ",".join(map(str, pools)), "--seed", str(seed)]
        if max_steps is not None:
            argv += ["--max-steps", str(max_steps)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = dispatch(argv)
        assert (code, out.getvalue()) == (0, sample_stdout(read_mixture_file(path), pools, seed, max_steps))

    def test_deterministic(self, capsys, mixture_file):
        args = ("sample", "--weights", str(mixture_file), "--pools", "4,4", "--seed", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("pools, exit_code", [
        ("4,x", 1),  # not integers: a usage error
        ("0,5", 2),  # an empty pool
        ("", 2),  # no pools
        ("5,5,5", 2),  # three pools for a two-weight mixture
        ("99999999999999999999,5", 2),  # a pool numpy cannot index
        ("9223372036854775807,5", 2),  # pools whose total numpy cannot index
        ("4611686018427387904,4611686018427387904 --max-steps 2", 2),  # the same, with a short uniform row
    ])
    def test_bad_pools(self, capsys, mixture_file, pools, exit_code):
        pools, *extra = pools.split(" ")
        code, out, err = run_cli(capsys, "sample", "--weights", str(mixture_file),
                                 "--pools", pools, "--seed", "0", *extra)
        assert code == exit_code
        assert out == ""
        assert ("usage error:" if exit_code == 1 else "error:") in err

    @pytest.mark.parametrize("max_steps, exit_code", [
        ("-2", 1),  # negative: a usage error
        ("0", 0),  # zero steps: an empty stream
    ])
    def test_max_steps_bound(self, capsys, mixture_file, max_steps, exit_code):
        code, out, err = run_cli(capsys, "sample", "--weights", str(mixture_file),
                                 "--pools", "5,5", "--seed", "0", "--max-steps", max_steps)
        assert code == exit_code
        assert out == ""
        assert ("usage error: argument --max-steps" in err) == (exit_code == 1)


class TestSimulate:
    def test_appends_record(self, capsys, world_file, mixture_file, tmp_path):
        out_path = tmp_path / "records.jsonl"
        code, out, _ = run_cli(capsys, "simulate", "--world", str(world_file),
                               "--weights", str(mixture_file), "--steps", "30",
                               "--seed", "4", "--out", str(out_path))
        assert code == 0
        record = json.loads(out)
        assert record["datasets"] == [1, 2]
        assert out_path.read_text().strip() == out.strip()

    def test_byte_identical_output_files(self, capsys, world_file, mixture_file, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            run_cli(capsys, "simulate", "--world", str(world_file), "--weights", str(mixture_file),
                    "--steps", "30", "--seed", "4", "--out", str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_no_training_flags_is_the_library_default(self, capsys, world_file, mixture_file, tmp_path):
        out_path = tmp_path / "records.jsonl"
        code, _, _ = run_cli(capsys, "simulate", "--world", str(world_file), "--weights", str(mixture_file),
                             "--seed", "4", "--out", str(out_path))
        assert code == 0
        spec = WorldSpec(
            m=2, k=12, A=4, pool_sizes=(40, 40),
            domain_skills=((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11)),
            benchmarks=(BenchmarkDef.uniform_over("in-0", "in", range(6), 12),
                        BenchmarkDef.uniform_over("out-all", "out", range(12), 12)),
        )
        record = train_with_mixture(make_world(spec, 0), MixtureWeights((0.5, 0.5)), GrpoConfig(), 4)
        assert out_path.read_text() == serialize_record(record) + "\n"

    @pytest.mark.parametrize("pool_sizes", [
        [0, 30],  # an empty pool
        [99999999999999999999, 30],  # a pool numpy cannot index
    ])
    def test_bad_pool_sizes_are_data_errors(self, capsys, mixture_file, tmp_path, pool_sizes):
        world_path, out_path = tmp_path / "world.json", tmp_path / "records.jsonl"
        world_path.write_text(json.dumps({"m": 2, "k": 4, "A": 4, "pool_sizes": pool_sizes}))
        code, out, err = run_cli(capsys, "simulate", "--world", str(world_path), "--weights", str(mixture_file),
                                 "--steps", "5", "--seed", "0", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert "error: pool_sizes must list one size in" in err
        assert not out_path.exists()

    def test_repeated_benchmark_name_is_data_error(self, capsys, mixture_file, tmp_path):
        world_path, out_path = tmp_path / "world.json", tmp_path / "records.jsonl"
        world_path.write_text(json.dumps({
            "m": 2, "k": 4, "A": 2, "pool_sizes": [10, 10],
            "benchmarks": [{"name": "a", "group": "in", "skills": [0]},
                           {"name": "a", "group": "out", "skills": [3]}],
        }))
        code, out, err = run_cli(capsys, "simulate", "--world", str(world_path), "--weights", str(mixture_file),
                                 "--steps", "5", "--seed", "0", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert "error: benchmark names must be unique" in err
        assert not out_path.exists()

    def test_nan_benchmark_weight_is_data_error(self, capsys, world_file, mixture_file, tmp_path):
        # JSON NaN parses to a float; a world scored with it would append a record no reader accepts
        out_path = tmp_path / "records.jsonl"
        code, _, _ = run_cli(capsys, "simulate", "--world", str(world_file), "--weights", str(mixture_file),
                             "--steps", "5", "--seed", "0", "--out", str(out_path))
        assert code == 0
        before = out_path.read_bytes()
        world_path = tmp_path / "nan-world.json"
        world_path.write_text(json.dumps({
            "m": 2, "k": 4, "A": 2, "pool_sizes": [10, 10],
            "benchmarks": [{"name": "in-0", "group": "in", "skill_weights": [float("nan"), 1.0, 0.0, 0.0]}],
        }))
        code, out, err = run_cli(capsys, "simulate", "--world", str(world_path), "--weights", str(mixture_file),
                                 "--steps", "5", "--seed", "0", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert "error: benchmark 'in-0' needs a distribution over 4 skills" in err
        assert out_path.read_bytes() == before

    def test_non_finite_logits_are_data_errors(self, capsys, mixture_file, tmp_path):
        # at a large but finite peak learning rate a softmax entry underflows to 0 and its KL term is NaN
        world_path, out_path = tmp_path / "world.json", tmp_path / "records.jsonl"
        world_path.write_text(json.dumps({
            "m": 2, "k": 4, "A": 4, "pool_sizes": [30, 30], "domain_skills": [[0, 1], [2, 3]],
            "benchmarks": [{"name": "in-0", "group": "in", "skills": [0, 1]},
                           {"name": "out-all", "group": "out", "skills": [0, 1, 2, 3]}],
        }))
        argv = ["simulate", "--world", str(world_path), "--weights", str(mixture_file),
                "--steps", "20", "--seed", "0", "--out", str(out_path)]
        assert run_cli(capsys, *argv)[0] == 0
        before = out_path.read_bytes()
        code, out, err = run_cli(capsys, *argv, "--peak-lr", "1000")
        assert (code, out) == (2, "")
        assert "peak_learning_rate" in err
        assert out_path.read_bytes() == before


PIPELINE_ARTIFACTS = ("records.jsonl", "model.json", "report.json", "summary.txt")


PIPELINE_WORLD = {
    "m": 2, "k": 12, "A": 4, "pool_sizes": [40, 40],
    "domain_skills": [[0, 1, 2, 3, 4, 5], [4, 5, 6, 7, 8, 9]],
}


@pytest.fixture
def pipeline_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "world": PIPELINE_WORLD,
        "train": {"steps": 30},
        "seed_plan": {"replicates": 2},
        "fit": {"degree": 2, "n_splits": 3, "test_fraction": 0.34, "seed": 1},
        "proposal": {"n_samples": 200, "k": 2, "seed": 1},
        "verify_seeds": 2,
        "base_seed": 5,
    }))
    return path


class TestPipelineCommand:
    def test_end_to_end(self, capsys, tmp_path, pipeline_config_file):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "pipeline", "--config", str(pipeline_config_file),
                               "--out-dir", str(out_dir))
        assert code == 0
        for name in PIPELINE_ARTIFACTS:
            assert (out_dir / name).exists()
        assert "delta of top predicted mixture vs uniform" in out

    def test_jobs_is_ignored(self, capsys, tmp_path, pipeline_config_file):
        written = []
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"out-{jobs}"
            code, _, _ = run_cli(capsys, "pipeline", "--config", str(pipeline_config_file),
                                 "--out-dir", str(out_dir), "--jobs", jobs, "--refine-rounds", "1")
            assert code == 0
            written.append([(out_dir / name).read_bytes() for name in PIPELINE_ARTIFACTS])
        assert written[0] == written[1]

    def test_world_without_out_benchmarks_is_data_error_before_training(
            self, capsys, tmp_path, pipeline_config_file, monkeypatch):
        import mixlab.pipeline as pipeline

        def fail(*args, **kwargs):
            raise AssertionError("training started although verification scores nothing")

        monkeypatch.setattr(pipeline, "train_runs", fail)
        config = json.loads(pipeline_config_file.read_text())
        pipeline_config_file.write_text(json.dumps({**config, "world": {**PIPELINE_WORLD, "benchmarks": []}}))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "pipeline", "--config", str(pipeline_config_file),
                                 "--out-dir", str(out_dir))
        assert (code, out) == (2, "")
        assert err.endswith("\nerror: no benchmarks in group 'out'\n")
        assert not out_dir.exists()

    def test_negative_refine_rounds_is_usage_error(self, capsys, tmp_path, pipeline_config_file):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "pipeline", "--config", str(pipeline_config_file),
                               "--out-dir", str(out_dir), "--refine-rounds", "-1")
        assert code == 1
        assert "--refine-rounds" in err
        assert not out_dir.exists()


@pytest.mark.parametrize("argv, config_changes, message", [
    (["fit", "--records", "{records}", "--test-fraction", "1.5"], {}, "test_fraction"),
    (["fit", "--records", "{records}", "--splits", "0"], {}, "n_splits"),
    (["fit", "--records", "{records}", "--seed", "-1"], {}, "seed"),
    (["propose", "--records", "{records}", "--k", "-1"], {}, "k must"),
    (["heuristic", "--method", "alpha", "--records", "{records}", "--alpha", "2"], {}, "alpha"),
    (["simulate", "--world", "{world}", "--weights", "{mixture}", "--group-size", "1", "--out", "{out}"],
     {}, "group_size"),
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"], {"verify_seeds": 0}, "verify_seeds"),
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"], {"train": {"stepz": 30}}, "stepz"),
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"], {"base_seed": -3}, "base_seed"),
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"], {"world_seed": -1}, "world_seed"),
    (["simulate", "--world", "{world}", "--weights", "{mixture}", "--world-seed", "-1", "--out", "{out}"],
     {}, "--world-seed"),
    (["fit", "--records", "{records}", "--degree", "3"], {}, "degree must be 1 or 2"),
    # non-finite or negative training rates
    (["simulate", "--world", "{world}", "--weights", "{mixture}", "--peak-lr", "nan", "--out", "{out}"],
     {}, "peak_learning_rate"),
    (["simulate", "--world", "{world}", "--weights", "{mixture}", "--peak-lr", "-0.1", "--out", "{out}"],
     {}, "peak_learning_rate"),
    (["simulate", "--world", "{world}", "--weights", "{mixture}", "--kl-coeff", "inf", "--out", "{out}"],
     {}, "kl_coeff"),
    # flags must be spelled in full: --m is not read as --method, nor --jit as --jitter
    (["heuristic", "--method", "norm", "--records", "{records}", "--m", "-2"], {}, "unrecognized arguments: --m"),
    (["heuristic", "--method", "alpha", "--records", "{records}", "--m", "0"], {}, "unrecognized arguments: --m"),
    (["propose", "--records", "{records}", "--jit", "1e-3"], {}, "unrecognized arguments: --jit"),
    # unknown keys, at the top level, in the world and in a benchmark entry
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"], {"verify_seed": 10}, "verify_seed"),
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"], {"world_spec": PIPELINE_WORLD}, "world_spec"),
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"],
     {"world": {**PIPELINE_WORLD, "overlapp": 0.9}}, "overlapp"),
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"],
     {"world": {**PIPELINE_WORLD, "benchmarks": [{"name": "b", "group": "out", "skils": [0, 1]}]}}, "skils"),
    # files that are not JSON, or lack a required key
    (["pipeline", "--config", "{not_json}", "--out-dir", "{out}"], {}, "Expecting property name"),
    (["simulate", "--world", "{not_json}", "--weights", "{mixture}", "--out", "{out}"], {},
     "Expecting property name"),
    (["pipeline", "--config", "{no_world}", "--out-dir", "{out}"], {}, "missing key 'world'"),
    (["simulate", "--world", "{no_world}", "--weights", "{mixture}", "--out", "{out}"], {}, "'train'"),
    # wrong-typed values are not cast
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"], {"verify_seeds": 3.7},
     "verify_seeds must be int"),
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"], {"world": {**PIPELINE_WORLD, "m": "2"}},
     "m must be int"),
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"], {"world": {**PIPELINE_WORLD, "m": True}},
     "m must be int"),
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"],
     {"world": {**PIPELINE_WORLD, "pool_sizes": [5.5, 40]}}, "pool_sizes must be tuple[int, ...]"),
    # settings the pipeline does not have are unknown keys
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"],
     {"train": {"reward_weights": {"accuracy": 2.0, "format": 1.0}}}, "reward_weights"),
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"], {"seed_plan": {"singles": False}}, "singles"),
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"], {"seed_plan": 2}, "seed_plan must be SeedPlan"),
    # pilot records come from training the seed plan, not from a file
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"], {"records_path": "records.jsonl"}, "records_path"),
    # a non-finite proposal jitter, from a flag or a config file
    (["propose", "--records", "{records}", "--jitter", "inf"], {}, "jitter"),
    (["propose", "--records", "{records}", "--jitter", "nan"], {}, "jitter"),
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"],
     {"proposal": {"n_samples": 200, "k": 2, "seed": 1, "jitter": 1e400}}, "jitter"),
    # world benchmarks follow the suite rules, checked before any training
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"],
     {"world": {**PIPELINE_WORLD, "benchmarks": [{"name": "b", "group": "mid", "skills": [0, 1]}]}},
     "group must be one of"),
    (["pipeline", "--config", "{config}", "--out-dir", "{out}"],
     {"world": {**PIPELINE_WORLD, "benchmarks": [{"name": "b", "group": "out", "skills": [0, 1], "count": 0}]}},
     "positive sample count"),
])
def test_bad_option_is_usage_error(capsys, tmp_path, fixture_file, world_file, mixture_file,
                                   pipeline_config_file, argv, config_changes, message):
    config = json.loads(pipeline_config_file.read_text())
    pipeline_config_file.write_text(json.dumps({**config, **config_changes}))
    out = tmp_path / "out"
    paths = {"records": fixture_file, "world": world_file, "mixture": mixture_file,
             "config": pipeline_config_file, "out": out,
             "not_json": tmp_path / "not.json", "no_world": tmp_path / "no-world.json"}
    paths["not_json"].write_text("{not json\n")
    paths["no_world"].write_text(json.dumps({"train": {"steps": 5}}))
    code, stdout, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert "usage error:" in err and message in err
    assert stdout == "" and not out.exists()


GOOD_RECORD = b'{"id": "r", "datasets": [1], "weights": [1.0], "scores": {}}\n'
DEEP = b"[" * 200_000


@pytest.mark.parametrize("argv, content, exit_code, message", [
    # records: a data error at the line holding the first bad byte, unless an earlier line fails first
    (["aggregate", "--records", "{bad}"], b"\xff" + GOOD_RECORD, 2, "error: line 1: not UTF-8 text"),
    (["aggregate", "--records", "{bad}"], GOOD_RECORD * 300 + b'{"id": "\xe9"}\n' + GOOD_RECORD, 2,
     "error: line 301: not UTF-8 text"),  # past the first block the file is read in
    (["fit", "--records", "{bad}"], b"{oops\n" + b"\xff\n", 2, "error: line 1: invalid JSON"),
    (["propose", "--records", "{bad}"], GOOD_RECORD + b"\n" + DEEP, 2,
     "error: line 3: invalid JSON: nested too deeply"),
    # suite and mixture files: data errors
    (["aggregate", "--records", "{records}", "--suite", "{bad}"], b"[\n\xff]", 2, "error: line 2: not UTF-8 text"),
    (["aggregate", "--records", "{records}", "--suite", "{bad}"], DEEP, 2,
     "error: line 1: invalid JSON: nested too deeply"),
    (["sample", "--weights", "{bad}", "--pools", "5,5"], b"\xff0.5,0.5\n", 2, "error: line 1: not UTF-8 text"),
    # config and world files: usage errors
    (["pipeline", "--config", "{bad}", "--out-dir", "{out}"], b"\xff{}", 1,
     "usage error: 'utf-8' codec can't decode byte 0xff"),
    (["pipeline", "--config", "{bad}", "--out-dir", "{out}"], DEEP, 1, "nests JSON too deeply"),
    (["simulate", "--world", "{bad}", "--weights", "{mixture}", "--out", "{out}"], b"{}\xff", 1,
     "usage error: 'utf-8' codec can't decode byte 0xff"),
], ids=["records-first-byte", "records-mid-line", "records-earlier-fault-first", "records-deep",
        "suite-bad-byte", "suite-deep", "mixture-bad-byte", "config-bad-byte", "config-deep", "world-bad-byte"])
def test_undecodable_or_deeply_nested_file(capsys, tmp_path, fixture_file, mixture_file,
                                           argv, content, exit_code, message):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    out = tmp_path / "out"
    paths = {"bad": bad, "records": fixture_file, "mixture": mixture_file, "out": out}
    code, stdout, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, stdout) == (exit_code, "")
    assert message in err
    assert not out.exists()


def test_console_script_installed():
    result = subprocess.run([sys.executable, "-m", "mixlab.cli"],
                            capture_output=True, text=True)
    # module execution path: no subcommand prints usage and exits 1
    assert result.returncode == 1
