import json
import subprocess
import sys

import pytest

from mixlab.cli import dispatch
from mixlab.grpo import GrpoConfig, train_with_mixture
from mixlab.mixtures import MixtureWeights, parse_mixture, write_mixture_file
from mixlab.records import serialize_record, table2_fixture, write_records
from mixlab.world import BenchmarkDef, WorldSpec, make_world


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
    ])
    def test_bad_pools(self, capsys, mixture_file, pools, exit_code):
        code, out, err = run_cli(capsys, "sample", "--weights", str(mixture_file),
                                 "--pools", pools, "--seed", "0")
        assert code == exit_code
        assert out == ""
        assert ("usage error:" if exit_code == 1 else "error:") in err


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
    (["fit", "--records", "{records}", "--degree", "3"], {}, "degree must be 1 or 2"),
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


def test_console_script_installed():
    result = subprocess.run([sys.executable, "-m", "mixlab.cli"],
                            capture_output=True, text=True)
    # module execution path: no subcommand prints usage and exits 1
    assert result.returncode == 1
