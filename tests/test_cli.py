import json
import subprocess
import sys

import pytest

from mixlab.cli import dispatch
from mixlab.mixtures import MixtureWeights, parse_mixture, write_mixture_file
from mixlab.records import table2_fixture, write_records


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

    def test_bad_pools(self, capsys, mixture_file):
        code, _, _ = run_cli(capsys, "sample", "--weights", str(mixture_file),
                             "--pools", "4,x", "--seed", "0")
        assert code == 1


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


PIPELINE_ARTIFACTS = ("records.jsonl", "model.json", "report.json", "summary.txt")


@pytest.fixture
def pipeline_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "world": {
            "m": 2, "k": 12, "A": 4, "pool_sizes": [40, 40],
            "domain_skills": [[0, 1, 2, 3, 4, 5], [4, 5, 6, 7, 8, 9]],
        },
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


def test_console_script_installed():
    result = subprocess.run([sys.executable, "-m", "mixlab.cli"],
                            capture_output=True, text=True)
    # module execution path: no subcommand prints usage and exits 1
    assert result.returncode == 1
