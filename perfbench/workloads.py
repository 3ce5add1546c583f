"""Workload set-up, timed bodies and output checks.

mixlab is driven only through ``mixlab.cli.dispatch`` (in-process, stdout
captured) and ``mixlab.rewards.score_pairs``.  Every body returns its phase
timings; every output it can check is counted in a :class:`Checks`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import inputs

SIMPLEX_ATOL = 1e-9
IOU_ATOL = 1e-12
ARTIFACTS = ("records.jsonl", "model.json", "report.json", "summary.txt")


@dataclass
class Checks:
    """Output checks: operations attempted, operations failed, first failures."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


@dataclass
class Setup:
    workload: str
    files: dict
    planned_records: int = 0
    k: int = 0
    expected_pairs: list = field(default_factory=list)
    record_lines: int = 0


def make_inputs(workload: str, seed: int, work: Path) -> Setup:
    """Generate the workload's inputs under ``work``; for pipelines, also build the world."""
    from mixlab.world import make_world, world_spec_from_dict

    work.mkdir(parents=True, exist_ok=True)
    if workload in inputs.PIPELINE_CONFIGS:
        config = inputs.PIPELINE_CONFIGS[workload](seed)
        files = {"config": work / "pipeline.json", "out": work / "out"}
        files["config"].write_text(json.dumps(config) + "\n")
        # The pipeline builds its own world; building it here as well checks the
        # generated config before anything is timed.
        make_world(world_spec_from_dict(config["world"]), config["world_seed"])
        rounds = refine_rounds(workload)
        return Setup(workload, files,
                     planned_records=inputs.planned_record_count(config, rounds),
                     k=config["proposal"]["k"])
    if workload != "offline-analysis":
        raise ValueError(f"unknown workload {workload!r}")
    from importlib import resources

    files = {"records": work / "records.jsonl", "suite": work / "suite.json",
             "pairs": work / "pairs.jsonl", "fixture": work / "table2.jsonl"}
    lines = inputs.write_offline_records(seed, files["records"], files["suite"])
    expected = inputs.write_pairs(seed, files["pairs"])
    files["fixture"].write_text((resources.files("mixlab") / "data" / "table2.jsonl").read_text())
    return Setup(workload, files, k=inputs.PROPOSE_K,
                 expected_pairs=expected, record_lines=lines)


def refine_rounds(workload: str) -> int:
    return 1 if workload == "ragged-refine" else 0


def pipeline_jobs(workload: str) -> int:
    return 2 if workload == "ragged-refine" else 1


def _dispatch(argv: list[str], tracer=None) -> tuple[int, str]:
    from mixlab.cli import dispatch

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = tracer.call("cli.dispatch", dispatch, argv) if tracer is not None else dispatch(argv)
    return code, out.getvalue()


def _on_simplex(weights) -> bool:
    return all(w >= 0.0 for w in weights) and abs(math.fsum(weights) - 1.0) <= SIMPLEX_ATOL


def _parse_mixture(text: str) -> list[float]:
    return [float(v) for v in text.strip().split(",")]


def digest(out_dir: Path) -> dict:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ARTIFACTS}


# --- offline commands ----------------------------------------------------------

def _aggregate(records: Path, suite: Path, expect_lines: int, checks: Checks, tracer) -> float:
    started = perf_counter()
    code, out = _dispatch(["aggregate", "--records", str(records), "--suite", str(suite)], tracer)
    elapsed = perf_counter() - started
    if checks.check(code == 0, f"aggregate exited {code}"):
        checks.check(len(out.splitlines()) == expect_lines,
                     f"aggregate printed {len(out.splitlines())} lines for {expect_lines} records")
    return elapsed


def _fit(records: Path, suite: Path, checks: Checks, tracer) -> float:
    started = perf_counter()
    code, out = _dispatch(["fit", "--records", str(records), "--suite", str(suite),
                           "--degree", "2", "--seed", "0"], tracer)
    elapsed = perf_counter() - started
    if checks.check(code == 0, f"fit exited {code}"):
        test_r2 = json.loads(out)["report"]["test_r2"]
        checks.check(any(v is not None and math.isfinite(v) for v in test_r2),
                     f"fit has no finite test R^2: {test_r2}")
    return elapsed


def _propose(records: Path, suite: Path, n: int, k: int, checks: Checks, tracer) -> float:
    started = perf_counter()
    code, out = _dispatch(["propose", "--records", str(records), "--suite", str(suite),
                           "--n", str(n), "--k", str(k), "--seed", "0"], tracer)
    elapsed = perf_counter() - started
    if checks.check(code == 0, f"propose exited {code}"):
        rows = [line.split("\t") for line in out.splitlines()]
        checks.check(len(rows) == k, f"propose printed {len(rows)} lines, expected {k}")
        scores = [float(score) for _, score in rows]
        checks.check(all(a >= b for a, b in zip(scores, scores[1:])),
                     "propose scores are not non-increasing")
        checks.check(all(_on_simplex(_parse_mixture(mix)) for mix, _ in rows),
                     "a proposed mixture is off the simplex")
    return elapsed


# --- bodies -------------------------------------------------------------------

def pipeline_body(setup: Setup, checks: Checks, digests: list, jobs: int, tracer=None) -> dict:
    """``mixlab pipeline`` on the generated config; checks and digests its artifacts."""
    out_dir = setup.files["out"]
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["pipeline", "--config", str(setup.files["config"]), "--out-dir", str(out_dir),
            "--jobs", str(jobs)]
    if refine_rounds(setup.workload):
        argv += ["--refine-rounds", str(refine_rounds(setup.workload))]
    steps: list[int] = []
    started = perf_counter()
    with _counting_steps(steps):
        code, _ = _dispatch(argv, tracer)
    timings = {"wall_s": perf_counter() - started, "steps": sum(steps),
               "paired_wins": 0, "delta_vs_uniform": 0.0}
    if not checks.check(code == 0, f"pipeline exited {code}"):
        return timings

    timings.update(_check_pipeline_outputs(setup, out_dir, checks))
    current = digest(out_dir)
    if digests:
        checks.check(current == digests[0], f"pipeline digest changed: {current} vs {digests[0]}")
    digests.append(current)
    return timings


@contextlib.contextmanager
def _counting_steps(counts: list):
    """Sum the steps of every record a training phase returns, pool workers included.

    The phase runner is the one place in the parent process that sees every
    record ``train_with_mixture`` returned, including the verification runs
    of refined rounds that never reach records.jsonl.
    """
    import mixlab.pipeline as pipeline

    original = pipeline._run_all

    def counting(tasks, jobs):
        records = original(tasks, jobs)
        counts.append(sum(record.step for record in records))
        return records

    pipeline._run_all = counting
    try:
        yield
    finally:
        pipeline._run_all = original


def _check_pipeline_outputs(setup: Setup, out_dir: Path, checks: Checks) -> dict:
    """Check the written artifacts; return the paired verification outcome."""
    lines = (out_dir / "records.jsonl").read_text().splitlines()
    checks.check(len(lines) == setup.planned_records,
                 f"{len(lines)} records written, {setup.planned_records} planned")
    for line in lines:
        record = json.loads(line)
        checks.check(record["weights"] is not None and _on_simplex(record["weights"]),
                     f"record {record['id']} weights off the simplex")
        checks.check(all(0.0 <= v <= 1.0 for v in record["scores"].values()),
                     f"record {record['id']} has a score outside [0, 1]")
    report = json.loads((out_dir / "report.json").read_text())
    checks.check(len(report["proposals"]) == setup.k,
                 f"{len(report['proposals'])} proposals, expected {setup.k}")
    top, uniform = report["proposals"][0]["realized"], report["uniform"]["realized"]
    return {"paired_wins": sum(t > u for t, u in zip(top, uniform)),
            "delta_vs_uniform": report["delta_vs_uniform"]}


def offline_body(setup: Setup, checks: Checks, digests: list, jobs: int, tracer=None) -> dict:
    """aggregate, fit, propose on 20k records; three heuristics; score_pairs on 50k pairs."""
    from mixlab.rewards import score_pairs

    files = setup.files
    timings = {
        "aggregate_s": _aggregate(files["records"], files["suite"], setup.record_lines, checks, tracer),
        "fit_s": _fit(files["records"], files["suite"], checks, tracer),
        "propose_s": _propose(files["records"], files["suite"], inputs.PROPOSE_N,
                              inputs.PROPOSE_K, checks, tracer),
    }
    heuristic_started = perf_counter()
    for method in ("alpha", "coli", "norm"):
        code, out = _dispatch(["heuristic", "--method", method, "--records", str(files["fixture"])], tracer)
        if checks.check(code == 0, f"heuristic {method} exited {code}"):
            checks.check(_on_simplex(_parse_mixture(out)), f"heuristic {method} weights off the simplex")
    timings["heuristics_s"] = perf_counter() - heuristic_started

    pairs_started = perf_counter()
    with open(files["pairs"]) as fh:
        results = tracer.call("rewards.score_pairs", score_pairs, fh) if tracer is not None else score_pairs(fh)
    timings["score_pairs_s"] = perf_counter() - pairs_started
    timings["pairs"] = len(results)
    timings["wall_s"] = math.fsum(timings[name] for name in
                                  ("aggregate_s", "fit_s", "propose_s", "heuristics_s", "score_pairs_s"))

    expected = setup.expected_pairs
    if checks.check(len(results) == len(expected), f"{len(results)} pairs scored, {len(expected)} generated"):
        for line, (result, (mode, total)) in enumerate(zip(results, expected), start=1):
            ok = result.total == total if mode == "text" else abs(result.total - total) <= IOU_ATOL
            checks.check(ok, f"pair {line} ({mode}) scored {result.total}, planted {total}")
    return timings


def body_for(workload: str):
    return offline_body if workload == "offline-analysis" else pipeline_body
