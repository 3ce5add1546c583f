"""End-to-end mixture optimization: pilot runs, surrogate fit, proposal, verification.

The flow is: train one pilot per planned seed mixture, fit the cross-validated
surrogate on the pilot records, and sample and rank candidate mixtures.  Each
optional refinement round trains the current proposals, adds their records to
the fitting set, and refits and re-proposes.  After the last round, the final
proposals and the uniform baseline are verified once, with fresh streams the
fitting never saw.  :func:`run_full` with ``refine_rounds=n`` does all of it
in one call; :func:`refine` continues an existing report the same way.

Every training phase (seed, refine, verify) is planned by :func:`plan_phase`
as a list of :class:`~mixlab.grpo.RunSpec` and trained together in one
process by :func:`~mixlab.grpo.train_runs`, which batches the steps of all
runs by the one logit row each step touches, bit-identical to training the
runs one at a time.  Each run's randomness is
``SeedSequence(base_seed, spawn_key=key)`` with a key that names the phase
and the run, so every stage is reproducible and no two runs of a pipeline
share a stream, whatever the plan's size:

* pilot c, rep r      -> key (0, c, r)
* verification v      -> key (1, v)   (shared across mixtures, so
                         candidate-vs-uniform comparisons pair by stream)
* refinement round, c -> key (2, round, c)

Record ids name the same indices: ``seed:{labels}:r{r}``,
``verify:{tag}:{labels}-v{v}`` and ``refine:{round}:{labels}-c{c}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .config import check_types, from_dict
from .errors import EmptyGroup, MissingBenchmark
from .grpo import GrpoConfig, RunSpec, train_runs
from .grpo import train_with_mixture  # noqa: F401  (unused; perfbench/tracing.py patches this binding)
from .mixtures import MixtureWeights, format_mixture, seed_all, seed_exclude_one, seed_single
from .records import BenchmarkSpec, PerformanceRecord, weighted_aggregate, write_records
from .search import ProposalConfig, propose
from .surrogate import FitConfig, FitReport, SurrogateModel, predict
from .world import SyntheticWorld, WorldSpec, make_world, world_spec_from_dict

@dataclass(frozen=True)
class SeedPlan:
    """The pilot runs: every :func:`plan_seed_mixtures` mixture, ``replicates`` times."""

    replicates: int = 1  # pilot runs per planned mixture (distinct streams)

    def __post_init__(self):
        check_types(self)
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")


@dataclass(frozen=True)
class PipelineConfig:
    world_spec: WorldSpec
    world_seed: int = 0
    train: GrpoConfig = field(default_factory=GrpoConfig)
    seed_plan: SeedPlan = field(default_factory=SeedPlan)
    fit: FitConfig = field(default_factory=FitConfig)
    proposal: ProposalConfig = field(default_factory=ProposalConfig)
    verify_seeds: int = 3
    base_seed: int = 42

    def __post_init__(self):
        check_types(self)
        if self.verify_seeds < 1:
            raise ValueError("verify_seeds must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        if self.world_seed < 0:
            raise ValueError("world_seed must be >= 0")


@dataclass(frozen=True)
class ProposalRow:
    """One verified mixture: model prediction vs realized out-scores."""

    weights: MixtureWeights
    predicted: float
    realized: tuple[float, ...]

    @property
    def realized_mean(self) -> float:
        return float(np.mean(self.realized))


@dataclass(frozen=True)
class PipelineReport:
    config: PipelineConfig
    fitting_records: tuple[PerformanceRecord, ...]
    fit_report: FitReport
    model: SurrogateModel
    proposals: tuple[ProposalRow, ...]
    uniform: ProposalRow
    verification_records: tuple[PerformanceRecord, ...]
    refine_rounds: int = 0

    @property
    def delta_vs_uniform(self) -> float:
        """Realized mean of the top predicted mixture minus the uniform baseline."""
        if not self.proposals:
            return 0.0
        return self.proposals[0].realized_mean - self.uniform.realized_mean

    def to_dict(self) -> dict:
        def row_dict(row: ProposalRow) -> dict:
            return {
                "weights": list(row.weights.weights),
                "predicted": row.predicted,
                "realized": list(row.realized),
                "realized_mean": row.realized_mean,
            }

        return {
            "fit_report": self.fit_report.to_dict(),
            "model": self.model.to_dict(),
            "proposals": [row_dict(r) for r in self.proposals],
            "uniform": row_dict(self.uniform),
            "delta_vs_uniform": self.delta_vs_uniform,
            "refine_rounds": self.refine_rounds,
            "n_fitting_records": len(self.fitting_records),
        }

    def summary_table(self) -> str:
        lines = [
            f"fitting records: {len(self.fitting_records)}   "
            f"surrogate degree: {self.fit_report.degree}   "
            f"best split test R^2: {self.fit_report.test_r2[self.fit_report.best_split]:.4f}",
            "",
            f"{'rank':>4}  {'predicted':>9}  {'realized':>9}  mixture",
        ]
        for rank, row in enumerate(self.proposals, start=1):
            lines.append(
                f"{rank:>4}  {row.predicted:>9.4f}  {row.realized_mean:>9.4f}  "
                f"{format_mixture(row.weights)}"
            )
        lines.append(
            f"{'unif':>4}  {self.uniform.predicted:>9.4f}  {self.uniform.realized_mean:>9.4f}  "
            f"{format_mixture(self.uniform.weights)}"
        )
        lines.append("")
        lines.append(f"delta of top predicted mixture vs uniform: {self.delta_vs_uniform:+.4f}")
        return "\n".join(lines)


def plan_seed_mixtures(m: int) -> list[MixtureWeights]:
    """The pilot mixtures: singles, exclude-ones (m >= 2), then all; deduplicated by weight vector.

    With m = 2 the exclude-one mixtures coincide with the singles and drop
    out, leaving 3 planned mixtures; with m = 5 the plan has 11.
    """
    mixtures = [seed_single(i, m) for i in range(m)]
    if m >= 2:
        mixtures += [seed_exclude_one(i, m) for i in range(m)]
    mixtures.append(seed_all(m))
    return list(dict.fromkeys(mixtures))  # MixtureWeights hash and compare by weight vector


class PhasePlan(NamedTuple):
    """Every training run of one phase, in record order, and the trainer settings they share."""

    train: GrpoConfig
    runs: list[RunSpec]


def plan_phase(
    config: PipelineConfig,
    phase: str,
    mixtures: Sequence[tuple[str, MixtureWeights]],
    round_index: int = 0,
) -> PhasePlan:
    """Streams and record ids of one phase's runs, per the module's key table.

    ``phase`` is ``"seed"`` (``replicates`` runs per mixture), ``"verify"``
    (one run per shared verification stream per mixture) or ``"refine"`` (one
    run per mixture in refinement round ``round_index``).  Each mixture comes
    with a tag; only verification record ids carry it.
    """
    def stream(*key: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(config.base_seed, spawn_key=key)

    runs: list[RunSpec] = []
    for c, (tag, mixture) in enumerate(mixtures):
        digits = "".join(str(label) for label in mixture.dataset_labels())
        if phase == "seed":
            reps = config.seed_plan.replicates
            runs += [RunSpec(mixture, stream(0, c, r), f"seed:{digits}:r{r}") for r in range(reps)]
        elif phase == "verify":
            runs += [RunSpec(mixture, stream(1, v), f"verify:{tag}:{digits}-v{v}")
                     for v in range(config.verify_seeds)]
        elif phase == "refine":
            runs.append(RunSpec(mixture, stream(2, round_index, c), f"refine:{round_index}:{digits}-c{c}"))
        else:
            raise ValueError(f"unknown phase {phase!r}")
    return PhasePlan(config.train, runs)


def _run_all(world: SyntheticWorld, plan: PhasePlan) -> list[PerformanceRecord]:
    """Train one phase as one batch (train_runs); every phase's records pass through here."""
    return train_runs(world, plan.runs, plan.train)


def run_seed_phase(config: PipelineConfig, world: SyntheticWorld | None = None) -> list[PerformanceRecord]:
    """Train one pilot run per planned seed mixture and replicate."""
    if world is None:
        world = make_world(config.world_spec, config.world_seed)
    mixtures = [("", mixture) for mixture in plan_seed_mixtures(world.m)]
    return _run_all(world, plan_phase(config, "seed", mixtures))


def run_full(config: PipelineConfig, refine_rounds: int = 0) -> PipelineReport:
    """Pilots, surrogate fit and proposal, ``refine_rounds`` refinement rounds, one verification."""
    if refine_rounds < 0:
        raise ValueError(f"refine_rounds must be >= 0, got {refine_rounds}")
    world = make_world(config.world_spec, config.world_seed)
    _check_scored(config.fit.target, world.benchmarks)
    return _refine_and_verify(config, world, run_seed_phase(config, world=world), 0, refine_rounds)


def _check_scored(target: str, suite: Sequence[BenchmarkSpec]) -> None:
    """Fail before any training when the fit target, or the "out" group verification scores, has no benchmark."""
    if target in ("in", "out"):
        groups = (target, "out")
    elif any(b.name == target for b in suite):
        groups = ("out",)
    else:
        raise MissingBenchmark(f"the fit target {target!r} names no benchmark of the world")
    for group in groups:
        if not any(b.group == group for b in suite):
            raise EmptyGroup(f"no benchmarks in group {group!r}")


def refine(report: PipelineReport, rounds: int) -> PipelineReport:
    """Continue a report by ``rounds`` more refinement rounds, then verify once.

    Each round trains one fresh run per currently proposed mixture, appends
    its record to the fitting set (so the record count grows by k per round)
    and refits and re-proposes.  Zero rounds returns the report unchanged.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if rounds == 0:
        return report
    config = report.config
    world = make_world(config.world_spec, config.world_seed)
    return _refine_and_verify(config, world, report.fitting_records, report.refine_rounds, rounds)


def _refine_and_verify(
    config: PipelineConfig,
    world: SyntheticWorld,
    fitting_records: Sequence[PerformanceRecord],
    done: int,
    rounds: int,
) -> PipelineReport:
    """Propose; run refinement rounds ``done .. done + rounds - 1``; verify the last proposals.

    Only the final proposals (and the uniform baseline) are verified: the
    streams, ids and proposals of a refinement round never depend on a
    verification, so intermediate ones would be trained and thrown away.
    """
    suite = world.benchmarks
    fitting = list(fitting_records)
    result = propose(fitting, config.fit, config.proposal, suite=suite)
    for round_index in range(done, done + rounds):
        mixtures = [("", mixture) for mixture, _ in result.candidates]
        fitting += _run_all(world, plan_phase(config, "refine", mixtures, round_index))
        result = propose(fitting, config.fit, config.proposal, suite=suite)

    uniform = seed_all(world.m)
    to_verify = [(str(c), mixture) for c, (mixture, _) in enumerate(result.candidates)]
    to_verify.append(("uniform", uniform))
    verification_records = _run_all(world, plan_phase(config, "verify", to_verify))
    n = config.verify_seeds
    out_scores = weighted_aggregate([r.scores for r in verification_records], suite, "out")
    realized = [tuple(out_scores[c * n : (c + 1) * n]) for c in range(len(to_verify))]
    proposals = tuple(
        ProposalRow(weights=mixture, predicted=score, realized=realized[c])
        for c, (mixture, score) in enumerate(result.candidates)
    )
    uniform_row = ProposalRow(weights=uniform, predicted=predict(result.model, uniform), realized=realized[-1])
    return PipelineReport(
        config=config,
        fitting_records=tuple(fitting),
        fit_report=result.report,
        model=result.model,
        proposals=proposals,
        uniform=uniform_row,
        verification_records=tuple(verification_records),
        refine_rounds=done + rounds,
    )


def write_report(report: PipelineReport, out_dir: str | Path) -> dict[str, Path]:
    """Write records.jsonl, model.json, report.json, and summary.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "records": out / "records.jsonl",
        "model": out / "model.json",
        "report": out / "report.json",
        "summary": out / "summary.txt",
    }
    write_records(list(report.fitting_records) + list(report.verification_records), paths["records"])
    report.model.save(paths["model"])
    paths["report"].write_text(json.dumps(report.to_dict(), indent=1) + "\n")
    paths["summary"].write_text(report.summary_table() + "\n")
    return paths


def pipeline_config_from_dict(obj: dict) -> PipelineConfig:
    """Build a PipelineConfig from the CLI's JSON config file format (see the README).

    The keys are its fields, the world spec going under ``"world"``; a nested
    dict holds the fields of its dataclass.  Omitted keys take the defaults.
    """
    rest = {key: value for key, value in obj.items() if key != "world"}
    return from_dict(PipelineConfig, rest, world_spec=world_spec_from_dict(obj["world"]))
