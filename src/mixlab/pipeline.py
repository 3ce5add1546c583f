"""End-to-end mixture optimization: pilot runs, surrogate fit, proposal, verification.

The flow is: train one pilot per planned seed mixture, fit the cross-validated
surrogate on the pilot records, and sample and rank candidate mixtures.  Each
optional refinement round trains the current proposals, adds their records to
the fitting set, and refits and re-proposes.  After the last round, the final
proposals and the uniform baseline are verified once, with fresh seeds the
fitting never saw.  :func:`run_full` with ``refine_rounds=n`` does all of it
in one call; :func:`refine` continues an existing report the same way.

Every training phase (seed, refine, verify) is planned by :func:`plan_phase`
as a list of :class:`~mixlab.grpo.RunSpec` and trained in one process as one
lockstep batch by :func:`~mixlab.grpo.train_runs`.
Seed bookkeeping is all fixed arithmetic on the config's ``base_seed`` so
every stage is reproducible and the fitting and verification run sets stay
disjoint by construction:

* pilot j, rep r    -> base_seed + j * replicates + r
* verification v    -> base_seed + 10_000 + v   (shared across mixtures, so
                       candidate-vs-uniform comparisons pair by seed)
* refinement r, c   -> base_seed + 20_000 + 1_000 * r + c

Run provenance is also tagged in record ids (``seed:``, ``verify:``,
``refine:`` prefixes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch
from .grpo import GrpoConfig, RunSpec, train_runs
from .grpo import train_with_mixture  # noqa: F401  (unused; perfbench/tracing.py patches this binding)
from .mixtures import MixtureWeights, format_mixture, seed_all, seed_exclude_one, seed_single
from .records import PerformanceRecord, weighted_aggregate, write_records
from .search import ProposalConfig, propose
from .surrogate import FitConfig, FitReport, SurrogateModel, predict
from .world import SyntheticWorld, WorldSpec, make_world, world_spec_from_dict

VERIFY_SEED_OFFSET = 10_000
REFINE_SEED_OFFSET = 20_000
REFINE_ROUND_STRIDE = 1_000


@dataclass(frozen=True)
class SeedPlan:
    singles: bool = True
    exclude_ones: bool = True
    include_all: bool = True
    replicates: int = 1  # pilot runs per planned mixture (distinct seeds)

    def __post_init__(self):
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
    records_path: str | None = None  # reuse pilot records instead of training them

    def __post_init__(self):
        if self.verify_seeds < 1:
            raise ValueError("verify_seeds must be >= 1")
        if not (self.seed_plan.singles or self.seed_plan.exclude_ones or self.seed_plan.include_all):
            raise ValueError("the seed plan must include at least one mixture")


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
    verify_seeds_used: tuple[int, ...]
    refine_rounds: int = 0

    @property
    def delta_vs_uniform(self) -> float:
        """Realized mean of the top predicted mixture minus the uniform baseline."""
        if not self.proposals:
            return 0.0
        return self.proposals[0].realized_mean - self.uniform.realized_mean

    @property
    def best_proposal(self) -> ProposalRow | None:
        if not self.proposals:
            return None
        return max(self.proposals, key=lambda row: row.realized_mean)

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
            "verify_seeds_used": list(self.verify_seeds_used),
            "refine_rounds": self.refine_rounds,
            "n_fitting_records": len(self.fitting_records),
        }

    def summary_table(self) -> str:
        lines = [
            f"fitting records: {len(self.fitting_records)}   "
            f"surrogate degree: {self.fit_report.degree}   "
            f"best split test R^2: {max(self.fit_report.test_r2):.4f}",
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


def plan_seed_mixtures(plan: SeedPlan, m: int) -> list[MixtureWeights]:
    """Seed suite in canonical order, deduplicated by weight vector.

    With m = 2 the exclude-one mixtures coincide with the singles and drop
    out, leaving 3 planned mixtures; with m = 5 the full plan has 11.
    """
    planned: list[MixtureWeights] = []
    seen: set[tuple[float, ...]] = set()

    def push(mix: MixtureWeights) -> None:
        if mix.weights not in seen:
            seen.add(mix.weights)
            planned.append(mix)

    if plan.singles:
        for i in range(m):
            push(seed_single(i, m))
    if plan.exclude_ones and m >= 2:
        for i in range(m):
            push(seed_exclude_one(i, m))
    if plan.include_all:
        push(seed_all(m))
    return planned


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
    """Seeds and record ids of one phase's runs, per the module's seed table.

    ``phase`` is ``"seed"`` (``replicates`` runs per mixture), ``"verify"``
    (one run per shared verification seed per mixture) or ``"refine"`` (one
    run per mixture in refinement round ``round_index``).  Each mixture comes
    with a tag; only verification record ids carry it.
    """
    base = config.base_seed
    runs: list[RunSpec] = []
    for c, (tag, mixture) in enumerate(mixtures):
        digits = "".join(str(label) for label in mixture.dataset_labels())
        if phase == "seed":
            reps = config.seed_plan.replicates
            runs += [RunSpec(mixture, base + c * reps + r, f"seed:{digits}:r{r}") for r in range(reps)]
        elif phase == "verify":
            runs += [RunSpec(mixture, seed, f"verify:{tag}:{digits}-s{seed}") for seed in verify_seeds(config)]
        elif phase == "refine":
            seed = base + REFINE_SEED_OFFSET + REFINE_ROUND_STRIDE * round_index + c
            runs.append(RunSpec(mixture, seed, f"refine:{round_index}:{digits}-s{seed}"))
        else:
            raise ValueError(f"unknown phase {phase!r}")
    return PhasePlan(config.train, runs)


def verify_seeds(config: PipelineConfig) -> list[int]:
    """Verification seeds; every verified mixture uses all of them, so runs pair by seed."""
    return [config.base_seed + VERIFY_SEED_OFFSET + v for v in range(config.verify_seeds)]


def _run_all(world: SyntheticWorld, plan: PhasePlan) -> list[PerformanceRecord]:
    """Train one phase as a single lockstep batch; every phase's records pass through here."""
    return train_runs(world, plan.runs, plan.train)


def run_seed_phase(config: PipelineConfig, world: SyntheticWorld | None = None) -> list[PerformanceRecord]:
    """Train one pilot run per planned seed mixture and replicate."""
    if world is None:
        world = make_world(config.world_spec, config.world_seed)
    mixtures = [("", mixture) for mixture in plan_seed_mixtures(config.seed_plan, world.m)]
    return _run_all(world, plan_phase(config, "seed", mixtures))


def run_full(config: PipelineConfig, refine_rounds: int = 0) -> PipelineReport:
    """Pilots, surrogate fit and proposal, ``refine_rounds`` refinement rounds, one verification."""
    if refine_rounds < 0:
        raise ValueError(f"refine_rounds must be >= 0, got {refine_rounds}")
    world = make_world(config.world_spec, config.world_seed)
    if config.records_path is not None:
        from .records import read_records

        fitting_records = read_records(config.records_path, suite=world.suite())
        for record in fitting_records:
            if record.weights is not None and record.weights.m != world.m:
                raise DimensionMismatch(
                    f"record {record.id!r} in {config.records_path} has {record.weights.m} "
                    f"weights for a world with {world.m} domains"
                )
    else:
        fitting_records = run_seed_phase(config, world=world)
    return _refine_and_verify(config, world, fitting_records, 0, refine_rounds)


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
    seeds, ids and proposals of a refinement round never depend on a
    verification, so intermediate ones would be trained and thrown away.
    """
    suite = world.suite()
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
    realized = [
        tuple(weighted_aggregate(r.scores, suite, "out") for r in verification_records[c * n : (c + 1) * n])
        for c in range(len(to_verify))
    ]
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
        verify_seeds_used=tuple(verify_seeds(config)),
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
    """Build a PipelineConfig from the CLI's JSON config file format."""
    from .rewards import RewardWeights

    world_spec = world_spec_from_dict(obj["world"])
    train_kwargs = dict(obj.get("train", {}))
    if isinstance(train_kwargs.get("reward_weights"), dict):
        train_kwargs["reward_weights"] = RewardWeights(**train_kwargs["reward_weights"])
    train = GrpoConfig(**train_kwargs)
    plan = SeedPlan(**obj.get("seed_plan", {}))
    fit = FitConfig(**obj.get("fit", {}))
    proposal = ProposalConfig(**obj.get("proposal", {}))
    return PipelineConfig(
        world_spec=world_spec,
        world_seed=int(obj.get("world_seed", 0)),
        train=train,
        seed_plan=plan,
        fit=fit,
        proposal=proposal,
        verify_seeds=int(obj.get("verify_seeds", 3)),
        base_seed=int(obj.get("base_seed", 42)),
        records_path=obj.get("records_path"),
    )
