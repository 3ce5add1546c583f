"""Command-line surface binding all modules under one binary with subcommands.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors.  Results go to
stdout; diagnostics (including the resolved seed of every run) go to stderr.
Randomized subcommands accept ``--seed`` and fall back to the MIXLAB_SEED
environment variable, so repeated runs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .errors import MixLabError
from .grpo import GrpoConfig, train_with_mixture
from .heuristics import AlphaConfig, alpha_weights, colinearity_weights, leave_one_out_weights
from .mixtures import format_mixture, read_mixture_file
from .pipeline import pipeline_config_from_dict, run_full, write_report
from .pipeline import refine  # noqa: F401  (unused; perfbench/tracing.py patches this binding)
from .records import (
    bundled_suite,
    read_records,
    read_suite,
    serialize_record,
    summarize,
)
from .sampler import init as sampler_init
from .sampler import stream
from .search import ProposalConfig, propose
from .surrogate import FitConfig, cross_validated_fit
from .world import make_world, world_spec_from_dict

ENV_SEED = "MIXLAB_SEED"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems instead of exiting(2)."""

    def error(self, message):
        raise UsageError(message)


def _resolved_seed(value: int | None) -> int:
    if value is None:
        env = os.environ.get(ENV_SEED, "0")
        try:
            value = int(env)
        except ValueError as exc:
            raise UsageError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
    if value < 0:
        raise UsageError(f"the seed must be >= 0, got {value}")
    return value


def _from_options(build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError or TypeError a usage error.

    Wrap only the step that turns options or a config file into objects: a
    ValueError from the work itself (numpy's LinAlgError) is a data error.
    """
    try:
        return build(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc


def _fit_config(args, seed: int) -> FitConfig:
    return _from_options(FitConfig, degree=args.degree, n_splits=args.splits,
                         test_fraction=args.test_fraction, seed=seed, target=args.target)


def _load_suite(path: str | None):
    return read_suite(path) if path else bundled_suite()


def build_parser() -> _Parser:
    parser = _Parser(prog="mixlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mixlab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = sub.add_parser("aggregate",
                       help="recompute In/Out scores for every record in a file")
    p.add_argument("--records", required=True)
    p.add_argument("--suite", default=None, help="benchmark suite JSON (default: bundled)")
    p.add_argument("--pretty", action="store_true", help="aligned table instead of JSONL")

    p = sub.add_parser("heuristic",
                       help="predict mixture weights from pilot records")
    p.add_argument("--method", required=True, choices=["alpha", "coli", "norm"])
    p.add_argument("--records", required=True)
    p.add_argument("--suite", default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--alpha-single", type=float, default=1.0)
    p.add_argument("--lambda", dest="ridge_lambda", type=float, default=1e-3)
    p.add_argument("--m", type=int, default=None, help="dataset count (default: inferred)")

    fit = sub.add_parser("fit", help="cross-validated response-surface fit on weighted records")
    fit.add_argument("--out", default=None, help="also save the model JSON here")
    proposer = sub.add_parser("propose", help="fit a surrogate and emit top-k candidate mixtures")
    proposer.add_argument("--n", type=int, default=10000)
    proposer.add_argument("--k", type=int, default=10)
    proposer.add_argument("--jitter", type=float, default=1e-4)
    for p in (fit, proposer):  # the surrogate-fit options both share
        p.add_argument("--records", required=True)
        p.add_argument("--suite", default=None)
        p.add_argument("--degree", type=int, default=2, choices=[1, 2])
        p.add_argument("--splits", type=int, default=5)
        p.add_argument("--test-fraction", type=float, default=0.2)
        p.add_argument("--target", default="out")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("sample",
                       help="print the (domain,item) training stream for a mixture")
    p.add_argument("--weights", required=True, help="mixture file")
    p.add_argument("--pools", required=True, help="comma-separated pool sizes")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--renormalize", action="store_true",
                   help="drop exhausted domains instead of stopping")

    p = sub.add_parser("simulate",
                       help="train on a synthetic world and append one record")
    p.add_argument("--world", required=True, help="world spec JSON file")
    p.add_argument("--world-seed", type=int, default=0)
    p.add_argument("--weights", required=True, help="mixture file")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--group-size", type=int, default=6)
    p.add_argument("--kl-coeff", type=float, default=0.04)
    p.add_argument("--clip-epsilon", type=float, default=0.2)
    p.add_argument("--peak-lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--id", default=None, help="record id (default: derived)")
    p.add_argument("--out", required=True, help="records file to append to")

    p = sub.add_parser("pipeline",
                       help="run the full seed/fit/propose/verify loop")
    p.add_argument("--config", required=True, help="pipeline config JSON file")
    p.add_argument("--out-dir", default="pipeline-out")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: each training phase runs as one batch in this process")
    p.add_argument("--refine-rounds", type=int, default=0)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MixLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


def _note_seed(seed) -> None:
    print(f"seed: {seed}", file=sys.stderr)


def _cmd_aggregate(args) -> int:
    suite = _load_suite(args.suite)
    records = read_records(args.records, suite=suite)
    if args.pretty:
        print(f"{'id':<16} {'in-score':>9} {'out-score':>9}")
        for record in records:
            s = summarize(record, suite)
            print(f"{record.id:<16} {s.in_score:>9.4f} {s.out_score:>9.4f}")
    else:
        for record in records:
            s = summarize(record, suite)
            print(json.dumps({"id": record.id, "in_score": s.in_score, "out_score": s.out_score}))
    return 0


def _cmd_heuristic(args) -> int:
    cfg = _from_options(AlphaConfig, alpha=args.alpha, alpha_single=args.alpha_single)
    suite = _load_suite(args.suite)
    records = read_records(args.records, suite=suite)
    if args.method == "alpha":
        weights = alpha_weights(records, cfg, m=args.m, suite=suite)
    elif args.method == "coli":
        weights = colinearity_weights(records, lam=args.ridge_lambda, m=args.m, suite=suite)
    else:
        weights = leave_one_out_weights(records, m=args.m, suite=suite)
    print(format_mixture(weights))
    return 0


def _cmd_fit(args) -> int:
    seed = _resolved_seed(args.seed)
    _note_seed(seed)
    fit_config = _fit_config(args, seed)
    suite = _load_suite(args.suite)
    records = read_records(args.records, suite=suite)
    model, report = cross_validated_fit(records, suite=suite, **asdict(fit_config))
    print(json.dumps({"model": model.to_dict(), "report": report.to_dict()}))
    if args.out:
        model.save(args.out)
    return 0


def _cmd_propose(args) -> int:
    seed = _resolved_seed(args.seed)
    _note_seed(seed)
    fit_config = _fit_config(args, seed)
    proposal_config = _from_options(ProposalConfig, n_samples=args.n, k=args.k, jitter=args.jitter, seed=seed)
    suite = _load_suite(args.suite)
    records = read_records(args.records, suite=suite)
    result = propose(records, fit_config, proposal_config, suite=suite)
    for mixture, score in result.candidates:
        print(f"{format_mixture(mixture)}\t{score:.10g}")
    return 0


def _cmd_sample(args) -> int:
    seed = _resolved_seed(args.seed)
    _note_seed(seed)
    weights = read_mixture_file(args.weights)
    try:
        pool_sizes = [int(p) for p in args.pools.split(",") if p.strip()]
    except ValueError as exc:
        raise UsageError(f"--pools must be comma-separated integers: {exc}") from exc
    from .mixtures import DomainCatalog

    catalog = DomainCatalog(
        names=tuple(f"domain-{d}" for d in range(len(pool_sizes))),
        pool_sizes=tuple(pool_sizes),
        reward_kinds=tuple("exact-match" for _ in pool_sizes),
    )
    state = sampler_init(catalog, weights, seed=seed, renormalize=args.renormalize)
    for domain, item in stream(state, max_steps=args.max_steps):
        print(f"({domain},{item})")
    return 0


def _cmd_simulate(args) -> int:
    seed = _resolved_seed(args.seed)
    _note_seed(seed)
    config = _from_options(
        GrpoConfig,
        group_size=args.group_size,
        clip_epsilon=args.clip_epsilon,
        kl_coeff=args.kl_coeff,
        peak_learning_rate=args.peak_lr,
        steps=args.steps,
    )
    spec = world_spec_from_dict(json.loads(Path(args.world).read_text()))
    world = make_world(spec, args.world_seed)
    weights = read_mixture_file(args.weights)
    record = train_with_mixture(world, weights, config, seed, record_id=args.id)
    line = serialize_record(record)
    with open(args.out, "a") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


def _cmd_pipeline(args) -> int:
    if args.refine_rounds < 0:
        raise UsageError(f"--refine-rounds must be >= 0, got {args.refine_rounds}")
    config = _from_options(pipeline_config_from_dict, json.loads(Path(args.config).read_text()))
    _note_seed(config.base_seed)
    report = run_full(config, refine_rounds=args.refine_rounds)
    write_report(report, args.out_dir)
    print(report.summary_table())
    return 0


_COMMANDS = {
    "aggregate": _cmd_aggregate,
    "heuristic": _cmd_heuristic,
    "fit": _cmd_fit,
    "propose": _cmd_propose,
    "sample": _cmd_sample,
    "simulate": _cmd_simulate,
    "pipeline": _cmd_pipeline,
}


if __name__ == "__main__":
    main()
