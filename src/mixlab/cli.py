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
from dataclasses import fields
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
    """argparse variant that reports usage problems instead of exiting(2).

    A flag left off is absent from the parsed namespace: each setting's one
    default lives in the config dataclass or function the flag feeds.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, argument_default=argparse.SUPPRESS, **kwargs)

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
    """``build(*args, **kwargs)``, its ValueError, TypeError or KeyError a usage error.

    Wrap only the step that turns options or a config file into objects: a
    ValueError from the work itself (numpy's LinAlgError) is a data error.
    """
    try:
        return build(*args, **kwargs)
    except KeyError as exc:
        raise UsageError(f"missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc


def _given(args, *names: str) -> dict:
    """The flags among ``names`` (their ``dest``) given on the command line."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _config(cls, args, **resolved):
    """``cls`` from the given flags named after its fields, and ``resolved`` values."""
    return _from_options(cls, **{**_given(args, *(f.name for f in fields(cls))), **resolved})


def _read_config(path: str, from_dict):
    """``from_dict`` of the JSON object in a config file."""
    obj = _from_options(json.loads, Path(path).read_text())  # json.JSONDecodeError is a ValueError
    if not isinstance(obj, dict):
        raise UsageError(f"{path} does not hold a JSON object")
    return _from_options(from_dict, obj)


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


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
    p.add_argument("--pretty", action="store_true", default=False, help="aligned table instead of JSONL")

    p = sub.add_parser("heuristic",
                       help="predict mixture weights from pilot records")
    p.add_argument("--method", required=True, choices=["alpha", "coli", "norm"])
    p.add_argument("--records", required=True)
    p.add_argument("--suite", default=None)
    p.add_argument("--alpha", type=float)
    p.add_argument("--alpha-single", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--m", type=int, default=None, help="dataset count (default: inferred)")

    fit = sub.add_parser("fit", help="cross-validated response-surface fit on weighted records")
    fit.add_argument("--out", default=None, help="also save the model JSON here")
    proposer = sub.add_parser("propose", help="fit a surrogate and emit top-k candidate mixtures")
    proposer.add_argument("--n", dest="n_samples", type=int)
    proposer.add_argument("--k", type=int)
    proposer.add_argument("--jitter", type=float)
    for p in (fit, proposer):  # the surrogate-fit options both share
        p.add_argument("--records", required=True)
        p.add_argument("--suite", default=None)
        p.add_argument("--degree", type=int)
        p.add_argument("--splits", dest="n_splits", type=int)
        p.add_argument("--test-fraction", type=float)
        p.add_argument("--target")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("sample",
                       help="print the (domain,item) training stream for a mixture")
    p.add_argument("--weights", required=True, help="mixture file")
    p.add_argument("--pools", required=True, help="comma-separated pool sizes")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--renormalize", action="store_true", default=False,
                   help="drop exhausted domains instead of stopping")

    p = sub.add_parser("simulate",
                       help="train on a synthetic world and append one record")
    p.add_argument("--world", required=True, help="world spec JSON file")
    p.add_argument("--world-seed", type=int, default=0)
    p.add_argument("--weights", required=True, help="mixture file")
    p.add_argument("--steps", type=int)
    p.add_argument("--group-size", type=int)
    p.add_argument("--kl-coeff", type=float)
    p.add_argument("--clip-epsilon", type=float)
    p.add_argument("--peak-lr", dest="peak_learning_rate", type=float)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--id", default=None, help="record id (default: derived)")
    p.add_argument("--out", required=True, help="records file to append to")

    p = sub.add_parser("pipeline",
                       help="run the full seed/fit/propose/verify loop")
    p.add_argument("--config", required=True, help="pipeline config JSON file")
    p.add_argument("--out-dir", default="pipeline-out")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: each training phase runs as one batch in this process")
    p.add_argument("--refine-rounds", type=_non_negative)

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
    cfg = _config(AlphaConfig, args)
    suite = _load_suite(args.suite)
    records = read_records(args.records, suite=suite)
    if args.method == "alpha":
        weights = alpha_weights(records, cfg, m=args.m, suite=suite)
    elif args.method == "coli":
        weights = colinearity_weights(records, m=args.m, suite=suite, **_given(args, "lam"))
    else:
        weights = leave_one_out_weights(records, m=args.m, suite=suite)
    print(format_mixture(weights))
    return 0


def _cmd_fit(args) -> int:
    seed = _resolved_seed(args.seed)
    _note_seed(seed)
    fit_config = _config(FitConfig, args, seed=seed)
    suite = _load_suite(args.suite)
    records = read_records(args.records, suite=suite)
    model, report = cross_validated_fit(records, fit_config, suite=suite)
    print(json.dumps({"model": model.to_dict(), "report": report.to_dict()}))
    if args.out:
        model.save(args.out)
    return 0


def _cmd_propose(args) -> int:
    seed = _resolved_seed(args.seed)
    _note_seed(seed)
    fit_config = _config(FitConfig, args, seed=seed)
    proposal_config = _config(ProposalConfig, args, seed=seed)
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
    state = sampler_init(pool_sizes, weights, seed=seed, renormalize=args.renormalize)
    for domain, item in stream(state, max_steps=args.max_steps):
        print(f"({domain},{item})")
    return 0


def _cmd_simulate(args) -> int:
    seed = _resolved_seed(args.seed)
    _note_seed(seed)
    config = _config(GrpoConfig, args)
    spec = _read_config(args.world, world_spec_from_dict)
    world = make_world(spec, args.world_seed)
    weights = read_mixture_file(args.weights)
    record = train_with_mixture(world, weights, config, seed, record_id=args.id)
    line = serialize_record(record)
    with open(args.out, "a") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


def _cmd_pipeline(args) -> int:
    config = _read_config(args.config, pipeline_config_from_dict)
    _note_seed(config.base_seed)
    report = run_full(config, **_given(args, "refine_rounds"))
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
