"""The list-based scoring, fitting rows and proposal loop the streaming commands are checked against.

These are the package's ``records.weighted_aggregate``/``summarize``,
``surrogate.fitting_rows`` and ``search.propose`` as they were before
``mixlab aggregate``, ``fit`` and ``propose`` streamed their records file:
each takes the whole record list, scores one group over the whole batch at a
time, and raises a fault as soon as it meets one.  ``summarize``'s summaries
carry their record's id, as the package's do.  ``fitting_rows`` returns,
and ``propose`` passes on, the arrays the package's fit and Gaussian take.
:func:`patched` runs the CLI on them, with ``stream_records`` reading the
whole list first, so a differential test can hold the commands' stdout,
stderr and exit code to the list-based path.
"""

from __future__ import annotations

import contextlib
import math
from typing import Mapping, Sequence
from unittest import mock

import numpy as np

from mixlab.errors import DimensionMismatch, EmptyGroup, MissingBenchmark, MixLabError
from mixlab.records import BenchmarkSpec, PerformanceRecord, ScoreSummary, read_records
from mixlab.search import ProposalConfig, ProposalResult, fit_gaussian, rank_candidates, sample_candidates
from mixlab.surrogate import FitConfig, cross_validated_fit


def weighted_aggregate(
    score_rows: Sequence[Mapping[str, float]],
    suite: Sequence[BenchmarkSpec],
    group: str,
) -> list[float]:
    if not score_rows:
        return []
    members = [b for b in suite if b.group == group]
    if not members:
        raise EmptyGroup(f"no benchmarks in group {group!r}")
    total = sum(b.count for b in members)
    try:
        return [math.fsum(b.count * scores[b.name] for b in members) / total for scores in score_rows]
    except KeyError:
        scores = next(s for s in score_rows if not all(b.name in s for b in members))
        missing = [b.name for b in members if b.name not in scores]
        raise MissingBenchmark(f"missing scores for {missing} in group {group!r}") from None


def summarize(records: Sequence[PerformanceRecord], suite: Sequence[BenchmarkSpec]) -> list[ScoreSummary]:
    ids = [record.id for record in records]
    score_rows = [record.scores for record in records]
    return list(map(ScoreSummary, ids, weighted_aggregate(score_rows, suite, "in"),
                    weighted_aggregate(score_rows, suite, "out")))


def fitting_rows(records, target: str, *, suite):
    weighted = [record for record in records if record.weights is not None]
    for record in weighted:
        if record.weights.m != weighted[0].weights.m:
            raise DimensionMismatch(
                f"record {record.id!r} has {record.weights.m} weights, "
                f"the first weighted record has {weighted[0].weights.m}")
        if target not in ("in", "out") and target not in record.scores:
            raise DimensionMismatch(f"record {record.id!r} has no score for {target!r}")
    if target in ("in", "out"):
        values = weighted_aggregate([record.scores for record in weighted], suite, target)
    else:
        values = [record.scores[target] for record in weighted]
    return _rows([record.weights for record in weighted]), np.asarray(values, dtype=float)


def _rows(mixtures):
    """The mixtures as one ``(n, m)`` float array."""
    return np.array([mx.weights for mx in mixtures], dtype=float).reshape(len(mixtures), -1 if mixtures else 0)


def propose(records, fit_config=FitConfig(), proposal_config=ProposalConfig(), *, suite):
    model, report = cross_validated_fit(*fitting_rows(records, fit_config.target, suite=suite), fit_config)
    observed = [r.weights for r in records if r.weights is not None]
    gaussian = fit_gaussian(_rows(observed), jitter=proposal_config.jitter)
    if proposal_config.k == 0:
        return ProposalResult(candidates=[], model=model, report=report)
    rng = np.random.default_rng(proposal_config.seed)
    candidates = sample_candidates(gaussian, proposal_config.n_samples, rng)
    k = proposal_config.k
    if k > len(candidates):
        raise MixLabError(
            f"only {len(candidates)} of {proposal_config.n_samples} samples survived "
            f"the non-negativity filter; cannot return k={k}"
        )
    return ProposalResult(candidates=rank_candidates(model, candidates, k), model=model, report=report)


@contextlib.contextmanager
def patched():
    """``mixlab.cli`` reading whole record lists and scoring and fitting them as above."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch("mixlab.cli.stream_records", read_records))
        stack.enter_context(mock.patch("mixlab.cli.summarize", summarize))
        stack.enter_context(mock.patch("mixlab.cli.propose", propose))
        stack.enter_context(mock.patch("mixlab.cli.fitting_rows", fitting_rows))
        yield
