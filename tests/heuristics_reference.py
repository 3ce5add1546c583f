"""The per-label heuristics the package's ``mixlab.heuristics`` is checked against.

Each predictor here filters the weighted records, infers or takes ``m`` and
loops over every record's labels itself, as the package did before its three
heuristics read the records through one helper.  ``colinearity_weights``
solves its ridge system with the local :func:`ridge_fit`.  The differential
test in ``test_heuristics.py`` runs both on the same records and requires the
same weights or the same error type.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mixlab.errors import (
    AllZeroAdjusted,
    DuplicateCombination,
    EmptyRecords,
    MissingCombination,
    MixLabError,
    MixLabWarning,
    SingularSystem,
)
from mixlab.heuristics import AlphaConfig
from mixlab.mixtures import MixtureWeights, normalize_to_simplex
from mixlab.records import BenchmarkSpec, PerformanceRecord, weighted_aggregate

# Affine transform constants mapping normalized exclude-one scores to raw
# weights in [0.1, 0.2]; kept literal (they are not rescaled with m).
LOO_OFFSET = 0.2
LOO_SLOPE = 0.1


@dataclass(frozen=True)
class ScoreSums:
    """Per-dataset accumulated In/Out score sums."""

    s_in: np.ndarray
    s_out: np.ndarray


def ridge_fit(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Ridge coefficients (X'X + lam*I)^-1 X'y; no intercept column is added."""
    if lam <= 0:
        raise SingularSystem("ridge regularization requires lambda > 0")
    gram = X.T @ X + lam * np.eye(X.shape[1])
    return np.linalg.solve(gram, X.T @ y)


def _infer_m(records: Sequence[PerformanceRecord], m: int | None) -> int:
    if m is not None:
        return m
    labels = [d for r in records for d in r.datasets]
    if not labels:
        raise EmptyRecords("no participating datasets found; cannot infer m")
    return max(labels)


def _min_max(values: np.ndarray, what: str) -> np.ndarray | None:
    """Min-max normalize; None signals the all-equal degenerate case."""
    spread = values.max() - values.min()
    if spread == 0.0:
        warnings.warn(
            f"all {what} are equal; min-max normalization is undefined, "
            "falling back to uniform weights",
            MixLabWarning,
        )
        return None
    return (values - values.min()) / spread


def score_sums(
    records: Sequence[PerformanceRecord],
    cfg: AlphaConfig,
    m: int,
    suite: Sequence[BenchmarkSpec],
) -> ScoreSums:
    """Accumulate per-dataset In/Out sums, damping single-dataset records."""
    s_in = np.zeros(m)
    s_out = np.zeros(m)
    score_rows = [record.scores for record in records]
    in_scores = weighted_aggregate(score_rows, suite, "in")
    out_scores = weighted_aggregate(score_rows, suite, "out")
    for record, in_score, out_score in zip(records, in_scores, out_scores):
        if len(record.datasets) == 1:
            in_score *= cfg.alpha_single
            out_score *= cfg.alpha_single
        for label in record.datasets:
            if not 1 <= label <= m:
                raise MixLabError(f"record {record.id!r} uses dataset label {label} > m={m}")
            s_in[label - 1] += in_score
            s_out[label - 1] += out_score
    return ScoreSums(s_in=s_in, s_out=s_out)


def alpha_weights(
    records: Sequence[PerformanceRecord],
    cfg: AlphaConfig = AlphaConfig(),
    m: int | None = None,
    *,
    suite: Sequence[BenchmarkSpec],
) -> MixtureWeights:
    """Blend min-max normalized In/Out score sums into mixture weights.

    ``alpha = 1`` optimizes for in-distribution scores only, ``alpha = 0``
    for out-of-distribution only, ``alpha = 0.5`` balances the two.
    """
    records = [r for r in records if r.weights is not None]
    if not records:
        raise EmptyRecords("no records to accumulate")
    m = _infer_m(records, m)
    seen = {d for r in records for d in r.datasets}
    missing = sorted(set(range(1, m + 1)) - seen)
    if missing:
        raise MixLabError(f"datasets {missing} appear in no record")

    sums = score_sums(records, cfg, m, suite)
    norm_in = _min_max(sums.s_in, "In score sums")
    norm_out = _min_max(sums.s_out, "Out score sums")
    if norm_in is None or norm_out is None:
        return MixtureWeights(tuple([1.0 / m] * m))

    combined = cfg.alpha * norm_in + (1.0 - cfg.alpha) * norm_out
    return normalize_to_simplex(combined)


def colinearity_weights(
    records: Sequence[PerformanceRecord],
    lam: float = 1e-3,
    m: int | None = None,
    *,
    suite: Sequence[BenchmarkSpec],
) -> MixtureWeights:
    """Ridge-regress Out-Score on participation indicators, deflate by VIF.

    The design matrix has one 0/1 row per record marking which datasets the
    recipe used.  Coefficients are divided by the diagonal of
    ``(X'X + lam*I)^-1``, clamped at zero, and normalized to the simplex.
    """
    records = [r for r in records if r.weights is not None]
    if not records:
        raise EmptyRecords("no records to regress on")
    m = _infer_m(records, m)

    X = np.zeros((len(records), m))
    for row, record in enumerate(records):
        for label in record.datasets:
            if not 1 <= label <= m:
                raise MixLabError(f"record {record.id!r} uses dataset label {label} > m={m}")
            X[row, label - 1] = 1.0
    y = np.array(weighted_aggregate([record.scores for record in records], suite, "out"))

    # ridge_fit validates lam > 0, which is what rules out a singular system
    beta = ridge_fit(X, y, lam)
    gram_inv = np.linalg.inv(X.T @ X + lam * np.eye(m))
    vif = np.diag(gram_inv)
    adjusted = np.maximum(0.0, beta / vif)
    if adjusted.sum() <= 0.0:
        raise AllZeroAdjusted("every VIF-adjusted coefficient clamps to zero")
    return normalize_to_simplex(adjusted)


def leave_one_out_weights(
    records: Sequence[PerformanceRecord],
    m: int | None = None,
    *,
    suite: Sequence[BenchmarkSpec],
) -> MixtureWeights:
    """Weight each dataset by the exclude-one run that left it out.

    Higher Out-Score without a dataset means the dataset matters less, so the
    transform ``LOO_OFFSET - LOO_SLOPE * normalized_score`` is monotone
    decreasing; raw weights land in [LOO_OFFSET - LOO_SLOPE, LOO_OFFSET]
    before normalization.
    """
    records = [r for r in records if r.weights is not None]
    m = _infer_m(records, m)
    if m < 2:
        raise EmptyRecords("leave-one-out weighting needs at least two datasets")

    full = frozenset(range(1, m + 1))
    by_missing: dict[int, PerformanceRecord] = {}
    for record in records:
        used = frozenset(record.datasets)
        if len(used) != m - 1 or not used <= full:
            continue
        (missing_label,) = full - used
        if missing_label in by_missing:
            raise DuplicateCombination(
                f"records {by_missing[missing_label].id!r} and {record.id!r} "
                f"both exclude dataset {missing_label}"
            )
        by_missing[missing_label] = record
    absent = sorted(full - set(by_missing))
    if absent:
        raise MissingCombination(f"no exclude-one record for datasets {absent}")

    excluded = [by_missing[label].scores for label in range(1, m + 1)]
    out_scores = np.array(weighted_aggregate(excluded, suite, "out"))
    normalized = _min_max(out_scores, "exclude-one out scores")
    if normalized is None:
        return MixtureWeights(tuple([1.0 / m] * m))
    raw = LOO_OFFSET - LOO_SLOPE * normalized
    return normalize_to_simplex(raw)
