"""Heuristic mixture-weight predictors driven by pilot-run scores.

Three strategies are provided:

* alpha family - accumulate each dataset's In/Out score sums over the records
  it participated in, min-max normalize both sums, and blend them with a
  trade-off parameter.
* collinearity-aware regression - ridge-regress Out-Score on 0/1 dataset
  participation indicators and deflate each coefficient by its variance
  inflation factor, here defined as the diagonal of the regularized inverse
  Gram matrix (not the classic R^2-based VIF).
* leave-one-out normalization - rank datasets by how much the Out-Score
  drops when they are excluded, via an affine transform of the min-max
  normalized exclude-one scores.

Every predictor consumes the seed records of its input (records that carry
an explicit weight vector); rows without weights, such as the untrained
baseline, are ignored.  m is the largest dataset label among the seed
records, so dropping every record that uses one dataset acts as follows.
Dropping the largest label shrinks m to the largest label left: alpha and
collinearity return that many weights, and leave-one-out needs exclude-one
records over the smaller m.  Dropping any other label leaves a dataset that
no record uses: alpha raises MixLabError, collinearity gives it weight 0.0,
and leave-one-out raises MissingCombination, since every other exclude-one
record used it.  ``TestDroppedDataset`` in the tests pins both on the
bundled fixture.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import check_types
from .errors import (
    AllZeroAdjusted,
    DuplicateCombination,
    EmptyRecords,
    MissingCombination,
    MixLabError,
    MixLabWarning,
    SingularSystem,
)
from .mixtures import MixtureWeights, normalize_to_simplex, seed_all
from .records import BenchmarkSpec, PerformanceRecord, weighted_aggregate

# Affine transform constants mapping normalized exclude-one scores to raw
# weights in [0.1, 0.2]; kept literal (they are not rescaled with m).
LOO_OFFSET = 0.2
LOO_SLOPE = 0.1


@dataclass(frozen=True)
class AlphaConfig:
    """In/Out trade-off ``alpha`` plus damping for single-dataset records."""

    alpha: float = 0.5
    alpha_single: float = 1.0

    def __post_init__(self):
        check_types(self)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.alpha_single <= 1.0:
            raise ValueError("alpha_single must lie in [0, 1]")


def _weighted_indicators(records: Sequence[PerformanceRecord]) -> tuple[list[PerformanceRecord], np.ndarray]:
    """The records that carry weights, and their 0/1 dataset indicators ``X`` ``(n, m)``.

    m is the largest label among those records; EmptyRecords if they name none.
    """
    records = [r for r in records if r.weights is not None]
    labels = [d for r in records for d in r.datasets]
    if not labels:
        raise EmptyRecords("no weighted record names a dataset")
    X = np.zeros((len(records), max(labels)))
    rows = np.repeat(np.arange(len(records)), [len(r.datasets) for r in records])
    X[rows, np.array(labels) - 1] = 1.0
    return records, X


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


def _column_sums(X: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each column's sum of ``values`` over the rows marked in it, added in row order."""
    return np.where(X, values[:, None], 0.0).sum(axis=0, initial=0.0)


def alpha_weights(
    records: Sequence[PerformanceRecord],
    cfg: AlphaConfig = AlphaConfig(),
    *,
    suite: Sequence[BenchmarkSpec],
) -> MixtureWeights:
    """Blend min-max normalized In/Out score sums into mixture weights.

    ``alpha = 1`` optimizes for in-distribution scores only, ``alpha = 0``
    for out-of-distribution only, ``alpha = 0.5`` balances the two.  A
    dataset's sums run over the records that use it, single-dataset records
    scaled by ``alpha_single``.
    """
    records, X = _weighted_indicators(records)
    m = X.shape[1]
    missing = np.flatnonzero(~X.any(axis=0)) + 1
    if missing.size:
        raise MixLabError(f"datasets {missing.tolist()} appear in no record")

    score_rows = [record.scores for record in records]
    damping = np.where(X.sum(axis=1) == 1, cfg.alpha_single, 1.0)
    s_in = _column_sums(X, damping * weighted_aggregate(score_rows, suite, "in"))
    s_out = _column_sums(X, damping * weighted_aggregate(score_rows, suite, "out"))
    norm_in = _min_max(s_in, "In score sums")
    norm_out = _min_max(s_out, "Out score sums")
    if norm_in is None or norm_out is None:
        return seed_all(m)

    combined = cfg.alpha * norm_in + (1.0 - cfg.alpha) * norm_out
    return normalize_to_simplex(combined)


def colinearity_weights(
    records: Sequence[PerformanceRecord],
    lam: float = 1e-3,
    *,
    suite: Sequence[BenchmarkSpec],
) -> MixtureWeights:
    """Ridge-regress Out-Score on participation indicators, deflate by VIF.

    The design matrix has one 0/1 row per record marking which datasets the
    recipe used.  Coefficients are divided by the diagonal of
    ``(X'X + lam*I)^-1``, clamped at zero, and normalized to the simplex.
    """
    records, X = _weighted_indicators(records)
    y = np.array(weighted_aggregate([record.scores for record in records], suite, "out"))
    if lam <= 0:  # what rules out a singular system
        raise SingularSystem("ridge regularization requires lambda > 0")
    gram = X.T @ X + lam * np.eye(X.shape[1])
    beta = np.linalg.solve(gram, X.T @ y)
    vif = np.diag(np.linalg.inv(gram))
    adjusted = np.maximum(0.0, beta / vif)
    if adjusted.sum() <= 0.0:
        raise AllZeroAdjusted("every VIF-adjusted coefficient clamps to zero")
    return normalize_to_simplex(adjusted)


def leave_one_out_weights(
    records: Sequence[PerformanceRecord],
    *,
    suite: Sequence[BenchmarkSpec],
) -> MixtureWeights:
    """Weight each dataset by the exclude-one run that left it out.

    An exclude-one record uses m - 1 of the m datasets.  Higher Out-Score
    without a dataset means the dataset matters less, so the transform
    ``LOO_OFFSET - LOO_SLOPE * normalized_score`` is monotone decreasing; raw
    weights land in [LOO_OFFSET - LOO_SLOPE, LOO_OFFSET] before
    normalization.
    """
    records, X = _weighted_indicators(records)
    m = X.shape[1]
    if m < 2:
        raise EmptyRecords("leave-one-out weighting needs at least two datasets")

    by_missing: dict[int, PerformanceRecord] = {}
    for row in np.flatnonzero(X.sum(axis=1) == m - 1):
        missing_label = int(X[row].argmin()) + 1
        record = records[row]
        if missing_label in by_missing:
            raise DuplicateCombination(
                f"records {by_missing[missing_label].id!r} and {record.id!r} "
                f"both exclude dataset {missing_label}"
            )
        by_missing[missing_label] = record
    absent = sorted(set(range(1, m + 1)) - set(by_missing))
    if absent:
        raise MissingCombination(f"no exclude-one record for datasets {absent}")

    excluded = [by_missing[label].scores for label in range(1, m + 1)]
    out_scores = np.array(weighted_aggregate(excluded, suite, "out"))
    normalized = _min_max(out_scores, "exclude-one out scores")
    if normalized is None:
        return seed_all(m)
    raw = LOO_OFFSET - LOO_SLOPE * normalized
    return normalize_to_simplex(raw)
