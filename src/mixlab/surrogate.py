"""Response-surface models mapping mixture weights to a performance score.

Two parameterizations are supported: linear and quadratic, both evaluated as
``b + a.w + 0.5 * w'Cw`` (C is None for the linear one).  Fits use the
Scheffe mixture polynomial ``sum_i beta_i w_i + sum_{i<j} beta_ij w_i w_j``:
on the simplex the intercept equals ``sum_i w_i`` and each ``w_i^2`` equals
``w_i - sum_{j!=i} w_i w_j``, so an intercept and squared terms would only add
columns that are always collinear with these m(m+1)/2.  A fitted model
therefore has ``b = 0`` and a zero diagonal in C; any b / a / C model still
loads and predicts.

:func:`fitting_rows` is the one place where records become fit rows, the
``(n, m)`` mixtures ``W`` and their target scores ``y``; the rest take arrays.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import check_types
from .errors import DimensionMismatch, InsufficientRecords, MixLabError, ZeroVariance
from .mixtures import MixtureWeights
from .records import BenchmarkSpec, PerformanceRecord, group_scorer, raise_first
from .records import weighted_aggregate  # noqa: F401  (unused; perfbench/tracing.py patches this binding)


def quadratic_pairs(m: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i <= j, in lexicographic order."""
    return [(i, j) for i in range(m) for j in range(i, m)]


def design_matrix(W: np.ndarray, degree: int) -> np.ndarray:
    """Scheffe rows [w_1..w_m] of the mixtures ``W`` for degree 1, plus all w_i*w_j (i < j) for degree 2."""
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    if len(W) == 0:
        raise ValueError("need at least one mixture")
    if degree == 1:
        return W
    m = W.shape[1]
    X = np.empty((W.shape[0], m + m * (m - 1) // 2))
    X[:, :m] = W
    for column, (i, j) in enumerate(zip(*np.triu_indices(m, k=1)), start=m):  # no (n, pairs) temporaries
        np.multiply(W[:, i], W[:, j], out=X[:, column])
    return X


def least_squares_fit(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution; well-defined even when rank-deficient."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"{X.shape[0]} rows vs {y.shape[0]} targets")
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    return coef


def r_squared(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """1 - SS_res / SS_tot, with SS_tot about the mean of ``actual``."""
    pred = np.asarray(predicted, dtype=float)
    act = np.asarray(actual, dtype=float)
    if pred.shape != act.shape or act.size == 0:
        raise DimensionMismatch(f"predicted {pred.shape} vs actual {act.shape}")
    mean = act.mean()
    ss_tot = float(((act - mean) ** 2).sum())
    if ss_tot == 0.0:
        raise ZeroVariance("actual values are all identical; R^2 undefined")
    ss_res = float(((act - pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def _r_squared_or_nan(predicted: np.ndarray, actual: np.ndarray) -> float:
    """R^2, or NaN when the rows drawn for one split have constant scores.

    Pilot records can contain replicate runs of one mixture with identical
    realized scores; a split landing only on those rows should not abort the
    whole cross-validation, it is just uninformative.
    """
    try:
        return r_squared(predicted, actual)
    except ZeroVariance:
        return float("nan")


@dataclass(frozen=True)
class SurrogateModel:
    """Fitted response surface; ``quad`` is None for the linear variant."""

    degree: int
    intercept: float
    linear: np.ndarray
    quad: np.ndarray | None = None

    @property
    def m(self) -> int:
        return int(self.linear.shape[0])

    def to_dict(self) -> dict:
        obj = {
            "degree": self.degree,
            "b": self.intercept,
            "a": [float(v) for v in self.linear],
        }
        if self.degree == 2:
            obj["c_upper"] = [float(self.quad[i, j]) for i, j in quadratic_pairs(self.m)]
        return obj

    @classmethod
    def from_dict(cls, obj: dict) -> "SurrogateModel":
        degree = int(obj["degree"])
        linear = np.asarray(obj["a"], dtype=float)
        m = linear.shape[0]
        quad = None
        if degree == 2:
            quad = np.zeros((m, m))
            for (i, j), value in zip(quadratic_pairs(m), obj["c_upper"]):
                quad[i, j] = quad[j, i] = float(value)
        return cls(degree=degree, intercept=float(obj["b"]), linear=linear, quad=quad)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "SurrogateModel":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def model_from_coefficients(beta: np.ndarray, m: int, degree: int) -> SurrogateModel:
    """Convert Scheffe design-matrix coefficients into the b / a / C parameterization.

    b = 0, a_i = beta_i and C_ij = C_ji = beta_ij with a zero diagonal: each
    off-diagonal term appears twice in w'Cw, so 0.5 * w'Cw is the interaction sum.
    """
    beta = np.asarray(beta, dtype=float)
    linear = beta[:m].copy()
    if degree == 1:
        return SurrogateModel(degree=1, intercept=0.0, linear=linear)
    quad = np.zeros((m, m))
    rows, cols = np.triu_indices(m, k=1)
    quad[rows, cols] = quad[cols, rows] = beta[m:]
    return SurrogateModel(degree=2, intercept=0.0, linear=linear, quad=quad)


def predict(model: SurrogateModel, w: MixtureWeights | np.ndarray) -> float:
    """``predict_many`` on the single row ``w``."""
    row = np.asarray(w.weights if isinstance(w, MixtureWeights) else w, dtype=float)
    return float(predict_many(model, row.reshape(1, -1))[0])


def predict_many(model: SurrogateModel, W: np.ndarray) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    if W.shape[1] != model.m:
        raise DimensionMismatch(f"candidates have {W.shape[1]} columns, model expects {model.m}")
    values = model.intercept + W @ model.linear
    if model.degree == 2:
        values = values + 0.5 * np.einsum("ni,ij,nj->n", W, model.quad, W)
    return values


# --- cross-validated fitting --------------------------------------------------

@dataclass(frozen=True)
class FitConfig:
    degree: int = 2
    n_splits: int = 5
    test_fraction: float = 0.2
    seed: int = 0
    target: str = "out"  # "in", "out", or a benchmark name

    def __post_init__(self):
        check_types(self)
        if self.degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {self.degree}")
        if self.n_splits < 1:
            raise ValueError("n_splits must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class FitReport:
    degree: int
    n_records: int
    coefficient_count: int
    train_r2: tuple[float, ...]
    test_r2: tuple[float, ...]
    best_split: int

    def to_dict(self) -> dict:
        # NaN (degenerate split) maps to null so the report stays strict JSON
        def clean(values):
            return [v if math.isfinite(v) else None for v in values]

        return {
            "degree": self.degree,
            "n_records": self.n_records,
            "coefficient_count": self.coefficient_count,
            "train_r2": clean(self.train_r2),
            "test_r2": clean(self.test_r2),
            "best_split": self.best_split,
        }


def fitting_rows(
    records: Iterable[PerformanceRecord],
    target: str,
    *,
    suite: Sequence[BenchmarkSpec],
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, m)`` mixtures of the records that carry weights, and their target scores, in one pass.

    Records without an explicit weight vector are skipped: they can't anchor a
    point on the simplex.  Only the weights and target values are kept, as
    flat float arrays, so ``records`` may be a stream
    (:func:`~mixlab.records.stream_records`).  A fault is raised once the
    stream has ended, so a parse fault on any line still comes first: a
    mixture whose length differs from the first's or a missing target
    benchmark, at the first such record, before a fault in scoring the
    target group.
    """
    score = group_scorer(suite, target) if target in ("in", "out") else None
    m = 0
    rows, values = array("d"), array("d")  # the kept mixtures' weights, row after row, and their targets
    faults: list[MixLabError | None] = [None, None]  # the first row fault, the first scoring fault
    for record in records:
        weights = record.weights
        if weights is None or faults[0] is not None:
            continue
        m = m or weights.m
        if weights.m != m:
            faults[0] = DimensionMismatch(
                f"record {record.id!r} has {weights.m} weights, the first weighted record has {m}")
        elif score is None and target not in record.scores:
            faults[0] = DimensionMismatch(f"record {record.id!r} has no score for {target!r}")
        elif faults[1] is None:
            rows.extend(weights.weights)
            try:
                values.append(record.scores[target] if score is None else score(record.scores))
            except MixLabError as exc:
                faults[1] = exc
    raise_first(faults)
    return np.frombuffer(rows).reshape(len(values), m), np.frombuffer(values)


def _fit_split(
    W: np.ndarray, y: np.ndarray, train_idx: np.ndarray, test_idx: np.ndarray, degree: int,
) -> tuple[np.ndarray, float, float]:
    """One split's Scheffe coefficients, train R^2 and test R^2.

    Its design rows are built from its own mixtures: the same values as those
    rows of the whole design matrix, which is never held.  They are freed on
    return, before the next split builds its own.
    """
    X_train = design_matrix(W[train_idx], degree)
    beta = least_squares_fit(X_train, y[train_idx])
    return (beta, _r_squared_or_nan(X_train @ beta, y[train_idx]),
            _r_squared_or_nan(design_matrix(W[test_idx], degree) @ beta, y[test_idx]))


def cross_validated_fit(
    W: np.ndarray, y: np.ndarray, config: FitConfig = FitConfig(),
) -> tuple[SurrogateModel, FitReport]:
    """Fit the rows ``(W, y)`` of :func:`fitting_rows` on random train/test splits; keep the best test R^2.

    Each split shuffles row indices with the seeded generator (PCG64) and
    takes ceil((1 - test_fraction) * n) train rows.  The returned model is the
    one fitted on the winning split's train rows, not a refit on all rows.
    Splits whose drawn rows have constant scores carry R^2 = NaN and are
    skipped when choosing the winner.
    """
    if W.ndim != 2 or len(W) != len(y):
        raise DimensionMismatch(f"mixtures of shape {W.shape} vs {len(y)} scores")
    n, m = W.shape
    if n < 5:
        raise InsufficientRecords(f"need at least 5 weighted records, got {n}")

    n_train = math.ceil((1.0 - config.test_fraction) * n)
    if n_train == n:
        raise InsufficientRecords(
            f"test fraction {config.test_fraction} leaves no test rows among {n} records")

    rng = np.random.default_rng(config.seed)
    models: list[SurrogateModel] = []
    train_scores: list[float] = []
    test_scores: list[float] = []
    for _ in range(config.n_splits):
        perm = rng.permutation(n)
        beta, train_r2, test_r2 = _fit_split(W, y, perm[:n_train], perm[n_train:], config.degree)
        models.append(model_from_coefficients(beta, m, config.degree))
        train_scores.append(train_r2)
        test_scores.append(test_r2)

    if all(math.isnan(v) for v in test_scores):
        raise ZeroVariance("every split drew test rows with identical scores")
    best = int(np.nanargmax(test_scores))
    report = FitReport(
        degree=config.degree,
        n_records=n,
        coefficient_count=len(beta),
        train_r2=tuple(train_scores),
        test_r2=tuple(test_scores),
        best_split=best,
    )
    return models[best], report
