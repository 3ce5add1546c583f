"""Response-surface models mapping mixture weights to a performance score.

Two parameterizations are supported: linear (intercept + linear term) and
quadratic (adds a symmetric interaction matrix, evaluated as
``b + a.w + 0.5 * w'Cw``).  Quadratic features use the distinct i <= j
monomials rather than the full m*m outer product: predictions are identical
and the least-squares system avoids exactly duplicated columns, which matters
when fitting ~40 pilot records over 5 domains.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import check_types
from .errors import DimensionMismatch, InsufficientRecords, SingularSystem, ZeroVariance
from .mixtures import MixtureWeights
from .records import BenchmarkSpec, PerformanceRecord, bundled_suite, weighted_aggregate


def quadratic_pairs(m: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i <= j, in lexicographic order."""
    return [(i, j) for i in range(m) for j in range(i, m)]


def design_matrix(mixtures: Sequence[MixtureWeights], degree: int) -> np.ndarray:
    """Rows [1, w_1..w_m] for degree 1, plus all w_i*w_j (i <= j) for degree 2."""
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    if not mixtures:
        raise ValueError("need at least one mixture")
    W = np.array([mx.to_array() for mx in mixtures], dtype=float)
    n, m = W.shape
    columns = [np.ones(n), *(W[:, i] for i in range(m))]
    if degree == 2:
        columns.extend(W[:, i] * W[:, j] for i, j in quadratic_pairs(m))
    return np.column_stack(columns)


def least_squares_fit(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution; well-defined even when rank-deficient."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"{X.shape[0]} rows vs {y.shape[0]} targets")
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    return coef


def ridge_fit(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Ridge coefficients (X'X + lam*I)^-1 X'y; no intercept column is added."""
    if lam <= 0:
        raise SingularSystem("ridge regularization requires lambda > 0")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"{X.shape[0]} rows vs {y.shape[0]} targets")
    gram = X.T @ X + lam * np.eye(X.shape[1])
    return np.linalg.solve(gram, X.T @ y)


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

    @property
    def coefficient_count(self) -> int:
        m = self.m
        return 1 + m + (m * (m + 1) // 2 if self.degree == 2 else 0)

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
        return cls.from_dict(json.loads(Path(path).read_text()))


def model_from_coefficients(beta: np.ndarray, m: int, degree: int) -> SurrogateModel:
    """Convert design-matrix coefficients into the b / a / C parameterization.

    The i == j monomial coefficient equals C_ii / 2 and the i < j coefficient
    equals C_ij (off-diagonal terms appear twice in w'Cw), so predictions of
    the symmetric form match the monomial fit exactly.
    """
    beta = np.asarray(beta, dtype=float)
    intercept = float(beta[0])
    linear = beta[1 : m + 1].copy()
    if degree == 1:
        return SurrogateModel(degree=1, intercept=intercept, linear=linear)
    quad = np.zeros((m, m))
    for (i, j), coef in zip(quadratic_pairs(m), beta[m + 1 :]):
        if i == j:
            quad[i, i] = 2.0 * coef
        else:
            quad[i, j] = quad[j, i] = coef
    return SurrogateModel(degree=2, intercept=intercept, linear=linear, quad=quad)


def predict(model: SurrogateModel, w: MixtureWeights | np.ndarray) -> float:
    arr = w.to_array() if isinstance(w, MixtureWeights) else np.asarray(w, dtype=float)
    if arr.shape != model.linear.shape:
        raise DimensionMismatch(f"mixture has {arr.shape[0]} entries, model expects {model.m}")
    value = model.intercept + float(model.linear @ arr)
    if model.degree == 2:
        value += 0.5 * float(arr @ model.quad @ arr)
    return value


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
    records: Sequence[PerformanceRecord],
    target: str,
    suite: Sequence[BenchmarkSpec] | None = None,
) -> tuple[list[MixtureWeights], np.ndarray]:
    """Extract (mixture, target score) pairs from records that carry weights.

    Records without an explicit weight vector are skipped: they can't anchor a
    point on the simplex.
    """
    if suite is None and target in ("in", "out"):
        suite = bundled_suite()
    mixtures: list[MixtureWeights] = []
    values: list[float] = []
    for record in records:
        if record.weights is None:
            continue
        mixtures.append(record.weights)
        if target in ("in", "out"):
            values.append(weighted_aggregate(record.scores, suite, target))
        else:
            if target not in record.scores:
                raise DimensionMismatch(f"record {record.id!r} has no score for {target!r}")
            values.append(record.scores[target])
    return mixtures, np.asarray(values, dtype=float)


def cross_validated_fit(
    records: Sequence[PerformanceRecord],
    config: FitConfig = FitConfig(),
    suite: Sequence[BenchmarkSpec] | None = None,
) -> tuple[SurrogateModel, FitReport]:
    """Fit on random train/test splits and keep the split with best test R^2.

    Each split shuffles record indices with the seeded generator (PCG64) and
    takes ceil((1 - test_fraction) * n) train rows.  The returned model is the
    one fitted on the winning split's train rows, not a refit on all rows.
    Splits whose drawn rows have constant scores carry R^2 = NaN and are
    skipped when choosing the winner.
    """
    mixtures, y = fitting_rows(records, target=config.target, suite=suite)
    n = len(mixtures)
    if n < 5:
        raise InsufficientRecords(f"need at least 5 weighted records, got {n}")

    m = mixtures[0].m
    X = design_matrix(mixtures, config.degree)
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
        train_idx, test_idx = perm[:n_train], perm[n_train:]
        beta = least_squares_fit(X[train_idx], y[train_idx])
        models.append(model_from_coefficients(beta, m, config.degree))
        train_scores.append(_r_squared_or_nan(X[train_idx] @ beta, y[train_idx]))
        test_scores.append(_r_squared_or_nan(X[test_idx] @ beta, y[test_idx]))

    if all(math.isnan(v) for v in test_scores):
        raise ZeroVariance("every split drew test rows with identical scores")
    best = int(np.nanargmax(test_scores))
    report = FitReport(
        degree=config.degree,
        n_records=n,
        coefficient_count=models[best].coefficient_count,
        train_r2=tuple(train_scores),
        test_r2=tuple(test_scores),
        best_split=best,
    )
    return models[best], report
