"""Model-guided mixture proposal: sample near observed mixtures, rank by surrogate.

The candidate generator fits a single Gaussian to the observed mixture
vectors, draws raw samples, rejects any with a negative entry, and rescales
the survivors onto the simplex.  Because simplex-constrained points have a
singular sample covariance (entries sum to a constant), a small diagonal
jitter is added before the Cholesky factorization; without it no factor
exists.

Sampling is reproducible across platforms: raw draws are
``mean + Z @ L.T`` where ``L`` is the lower Cholesky factor and ``Z`` is one
standard-normal block from numpy's seeded PCG64 generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import check_types
from .errors import EmptyCandidates, MixLabError, NoSurvivors, TooFewPoints
from .mixtures import MixtureWeights
from .records import BenchmarkSpec, PerformanceRecord
from .surrogate import FitConfig, FitReport, SurrogateModel, cross_validated_fit, predict_many

DEFAULT_JITTER = 1e-4


@dataclass(frozen=True)
class GaussianModel:
    mean: np.ndarray
    covariance: np.ndarray


@dataclass(frozen=True)
class ProposalConfig:
    n_samples: int = 10000
    k: int = 10
    jitter: float = DEFAULT_JITTER
    seed: int = 0

    def __post_init__(self):
        check_types(self)
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0 <= self.k <= self.n_samples:
            raise ValueError("k must satisfy 0 <= k <= n_samples")
        if not (math.isfinite(self.jitter) and self.jitter >= 0.0):
            raise ValueError(f"jitter must be finite and >= 0, got {self.jitter}")


@dataclass(frozen=True)
class ProposalResult:
    candidates: list[tuple[MixtureWeights, float]]
    model: SurrogateModel
    report: FitReport


def fit_gaussian(mixtures: Sequence[MixtureWeights], jitter: float = DEFAULT_JITTER) -> GaussianModel:
    """Component-wise mean and maximum-likelihood covariance plus jitter * I."""
    if len(mixtures) < 2:
        raise TooFewPoints(f"need at least 2 mixtures, got {len(mixtures)}")
    W = np.array([mx.weights for mx in mixtures], dtype=float)
    mean = W.mean(axis=0)
    centered = W - mean
    cov = centered.T @ centered / W.shape[0]
    cov = (cov + cov.T) / 2.0  # exact symmetry
    cov += jitter * np.eye(W.shape[1])
    return GaussianModel(mean=mean, covariance=cov)


def sample_candidates(
    gm: GaussianModel,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw n Gaussian samples, drop negatives, rescale survivors to sum 1: one row each."""
    try:
        chol = np.linalg.cholesky(gm.covariance)
    except np.linalg.LinAlgError as exc:
        raise MixLabError(
            "covariance is not positive definite; increase the jitter"
        ) from exc
    z = rng.standard_normal((n, gm.mean.shape[0]))
    raw = gm.mean + z @ chol.T
    survivors = raw[(raw >= 0.0).all(axis=1)]
    if survivors.shape[0] == 0:
        raise NoSurvivors(
            f"all {n} raw samples had a negative entry; enlarge n or the jitter"
        )
    return survivors / survivors.sum(axis=1, keepdims=True)


def rank_candidates(
    model: SurrogateModel,
    candidates: np.ndarray,
    k: int,
) -> list[tuple[MixtureWeights, float]]:
    """Top-k candidate rows by predicted score, ties broken by row order; only the k are wrapped."""
    W = np.asarray(candidates, dtype=float)
    if len(W) == 0:
        raise EmptyCandidates("no candidates to rank")
    if k > len(W):
        raise MixLabError(f"k={k} exceeds candidate count {len(W)}")
    if k == 0:
        return []
    scores = predict_many(model, W)
    order = np.argsort(-scores, kind="stable")[:k]
    return [(MixtureWeights(tuple(W[i])), float(scores[i])) for i in order]


def propose(
    records: Sequence[PerformanceRecord],
    fit_config: FitConfig = FitConfig(),
    proposal_config: ProposalConfig = ProposalConfig(),
    *,
    suite: Sequence[BenchmarkSpec],
) -> ProposalResult:
    """Full proposal loop: cross-validated surrogate fit, then sample and rank.

    Only records with explicit weight vectors participate; the untrained
    baseline row (no mixture) is excluded from both the surrogate fit and the
    Gaussian fit.
    """
    model, report = cross_validated_fit(records, fit_config, suite=suite)
    observed = [r.weights for r in records if r.weights is not None]
    gaussian = fit_gaussian(observed, jitter=proposal_config.jitter)
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
    ranked = rank_candidates(model, candidates, k)
    return ProposalResult(candidates=ranked, model=model, report=report)
