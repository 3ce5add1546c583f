"""Model-guided mixture proposal: sample near observed mixtures, rank by surrogate.

:func:`propose` reads its records once (``surrogate.fitting_rows``) and fits
the surrogate and the candidate generator's Gaussian to the same mixtures
``W``.  The generator draws raw samples, rejects any with a negative entry,
and rescales the survivors onto the simplex.  Because simplex-constrained
points have a singular sample covariance (entries sum to a constant), a small
diagonal jitter is added before the Cholesky factorization; without it no
factor exists.

Sampling is reproducible across platforms: raw draws are
``mean + Z @ L.T`` where ``L`` is the lower Cholesky factor and ``Z`` holds
standard-normal draws from numpy's seeded PCG64 generator.  The draws are
made and filtered in blocks of ``_BLOCK_ROWS`` rows, so memory follows the
block size and the survivor count, not ``n``.  The result equals one
``(n, m)`` draw bit for bit: consecutive ``standard_normal`` calls continue
one stream, and a matrix product of two or more rows (BLAS ``gemm``) gives
each row the same result whatever the row count.  A one-row product goes
through ``gemv``, which rounds differently, so a trailing one-row block is
folded into the block before it.  ``tests/search_reference.py`` keeps the
one-draw sampler the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import check_types
from .errors import EmptyCandidates, MixLabError, NoSurvivors, TooFewPoints
from .mixtures import MixtureWeights
from .records import BenchmarkSpec, PerformanceRecord
from .surrogate import FitConfig, FitReport, SurrogateModel, cross_validated_fit, fitting_rows, predict_many

DEFAULT_JITTER = 1e-4
_BLOCK_ROWS = 8192  # raw draws per block: the draw's memory follows the block, not n


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


def fit_gaussian(W: np.ndarray, jitter: float = DEFAULT_JITTER) -> GaussianModel:
    """Component-wise mean and maximum-likelihood covariance plus jitter * I of the mixtures ``W``."""
    if len(W) < 2:
        raise TooFewPoints(f"need at least 2 mixtures, got {len(W)}")
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
    """Draw n Gaussian samples, drop negatives, rescale survivors to sum 1: one row each.

    The n draws are made in blocks of ``_BLOCK_ROWS`` rows and each block is
    filtered before the next is drawn; only the survivors are kept.  A block
    takes one extra row rather than leave a one-row block behind it, so for
    n > 1 no block's product runs through ``gemv``, and the rows equal those
    of one ``(n, m)`` draw bit for bit (see the module docstring).
    """
    try:
        chol = np.linalg.cholesky(gm.covariance)
    except np.linalg.LinAlgError as exc:
        raise MixLabError(
            "covariance is not positive definite; increase the jitter"
        ) from exc
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    m = gm.mean.shape[0]
    kept = []
    done = 0
    while done < n:
        rows = min(_BLOCK_ROWS, n - done)
        if n - done - rows == 1:
            rows += 1
        raw = gm.mean + rng.standard_normal((rows, m)) @ chol.T
        kept.append(raw[(raw >= 0.0).all(axis=1)])
        done += rows
    survivors = np.concatenate(kept) if kept else np.empty((0, m))
    if survivors.shape[0] == 0:
        raise NoSurvivors(
            f"all {n} raw samples had a negative entry; enlarge n or the jitter"
        )
    survivors /= survivors.sum(axis=1, keepdims=True)
    return survivors


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
    records: Iterable[PerformanceRecord],
    fit_config: FitConfig = FitConfig(),
    proposal_config: ProposalConfig = ProposalConfig(),
    *,
    suite: Sequence[BenchmarkSpec],
) -> ProposalResult:
    """Full proposal loop: cross-validated surrogate fit, then sample and rank.

    Only records with explicit weight vectors participate; the untrained
    baseline row (no mixture) is excluded from both the surrogate fit and the
    Gaussian fit.  ``records`` is read once, by ``fitting_rows``, so it may be
    a stream: the fit and the Gaussian share its mixtures ``W``.
    """
    W, y = fitting_rows(records, fit_config.target, suite=suite)
    model, report = cross_validated_fit(W, y, fit_config)
    gaussian = fit_gaussian(W, jitter=proposal_config.jitter)
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
