"""The one-draw candidate sampler: the reference ``mixlab.search.sample_candidates`` is checked against.

All ``n`` raw samples are drawn as one ``(n, m)`` block, multiplied by the
Cholesky factor in one product and filtered at once.  The package draws in
fixed row blocks; the differential tests in ``test_search.py`` run both on the
same Gaussian and seed and require the same array bit for bit, or the same
error.
"""

from __future__ import annotations

import numpy as np

from mixlab.errors import MixLabError, NoSurvivors
from mixlab.search import GaussianModel


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
