"""Mixture-driven training-stream sampler with without-replacement pools.

Each draw is two-stage: pick a domain with probability equal to its mixture
weight (inverse CDF over the cumulative weights, one uniform variate per
draw), then pop the next unseen item from that domain's pre-shuffled pool.
The stream ends the first time the drawn domain's pool is empty.
:func:`draw_streams` draws many such streams at once from bulk uniforms, as
training and ``mixlab sample`` do; :func:`next_sample`, one draw at a time,
is the per-draw reference the tests hold it to.

The sampler sees a domain only as a pool size and a weight: an item is an
index into its domain's pool.  All randomness comes from numpy's seeded PCG64
generator: pool permutations are drawn once at init (domain 0 first), then
one uniform per domain draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateCatalog, DimensionMismatch
from .mixtures import MixtureWeights

MAX_POOL_SIZE = int(np.iinfo(np.intp).max)  # the longest array numpy can make
# A stream's queue row holds every pool's items as int64, and its uniform row one
# draw more as float64; numpy counts an array's bytes in an intp, so 8 * (total + 1)
# must fit one.  A total under this bound may still not fit in memory.
MAX_POOL_TOTAL = MAX_POOL_SIZE // 8 - 1


@dataclass
class SamplerState:
    """Single-owner mutable stream state; not safe for concurrent mutation."""

    queues: list[np.ndarray]
    positions: list[int]
    rng: np.random.Generator
    weights: np.ndarray
    steps_emitted: int = 0
    finished: bool = False

    def remaining(self, domain: int) -> int:
        return len(self.queues[domain]) - self.positions[domain]


def init(
    pool_sizes: Sequence[int],
    weights: MixtureWeights,
    seed: int | np.random.SeedSequence,
) -> SamplerState:
    """Stream state over pools of ``pool_sizes`` items, domain ``d`` weighted by ``weights[d]``."""
    if weights.m != len(pool_sizes):
        raise DimensionMismatch(f"weights have {weights.m} entries for {len(pool_sizes)} pools")
    if any(not 1 <= size <= MAX_POOL_SIZE for size in pool_sizes):
        raise DegenerateCatalog(f"pool sizes must lie in [1, {MAX_POOL_SIZE}], got {list(pool_sizes)}")
    if sum(pool_sizes) > MAX_POOL_TOTAL:
        raise DegenerateCatalog(f"pool sizes must total at most {MAX_POOL_TOTAL}, got {sum(pool_sizes)}")
    rng = np.random.default_rng(seed)
    queues = [rng.permutation(size) for size in pool_sizes]
    return SamplerState(
        queues=queues,
        positions=[0] * len(queues),
        rng=rng,
        weights=weights.to_array(),
    )


def draw_domains(weights: np.ndarray, u):
    """Inverse-CDF domain draw for one uniform or an array of them.

    ``weights`` is one mixture's ``(m,)`` array, or ``(rows, m)`` with ``u``
    ``(rows, n)``, a mixture per row.  The domain is the number of cumulative
    weights (their running sum along the last axis) at or below ``u``.  When
    ``u`` lands at or past the accumulated sum (rounding), it falls back to
    the last positively weighted domain: a zero-weight domain adds no width
    to the CDF, so only that overshoot can name one.
    """
    cumulative = np.cumsum(weights, axis=-1)
    if weights.ndim == 2:  # a column per domain, each entry compared with its row's uniforms
        cumulative, weights = cumulative[:, None], weights[:, None]
    last_positive = weights.shape[-1] - 1 - (weights[..., ::-1] > 0.0).argmax(axis=-1)
    return np.minimum(sum(column <= u for column in np.moveaxis(cumulative, -1, 0)), last_positive)


def next_sample(state: SamplerState) -> tuple[int, int] | None:
    """Next (domain index, item index), or None once the stream has stopped."""
    if state.finished:
        return None
    domain = int(draw_domains(state.weights, state.rng.random()))
    if state.remaining(domain) == 0:
        state.finished = True
        return None
    item = int(state.queues[domain][state.positions[domain]])
    state.positions[domain] += 1
    state.steps_emitted += 1
    return domain, item


def draw_streams(
    weights: np.ndarray,
    uniforms: np.ndarray,
    available: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stop-on-exhaustion streams of many mixtures at once: ``(domains, ranks, lengths)``.

    Row ``r`` draws its domains from ``uniforms[r]`` with :func:`draw_domains`
    over the mixture ``weights[r]``.  ``ranks[r, t]`` is how many times
    ``domains[r, t]`` was drawn up to and including step ``t``.  A row stops
    at its first draw of a domain ``d`` drawn more often than ``available[d]``
    items allow; ``lengths[r]`` counts the steps before it, and entries from
    there on are not part of its stream.  Both loop over the domains, so no
    ``(rows, steps, m)`` array is built.
    """
    domains = draw_domains(weights, uniforms)
    ranks = np.zeros_like(domains)
    dry = np.zeros(uniforms.shape, dtype=bool)
    for d in range(weights.shape[1]):
        hits = domains == d
        count = np.cumsum(hits, axis=1)
        np.copyto(ranks, count, where=hits)
        dry |= hits & (count > available[d])
    lengths = (~np.logical_or.accumulate(dry, axis=1)).sum(axis=1)
    return domains, ranks, lengths
