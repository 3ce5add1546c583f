"""Mixture-driven training-stream sampler with without-replacement pools.

Each draw is two-stage: pick a domain with probability equal to its mixture
weight (inverse CDF over the cumulative weights, one uniform variate per
draw), then pop the next unseen item from that domain's pre-shuffled pool.
The stream ends the first time the drawn domain's pool is empty; optionally
the sampler can instead drop exhausted domains and renormalize, but the
default follows the stop-on-exhaustion rule.

The sampler sees a domain only as a pool size and a weight: an item is an
index into its domain's pool.  All randomness comes from numpy's seeded PCG64
generator: pool permutations are drawn once at init (domain 0 first), then
one uniform per domain draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateCatalog, DimensionMismatch, Exhausted
from .mixtures import MixtureWeights


@dataclass
class SamplerState:
    """Single-owner mutable stream state; not safe for concurrent mutation."""

    queues: list[np.ndarray]
    positions: list[int]
    rng: np.random.Generator
    cumulative: np.ndarray
    renormalize: bool = False
    steps_emitted: int = 0
    finished: bool = False
    _active: np.ndarray = field(default=None, repr=False)

    def remaining(self, domain: int) -> int:
        return len(self.queues[domain]) - self.positions[domain]


def init(
    pool_sizes: Sequence[int],
    weights: MixtureWeights,
    seed: int | np.random.SeedSequence,
    renormalize: bool = False,
) -> SamplerState:
    """Stream state over pools of ``pool_sizes`` items, domain ``d`` weighted by ``weights[d]``."""
    if weights.m != len(pool_sizes):
        raise DimensionMismatch(f"weights have {weights.m} entries for {len(pool_sizes)} pools")
    if any(size < 1 for size in pool_sizes):
        raise DegenerateCatalog(f"pool sizes must be >= 1, got {list(pool_sizes)}")
    rng = np.random.default_rng(seed)
    queues = [rng.permutation(size) for size in pool_sizes]
    return SamplerState(
        queues=queues,
        positions=[0] * len(queues),
        rng=rng,
        cumulative=np.cumsum(weights.to_array()),
        renormalize=renormalize,
        _active=weights.to_array().copy(),
    )


def draw_domains(cumulative: np.ndarray, weights: np.ndarray, u):
    """Inverse-CDF domain draw for one uniform or an array of them.

    The domain is the number of cumulative weights at or below ``u``.  When
    ``u`` lands at or past the accumulated sum (rounding), it falls back to
    the last positively weighted domain rather than a zero-weight one.  A
    zero-weight domain adds no width to the CDF, so every index short of the
    end already names a positively weighted domain and the cap only moves
    the overshoot.
    """
    last_positive = int(np.flatnonzero(weights > 0.0)[-1])
    return np.minimum(np.searchsorted(cumulative, u, side="right"), last_positive)


def next_sample(state: SamplerState) -> tuple[int, int] | None:
    """Next (domain index, item index), or None once the stream has stopped."""
    if state.finished:
        return None
    while True:
        u = state.rng.random()
        domain = int(draw_domains(state.cumulative, state._active, u))
        if state.remaining(domain) > 0:
            item = int(state.queues[domain][state.positions[domain]])
            state.positions[domain] += 1
            state.steps_emitted += 1
            return domain, item
        if not state.renormalize:
            state.finished = True
            return None
        # drop every exhausted domain and rescale the rest
        active = state._active.copy()
        for d in range(len(state.queues)):
            if state.remaining(d) == 0:
                active[d] = 0.0
        total = active.sum()
        if total <= 0.0:
            state.finished = True
            return None
        state._active = active / total
        state.cumulative = np.cumsum(state._active)


def stream(state: SamplerState, max_steps: int | None = None):
    """Yield samples until the stream stops or ``max_steps`` is reached."""
    count = 0
    while max_steps is None or count < max_steps:
        sample = next_sample(state)
        if sample is None:
            return
        yield sample
        count += 1


def draw_stream(state: SamplerState, max_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Up to ``max_steps`` samples at once, as (domains, items) index arrays.

    Gives the sequence :func:`next_sample` would, stop on exhaustion
    included, from one bulk draw of ``max_steps`` uniforms.  The bulk draw
    runs the generator past the stop, so the state is left finished.
    """
    if state.renormalize:
        raise ValueError("draw_stream follows the stop-on-exhaustion rule only")
    if state.finished:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    m = len(state.queues)
    domains = draw_domains(state.cumulative, state._active, state.rng.random(max_steps))
    # rank[t]: how many times domains[t] was drawn up to and including step t
    hits = domains[:, None] == np.arange(m)
    rank = np.cumsum(hits, axis=0)[np.arange(max_steps), domains]
    remaining = np.array([state.remaining(d) for d in range(m)])
    dry = np.flatnonzero(rank > remaining[domains])
    length = int(dry[0]) if dry.size else max_steps
    domains, rank = domains[:length], rank[:length]
    items = np.empty(length, dtype=np.int64)
    for d in range(m):
        taken = domains == d
        start = state.positions[d]
        items[taken] = state.queues[d][start + rank[taken] - 1]
        state.positions[d] = start + int(taken.sum())
    state.steps_emitted += length
    state.finished = True
    return domains, items


def empirical_frequencies(
    weights: MixtureWeights,
    n: int,
    seed: int,
    pool_sizes: list[int] | None = None,
) -> np.ndarray:
    """Fraction of domain draws per domain over ``n`` two-stage steps.

    With the default pools (n items per domain) exhaustion cannot occur; pass
    explicit ``pool_sizes`` to surface Exhausted when a pool would run dry.
    The domain-draw stage is simulated vectorized with :func:`draw_domains`,
    the rule :func:`next_sample` uses.
    """
    m = weights.m
    sizes = pool_sizes if pool_sizes is not None else [n] * m
    if len(sizes) != m:
        raise DimensionMismatch(f"{len(sizes)} pool sizes for {m} domains")
    weight_array = weights.to_array()
    u = np.random.default_rng(seed).random(n)
    draws = draw_domains(np.cumsum(weight_array), weight_array, u)
    counts = np.bincount(draws, minlength=m)
    over = [d for d in range(m) if counts[d] > sizes[d]]
    if over:
        raise Exhausted(f"domains {over} would run out of items within {n} draws")
    return counts / n
