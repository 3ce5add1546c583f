"""The per-draw sampler paths the bulk ``mixlab.sampler.draw_streams`` is checked against.

``mixlab sample`` and the trainer draw every stream in bulk.  This module
keeps the one-draw-at-a-time forms they replaced: :func:`stream`, which
repeats :func:`mixlab.sampler.next_sample`; :func:`sample_stdout`, the
``mixlab sample`` output that stream printed line by line; and
:func:`empirical_frequencies`, the domain-draw frequency harness of the
acceptance check.  :func:`bulk` is one row of ``draw_streams`` over a fresh
state, with its items gathered from the state's queues.
"""

from __future__ import annotations

import numpy as np

from mixlab.errors import DimensionMismatch, MixLabError
from mixlab.grpo import run_streams
from mixlab.mixtures import MixtureWeights
from mixlab.sampler import SamplerState, draw_domains, draw_streams, init, next_sample


class Exhausted(MixLabError):
    """A domain pool ran out of unseen items before the requested draw count."""


def stream(state: SamplerState, max_steps: int | None = None):
    """Yield samples until the stream stops or ``max_steps`` is reached."""
    count = 0
    while max_steps is None or count < max_steps:
        sample = next_sample(state)
        if sample is None:
            return
        yield sample
        count += 1


def sample_stdout(weights: MixtureWeights, pool_sizes: list[int], seed: int, max_steps: int | None) -> str:
    """What ``mixlab sample`` printed when it drew run ``seed``'s data stream one draw at a time."""
    state = init(pool_sizes, weights, seed=run_streams(seed)[0])
    return "".join(f"({domain},{item})\n" for domain, item in stream(state, max_steps=max_steps))


def bulk(state: SamplerState, max_steps: int) -> list[tuple[int, int]]:
    """A fresh state's stream as :func:`draw_streams` with one row gives it, items gathered here."""
    domains, ranks, lengths = draw_streams(
        state.weights[None], state.rng.random(max_steps)[None], np.array([len(queue) for queue in state.queues]))
    n = int(lengths[0])
    return [(int(d), int(state.queues[d][r - 1])) for d, r in zip(domains[0, :n], ranks[0, :n])]


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
    u = np.random.default_rng(seed).random(n)
    draws = draw_domains(weights.to_array(), u)
    counts = np.bincount(draws, minlength=m)
    over = [d for d in range(m) if counts[d] > sizes[d]]
    if over:
        raise Exhausted(f"domains {over} would run out of items within {n} draws")
    return counts / n
