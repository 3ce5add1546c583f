"""Desk-scale group-relative policy optimization over the synthetic world.

The policy is tabular: one softmax row of action logits per skill, so the
clipped surrogate objective, its gradient, and the KL penalty against the
reference policy are all available in closed form.  The KL term is computed
exactly over the discrete action space rather than estimated from samples,
which removes estimator noise from gradient checks.

Rewards are the verifiable kind: the proxy policy cannot be malformed, so the
format component is always 1 and the total is ``2 * exact_match + 1`` under
``rewards.DEFAULT_WEIGHTS``.  Any other positive weights would be an affine
map of the 0/1 match signal, which group normalization cancels (up to
rounding), so the trainer takes no reward weights.

Training runs go through :func:`train_runs`, which trains every run of a
phase together as one array program over the flat logits ``(R*k, A)``.  A
run's randomness never depends on its policy: the data stream is fixed by
(mixture, seed, pools) and the action sampler consumes ``group_size``
uniforms per step, so both are drawn in bulk before the first step (the two
streams are :func:`run_streams`).  Runs that share a seed's stream key (the
verification runs of a phase share one per stream) share those draws, so the
set-up (:func:`_task_streams`) builds each key's generators, pool
permutations and uniforms once, and does the mixture-dependent part (domain
draws, exhaustion cut, task gather) for every run at once as ``(R, steps)``
arrays.  A step then reads and writes one logit row, its run's row for its
task's skill, so it waits only on the previous step of its run on that
skill.  The trainer batches steps by that dependency
(:func:`_level_schedule`): level ``l`` holds every step that is the ``l``-th
of its run on its skill, all on distinct rows.  A phase takes as many levels
as the most steps one run spends on one skill, not as many as a run takes
steps.  Every array operation works row by row and rounds exactly as the
one-group reference path (:func:`build_group`,
:func:`objective_row_gradient`, :func:`grpo_step`) does, so no row's result
depends on which rows share its batch and the batched trainer reproduces a
per-run ``grpo_step`` loop bit for bit; the tests compare the two.  The
batched step leaves out only operations whose results are exact: a step's
first inner epoch evaluates at the snapshot, where every ratio is exactly 1
and no sample is clipped, so it skips the ratio path, and later epochs reuse
the step's one-hot actions and old log-probabilities.  Group samples still
add up in sample order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import check_types
from .errors import DimensionMismatch, GroupTooSmall, SupportMismatch
from .mixtures import MixtureWeights
from .records import PerformanceRecord
from .rewards import DEFAULT_WEIGHTS, combined_reward
from .sampler import draw_streams
from .sampler import init as sampler_init
from .sampler import next_sample  # noqa: F401  (unused; perfbench/tracing.py patches this binding)
from .world import SyntheticWorld, benchmark_scores

@dataclass(frozen=True)
class GrpoConfig:
    group_size: int = 6
    clip_epsilon: float = 0.2
    kl_coeff: float = 0.04
    peak_learning_rate: float = 0.1
    warmup_fraction: float = 0.1
    steps: int = 500
    inner_epochs: int = 1

    def __post_init__(self):
        check_types(self)
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError("clip_epsilon must lie in (0, 1)")
        if not (math.isfinite(self.kl_coeff) and self.kl_coeff >= 0.0):
            raise ValueError(f"kl_coeff must be finite and >= 0, got {self.kl_coeff}")
        if not (math.isfinite(self.peak_learning_rate) and self.peak_learning_rate >= 0.0):
            raise ValueError(f"peak_learning_rate must be finite and >= 0, got {self.peak_learning_rate}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must lie in [0, 1)")
        if self.inner_epochs < 1:
            raise ValueError("inner_epochs must be >= 1")


@dataclass(frozen=True)
class PolicyParams:
    """Tabular softmax policy: theta[skill] are the action logits for a skill."""

    theta: np.ndarray

    @classmethod
    def zeros(cls, k: int, n_actions: int) -> "PolicyParams":
        return cls(theta=np.zeros((k, n_actions)))

    @property
    def n_actions(self) -> int:
        return int(self.theta.shape[1])

    def action_dist(self, skill: int) -> np.ndarray:
        return softmax(self.theta[skill])


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def group_advantages(rewards: Sequence[float]) -> np.ndarray:
    """Group-normalized rewards: (r - mean) / population std; zeros at zero spread.

    The spread check is exact on the raw rewards: with all rewards equal the
    computed mean can land one ulp off and leave a spurious tiny std.
    """
    r = np.asarray(rewards, dtype=float)
    if r.size < 2:
        raise GroupTooSmall(f"need a group of at least 2 rewards, got {r.size}")
    if r.max() == r.min():
        return np.zeros_like(r)
    centred = r - r.mean()
    # second centring pass: when the spread is small next to the rewards, the
    # first mean's rounding error survives the division by std as a nonzero mean
    centred -= centred.mean()
    std = math.sqrt(float((centred**2).mean()))
    if std == 0.0:  # spread too small for the variance to survive squaring
        return np.zeros_like(r)
    return centred / std


def clipped_term(ratio: float, advantage: float, epsilon: float) -> float:
    """min(ratio * A, clip(ratio, 1 - eps, 1 + eps) * A)."""
    clipped = min(max(ratio, 1.0 - epsilon), 1.0 + epsilon)
    return min(ratio * advantage, clipped * advantage)


def categorical_kl(p: Sequence[float], q: Sequence[float]) -> float:
    """Exact KL(p || q) over a discrete action space."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise SupportMismatch(f"distributions differ in size: {p.shape} vs {q.shape}")
    mask = p > 0.0
    if (q[mask] <= 0.0).any():
        raise SupportMismatch("q has zero mass where p is positive")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


@dataclass(frozen=True)
class TrajectoryGroup:
    """G sampled actions for one task with everything the objective needs."""

    actions: np.ndarray
    advantages: np.ndarray
    logp_theta: np.ndarray
    logp_old: np.ndarray
    dist_theta: np.ndarray
    dist_ref: np.ndarray

    @property
    def size(self) -> int:
        return int(self.actions.shape[0])


def build_group(
    policy: PolicyParams,
    old_policy: PolicyParams,
    ref_policy: PolicyParams,
    skill: int,
    gold: int,
    actions: np.ndarray,
    config: GrpoConfig,
) -> TrajectoryGroup:
    """Assemble a trajectory group for fixed sampled actions.

    Separating action sampling from group construction lets the objective be
    re-evaluated at perturbed parameters (finite-difference checks, inner
    epochs) without touching the sampled actions.
    """
    dist_theta = policy.action_dist(skill)
    rewards = np.array([
        combined_reward(1, accuracy=int(a == gold)).total
        for a in actions
    ])
    return TrajectoryGroup(
        actions=np.asarray(actions),
        advantages=group_advantages(rewards),
        logp_theta=np.log(dist_theta[actions]),
        logp_old=np.log(old_policy.action_dist(skill)[actions]),
        dist_theta=dist_theta,
        dist_ref=ref_policy.action_dist(skill),
    )


def sample_actions(
    old_policy: PolicyParams,
    skill: int,
    config: GrpoConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    dist = old_policy.action_dist(skill)
    return rng.choice(old_policy.n_actions, size=config.group_size, p=dist)


def grpo_objective(group: TrajectoryGroup, config: GrpoConfig) -> float:
    """Mean clipped surrogate minus the KL penalty for one group."""
    ratios = np.exp(group.logp_theta - group.logp_old)
    surrogate = [
        clipped_term(float(r), float(a), config.clip_epsilon)
        for r, a in zip(ratios, group.advantages)
    ]
    kl = categorical_kl(group.dist_theta, group.dist_ref)
    return float(np.mean(surrogate)) - config.kl_coeff * kl


def objective_row_gradient(group: TrajectoryGroup, config: GrpoConfig) -> np.ndarray:
    """Analytic gradient of the objective w.r.t. the task skill's logit row.

    For the clipped surrogate, gradient flows through sample i only while the
    unclipped term attains the min; there
    d(ratio)/d(theta_b) = ratio * (onehot(a_i)_b - p_b).  For the exact KL,
    d(KL)/d(theta_b) = p_b * (log(p_b / q_b) - KL).  Rows of skills other
    than the task's have zero gradient.
    """
    p = group.dist_theta
    q = group.dist_ref
    ratios = np.exp(group.logp_theta - group.logp_old)
    grad = np.zeros_like(p)
    for i in range(group.size):
        ratio = float(ratios[i])
        advantage = float(group.advantages[i])
        clipped = min(max(ratio, 1.0 - config.clip_epsilon), 1.0 + config.clip_epsilon)
        if ratio * advantage <= clipped * advantage:
            onehot = np.zeros_like(p)
            onehot[group.actions[i]] = 1.0
            grad += advantage * ratio * (onehot - p)
    grad /= group.size
    if config.kl_coeff > 0.0:
        kl = categorical_kl(p, q)
        grad -= config.kl_coeff * p * (np.log(p / q) - kl)
    return grad


def learning_rate_at(step: int, config: GrpoConfig) -> float:
    """Linear warm-up to the peak over the first warmup fraction, then linear decay.

    The schedule spans ``config.steps`` planned steps; runs stopped early by
    pool exhaustion simply never reach the tail of the decay.
    """
    warmup = max(1, math.ceil(config.warmup_fraction * config.steps))
    if step < warmup:
        return config.peak_learning_rate * (step + 1) / warmup
    remaining = max(1, config.steps - warmup)
    return config.peak_learning_rate * (config.steps - step) / remaining


def grpo_step(
    policy: PolicyParams,
    task: tuple[int, int],
    config: GrpoConfig,
    rng: np.random.Generator,
    ref_policy: PolicyParams,
    step: int = 0,
) -> PolicyParams:
    """One update: sample a group from the step-start snapshot, ascend the gradient.

    The snapshot refreshes every step, so ratios start at 1; with
    ``inner_epochs > 1`` additional passes reuse the same group and exercise
    the clipping path as ratios drift.
    """
    skill, gold = task
    old_policy = policy
    actions = sample_actions(old_policy, skill, config, rng)
    lr = learning_rate_at(step, config)
    theta = policy.theta
    for _ in range(config.inner_epochs):
        group = build_group(PolicyParams(theta), old_policy, ref_policy, skill, gold, actions, config)
        gradient = objective_row_gradient(group, config)
        theta = theta.copy()
        theta[skill] += lr * gradient
    return PolicyParams(theta)


@dataclass(frozen=True)
class RunSpec:
    """One planned training run: its mixture, its SeedSequence (int s: SeedSequence(s)), its record id."""

    mixture: MixtureWeights
    seed: int | np.random.SeedSequence
    record_id: str | None = None


def run_streams(seed: int | np.random.SeedSequence) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
    """A run's data and action streams: the two spawn children of its SeedSequence.

    They are built from its key, not by ``spawn``, which advances a counter on
    the sequence: runs sharing one sequence (paired verification) need equal children.
    """
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return tuple(np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (i,)) for i in range(2))


def _stream_key(seed: int | np.random.SeedSequence) -> tuple:
    """What :func:`run_streams` reads of a seed: equal keys give equal streams."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    entropy = seq.entropy
    entropy = int(entropy) if np.ndim(entropy) == 0 else tuple(int(word) for word in entropy)
    return entropy, tuple(seq.spawn_key)


def _task_streams(
    world: SyntheticWorld,
    runs: Sequence[RunSpec],
    config: GrpoConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every run's task stream: ``(lengths, skills, golds, action_uniforms, key_of_run)``.

    Runs with one stream key (:func:`_stream_key`) draw the same pool
    permutations and uniforms, and a run of length ``n`` reads the first
    ``n`` of them, so the generators and draws are made once per key: its
    permutations (as each queue slot's skill), its ``steps`` data uniforms
    and the leading rows of its ``(steps, G)`` action uniforms
    ``action_uniforms[key]``, as many as its longest run takes.  What
    depends on the mixture is done for all runs at once as ``(R, steps)``
    arrays: the domain draw and exhaustion cut (:func:`draw_streams`) and
    the gather of each step's skill and gold.  Steps at and past a run's
    length are not part of its stream.
    """
    steps, pool_sizes = config.steps, world.spec.pool_sizes
    key_of_run = np.zeros(len(runs), dtype=np.int64)
    key_index: dict[tuple, int] = {}
    key_runs: list[RunSpec] = []  # the first run of each key
    for r, run in enumerate(runs):
        stream_key = _stream_key(run.seed)
        if stream_key not in key_index:
            key_index[stream_key] = len(key_runs)
            key_runs.append(run)
        key_of_run[r] = key_index[stream_key]

    offsets = np.cumsum((0,) + pool_sizes[:-1])
    item_offsets = np.repeat(offsets, pool_sizes)
    pooled_skills = np.concatenate(world.pools)
    skill_queues = np.empty((len(key_runs), sum(pool_sizes)), dtype=np.int64)
    data_uniforms = np.empty((len(key_runs), steps))
    action_rngs = []
    for key, run in enumerate(key_runs):
        data_stream, action_stream = run_streams(run.seed)
        state = sampler_init(pool_sizes, run.mixture, seed=data_stream)
        skill_queues[key] = pooled_skills[np.concatenate(state.queues) + item_offsets]
        state.rng.random(out=data_uniforms[key])
        action_rngs.append(np.random.default_rng(action_stream))

    weights = np.array([run.mixture.weights for run in runs], dtype=float).reshape(len(runs), world.m)
    domains, ranks, lengths = draw_streams(
        np.cumsum(weights, axis=1), weights, data_uniforms[key_of_run], np.asarray(pool_sizes))
    slots = np.where(np.arange(steps) < lengths[:, None], offsets[domains] + ranks - 1, 0)
    skills = skill_queues[key_of_run[:, None], slots]

    # a key's action uniforms cover the steps its longest run takes
    longest = np.zeros(len(key_runs), dtype=np.int64)
    np.maximum.at(longest, key_of_run, lengths)
    action_uniforms = np.zeros((len(key_runs), steps, config.group_size))
    for key, rng in enumerate(action_rngs):
        rng.random(out=action_uniforms[key, :longest[key]])
    return lengths, skills, world.answer_map[skills], action_uniforms, key_of_run


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """:func:`softmax` of each row, rounded exactly as the 1-D call rounds it."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _advantage_rows(rewards: np.ndarray) -> np.ndarray:
    """:func:`group_advantages` of each row, with the same two centring passes and guards.

    ``sum / n`` is how ``mean`` computes, without its Python wrapper.
    """
    n = rewards.shape[1]
    centered = rewards - rewards.sum(axis=1, keepdims=True) / n
    centered -= centered.sum(axis=1, keepdims=True) / n
    std = np.sqrt((centered ** 2).sum(axis=1, keepdims=True) / n)
    flat = (rewards.max(axis=1, keepdims=True) == rewards.min(axis=1, keepdims=True)) | (std == 0.0)
    return np.where(flat, 0.0, centered / np.where(flat, 1.0, std))


def _gradient_rows(
    p: np.ndarray,
    onehot: np.ndarray,
    weights: np.ndarray,
    q: np.ndarray,
    config: GrpoConfig,
) -> np.ndarray:
    """:func:`objective_row_gradient` of each row, from each sample's surrogate weight.

    A sample's weight is ``advantage * ratio`` where the unclipped term attains
    the min and 0 elsewhere.  Group samples add up in order: numpy reduces a
    non-last axis by adding whole rows in index order.
    """
    terms = onehot - p[:, None, :]
    terms *= weights[:, :, None]  # in place: a block's (rows, G, A) temporaries set its peak memory
    grad = terms.sum(axis=1) / weights.shape[1]
    if config.kl_coeff > 0.0:
        log_ratio = np.log(p / q)
        kl = (p * log_ratio).sum(axis=1, keepdims=True)
        grad -= config.kl_coeff * p * (log_ratio - kl)
    return grad


_BLOCK_ELEMENTS = 1 << 14  # (rows, G, A) elements per batch: larger batches run out of cache


def _level_schedule(skills: np.ndarray, lengths: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every taken step, ordered by level, and where each level starts.

    A step is its flat index ``run * steps + step`` into ``skills``.  Its
    level is how many earlier steps of its run trained the same skill, i.e.
    the same row of the flat ``(R*k, A)`` logits.  The steps of one level
    touch distinct rows, and a row's steps come in step order, one per level.
    Level ``l`` is ``taken[bounds[l]:bounds[l + 1]]``.
    """
    taken = np.flatnonzero(np.arange(skills.shape[1]) < lengths[:, None])
    rows = taken // skills.shape[1] * k + skills.ravel()[taken]
    by_row = np.argsort(rows, kind="stable")  # stable: a row's steps stay in step order
    rows = rows[by_row]
    levels = np.arange(len(rows)) - np.searchsorted(rows, rows)  # rank among the row's steps
    return taken[by_row[np.argsort(levels, kind="stable")]], np.r_[0, np.cumsum(np.bincount(levels))]


def train_policies(
    world: SyntheticWorld,
    runs: Sequence[RunSpec],
    config: GrpoConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Train every run together: final logits ``(R, k, A)`` and steps taken ``(R,)``.

    Deterministic per (world, run, config): run r's data sampler and its
    action sampling draw from the two streams of :func:`run_streams`.
    A run ends at the step budget or the first time a drawn domain's pool is
    exhausted.  Every run's tasks and uniforms are set up before training,
    once per stream key and as arrays over all runs (:func:`_task_streams`).
    A step's data, uniforms and learning rate are thus fixed before
    training starts, and it reads and writes only its run's logit row for
    its task's skill.  So the steps run level by level
    (:func:`_level_schedule`), each level in blocks of at most
    ``_BLOCK_ELEMENTS`` group-by-action entries; every operation works row
    by row, so a row's result does not depend on which rows share its block.
    """
    for run in runs:
        if run.mixture.m != world.m:
            raise DimensionMismatch(f"{run.mixture.m} weights for a world with {world.m} domains")
    steps, group_size = config.steps, config.group_size
    lengths, skills, golds, uniforms, key_of_run = _task_streams(world, runs, config)

    theta = np.zeros((len(runs) * world.k, world.A))
    ref = softmax(np.zeros(world.A))
    learning_rates = np.array([learning_rate_at(step, config) for step in range(steps)])
    taken, bounds = _level_schedule(skills, lengths, world.k)
    block = max(1, _BLOCK_ELEMENTS // (group_size * world.A))
    for level_start, level_end in zip(bounds[:-1], bounds[1:]):
        for start in range(level_start, level_end, block):
            run, step = np.divmod(taken[start:min(start + block, level_end)], steps)
            row = run * world.k + skills[run, step]
            old = theta[row]
            p_old = _softmax_rows(old)
            # rng.choice(A, p=p_old): the count of normalized-CDF entries at or below u
            cdf = p_old.cumsum(axis=1)
            cdf /= cdf[:, -1:]
            actions = (cdf[:, None, :] <= uniforms[key_of_run[run], step][:, :, None]).sum(axis=2)
            match = actions == golds[run, step][:, None]
            rewards = DEFAULT_WEIGHTS.accuracy * match + DEFAULT_WEIGHTS.format
            advantages = _advantage_rows(rewards)
            lr = learning_rates[step][:, None]
            # the snapshot epoch evaluates at p_old: every ratio is exactly 1, so no
            # sample is clipped and each weight is its advantage
            onehot = (actions[:, :, None] == np.arange(world.A)).astype(float)
            new = old + lr * _gradient_rows(p_old, onehot, advantages, ref, config)
            if config.inner_epochs > 1:
                batch = np.arange(len(row))[:, None]
                logp_old = np.log(p_old[batch, actions])
                for _ in range(1, config.inner_epochs):
                    p = _softmax_rows(new)
                    ratios = np.exp(np.log(p[batch, actions]) - logp_old)
                    clipped = np.minimum(np.maximum(ratios, 1.0 - config.clip_epsilon), 1.0 + config.clip_epsilon)
                    unclipped = ratios * advantages <= clipped * advantages
                    weights = np.where(unclipped, advantages * ratios, 0.0)
                    new = new + lr * _gradient_rows(p, onehot, weights, ref, config)
            theta[row] = new
    return theta.reshape(len(runs), world.k, world.A), lengths


def train_runs(
    world: SyntheticWorld,
    runs: Sequence[RunSpec],
    config: GrpoConfig,
) -> list[PerformanceRecord]:
    """Train every run together (:func:`train_policies`); one scored record per run.

    All final policies are scored by one :func:`benchmark_scores` call on the ``(R, k, A)`` stack.
    """
    theta, lengths = train_policies(world, runs, config)
    records = []
    for r, (run, scores) in enumerate(zip(runs, benchmark_scores(world, theta))):
        labels = run.mixture.dataset_labels()
        record_id = run.record_id
        if record_id is None:
            digits = "".join(str(label) for label in labels) or "none"
            record_id = f"mix{digits}-s{run.seed}"
        records.append(PerformanceRecord(
            id=record_id,
            datasets=labels,
            weights=run.mixture,
            scores=scores,
            step=int(lengths[r]),
        ))
    return records


def train_with_mixture(
    world: SyntheticWorld,
    weights: MixtureWeights,
    config: GrpoConfig,
    seed: int,
    record_id: str | None = None,
) -> PerformanceRecord:
    """Train one run (:func:`train_runs` with a single run) and score the final policy."""
    return train_runs(world, [RunSpec(weights, seed, record_id)], config)[0]
