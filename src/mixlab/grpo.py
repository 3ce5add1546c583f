"""Desk-scale group-relative policy optimization over the synthetic world.

The policy is tabular: one softmax row of action logits per skill, so the
clipped surrogate objective, its gradient, and the KL penalty against the
reference policy are all available in closed form.  The KL term is computed
exactly over the discrete action space rather than estimated from samples,
which removes estimator noise from gradient checks.

Rewards are the verifiable kind: the proxy policy cannot be malformed, so the
format component is always 1 and the total is ``2 * exact_match + 1``, the
fixed weighting of ``rewards.combined_reward``.  Any other positive weights
would be an affine map of the 0/1 match signal, which group normalization
cancels (up to rounding), so neither the trainer nor the rewards take weights.

Training runs go through :func:`train_runs`, which trains every run of a
phase together as one array program over the flat logits ``(R*k, A)``.  A
run's randomness never depends on its policy: the data stream is fixed by
(mixture, seed, pools) and the action sampler consumes ``group_size``
uniforms per step, so both are drawn in bulk before the first step (the two
streams are :func:`run_streams`).  Runs that share a seed's stream key (the
verification runs of a phase share one per stream) share those draws, so the
set-up builds each key's generators, pool permutations and uniforms once, and
does the mixture-dependent part (domain draws, exhaustion cut, task gather)
for every run at once as ``(R, steps)`` arrays.  Its data half,
:func:`data_streams`, is also what ``mixlab sample`` prints a row of.  A
step then reads and writes one logit row, its run's row for its task's
skill, so it waits only on the previous step of its run on that skill.  The
trainer batches steps by that dependency
(:func:`_level_schedule`): level ``l`` holds every step that is the ``l``-th
of its run on its skill, all on distinct rows.  A phase takes as many levels
as the most steps one run spends on one skill, not as many as a run takes
steps, and :func:`grpo_step` updates a block of one level's rows at once.
It takes the block column-major: logits ``(A, n)``, uniforms ``(G, n)`` and
one-hot actions ``(G, A, n)`` for ``n`` rows, so a sum over the group, or
over fewer than 8 actions, is a few vector ops along the leading axis, each
as long as the block, rather than ``n`` reductions a few values long.  Every
array operation works column by column and rounds exactly as the per-run
scalar reference in ``tests/grpo_reference.py`` does: a sum over the
gradient's samples adds them in order, as the reference's loop does, and
every other sum (:func:`_sum_columns`) as the reference's 1-D ``sum``.  That
rests on two facts of numpy: it adds fewer than 8 values in order, as a sum
over the leading axis adds rows, and a last-axis sum of a contiguous row
rounds as its 1-D sum, so longer columns are summed as the rows of a
transposed copy.  So no row's result depends on which rows share its block,
and the tests require a per-run loop of that reference to give the same
logits bit for bit.  The batched step leaves out only operations whose
results are exact: a step's first inner epoch evaluates at the snapshot,
where every ratio is exactly 1 and no sample is clipped, so it skips the
ratio path, and later epochs reuse the step's one-hot actions and old
log-probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import check_types
from .errors import DimensionMismatch, MixLabError
from .mixtures import MixtureWeights
from .records import PerformanceRecord
from .rewards import combined_reward
from .sampler import draw_streams
from .sampler import init as sampler_init
from .sampler import next_sample  # noqa: F401  (unused; perfbench/tracing.py patches this binding)
from .world import SyntheticWorld, benchmark_scores

# reward totals of a wrong and a right answer (the proxy policy is never malformed)
_MISS_REWARD, _HIT_REWARD = (combined_reward(1, accuracy=hit).total for hit in (0, 1))


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
    return tuple(int(word) for word in np.atleast_1d(seq.entropy)), tuple(seq.spawn_key)


def data_streams(
    pool_sizes: Sequence[int],
    runs: Sequence[RunSpec],
    steps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.random.SeedSequence]]:
    """Every run's data stream: ``(domains, items, lengths, key_of_run, action_streams)``.

    Step ``t`` of run ``r`` takes item ``items[r, t]`` of pool ``domains[r, t]``,
    drawn from the run's data stream (:func:`run_streams`) by the sampler's
    two-stage rule, for ``lengths[r]`` steps; later entries are pool 0's first
    item.  Runs with one stream key (:func:`_stream_key`) share their pool
    permutations and uniforms (a run of length ``n`` reads the first ``n``),
    made once per key: ``key_of_run[r]`` is run ``r``'s key and
    ``action_streams[key]`` its other stream.  The domain draws, exhaustion
    cut (:func:`draw_streams`) and item gather are done for all runs at once
    as ``(R, T)`` arrays, ``T = min(steps, sum(pool_sizes) + 1)``: a stream
    stops at the latest on the draw after its pools' last item.
    """
    key_of_run = np.zeros(len(runs), dtype=np.int64)
    key_index: dict[tuple, int] = {}
    key_runs: list[RunSpec] = []  # the first run of each key
    for r, run in enumerate(runs):
        stream_key = _stream_key(run.seed)
        if stream_key not in key_index:
            key_index[stream_key] = len(key_runs)
            key_runs.append(run)
        key_of_run[r] = key_index[stream_key]
    steps = min(steps, sum(pool_sizes) + 1)

    # one sampler alive at a time; the first checks the pool sizes before any array is sized by them
    action_streams = []
    for key, run in enumerate(key_runs):
        data_stream, action_stream = run_streams(run.seed)
        state = sampler_init(pool_sizes, run.mixture, seed=data_stream)
        if key == 0:
            queues = np.empty((len(key_runs), sum(pool_sizes)), dtype=np.int64)
            uniforms = np.empty((len(key_runs), steps))
        np.concatenate(state.queues, out=queues[key])
        state.rng.random(out=uniforms[key])
        action_streams.append(action_stream)
    if not key_runs:
        queues, uniforms = np.empty((0, 0), dtype=np.int64), np.empty((0, steps))
    weights = np.array([run.mixture.weights for run in runs], dtype=float).reshape(len(runs), len(pool_sizes))
    domains, ranks, lengths = draw_streams(weights, uniforms[key_of_run], np.asarray(pool_sizes))
    # steps past a run's end read a valid slot: pool 0's first item
    taken = np.arange(steps) < lengths[:, None]
    domains = np.where(taken, domains, 0)
    slots = np.where(taken, np.cumsum([0, *pool_sizes[:-1]])[domains] + ranks - 1, 0)
    return domains, queues[key_of_run[:, None], slots], lengths, key_of_run, action_streams


def _task_streams(
    world: SyntheticWorld,
    runs: Sequence[RunSpec],
    config: GrpoConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every run's task stream: ``(lengths, skills, golds, action_uniforms, key_of_run)``.

    The data half is :func:`data_streams`: a step's skill is its item's in
    its domain's pool, and its gold that skill's answer.  Each stream key's
    ``(T, G)`` action uniforms ``action_uniforms[key]`` are drawn once,
    in as many leading rows as its longest run takes.  Steps at and past a
    run's length are not part of its stream; ``T`` is the data streams' width.
    """
    domains, items, lengths, key_of_run, action_streams = data_streams(world.spec.pool_sizes, runs, config.steps)
    skills = np.concatenate(world.pools)[np.cumsum([0, *world.spec.pool_sizes[:-1]])[domains] + items]

    # a key's action uniforms cover the steps its longest run takes
    longest = np.zeros(len(action_streams), dtype=np.int64)
    np.maximum.at(longest, key_of_run, lengths)
    action_uniforms = np.zeros((len(action_streams), domains.shape[1], config.group_size))
    for key, stream in enumerate(action_streams):
        np.random.default_rng(stream).random(out=action_uniforms[key, :longest[key]])
    return lengths, skills, world.answer_map[skills], action_uniforms, key_of_run


def _sum_columns(x: np.ndarray) -> np.ndarray:
    """The sum of each column of ``x`` ``(L, n)``, rounded as numpy sums ``L`` contiguous values.

    numpy adds fewer than 8 values in order, as a leading-axis sum adds rows;
    longer columns are summed as the contiguous rows of a transposed copy.
    """
    if len(x) < 8:
        return x.sum(axis=0)
    return np.ascontiguousarray(x.T).sum(axis=1)


def _softmax_columns(logits: np.ndarray) -> np.ndarray:
    """Softmax of each column, shifted by the column's maximum."""
    exp = np.exp(logits - logits.max(axis=0))
    exp /= _sum_columns(exp)
    return exp


def _advantage_columns(rewards: np.ndarray) -> np.ndarray:
    """Group-normalized rewards of each column: ``(r - mean) / std``, zeros at zero spread.

    Centred twice, so the first mean's rounding error does not survive a small
    spread as a nonzero advantage mean.  ``sum / n`` is how ``mean`` computes.
    """
    n = len(rewards)
    centered = rewards - _sum_columns(rewards) / n
    centered -= _sum_columns(centered) / n
    std = np.sqrt(_sum_columns(centered ** 2) / n)
    flat = (rewards.max(axis=0) == rewards.min(axis=0)) | (std == 0.0)
    return np.where(flat, 0.0, centered / np.where(flat, 1.0, std))


def _kl_columns(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's ``log(p / q)`` and exact ``KL(p || q)`` ``(n,)`` over the actions."""
    log_ratio = np.log(p / q)
    return log_ratio, _sum_columns(p * log_ratio)


def _gradient_columns(p: np.ndarray, onehot: np.ndarray, weights: np.ndarray, q: np.ndarray,
                      config: GrpoConfig) -> np.ndarray:
    """Gradient of each column's objective w.r.t. its logits, from each sample's surrogate weight.

    A sample's weight is ``advantage * ratio`` where the unclipped term attains
    the min (d ratio / d theta = ratio * (onehot - p)) and 0 elsewhere.  The
    exact KL (:func:`_kl_columns`) has d KL / d theta = p * (log(p / q) - KL).
    Group samples add up in order: numpy sums the leading axis of a
    C-contiguous ``(G, A, n)`` array one ``(A, n)`` slab at a time.
    """
    terms = onehot - p
    terms *= weights[:, None, :]  # in place: a block's (G, A, n) temporaries set its peak memory
    grad = terms.sum(axis=0) / len(weights)
    del terms  # so the KL term's temporaries do not add to the peak
    if config.kl_coeff > 0.0:
        log_ratio, kl = _kl_columns(p, q)
        grad -= config.kl_coeff * p * (log_ratio - kl)
    return grad


def grpo_step(old: np.ndarray, uniforms: np.ndarray, golds: np.ndarray, lr: np.ndarray,
              ref: np.ndarray, config: GrpoConfig) -> np.ndarray:
    """One GRPO update of independent logit columns ``old`` ``(A, n)``: the new columns.

    Column ``i`` draws a group of actions from its softmax with ``uniforms[:, i]``
    (``uniforms`` is ``(G, n)``), rewards those equal to ``golds[i]``,
    normalizes the rewards in the group and ascends the objective
    ``config.inner_epochs`` times at rate ``lr[i]``, with the KL penalty
    against the distribution ``ref`` ``(A, 1)``.  The inputs may have any
    layout; the new columns come out C-contiguous.
    """
    # C order keeps G the outer axis of the (G, A, n) temporaries, so their G sums stay in order
    old, uniforms = np.ascontiguousarray(old), np.ascontiguousarray(uniforms)
    p_old = _softmax_columns(old)
    # rng.choice(A, p=p_old): the count of normalized-CDF entries at or below u
    cdf = p_old.cumsum(axis=0)
    cdf /= cdf[-1]
    actions = (cdf <= uniforms[:, None, :]).sum(axis=1)
    rewards = np.where(actions == golds, _HIT_REWARD, _MISS_REWARD)
    advantages = _advantage_columns(rewards)
    # the snapshot epoch evaluates at p_old: every ratio is exactly 1, so no
    # sample is clipped and each weight is its advantage
    onehot = (actions[:, None, :] == np.arange(len(old))[:, None]).astype(float)
    new = old + lr * _gradient_columns(p_old, onehot, advantages, ref, config)
    if config.inner_epochs > 1:
        columns = np.arange(old.shape[1])
        logp_old = np.log(p_old[actions, columns])
        for _ in range(1, config.inner_epochs):
            p = _softmax_columns(new)
            ratios = np.exp(np.log(p[actions, columns]) - logp_old)
            clipped = np.minimum(np.maximum(ratios, 1.0 - config.clip_epsilon), 1.0 + config.clip_epsilon)
            unclipped = ratios * advantages <= clipped * advantages
            weights = np.where(unclipped, advantages * ratios, 0.0)
            new = new + lr * _gradient_columns(p, onehot, weights, ref, config)
    return new


# Wide blocks run out of cache (at G=6, A=4, 2 730 columns were slower than 682);
# narrow ones pay a call's fixed cost per few columns (at G=16, A=16, a pipeline
# trained in blocks of 64 columns took ~30% longer than in blocks of 256).
_BLOCK_ELEMENTS = 1 << 14
_MIN_BLOCK_COLUMNS = 256
_MAX_BLOCK_ELEMENTS = 1 << 17


def _block_columns(group_size: int, actions: int) -> int:
    """How many rows of one level a :func:`grpo_step` call takes: its block's columns.

    As many as keep the ``(G, A, n)`` temporaries at ``_BLOCK_ELEMENTS``, but
    no fewer than ``_MIN_BLOCK_COLUMNS`` while they stay within
    ``_MAX_BLOCK_ELEMENTS``, and at least one.
    """
    per_column = group_size * actions
    return max(_BLOCK_ELEMENTS // per_column, min(_MIN_BLOCK_COLUMNS, _MAX_BLOCK_ELEMENTS // per_column), 1)


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
    once per stream key and as arrays over all runs (:func:`_task_streams`),
    and a step reads and writes only its run's logit row for its task's
    skill.  So the steps run level by level (:func:`_level_schedule`), each
    level in blocks of :func:`_block_columns` rows, one :func:`grpo_step`
    call a block.  ``theta`` stays ``(R*k, A)`` and the uniforms ``(keys,
    T, G)`` for the ``T`` steps the pools allow; a block's rows are gathered
    and handed over transposed, as ``(A, n)`` logits and ``(G, n)``
    uniforms, and its new columns are written back as rows.  A final logit
    that is not finite, which a too large ``peak_learning_rate`` leaves,
    raises :class:`MixLabError`.
    """
    for run in runs:
        if run.mixture.m != world.m:
            raise DimensionMismatch(f"{run.mixture.m} weights for a world with {world.m} domains")
    lengths, skills, golds, uniforms, key_of_run = _task_streams(world, runs, config)
    steps = skills.shape[1]

    theta = np.zeros((len(runs) * world.k, world.A))
    ref = _softmax_columns(np.zeros((world.A, 1)))
    learning_rates = np.array([learning_rate_at(step, config) for step in range(steps)])
    taken, bounds = _level_schedule(skills, lengths, world.k)
    block = _block_columns(config.group_size, world.A)
    for level_start, level_end in zip(bounds[:-1], bounds[1:]):
        for start in range(level_start, level_end, block):
            run, step = np.divmod(taken[start:min(start + block, level_end)], steps)
            row = run * world.k + skills[run, step]
            theta[row] = grpo_step(theta[row].T, uniforms[key_of_run[run], step].T, golds[run, step],
                                   learning_rates[step], ref, config).T
    if not np.isfinite(theta).all():  # an underflowed softmax entry makes its KL term 0 * log(0 / q) NaN
        raise MixLabError(f"training left non-finite logits; peak_learning_rate {config.peak_learning_rate} "
                          "is too large for this world")
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
        if record_id is None:  # mix<labels>-s<entropy>, then -k<spawn key> when it has one
            digits = "".join(str(label) for label in labels) or "none"
            entropy, spawn_key = (".".join(map(str, words)) for words in _stream_key(run.seed))
            record_id = f"mix{digits}-s{entropy}" + (f"-k{spawn_key}" if spawn_key else "")
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
