"""Per-run scalar GRPO: the reference the batched trainer is checked against.

One group at a time, one skill row at a time, with Python loops over the
samples: the textbook form of the group-relative update (group-normalized
advantages, clipped ratio, exact categorical KL penalty).  The package trains
only through :func:`mixlab.grpo.train_policies`; the tests run a per-run
:func:`grpo_step` loop beside it and require the same logits bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mixlab.errors import MixLabError
from mixlab.grpo import GrpoConfig, learning_rate_at
from mixlab.rewards import combined_reward


class GroupTooSmall(MixLabError):
    """Group-relative advantages need at least two sampled actions."""


class SupportMismatch(MixLabError):
    """KL divergence is undefined: p puts mass where q has none."""


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


def group_from_rows(theta_row, old_row, ref_row, actions, gold, config):
    """:func:`build_group` for a one-skill policy given as its logit rows."""
    policy = PolicyParams(np.array([theta_row]))
    old = PolicyParams(np.array([old_row]))
    ref = PolicyParams(np.array([ref_row]))
    return build_group(policy, old, ref, 0, gold, np.array(actions), config)


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
