"""Synthetic multi-domain task world for desk-scale mixture experiments.

A world has ``k`` skills, each deterministically mapped to one of ``A``
answers by a seed-fixed key.  Each training domain holds a pre-generated pool
of tasks drawn from its own skill distribution; domains may overlap (shared
skills make their training data partly redundant, which is what gives the
mixture -> outcome map genuine interaction structure).  Benchmarks are skill
distributions tagged in/out; out benchmarks may cover skills no domain
trains on.  Each is a suite entry (``BenchmarkSpec``), so ``world.benchmarks``
is the suite the world's records are scored on.

Evaluation is exact: a benchmark's score is the probability mass of skills
whose argmax action matches the answer key, so repeated evaluation of the
same policy is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import check_types, is_int
from .errors import InvalidSpec
from .records import BenchmarkSpec
from .sampler import MAX_POOL_SIZE


@dataclass(frozen=True, kw_only=True)
class BenchmarkDef(BenchmarkSpec):
    """A suite entry that is also a named skill distribution; ``count`` is a pseudo sample count."""

    skill_weights: tuple[float, ...]
    count: int = 1000

    @classmethod
    def uniform_over(cls, name: str, group: str, skills: Sequence[int], k: int, **fields) -> "BenchmarkDef":
        """Equal weight on each of ``skills``; ``fields`` are the other BenchmarkDef fields."""
        if not skills or not all(is_int(s) and 0 <= s < k for s in skills):
            raise InvalidSpec(f"benchmark {name!r} needs skills that are integers in [0, {k})")
        if len(set(skills)) < len(skills):
            repeated = next(s for i, s in enumerate(skills) if s in skills[:i])
            raise InvalidSpec(f"benchmark {name!r} lists skill {repeated} more than once")
        weights = np.zeros(k)
        weights[list(skills)] = 1.0 / len(skills)
        return cls(name=name, group=group, skill_weights=tuple(weights), **fields)


@dataclass(frozen=True)
class WorldSpec:
    """Blueprint for a synthetic world.

    ``domain_skills`` overrides the generated skill windows; otherwise domain
    ``d`` covers a window of the non-held-out skills whose width grows with
    ``overlap`` (0 gives disjoint blocks, larger values share skills between
    neighbouring domains).  ``held_out_skills`` trailing skills are excluded
    from every domain and only appear in benchmarks.
    """

    m: int
    k: int
    A: int
    pool_sizes: tuple[int, ...]
    overlap: float = 0.5
    held_out_skills: int = 0
    domain_skills: tuple[tuple[int, ...], ...] | None = None
    benchmarks: tuple[BenchmarkDef, ...] | None = None

    def __post_init__(self):
        check_types(self)
        if self.m < 1 or self.k < self.m:
            raise InvalidSpec(f"need k >= m >= 1, got m={self.m}, k={self.k}")
        if self.A < 2:
            raise InvalidSpec("need at least two answers")
        if len(self.pool_sizes) != self.m or any(not 1 <= s <= MAX_POOL_SIZE for s in self.pool_sizes):
            raise InvalidSpec(f"pool_sizes must list one size in [1, {MAX_POOL_SIZE}] per domain")
        if not 0.0 <= self.overlap < 1.0:
            raise InvalidSpec("overlap must lie in [0, 1)")
        if not 0 <= self.held_out_skills <= self.k - self.m:
            raise InvalidSpec("held_out_skills must leave at least m trainable skills")
        if self.domain_skills is not None:
            if len(self.domain_skills) != self.m:
                raise InvalidSpec("domain_skills must list one skill set per domain")
            for skills in self.domain_skills:
                if not skills or any(not 0 <= s < self.k for s in skills):
                    raise InvalidSpec("domain skill sets must be non-empty and within range")
        if self.benchmarks is not None:
            names = [bench.name for bench in self.benchmarks]
            if len(set(names)) != len(names):
                raise InvalidSpec("benchmark names must be unique within a world")
            for bench in self.benchmarks:
                weights = np.asarray(bench.skill_weights)
                if (weights.shape != (self.k,) or not np.isfinite(weights).all()
                        or abs(weights.sum() - 1.0) > 1e-9 or (weights < 0).any()):
                    raise InvalidSpec(f"benchmark {bench.name!r} needs a distribution over {self.k} skills")


@dataclass(frozen=True)
class SyntheticWorld:
    spec: WorldSpec
    answer_map: np.ndarray            # skill -> gold answer
    domain_dists: np.ndarray          # (m, k), rows sum to 1
    pools: tuple[np.ndarray, ...]     # per-domain task skills
    benchmarks: tuple[BenchmarkDef, ...]

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def k(self) -> int:
        return self.spec.k

    @property
    def A(self) -> int:
        return self.spec.A

    def task(self, domain: int, item: int) -> tuple[int, int]:
        """(skill, gold answer) of one pooled task."""
        skill = int(self.pools[domain][item])
        return skill, int(self.answer_map[skill])


def _window_supports(m: int, trainable: int, overlap: float) -> list[list[int]]:
    """Evenly spaced skill windows; width stretches with the overlap fraction."""
    base = trainable / m
    width = max(1, min(trainable, round(base / (1.0 - overlap))))
    supports = []
    for d in range(m):
        start = round(d * base)
        supports.append([(start + j) % trainable for j in range(width)])
    return supports


def make_world(spec: WorldSpec, seed: int) -> SyntheticWorld:
    """Deterministically instantiate a world from its spec and seed."""
    rng = np.random.default_rng(seed)
    answer_map = rng.integers(0, spec.A, size=spec.k)

    if spec.domain_skills is not None:
        supports = [sorted(set(skills)) for skills in spec.domain_skills]
    else:
        trainable = spec.k - spec.held_out_skills
        supports = _window_supports(spec.m, trainable, spec.overlap)

    domain_dists = np.zeros((spec.m, spec.k))
    for d, skills in enumerate(supports):
        domain_dists[d, skills] = 1.0 / len(skills)

    pools = tuple(
        rng.choice(np.asarray(skills), size=spec.pool_sizes[d], replace=True)
        for d, skills in enumerate(supports)
    )

    if spec.benchmarks is not None:
        benchmarks = spec.benchmarks
    else:
        covered = sorted({s for skills in supports for s in skills})
        defs = [
            BenchmarkDef(name=f"in-{d}", group="in", skill_weights=tuple(domain_dists[d]))
            for d in range(spec.m)
        ]
        defs.append(BenchmarkDef.uniform_over("out-broad", "out", range(spec.k), spec.k))
        if len(covered) < spec.k:
            defs.append(BenchmarkDef.uniform_over("out-core", "out", covered, spec.k))
        benchmarks = tuple(defs)

    return SyntheticWorld(
        spec=spec,
        answer_map=answer_map,
        domain_dists=domain_dists,
        pools=pools,
        benchmarks=benchmarks,
    )


def benchmark_scores(world: SyntheticWorld, theta: np.ndarray) -> list[dict[str, float]]:
    """Exact argmax accuracy on every benchmark of each policy in a stack ``(R, k, A)``, a dict per policy."""
    if theta.ndim != 3 or theta.shape[1:] != (world.k, world.A):
        raise InvalidSpec(f"policy shape {theta.shape} does not match world (R, {world.k}, {world.A})")
    correct = (theta.argmax(axis=-1) == world.answer_map).astype(float)
    weights = [(bench.name, np.asarray(bench.skill_weights)) for bench in world.benchmarks]
    return [{name: float(np.dot(w, row)) for name, w in weights} for row in correct]


def _tuples(value):
    """A JSON value with every list in it, at any depth, turned into a tuple."""
    if isinstance(value, dict):
        return {key: _tuples(v) for key, v in value.items()}
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def world_spec_from_dict(obj: dict) -> WorldSpec:
    """Build a WorldSpec from a JSON-style dict (the CLI world file format).

    The keys are its fields, lists standing for tuples; a benchmark entry
    holds BenchmarkDef's fields, or ``skills`` in place of ``skill_weights``.
    """
    fields = _tuples(dict(obj))
    if fields.get("benchmarks") is not None:
        fields["benchmarks"] = tuple(
            BenchmarkDef.uniform_over(k=fields["k"], **bench) if "skills" in bench else BenchmarkDef(**bench)
            for bench in fields["benchmarks"]
        )
    return WorldSpec(**fields)
