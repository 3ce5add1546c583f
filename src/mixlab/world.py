"""Synthetic multi-domain task world for desk-scale mixture experiments.

A world has ``k`` skills, each deterministically mapped to one of ``A``
answers by a seed-fixed key.  Each training domain holds a pre-generated pool
of tasks drawn from its own skill distribution; domains may overlap (shared
skills make their training data partly redundant, which is what gives the
mixture -> outcome map genuine interaction structure).  Benchmarks are skill
distributions tagged in/out; out benchmarks may cover skills no domain
trains on.

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


@dataclass(frozen=True)
class BenchmarkDef:
    """A named skill distribution with an in/out tag and a pseudo sample count."""

    name: str
    group: str
    skill_weights: tuple[float, ...]
    count: int = 1000

    def __post_init__(self):
        check_types(self)

    @classmethod
    def uniform_over(cls, name: str, group: str, skills: Sequence[int], k: int, **fields) -> "BenchmarkDef":
        """Equal weight on each of ``skills``; ``fields`` are the other BenchmarkDef fields."""
        if not skills or not all(is_int(s) and 0 <= s < k for s in skills):
            raise InvalidSpec(f"benchmark {name!r} needs skills that are integers in [0, {k})")
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
        if len(self.pool_sizes) != self.m or any(s < 1 for s in self.pool_sizes):
            raise InvalidSpec("pool_sizes must list one positive size per domain")
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
            for bench in self.benchmarks:
                weights = np.asarray(bench.skill_weights)
                if weights.shape != (self.k,) or abs(weights.sum() - 1.0) > 1e-9 or (weights < 0).any():
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

    def suite(self) -> list[BenchmarkSpec]:
        return [BenchmarkSpec(name=b.name, count=b.count, group=b.group) for b in self.benchmarks]

    def task(self, domain: int, item: int) -> tuple[int, int]:
        """(skill, gold answer) of one pooled task."""
        skill = int(self.pools[domain][item])
        return skill, int(self.answer_map[skill])

    def tasks(self, domains: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(skills, gold answers) of many pooled tasks, one per (domain, item) pair."""
        skills = np.zeros(len(domains), dtype=np.int64)
        for d, pool in enumerate(self.pools):
            taken = domains == d
            skills[taken] = pool[items[taken]]
        return skills, self.answer_map[skills]


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


def benchmark_scores(world: SyntheticWorld, theta: np.ndarray) -> dict[str, float]:
    """Exact argmax accuracy of a policy matrix on every benchmark."""
    if theta.shape != (world.k, world.A):
        raise InvalidSpec(f"policy shape {theta.shape} does not match world ({world.k}, {world.A})")
    correct = (theta.argmax(axis=1) == world.answer_map).astype(float)
    return {
        bench.name: float(np.dot(bench.skill_weights, correct))
        for bench in world.benchmarks
    }


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
