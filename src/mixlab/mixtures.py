"""Simplex mixture weights: validation, seed generators, and the mixture file format.

A mixture assigns one sampling probability per training domain.  Weight
position ``i`` is domain ``i``, the world's ``i``-th pool, and corresponds to
the 1-based dataset label ``i + 1`` used in record files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateCatalog, IndexOutOfRange, NegativeEntry, NotNormalized

# Sum-to-one tolerance: tight enough to catch logic errors, loose enough for
# accumulated rounding when weights come from exact fractions or normalization.
SIMPLEX_ATOL = 1e-9


@dataclass(frozen=True)
class MixtureWeights:
    """A point on the probability simplex; one entry per training domain."""

    weights: tuple[float, ...]

    def __post_init__(self):
        # plain Python floats so weights serialize and hash uniformly
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @property
    def m(self) -> int:
        return len(self.weights)

    def to_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def support(self) -> tuple[int, ...]:
        """0-based positions with nonzero weight."""
        return tuple(i for i, w in enumerate(self.weights) if w != 0.0)

    def dataset_labels(self) -> tuple[int, ...]:
        """1-based dataset labels of the support, as used in record files."""
        return tuple(i + 1 for i in self.support())


def validate(raw: Sequence[float] | Iterable[float]) -> MixtureWeights:
    """Check the simplex invariants and wrap the vector; never renormalizes.

    Raises NegativeEntry for any entry < 0, and NotNormalized for a NaN or
    infinite entry or when the sum deviates from 1 by more than
    SIMPLEX_ATOL.  Silent corrections of user-supplied weights are
    deliberately avoided; use
    :func:`normalize_to_simplex` when rescaling is wanted.
    """
    values = tuple(float(v) for v in raw)
    if not values:
        raise DegenerateCatalog("weight vector must have at least one entry")
    for i, v in enumerate(values):
        if v < 0.0:
            raise NegativeEntry(f"weight at position {i} is negative: {v}")
        if not math.isfinite(v):
            raise NotNormalized(f"weight at position {i} is not finite: {v}")
    total = math.fsum(values)
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise NotNormalized(f"weights sum to {total!r}; expected 1 within {SIMPLEX_ATOL}")
    return MixtureWeights(values)


def normalize_to_simplex(raw: Sequence[float] | np.ndarray) -> MixtureWeights:
    """Rescale a non-negative vector so it sums to 1.

    Companion to :func:`validate` for code paths (the heuristics) that
    construct weights from unnormalized non-negative scores.  A NaN or
    infinite entry, or a sum that overflows, raises NotNormalized.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DegenerateCatalog("expected a non-empty 1-d vector")
    if (arr < 0).any():
        raise NegativeEntry("cannot project a vector with negative entries")
    total = float(arr.sum())
    if not math.isfinite(total):
        raise NotNormalized(f"cannot normalize a vector with a non-finite entry or sum: {total}")
    if total <= 0.0:
        raise NotNormalized("cannot normalize a vector that sums to zero")
    return MixtureWeights(tuple(arr / total))


def seed_single(i: int, m: int) -> MixtureWeights:
    """All mass on domain ``i``: train on one dataset only."""
    _check_index(i, m)
    w = [0.0] * m
    w[i] = 1.0
    return MixtureWeights(tuple(w))


def seed_exclude_one(i: int, m: int) -> MixtureWeights:
    """Uniform over every domain except ``i``; the held-out domain gets 0."""
    if m < 2:
        raise DegenerateCatalog("exclude-one needs at least two domains")
    _check_index(i, m)
    share = 1.0 / (m - 1)
    w = [share] * m
    w[i] = 0.0
    return MixtureWeights(tuple(w))


def seed_all(m: int) -> MixtureWeights:
    """Uniform mixture over the complete collection."""
    if m < 1:
        raise DegenerateCatalog("need at least one domain")
    return MixtureWeights(tuple([1.0 / m] * m))


def _check_index(i: int, m: int) -> None:
    if m < 1:
        raise DegenerateCatalog("need at least one domain")
    if not 0 <= i < m:
        raise IndexOutOfRange(f"domain index {i} outside [0, {m})")


# --- mixture file format ----------------------------------------------------
# One line of m comma-separated decimals, written with 10 significant digits.

def format_mixture(mixture: MixtureWeights) -> str:
    return ",".join(f"{w:.10g}" for w in mixture.weights)


def parse_mixture(line: str) -> MixtureWeights:
    parts = [p for p in line.strip().split(",") if p != ""]
    if not parts:
        raise DegenerateCatalog("empty mixture line")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise NotNormalized(f"unparseable mixture entry: {exc}") from exc
    return validate(values)


def write_mixture_file(mixture: MixtureWeights, path: str | Path) -> None:
    Path(path).write_text(format_mixture(mixture) + "\n")


def read_mixture_file(path: str | Path) -> MixtureWeights:
    text = Path(path).read_text()
    for line in text.splitlines():
        if line.strip():
            return parse_mixture(line)
    raise DegenerateCatalog(f"no mixture line found in {path}")
