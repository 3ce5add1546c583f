"""Exception types shared across the toolkit.

Every domain-level failure raises a subclass of :class:`MixLabError`, so
callers (and the CLI) can distinguish data problems from programming bugs.
"""

from __future__ import annotations


class MixLabError(Exception):
    """Base class for all toolkit errors."""


class MixLabWarning(UserWarning):
    """Base class for degeneracy warnings (e.g. min-max over equal values)."""


# --- mixture weights / simplex ---------------------------------------------

class NegativeEntry(MixLabError):
    """A weight vector contains a negative entry."""


class NotNormalized(MixLabError):
    """A weight vector does not sum to 1 within tolerance."""


class IndexOutOfRange(MixLabError):
    """A domain index lies outside [0, m)."""


class DegenerateCatalog(MixLabError):
    """A set of domains (a weight vector or pool sizes) is too small or has an empty pool."""


# --- performance records ----------------------------------------------------

class MalformedLine(MixLabError):
    """A record line failed to parse; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number

    @classmethod
    def not_utf8(cls, exc: UnicodeDecodeError) -> MalformedLine:
        """The error for a file whose bytes, ``exc.object``, are not UTF-8: at the first bad byte's line."""
        return cls(exc.object.count(b"\n", 0, exc.start) + 1, "not UTF-8 text")


class ScoreOutOfRange(MixLabError):
    """A benchmark score lies outside [0, 1]."""


class UnknownBenchmark(MixLabError):
    """A score refers to a benchmark not present in the suite."""


class MissingBenchmark(MixLabError):
    """A required benchmark score is absent from a record."""


class EmptyGroup(MixLabError):
    """The requested benchmark group has no members."""


# --- heuristics -------------------------------------------------------------

class EmptyRecords(MixLabError):
    """No usable performance records were supplied."""


class SingularSystem(MixLabError):
    """Ridge system is not guaranteed invertible (requires lambda > 0)."""


class AllZeroAdjusted(MixLabError):
    """All VIF-adjusted coefficients clamp to zero; weights are undefined."""


class MissingCombination(MixLabError):
    """A leave-one-out combination has no record."""


class DuplicateCombination(MixLabError):
    """A leave-one-out combination appears more than once."""


# --- surrogate fitting ------------------------------------------------------

class DimensionMismatch(MixLabError):
    """Vector/matrix dimensions do not agree."""


class ZeroVariance(MixLabError):
    """R-squared is undefined because the actual values are constant."""


class InsufficientRecords(MixLabError):
    """Too few weighted records to fit and cross-validate a model."""


# --- candidate search -------------------------------------------------------

class TooFewPoints(MixLabError):
    """Fewer than two points were given to the Gaussian fit."""


class NoSurvivors(MixLabError):
    """Every raw Gaussian sample was rejected by the non-negativity filter."""


class EmptyCandidates(MixLabError):
    """Ranking was asked to order an empty candidate list."""


# --- rewards ----------------------------------------------------------------

class InvalidBox(MixLabError):
    """Bounding-box coordinates violate x1 <= x2, y1 <= y2."""


class InvalidPair(MixLabError):
    """A (prediction, gold) pair has the wrong types for its scoring mode."""


# --- synthetic world --------------------------------------------------------

class InvalidSpec(MixLabError):
    """A synthetic-world specification is internally inconsistent."""
