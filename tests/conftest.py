"""Shared test fixtures and record-building helpers."""

import pytest

from mixlab.mixtures import MixtureWeights, format_mixture
from mixlab.records import BenchmarkSpec, PerformanceRecord
from mixlab.surrogate import cross_validated_fit, fitting_rows


@pytest.fixture
def two_bench_suite():
    """Minimal suite with one in-benchmark and one out-benchmark, count 1 each.

    With single-member groups the aggregate equals the raw score, so records
    built with make_record carry exact In/Out scores.
    """
    return [BenchmarkSpec("bin", 1, "in"), BenchmarkSpec("bout", 1, "out")]


def make_record(rid, labels, m, in_score, out_score, step=None):
    """A record with uniform weights over ``labels`` and given In/Out scores."""
    weights = [0.0] * m
    for label in labels:
        weights[label - 1] = 1.0 / len(labels)
    return PerformanceRecord(
        id=rid,
        datasets=tuple(sorted(labels)),
        weights=MixtureWeights(tuple(weights)),
        scores={"bin": in_score, "bout": out_score},
        step=step,
    )


def write_mixture_file(mixture, path):
    """A mixture file holding ``mixture`` on one line, as ``mixlab`` reads it."""
    path.write_text(format_mixture(mixture) + "\n")


def fit_records(records, config, *, suite):
    """``cross_validated_fit`` on the fit rows of ``records`` for ``config.target``."""
    W, y = fitting_rows(records, config.target, suite=suite)
    return cross_validated_fit(W, y, config)
