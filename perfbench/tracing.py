"""Spans around mixlab's public functions, recorded from outside the program.

Each wrapper replaces a name in the namespace of the module that calls it
(``mixlab.grpo.next_sample``, ``mixlab.pipeline.train_with_mixture``, ...),
so the program's own code is untouched.  A span holds its name, start, end,
parent span and the record id of the training run it belongs to; spans are
kept in flat in-memory arrays while the workload runs and written out once it
has finished.  Spans in process-pool workers are not collected, so traced
runs use ``--jobs 1``.
"""

from __future__ import annotations

import math
import statistics
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "pipeline", "grpo", "sampler", "world", "rewards",
          "surrogate", "search", "heuristics", "records")

# (module, attribute, span name).  The span name's prefix is the layer that
# defines the function; the module is the caller whose binding is replaced.
PATCHES = (
    ("mixlab.cli", "pipeline_config_from_dict", "pipeline.config_from_dict"),
    ("mixlab.cli", "run_full", "pipeline.run_full"),
    ("mixlab.cli", "refine", "pipeline.refine"),
    ("mixlab.cli", "write_report", "pipeline.write_report"),
    ("mixlab.cli", "read_records", "records.read_records"),
    ("mixlab.cli", "cross_validated_fit", "surrogate.cross_validated_fit"),
    ("mixlab.cli", "propose", "search.propose"),
    ("mixlab.cli", "alpha_weights", "heuristics.alpha"),
    ("mixlab.cli", "colinearity_weights", "heuristics.coli"),
    ("mixlab.cli", "leave_one_out_weights", "heuristics.norm"),
    ("mixlab.pipeline", "make_world", "world.make_world"),
    ("mixlab.pipeline", "run_seed_phase", "pipeline.run_seed_phase"),
    ("mixlab.pipeline", "train_with_mixture", "grpo.train_with_mixture"),
    ("mixlab.pipeline", "propose", "search.propose@pipeline"),
    ("mixlab.pipeline", "write_records", "records.write_records"),
    ("mixlab.pipeline", "weighted_aggregate", "records.weighted_aggregate"),
    ("mixlab.grpo", "sampler_init", "sampler.init"),
    ("mixlab.grpo", "next_sample", "sampler.next_sample"),
    ("mixlab.grpo", "grpo_step", "grpo.grpo_step"),
    ("mixlab.grpo", "combined_reward", "rewards.combined_reward"),
    ("mixlab.grpo", "benchmark_scores", "world.benchmark_scores"),
    ("mixlab.world", "SyntheticWorld.task", "world.task"),
    ("mixlab.search", "cross_validated_fit", "surrogate.cross_validated_fit"),
    ("mixlab.search", "fit_gaussian", "search.fit_gaussian"),
    ("mixlab.search", "sample_candidates", "search.sample_candidates"),
    ("mixlab.search", "rank_candidates", "search.rank_candidates"),
    ("mixlab.surrogate", "least_squares_fit", "surrogate.least_squares_fit"),
    ("mixlab.surrogate", "weighted_aggregate", "records.weighted_aggregate"),
    ("mixlab.heuristics", "weighted_aggregate", "records.weighted_aggregate"),
    ("mixlab.records", "weighted_aggregate", "records.weighted_aggregate"),
)


class Tracer:
    """Flat span store; ``install`` patches mixlab, ``uninstall`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")  # index into run_ids, -1 outside a training run
        self.start = array("d")
        self.end = array("d")
        self.run_ids: list[str] = []
        self.results: dict[int, object] = {}  # span index -> summary of its result
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        keep = _RESULT_SUMMARIES.get(name)
        opens_run = name == "grpo.train_with_mixture"
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            parent = stack[-1] if stack else -1
            if opens_run:
                run = len(self.run_ids)
                self.run_ids.append(kwargs.get("record_id") or "")
            else:
                run = self.run[parent] if parent >= 0 else -1
            self.name_id.append(name_id)
            self.parent.append(parent)
            self.run.append(run)
            self.end.append(math.nan)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                stack.pop()
            if keep is not None:
                self.results[index] = keep(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span recorded by the benchmark itself."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        import importlib

        for module_name, attr, span_name in PATCHES:
            owner = importlib.import_module(module_name)
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- analysis --------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self, durations: list[float]) -> list[float]:
        """Span duration minus the time its direct children cover."""
        own = list(durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def write(self, path: Path) -> None:
        """One tab-separated line per span: index, parent, name, run id, start, end."""
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\trun\tstart_s\tend_s\n")
            for index in range(len(self.start)):
                run = self.run[index]
                fh.write(
                    f"{index}\t{self.parent[index]}\t{self.names[self.name_id[index]]}\t"
                    f"{self.run_ids[run] if run >= 0 else ''}\t"
                    f"{self.start[index]!r}\t{self.end[index]!r}\n"
                )


def span_cost_s(calls: int = 20_000, batches: int = 5) -> float:
    """Added cost of one span, from a wrapped no-op against the bare no-op (fastest batch)."""
    def noop():
        return None

    traced = Tracer().wrap("cli.noop", noop)
    costs = []
    for _ in range(batches):
        started = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - started
        started = perf_counter()
        for _ in range(calls):
            traced()
        costs.append((perf_counter() - started - bare) / calls)
    return min(costs)


def _fit_summary(args, kwargs, result):
    _, report = result
    finite = sum(1 for v in report.test_r2 if math.isfinite(v))
    return (finite, len(report.test_r2), report.n_records, report.coefficient_count)


# Results worth keeping for ratios, reduced to small tuples at record time.
_RESULT_SUMMARIES = {
    "sampler.next_sample": lambda a, k, r: r is None,
    "records.read_records": lambda a, k, r: len(r),
    "surrogate.cross_validated_fit": _fit_summary,
    "search.sample_candidates": lambda a, k, r: (a[1], len(r)),
    "rewards.score_pairs": lambda a, k, r: (len(r), sum(1 for b in r if b.format == 0)),
}


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics and per-layer self time from one traced execution.

    Returns ``(metrics, layers)``: ``metrics`` maps a metric name to
    ``(value, unit, base)`` where ``base`` says what a ratio is taken over;
    ``layers`` maps each layer to ``(span count, self seconds)``.
    """
    dur = tracer.durations()
    own = tracer.self_times(dur)
    by_name: dict[str, list[int]] = {name: [] for name in tracer.names}
    for index, name_id in enumerate(tracer.name_id):
        by_name[tracer.names[name_id]].append(index)

    def idx(name):
        return by_name.get(name, [])

    def total(name, values=dur):
        return math.fsum(values[i] for i in idx(name))

    def per_call_us(name, q):
        return _percentile([dur[i] * 1e6 for i in idx(name)], q)

    def kept(name):
        return [tracer.results[i] for i in idx(name) if i in tracer.results]

    def ratio(num, den):
        return num / den if den else 0.0

    layers = {layer: [0, 0.0] for layer in LAYERS}
    for name, indices in by_name.items():
        layer = name.split(".")[0]
        layers[layer][0] += len(indices)
        layers[layer][1] += math.fsum(own[i] for i in indices)

    runs = idx("grpo.train_with_mixture")
    exhausted_runs = {tracer.run[i] for i in idx("sampler.next_sample") if tracer.results.get(i)}
    phase_s = {"seed": 0.0, "verify": 0.0, "refine": 0.0}
    for i in runs:
        prefix = tracer.run_ids[tracer.run[i]].split(":")[0]
        if prefix in phase_s:
            phase_s[prefix] += dur[i]

    fits = kept("surrogate.cross_validated_fit")
    samples = kept("search.sample_candidates")
    raw = sum(n for n, _ in samples)
    survivors = sum(s for _, s in samples)
    pairs = kept("rewards.score_pairs")
    n_pairs = sum(n for n, _ in pairs)
    train_self = sum(layers[layer][1] for layer in ("grpo", "sampler", "world", "rewards"))

    m = {
        "grpo.steps": (len(idx("grpo.grpo_step")), "count", None),
        "grpo.runs": (len(runs), "count", None),
        "grpo.step_us.p50": (per_call_us("grpo.grpo_step", 0.50), "us", None),
        "grpo.step_us.p99": (per_call_us("grpo.grpo_step", 0.99), "us", None),
        "grpo.step_self_s": (total("grpo.grpo_step", own), "s", None),
        "grpo.run_self_s": (total("grpo.train_with_mixture", own), "s", None),
        "sampler.draws": (len(idx("sampler.next_sample")), "count", None),
        "sampler.draw_us.p50": (per_call_us("sampler.next_sample", 0.50), "us", None),
        "sampler.init_ms": (1e3 * total("sampler.init"), "ms", None),
        "sampler.exhausted_frac": (ratio(len(exhausted_runs), len(runs)), "ratio",
                                   f"{len(exhausted_runs)} runs stopped on an empty pool / {len(runs)} runs"),
        "world.eval_calls": (len(idx("world.benchmark_scores")), "count", None),
        "world.eval_us.p50": (per_call_us("world.benchmark_scores", 0.50), "us", None),
        "world.make_ms": (1e3 * total("world.make_world"), "ms", None),
        "rewards.combined_calls": (len(idx("rewards.combined_reward")), "count", None),
        "rewards.combined_s": (total("rewards.combined_reward"), "s", None),
        "rewards.pairs": (n_pairs, "count", None),
        "rewards.score_pairs_s": (total("rewards.score_pairs"), "s", None),
        "rewards.format_fail_frac": (ratio(sum(f for _, f in pairs), n_pairs), "ratio",
                                     f"{sum(f for _, f in pairs)} format failures / {n_pairs} pairs"),
        "surrogate.fit_calls": (len(fits), "count", None),
        "surrogate.fit_ms": (1e3 * total("surrogate.cross_validated_fit"), "ms", None),
        "surrogate.finite_split_frac": (
            ratio(sum(f[0] for f in fits), sum(f[1] for f in fits)), "ratio",
            f"{sum(f[0] for f in fits)} finite test R^2 / {sum(f[1] for f in fits)} splits"),
        "surrogate.rows_per_coef": (
            ratio(sum(f[2] for f in fits), sum(f[3] for f in fits)), "ratio",
            f"{sum(f[2] for f in fits)} fitted rows / {sum(f[3] for f in fits)} coefficients"),
        "search.gaussian_ms": (1e3 * total("search.fit_gaussian"), "ms", None),
        "search.sample_ms": (1e3 * total("search.sample_candidates"), "ms", None),
        "search.rank_ms": (1e3 * total("search.rank_candidates"), "ms", None),
        "search.raw_samples": (raw, "count", None),
        "search.survivors": (survivors, "count", None),
        "search.survivor_frac": (ratio(survivors, raw), "ratio",
                                 f"{survivors} survivors / {raw} raw samples"),
        "heuristics.alpha_ms": (1e3 * total("heuristics.alpha"), "ms", None),
        "heuristics.coli_ms": (1e3 * total("heuristics.coli"), "ms", None),
        "heuristics.norm_ms": (1e3 * total("heuristics.norm"), "ms", None),
        "records.lines_parsed": (sum(kept("records.read_records")), "count", None),
        "records.parse_ms": (1e3 * total("records.read_records"), "ms", None),
        "records.write_ms": (1e3 * total("records.write_records"), "ms", None),
        "records.aggregate_calls": (len(idx("records.weighted_aggregate")), "count", None),
        "records.aggregate_s": (total("records.weighted_aggregate"), "s", None),
        "pipeline.seed_s": (phase_s["seed"], "s", None),
        "pipeline.verify_s": (phase_s["verify"], "s", None),
        "pipeline.refine_s": (phase_s["refine"], "s", None),
        "pipeline.fit_propose_s": (total("search.propose@pipeline"), "s", None),
        "pipeline.write_s": (total("pipeline.write_report"), "s", None),
        "pipeline.runs": (len(runs), "count", None),
        "cli.config_ms": (1e3 * total("pipeline.config_from_dict"), "ms", None),
        "cli.self_s": (total("cli.dispatch", own), "s", None),
        "trace.spans": (len(tracer.start), "count", None),
        "trace.train_self_frac": (ratio(train_self, wall_s), "ratio",
                                  f"{train_self:.4f} s grpo+sampler+world+rewards self / {wall_s:.4f} s traced wall"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layers[layer][1], "s", None)
    return m, {layer: tuple(v) for layer, v in layers.items()}


def median_metrics(samples: list[dict]) -> dict:
    """Per-metric median over several traced executions; keeps the last base text."""
    out = {}
    for name, (_, unit, base) in samples[-1].items():
        out[name] = (statistics.median(s[name][0] for s in samples), unit, base)
    return out
