"""mixlab benchmark: three workloads, end-to-end metrics, per-layer metrics from a traced run.

Run from the root of a mixlab checkout:

    python3 perfbench/run.py --workload accept-train --seed 0 --seconds 25 --trace 0

Workloads (see ``inputs.py`` for why each exists):

* ``accept-train``      ``mixlab pipeline --jobs 1`` on the acceptance config
* ``ragged-refine``     ``mixlab pipeline --jobs 2 --refine-rounds 1`` on a world
                        whose small pools run dry
* ``offline-analysis``  aggregate / fit / propose over 20k generated records,
                        the three heuristics, and score_pairs over 50k pairs

The process that parses these arguments imports neither numpy nor mixlab.
It starts fresh interpreters of this script in two roles: ``setup`` (import
mixlab, generate the inputs, build the world; timed seven times, three
before the measurement and four after it, median reported as ``setup_s``)
and ``measure`` (set up, run the workload once untimed, then timed
executions until ``--seconds`` have passed).  While it measures, the speed
probe in ``reference.py`` times a small fixed computation every 25 ms in the
measuring process and in its pool workers; ``wall_ref`` is the median over
executions of the execution's wall time divided by the mean probe time during
it, so a stretch in which the shared host runs everything slower cancels
out.  ``peak_rss_mb`` is the measuring process's peak plus its largest pool
worker's.  With ``--trace 1`` the measuring process alternates untraced
``--jobs 1`` executions with traced ones and reports the per-layer metrics
and the tracing overhead instead; no set-up is timed and no probe runs.

Every metric is printed by name with its unit, next to figures that are
reported but not gated: the raw wall time ``wall_s`` and the mean probe
time ``ref_s`` it is divided by, and figures that only one kind of workload has
(steps/s, aggregate/fit/propose times, pairs/s).  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  BLAS
and OpenMP are pinned to one thread for this process and everything it
starts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / "out"

SETUP_REPEATS = 7
DEADLINE_S = 170.0  # the whole invocation, set-up samples included

END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("peak_rss_mb", "MB"))
# Printed, not in the result line: raw wall time and the mean probe time it is
# divided by, then figures only one kind of workload has.
WORKLOAD_FIGURES = (("wall_s", "s"), ("ref_s", "s"), ("aggregate_s", "s"), ("fit_s", "s"),
                    ("propose_s", "s"), ("heuristics_s", "s"), ("score_pairs_s", "s"))


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_mixlab():
    """Import mixlab from this checkout's ``src`` and nowhere else."""
    if not (SRC / "mixlab" / "__init__.py").is_file():
        _fail(f"no mixlab sources under {SRC}; run from the root of a mixlab checkout")
    sys.path.insert(0, str(SRC))
    import mixlab

    if Path(mixlab.__file__).resolve().parent != (SRC / "mixlab").resolve():
        _fail(f"imported mixlab from {mixlab.__file__}, not from {SRC}")
    import mixlab.cli  # noqa: F401  (every layer module comes in with the CLI)


# --- child roles --------------------------------------------------------------

def role_setup(workload: str, seed: int, work: Path) -> dict:
    started = time.perf_counter()
    _import_mixlab()
    import workloads

    workloads.make_inputs(workload, seed, work)
    return {"setup_s": time.perf_counter() - started}


def _peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def role_measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    _import_mixlab()
    import reference
    import tracing
    import workloads

    setup = workloads.make_inputs(workload, seed, work)
    body = workloads.body_for(workload)
    jobs = 1 if trace else workloads.pipeline_jobs(workload)
    checks = workloads.Checks()
    digests: list = []

    untraced: list[dict] = []
    traced: list[tuple[float, dict, dict]] = []
    last_tracer = None
    with contextlib.nullcontext() if trace else reference.SpeedProbe() as probe:
        started = time.perf_counter()
        # One untimed execution first, inside the run's time: lazy imports,
        # first-touch allocations and the page cache settle before anything
        # counts.  Its outputs are checked.
        body(setup, checks, digests, jobs)
        while not untraced or time.perf_counter() - started < seconds:
            mark = None if trace else probe.mark()
            timings = body(setup, checks, digests, jobs)
            if not trace:
                timings["ref_s"] = probe.mean_since(mark)
                timings["wall_ref"] = timings["wall_s"] / timings["ref_s"]
            untraced.append(timings)
            if trace:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    timings = body(setup, checks, digests, jobs, tracer)
                finally:
                    tracer.uninstall()
                per_layer, layers = tracing.layer_metrics(tracer, timings["wall_s"])
                per_layer["pipeline.paired_wins"] = (timings.get("paired_wins", 0), "count", None)
                per_layer["pipeline.delta_vs_uniform"] = (timings.get("delta_vs_uniform", 0.0), "score", None)
                traced.append((timings["wall_s"], per_layer, layers))
                last_tracer = tracer

    result = {
        "reps": len(untraced),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "digest": digests[0] if digests else None,
        "digest_runs": len(digests),
        "digests_equal": all(d == digests[0] for d in digests),
        "env": environment(),
    }
    typical = {name: statistics.median(t[name] for t in untraced) for name in untraced[0]}
    if trace:
        plain_wall = typical["wall_s"]
        traced_wall = statistics.median(w for w, _, _ in traced)
        per_layer = tracing.median_metrics([m for _, m, _ in traced])
        per_layer["trace.overhead_frac"] = (
            traced_wall / plain_wall - 1.0, "ratio",
            f"{traced_wall:.4f} s traced / {plain_wall:.4f} s untraced wall at --jobs 1, minus 1")
        # The measured difference is within run-to-run noise on a busy host;
        # spans times the cost of one span bounds the overhead more tightly.
        cost = tracing.span_cost_s()
        spans = per_layer["trace.spans"][0]
        per_layer["trace.span_cost_us"] = (cost * 1e6, "us", None)
        per_layer["trace.overhead_est_frac"] = (
            spans * cost / plain_wall, "ratio",
            f"{spans:.0f} spans x {cost * 1e6:.3f} us / {plain_wall:.4f} s untraced wall")
        result["per_layer"] = {name: list(v) for name, v in per_layer.items()}
        result["layers"] = traced[-1][2]
        result["layers_wall_s"] = traced[-1][0]
        spans_path = WORK_ROOT / f"{workload}.spans.tsv"
        last_tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        result["timings"] = typical
        result["samples"] = {name: [t[name] for t in untraced] for name in untraced[0]}
        result["peak_rss_mb"] = _peak_rss_mb()
        if "steps" in typical:
            result["train_steps_per_s"] = typical["steps"] / typical["wall_s"]
        if "pairs" in typical:
            result["pairs_scored_per_s"] = typical["pairs"] / typical["score_pairs_s"]
    return result


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# --- parent -------------------------------------------------------------------

def _child(role: str, args, work: Path, deadline: float) -> dict:
    """Run this script in ``role`` in a fresh interpreter; kill its process group at the deadline."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the process and any pool workers it started
        proc.communicate()
        _fail(f"{role} process did not finish within {DEADLINE_S:.0f} s of the start")
    except BaseException:  # interrupted or terminated: take the children down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        _fail(f"{role} process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _print_report(args, setup_times: list[float], result: dict, metrics: dict) -> None:
    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  timed executions {result['reps']}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if setup_times:
        print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}")
    if result.get("digest"):
        print(f"pipeline digest over {result['digest_runs']} executions "
              f"(all equal: {result['digests_equal']}):")
        for name, sha in result["digest"].items():
            print(f"  {name:<14} {sha}")
    print(f"output checks: {result['attempted']} attempted, {result['failed']} failed")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if args.trace:
        layers = result["layers"]
        wall = result["layers_wall_s"]
        print(f"\nper-layer self time, one traced execution ({wall:.4f} s traced wall):")
        print(f"  {'layer':<12} {'spans':>9} {'self s':>10} {'share':>7}")
        for layer, (count, own) in layers.items():
            print(f"  {layer:<12} {count:>9} {own:>10.4f} {own / wall:>7.1%}")
        print("\nper-layer metrics (median over traced executions):")
        for name, (value, unit, base) in result["per_layer"].items():
            print(f"  {name:<28} {value:>14.6g} {unit:<6} {base or ''}")
        print(f"spans of the last traced execution: {result['spans_file']}")
    else:
        samples = result["samples"]
        print(f"\nend-to-end metrics (median of {result['reps']} timed executions; "
              f"setup_s: median of {len(setup_times)} set-ups):")
        print(f"  {'metric':<20} {'value':>12} {'unit':<5} {'fastest':>12} {'slowest':>12}")
        for name, entry in metrics.items():
            spread = samples.get(name)
            extra = (f"{min(spread):>12.6g} {max(spread):>12.6g}" if spread
                     else f"{'':>12} {'':>12}")
            print(f"  {name:<20} {entry['value']:>12.6g} {entry['unit']:<5} {extra}")
        print("other figures (median execution; reported, not gated):")
        timings = result["timings"]
        for name, unit in WORKLOAD_FIGURES:
            if name in timings:
                print(f"  {name:<20} {timings[name]:>12.6g} {unit}")
        for name in ("train_steps_per_s", "pairs_scored_per_s"):
            if name in result:
                print(f"  {name:<20} {result[name]:>12.6g} 1/s")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["accept-train", "ragged-refine", "offline-analysis"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--role", choices=["setup", "measure"], default=None, help=argparse.SUPPRESS)
    parser.add_argument("--work", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    sys.path.insert(0, str(HERE))
    if args.role == "setup":
        print(json.dumps(role_setup(args.workload, args.seed, Path(args.work))))
        return
    if args.role == "measure":
        print(json.dumps(role_measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace), Path(args.work))))
        return

    if not (SRC / "mixlab" / "__init__.py").is_file():
        _fail(f"no mixlab sources under {SRC}; run from the root of a mixlab checkout")
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK_ROOT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    work = Path(tempfile.mkdtemp(prefix="work-", dir=WORK_ROOT))
    try:
        # setup_s is an end-to-end metric; a traced run reports per-layer metrics
        # only.  Set-ups run on both sides of the measurement, so their median
        # spans the whole invocation rather than one stretch of the host.
        def set_up(i: int) -> float:
            return _child("setup", args, work / f"setup-{i}", deadline)["setup_s"]

        repeats = 0 if args.trace else SETUP_REPEATS
        setup_times = [set_up(i) for i in range(repeats // 2)]
        result = _child("measure", args, work / "measure", deadline)
        setup_times += [set_up(i) for i in range(repeats // 2, repeats)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in result["per_layer"].items()}
    else:
        timings = result["timings"]
        values = {"setup_s": statistics.median(setup_times),
                  "peak_rss_mb": result["peak_rss_mb"], **timings}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    _print_report(args, setup_times, result, metrics)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
