"""The repository benchmark: campaign throughput, time-to-figure and a
traced per-layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fifo_single --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched,
each timed sample scaled by the host-speed calibration next to it
(``perfbench/calibration.py``).  ``--trace 1`` alternates untraced and
traced repetitions of the same campaign, checks that their counters
are identical, and reports each layer's self time
(``perfbench/spans.py``).  Every metric is printed as
``metric <name> = <value> <unit> (<direction>; layer ...)``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the gated metrics.  A full report (environment,
configuration, checks, samples) goes to ``perfbench/out/``.  The
command exits 1 when any check fails and 2 on a usage error or when
the library sources are missing.
"""

import argparse
import gc
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from typing import Any, Dict, List, Tuple

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
#: Fresh-interpreter set-up samples taken after each timed repetition.
#: Spreading them over the whole run, rather than taking them in one
#: burst, keeps their median from reflecting a few seconds of host load.
SETUP_SAMPLES_PER_REP = 2
#: Minimum timed repetitions (or traced pairs), whatever --seconds says.
MIN_REPS = 3


def environment(seed: int) -> Dict[str, Any]:
    """What the numbers depend on besides the code: compare runs only
    when these agree."""
    import platform
    from importlib import metadata

    import workloads

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(),
            "numpy": version("numpy"), "numba": version("numba"),
            "nproc": workloads.nproc(), "platform": platform.platform(),
            "seed": seed}


class Checks:
    """Named pass/fail results; each failure counts in ``failed``."""

    def __init__(self):
        self.rows: List[Tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.rows.append((name, bool(ok), detail))
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})",
              flush=True)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.rows if not ok)


def setup_seconds(name: str, seed: int) -> Tuple[float, float]:
    """Set-up time of the workload in a fresh interpreter, and the
    calibration loop's time in that interpreter."""
    # Its own output directory: a probe must not touch the files of
    # the run it samples (the fifo workloads' checkpoint).
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), name, str(seed),
         os.path.join(OUT_DIR, "probe")],
        capture_output=True, text=True, timeout=120, check=True)
    host, loop = done.stdout.split()[-2:]
    return float(host), float(loop)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the peak RSS of each live child
    (the pool workers), in MiB.  Call it before the pool closes; the
    set-up probes have ended by then and do not count."""
    pids = [os.getpid()] + [child.pid for child in
                            multiprocessing.active_children()]
    total_kib = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            total_kib += next(int(line.split()[1]) for line in handle
                              if line.startswith("VmHWM:"))
    return total_kib / 1024.0


def print_samples(samples: Dict[str, List[float]], name: str,
                  values: List[float]) -> None:
    samples[name] = values
    print(f"samples {name} {len(values)}: "
          + " ".join(f"{v:.4f}" for v in values), flush=True)


def timed(run) -> Tuple[float, Any]:
    gc.collect()
    start = time.perf_counter()
    value = run()
    return time.perf_counter() - start, value


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for a
    single sample."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- untraced run ------------------------------------------------------
def measure(workload, seconds: float, checks: Checks,
            samples: Dict[str, List[float]]
            ) -> Tuple[Dict[str, float], Any, int]:
    """Warm-up repetition, then timed repetitions for ``seconds``, each
    between two calibrations and followed by set-up samples."""
    workload.prepare()
    reference, chunks = workload.run()
    attempted = chunks
    host_walls, loops, setups = [], [], []
    repeats_equal = True
    started = time.perf_counter()
    while (len(host_walls) < MIN_REPS
           or time.perf_counter() - started < seconds):
        workload.prepare()
        before = calibration.loop_seconds()
        wall, (counters, chunks) = timed(workload.run)
        loops.append((before + calibration.loop_seconds()) / 2)
        host_walls.append(wall)
        attempted += chunks
        repeats_equal &= counters == reference
        setups.extend(setup_seconds(workload.name, workload.seed)
                      for _ in range(SETUP_SAMPLES_PER_REP))
    checks.add("repeat", repeats_equal,
               f"{len(host_walls)} timed repetitions equal the warm-up")
    walls = [calibration.scaled(w, loop)
             for w, loop in zip(host_walls, loops)]
    setup = [calibration.scaled(s, loop) for s, loop in setups]
    metrics = {"seq_per_s": statistics.median(workload.sequences / w
                                              for w in walls),
               "wall_s": statistics.median(walls),
               "setup_s": statistics.median(setup),
               "wall_host_s": statistics.median(host_walls),
               "setup_host_s": statistics.median(s for s, _ in setups),
               "calibration_ms": 1000.0 * statistics.median(
                   loops + [loop for _, loop in setups])}
    print_samples(samples, "wall_s", walls)
    print_samples(samples, "wall_host_s", host_walls)
    print_samples(samples, "calibration_s", loops)
    print_samples(samples, "setup_s", setup)
    print_samples(samples, "setup_host_s", [s for s, _ in setups])
    return metrics, reference, attempted


# -- traced run --------------------------------------------------------
class ProgressLog:
    """Each chunk's cumulative worker-side (setup, compute) seconds, per
    campaign, from the progress callbacks."""

    def __init__(self):
        self.rows: List[tuple] = []

    def __call__(self, campaign: Any, progress) -> None:
        self.rows.append((campaign, progress.setup_seconds,
                          progress.compute_seconds))

    def chunk_timings(self) -> List[Tuple[float, float]]:
        """Per-chunk (setup, compute); empty when the executor reports
        no timing (the serial executor)."""
        last: Dict[Any, Tuple[float, float]] = {}
        out = []
        for campaign, setup, compute in self.rows:
            prev_setup, prev_compute = last.get(campaign, (0.0, 0.0))
            out.append((setup - prev_setup, compute - prev_compute))
            last[campaign] = (setup, compute)
        return out if any(compute for _, compute in out) else []


def layer_metrics(tracer, mark: int, counts: Counter, wall: float,
                  workers: int, timings: List[Tuple[float, float]]
                  ) -> Dict[str, float]:
    """One traced repetition's per-layer split.

    ``timings`` holds each chunk's worker-side ``(setup, compute)``
    seconds when the executor reports them (warm pools); otherwise the
    chunk spans recorded in this process give the compute time.
    """
    own = tracer.self_times(mark)
    calls = tracer.calls(mark)
    if timings:
        chunk_s = [compute for _, compute in timings]
        worker_setup = sum(setup for setup, _ in timings)
    else:
        chunk_s = tracer.durations("campaigns.chunk", mark)
        worker_setup = 0.0
    compute = sum(chunk_s)
    batches = calls["engines.summary"]
    split = {
        "faults.sample_s": own["faults.sample"],
        "faults.flips": counts["faults.flips"],
        "validation.stimulus_s": own["validation.stimulus"],
        "validation.batch_self_s": own["validation.batch"],
        "validation.build_s": own["validation.build"],
        "circuit.reset_s": own["circuit.reset"],
        "circuit.push_s": own["circuit.push"],
        "circuit.push_calls": calls["circuit.push"],
        "circuit.build_s": own["circuit.build"],
        "power.sleep_s": own["power.sleep"],
        "power.wake_s": own["power.wake"],
        "power.cycles": calls["power.wake"],
        "engines.pack_s": own["engines.pack"],
        "engines.summary_s": own["engines.summary"],
        "engines.summary_batches": batches,
        "engines.delta_share": (counts["engines.delta_batches"] / batches
                                if batches else 0.0),
        "engines.build_s": own["engines.build"],
        "core.cycle_self_s": own["core.cycle"],
        "core.build_s": own["core.build"],
        "campaigns.run_self_s": own["campaigns.run"],
        "campaigns.chunk_self_s": own["campaigns.chunk"],
        "campaigns.stats_s": own["campaigns.stats"],
        "campaigns.checkpoint_s": own["campaigns.checkpoint"],
        "campaigns.checkpoint_writes": counts["campaigns.checkpoint_writes"],
        "campaigns.chunks": len(chunk_s),
        "campaigns.chunk_ms_p50": 1000.0 * quantile(chunk_s, 50),
        "campaigns.chunk_ms_p99": 1000.0 * quantile(chunk_s, 99),
        "campaigns.worker_setup_s": worker_setup,
        "campaigns.worker_busy_frac": compute / (workers * wall),
        "campaigns.parent_wait_s": wall - compute / workers,
        "analysis.trial_s": own["analysis.trial"],
        "trace.unaccounted_frac": (wall - sum(own.values())) / wall,
    }
    return with_shares(split, wall)


def with_shares(split: Dict[str, float], wall: float) -> Dict[str, float]:
    """Add the ``*_share`` twin of every seconds metric in ``split``."""
    import catalog

    for metric in catalog.PER_LAYER:
        if metric.unit == "s" and metric.name in split:
            split[catalog.share(metric).name] = split[metric.name] / wall
    return split


def trace(workload, seconds: float, checks: Checks,
          samples: Dict[str, List[float]], spans_path: str
          ) -> Tuple[Dict[str, float], Any, int]:
    """Alternate untraced and traced repetitions; per-layer medians."""
    import spans

    tracer = spans.layer_tracer()
    workload.prepare()
    reference, chunks = workload.run()
    attempted = chunks
    untraced_walls, traced_walls, splits = [], [], []
    repeats_equal = traced_equal = True
    started = time.perf_counter()
    while (len(traced_walls) < MIN_REPS
           or time.perf_counter() - started < seconds):
        workload.prepare()
        wall, (counters, chunks) = timed(workload.run)
        untraced_walls.append(wall)
        attempted += chunks
        repeats_equal &= counters == reference

        log = ProgressLog()
        workload.prepare()
        mark, before = tracer.mark(), Counter(tracer.counts)
        with tracer:
            wall, (counters, chunks) = timed(
                lambda: workload.run_observed(log))
        traced_walls.append(wall)
        attempted += chunks
        traced_equal &= counters == reference
        splits.append(layer_metrics(
            tracer, mark, tracer.counts - before, wall, workload.workers,
            log.chunk_timings()))
    checks.add("repeat", repeats_equal,
               f"{len(untraced_walls)} untraced repetitions equal the "
               f"warm-up")
    checks.add("traced_equals_untraced", traced_equal,
               f"{len(traced_walls)} traced repetitions, counters "
               f"bit-identical to the untraced run")
    metrics = {name: statistics.median(split[name] for split in splits)
               for name in splits[0]}
    metrics["trace_overhead"] = (statistics.median(traced_walls)
                                 / statistics.median(untraced_walls))
    print_samples(samples, "untraced_wall_s", untraced_walls)
    print_samples(samples, "traced_wall_s", traced_walls)
    if workload.name == "fig10":
        # Trials run in the pool's workers, out of this process's
        # sight; one serial pass measures them here.
        mark = tracer.mark()
        with tracer:
            wall, (serial, chunks) = timed(
                lambda: workload.run_jobs("serial"))
        attempted += chunks
        metrics.update(with_shares({"analysis.trial_s": tracer.self_times(
            mark)["analysis.trial"]}, wall))
        checks.add("serial_equals_warm", serial == reference,
                   "traced serial pass equals fig10_curves on the pool")
    tracer.write(spans_path)
    return metrics, reference, attempted


# -- command line ------------------------------------------------------
def describe(metric, value: float) -> Dict[str, Any]:
    """Print one metric line; return its report row."""
    moves = f"; moves {metric.moves}" if metric.moves else ""
    print(f"metric {metric.name} = {value!r} {metric.unit} "
          f"({metric.better}; layer {metric.layer}{moves})", flush=True)
    return dict(metric._asdict(), value=value)


def run_workload(args, checks: Checks, report: Dict[str, Any]
                 ) -> Tuple[Dict[str, float], int]:
    """Set up, measure, check; returns (printed metrics, attempted).
    Configuration and raw samples go into ``report``."""
    import catalog
    import workloads

    samples = report["samples"]
    spans_path = os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl")
    workload = workloads.build(args.workload, args.seed, OUT_DIR)
    try:
        report["config"] = workload.config()
        print(f"config {json.dumps(report['config'], sort_keys=True)}",
              flush=True)
        if args.trace:
            metrics, reference, attempted = trace(
                workload, args.seconds, checks, samples, spans_path)
        else:
            metrics, reference, attempted = measure(
                workload, args.seconds, checks, samples)
        outcomes = workload.outcomes(reference)
        if args.workload == "fig10":
            checks.add("binomial", *workload.binomial_check(reference))
            if not args.trace:
                serial, chunks = workload.run("serial")
                attempted += chunks
                checks.add("serial_equals_warm", serial == reference,
                           "fig10_curves serial equals process-warm")
        else:
            checks.add("paper", *workload.paper_checks(outcomes))
            checks.add("checkpoint",
                       *workload.checkpoint_complete(reference))
            checks.add("engine_equivalence", *workload.engine_equivalence())
        if not args.trace:
            metrics["peak_rss_mb"] = peak_rss_mb()
    finally:
        workload.close()
        for child in multiprocessing.active_children():
            child.join(timeout=10.0)
    metrics.update(outcomes)
    metrics["fail_frac"] = checks.failed / attempted
    shares = [catalog.share(m) for m in catalog.PER_LAYER if m.unit == "s"]
    report["metrics"] = [
        describe(metric, metrics[metric.name])
        for metric in catalog.END_TO_END + catalog.HOST + catalog.OUTCOMES
        + catalog.PER_LAYER + shares if metric.name in metrics]
    return metrics, attempted


def main(argv=None) -> int:
    import catalog

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isdir(os.path.join(ROOT, "src", "repro"))
            and os.path.isfile(manifest_path)):
        print(f"perfbench: {ROOT} holds no src/repro or BENCHMARK.json; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    problems = catalog.check_manifest(manifest)
    if problems:
        print("perfbench: " + "; ".join(problems), file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    env = environment(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}", flush=True)
    print(f"env {json.dumps(env, sort_keys=True)}", flush=True)
    checks = Checks()
    report: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "env": env, "samples": {}}
    try:
        metrics, attempted = run_workload(args, checks, report)
    except Exception:
        # A campaign that raises (e.g. ChunkExecutionError) is a failed
        # run: report it as such rather than as a crash of the harness.
        traceback.print_exc()
        checks.add("completed", False, "the workload raised")
        metrics, attempted = {}, 1

    gated = catalog.GATED_PER_LAYER if args.trace else catalog.END_TO_END
    report["checks"] = [{"name": n, "ok": ok, "detail": d}
                        for n, ok, d in checks.rows]
    with open(os.path.join(OUT_DIR, f"{args.workload}.trace{args.trace}"
                                    f".json"), "w", encoding="utf-8") as out:
        json.dump(report, out, indent=1, sort_keys=True)
    result = {"correct": checks.failed == 0, "attempted": attempted,
              "failed": checks.failed,
              "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                          for m in gated if m.name in metrics}}
    print(json.dumps(result), flush=True)
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
