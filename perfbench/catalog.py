"""Every metric the benchmark prints: name, unit, direction, layer and
the prediction of which end-to-end metric it should move.

``BENCHMARK.json`` at the repository root repeats the name, unit and
direction of the gated subset (``end_to_end``: host-time and memory
metrics that are never zero; ``per_layer``: the traced split).  The
run refuses to start when the two disagree, so this module is the one
place a metric is defined.

Directions: ``higher``/``lower`` are better-when; ``exact`` marks a
simulated statistic, which must repeat bit for bit for a given seed --
any movement is a behaviour change, not a speed change.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    #: Which end-to-end metric this one should move, on which workload.
    moves: Optional[str] = None


#: Time and memory metrics of the untraced run (gated in
#: ``BENCHMARK.json``).  Times are in reference-host seconds: host
#: seconds scaled by the calibration loop timed next to each sample
#: (``calibration.py``).
END_TO_END: List[Metric] = [
    Metric("seq_per_s", "seq/s", "higher", "e2e"),
    Metric("wall_s", "s", "lower", "e2e"),
    Metric("setup_s", "s", "lower", "e2e"),
    Metric("peak_rss_mb", "MB", "lower", "e2e"),
]
#: The same times in unscaled host seconds, and the calibration loop's
#: median time: printed and recorded, not gated.
HOST: List[Metric] = [
    Metric("wall_host_s", "s", "lower", "host"),
    Metric("setup_host_s", "s", "lower", "host"),
    Metric("calibration_ms", "ms", "lower", "host"),
]
#: The simulated statistics and the failure share: printed and
#: checked, not gated (several are zero by design).
OUTCOMES: List[Metric] = [
    Metric("fail_frac", "frac", "lower", "e2e"),
    # fifo workloads
    Metric("detect_rate", "frac", "exact", "sim"),
    Metric("correct_rate", "frac", "exact", "sim"),
    Metric("silent_corruptions", "count", "exact", "sim"),
    # fig10
    Metric("fig10_err_pp", "pp", "exact", "sim"),
    Metric("fig10_paper_err_pp", "pp", "exact", "sim"),
]

_SINGLE = "seq_per_s on fifo_single"
_MULTI = "seq_per_s on fifo_multi"
_FIG10 = "wall_s and setup_s on fig10; unchanged on the serial fifo workloads"

#: The traced split.  Seconds are host seconds of one campaign
#: repetition (median over the traced repetitions); ``*_s`` of a span
#: is its self time, children excluded.  Printed, but listed in
#: ``BENCHMARK.json`` as :data:`GATED_PER_LAYER`.
PER_LAYER: List[Metric] = [
    Metric("faults.sample_s", "s", "lower", "faults",
           _MULTI + "; unchanged elsewhere"),
    Metric("faults.flips", "count", "lower", "faults",
           "none (work count)"),
    Metric("validation.stimulus_s", "s", "lower", "validation", _SINGLE),
    Metric("validation.batch_self_s", "s", "lower", "validation", _SINGLE),
    Metric("validation.build_s", "s", "lower", "validation", _SINGLE),
    Metric("circuit.reset_s", "s", "lower", "circuit", _SINGLE),
    Metric("circuit.push_s", "s", "lower", "circuit", _SINGLE),
    Metric("circuit.push_calls", "count", "lower", "circuit",
           "none (work count)"),
    Metric("circuit.build_s", "s", "lower", "circuit", _SINGLE),
    Metric("power.sleep_s", "s", "lower", "power", _SINGLE),
    Metric("power.wake_s", "s", "lower", "power", _SINGLE),
    Metric("power.cycles", "count", "lower", "power", "none (work count)"),
    Metric("engines.pack_s", "s", "lower", "engines", _SINGLE),
    Metric("engines.summary_s", "s", "lower", "engines",
           _SINGLE + "; smaller on fifo_multi"),
    Metric("engines.summary_batches", "count", "lower", "engines",
           "none (work count)"),
    Metric("engines.delta_share", "frac", "higher", "engines",
           "engines.summary_s on the fifo workloads"),
    Metric("engines.build_s", "s", "lower", "engines", _SINGLE),
    Metric("core.cycle_self_s", "s", "lower", "core", _SINGLE),
    Metric("core.build_s", "s", "lower", "core", _SINGLE),
    Metric("campaigns.run_self_s", "s", "lower", "campaigns", _FIG10),
    Metric("campaigns.chunk_self_s", "s", "lower", "campaigns", _SINGLE),
    Metric("campaigns.stats_s", "s", "lower", "campaigns", _FIG10),
    Metric("campaigns.checkpoint_s", "s", "lower", "campaigns",
           "wall_s on the fifo workloads (checkpointed)"),
    Metric("campaigns.checkpoint_writes", "count", "lower", "campaigns",
           "campaigns.checkpoint_s"),
    Metric("campaigns.chunks", "count", "lower", "campaigns",
           "none (work count)"),
    Metric("campaigns.chunk_ms_p50", "ms", "lower", "campaigns", _FIG10),
    Metric("campaigns.chunk_ms_p99", "ms", "lower", "campaigns", _FIG10),
    Metric("campaigns.worker_setup_s", "s", "lower", "campaigns", _FIG10),
    Metric("campaigns.worker_busy_frac", "frac", "higher", "campaigns",
           _FIG10),
    Metric("campaigns.parent_wait_s", "s", "lower", "campaigns", _FIG10),
    Metric("analysis.trial_s", "s", "lower", "analysis",
           "wall_s on fig10"),
    Metric("trace_overhead", "ratio", "lower", "trace",
           "none (traced wall / untraced wall)"),
    Metric("trace.unaccounted_frac", "frac", "lower", "trace",
           "none (share of traced wall outside every span)"),
]


def share(metric: Metric) -> Metric:
    """The ``*_share`` twin of a seconds metric: its share of the wall
    time of the same repetition."""
    return Metric(metric.name[:-len("_s")] + "_share", "frac",
                  metric.better, metric.layer, metric.moves)


#: The traced split as ``BENCHMARK.json`` lists it: every seconds
#: metric as its share of the repetition's wall time, everything else
#: as is.  Shares survive the host's speed drifting between runs, and a
#: layer that a workload never enters reads a share of 0 rather than a
#: constant time.
GATED_PER_LAYER: List[Metric] = [share(m) if m.unit == "s" else m
                                 for m in PER_LAYER]

#: Workload names, in ``BENCHMARK.json`` order (its ``why`` lines say
#: what each is for).
WORKLOADS = ("fifo_single", "fifo_multi", "fig10")


def check_manifest(manifest: dict) -> List[str]:
    """Differences between ``BENCHMARK.json`` and this catalogue."""
    problems = []
    expected = {
        "end_to_end": [(m.name, m.unit, m.better) for m in END_TO_END],
        "per_layer": [(m.name, m.unit, m.better)
                      for m in GATED_PER_LAYER],
    }
    for key, rows in expected.items():
        listed = [(row.get("name"), row.get("unit"), row.get("better"))
                  for row in manifest.get(key, [])]
        if listed != rows:
            problems.append(f"BENCHMARK.json {key} differs from the "
                            f"catalogue: {listed} != {rows}")
    names = [row.get("name") for row in manifest.get("workloads", [])]
    if names != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != "
                        f"{list(WORKLOADS)}")
    return problems
