"""The benchmark's workloads: inputs from the seed, the timed campaign
and the outputs the checks compare.

Each workload object is built by :func:`build` (that construction is
what ``setup_s`` times), then runs its campaign any number of times
through public entry points only: ``ShardedCampaignRunner`` with
``FIFOValidationCampaignTask`` for the FIFO workloads,
``fig10_curves`` (and, for the traced split, the same 40 jobs through
``CampaignScheduler``) for ``fig10``.  The seed is the campaign root
seed; repeating a campaign with the same seed must give the same
counters, which the harness checks on every repetition.
"""

from __future__ import annotations

import math
import os
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

#: The paper's Section IV bench (Fig. 8): 32x32 FIFO, Hamming(7,4)
#: correction with CRC-16 verification over 80 scan chains, on the
#: columnar summary path.
FIFO_BENCH = dict(width=32, depth=32, codes=("hamming(7,4)", "crc16"),
                  num_chains=80, engine="simd", sampler="array",
                  batch_size=4096)
FIFO_PATTERN = {"fifo_single": "single", "fifo_multi": "multiple"}
#: Campaign length per repetition.  With default chunking both give 64
#: or 32 chunks; the single-error campaign is 16x longer because each
#: of its sequences is ~15x cheaper to sample.
FIFO_SEQUENCES = {"fifo_single": 1 << 21, "fifo_multi": 1 << 17}
#: Length of the engine-equivalence check: the packed engine runs the
#: object path at a few hundred sequences per second.
EQUIVALENCE_SEQUENCES = 256

#: Monte-Carlo trials per Fig. 10 point (the paper used 10^6).
FIG10_SEQUENCES = 20_000
FIG10_BITS = 1000
FIG10_ERRORS = tuple(range(1, 11))
#: Per-point tolerance of the Monte-Carlo curve against the closed
#: form, in standard errors.  A point's corrected fraction is the mean
#: of per-sequence shares of m correlated Bernoulli(p) trials, so its
#: variance is at most p(1-p)/sequences.
FIG10_SIGMAS = 5.0


def nproc() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class FifoWorkload:
    """A Section IV validation campaign on the serial executor, with a
    checkpoint file."""

    workers = 1

    def __init__(self, name: str, seed: int, out_dir: str):
        from repro.campaigns import FIFOValidationCampaignTask

        self.name = name
        self.seed = seed
        self.sequences = FIFO_SEQUENCES[name]
        self.task = FIFOValidationCampaignTask(
            pattern=FIFO_PATTERN[name], **FIFO_BENCH)
        self.checkpoint = os.path.join(out_dir, f"{name}.ckpt.json")

    def config(self) -> Dict[str, Any]:
        return {"task": self.task.fingerprint(),
                "sequences": self.sequences, "executor": "serial",
                "checkpoint": True, "seed": self.seed}

    def prepare(self) -> None:
        """Start every repetition from an empty checkpoint."""
        if os.path.exists(self.checkpoint):
            os.remove(self.checkpoint)

    def run(self, progress: Optional[Callable] = None,
            task: Any = None, sequences: Optional[int] = None
            ) -> Tuple[Dict[str, Any], int]:
        """One campaign: counters and the number of chunks run."""
        from repro.campaigns import ShardedCampaignRunner

        runner = ShardedCampaignRunner(
            task or self.task, sequences or self.sequences, seed=self.seed,
            executor="serial", checkpoint_path=self.checkpoint,
            progress_callback=progress)
        return runner.run().to_dict(), runner.num_chunks

    def run_observed(self, log: Callable) -> Tuple[Dict[str, Any], int]:
        """:meth:`run` reporting each chunk to ``log(None, snapshot)``."""
        return self.run(progress=partial(log, None))

    def engine_equivalence(self) -> Tuple[bool, str]:
        """A short run on the packed engine equals the simd run of the
        same length (the array sampler is engine-independent)."""
        from dataclasses import replace

        packed = replace(self.task, engine="packed")
        self.prepare()
        simd_counters, _ = self.run(sequences=EQUIVALENCE_SEQUENCES)
        self.prepare()
        packed_counters, _ = self.run(task=packed,
                                      sequences=EQUIVALENCE_SEQUENCES)
        self.prepare()
        return (simd_counters == packed_counters,
                f"{EQUIVALENCE_SEQUENCES} sequences, simd vs packed")

    def checkpoint_complete(self, counters: Dict[str, Any]
                            ) -> Tuple[bool, str]:
        """The checkpoint left by the last run holds every chunk of the
        plan, and its chunks merge to that run's counters."""
        import json

        from repro.campaigns import ShardedCampaignRunner

        chunks = ShardedCampaignRunner(self.task, self.sequences,
                                       seed=self.seed).num_chunks
        with open(self.checkpoint, "r", encoding="utf-8") as handle:
            completed = json.load(handle)["completed"]
        merged = self.task.empty_result()
        for index in sorted(completed, key=int):
            merged.merge(self.task.result_from_dict(completed[index]))
        ok = len(completed) == chunks and merged.to_dict() == counters
        return ok, f"{len(completed)}/{chunks} chunks checkpointed"

    def outcomes(self, counters: Dict[str, Any]) -> Dict[str, float]:
        stats = self.task.result_from_dict(counters).stats
        return {"detect_rate": stats.detection_rate(),
                "correct_rate": stats.correction_rate(),
                "silent_corruptions": stats.silent_corruptions}

    def paper_checks(self, outcomes: Dict[str, float]
                     ) -> Tuple[bool, str]:
        """Section IV headline: every single error detected and
        corrected; multiple errors always detected."""
        from repro.analysis.paper_data import VALIDATION_SUMMARY

        if self.name == "fifo_single":
            paper = VALIDATION_SUMMARY["single_error"]
            ok = (outcomes["detect_rate"] == paper["detection_rate"]
                  and outcomes["correct_rate"] == paper["correction_rate"]
                  and outcomes["silent_corruptions"] == 0)
            return ok, "detect_rate == correct_rate == 1, no silent corruption"
        paper = VALIDATION_SUMMARY["multiple_error"]
        return (outcomes["detect_rate"] == paper["detection_rate"],
                "detect_rate == 1")

    def close(self) -> None:
        self.prepare()


class Fig10Workload:
    """``fig10_curves`` on a warm process pool built during set-up."""

    def __init__(self, name: str, seed: int, out_dir: str):
        from repro.campaigns import PersistentProcessExecutor
        from repro.codes.hamming import PAPER_HAMMING_CODES

        self.name = name
        self.seed = seed
        self.workers = min(2, nproc())
        self.points = len(PAPER_HAMMING_CODES) * len(FIG10_ERRORS)
        self.sequences = self.points * FIG10_SEQUENCES
        self.pool = PersistentProcessExecutor(self.workers)
        try:
            self._spin_up()
        except BaseException:
            self.pool.close()
            raise

    def _spin_up(self) -> None:
        """Start the pool's workers with one tiny job per worker."""
        from repro.analysis.correction_capability import (
            CorrectionCapabilityTask,
        )
        from repro.campaigns import CampaignScheduler

        scheduler = CampaignScheduler(executor=self.pool)
        scheduler.submit(CorrectionCapabilityTask(7, 4, FIG10_BITS, 1,
                                                  "packed"),
                         self.workers, seed=0, chunk_size=1)
        scheduler.run()

    def config(self) -> Dict[str, Any]:
        return {"sequences_per_point": FIG10_SEQUENCES,
                "engine": "packed", "executor": "process-warm",
                "num_workers": self.workers, "chunking": "default",
                "seed": self.seed}

    def prepare(self) -> None:
        pass

    def run(self, executor: Any = None) -> Tuple[Dict[str, Any], int]:
        """The figure: ``fig10_curves`` on the warm pool (or on
        ``executor``, e.g. ``"serial"`` for the equivalence check)."""
        from repro.analysis.correction_capability import fig10_curves

        curves = fig10_curves(
            error_counts=FIG10_ERRORS, num_bits=FIG10_BITS,
            sequences=FIG10_SEQUENCES, seed=self.seed, engine="packed",
            executor=self.pool if executor is None else executor,
            num_workers=self.workers)
        points = {f"{n},{k},{point.num_errors}":
                  [point.sequences, point.corrected_fraction,
                   point.sequences_fully_corrected]
                  for (n, k), curve in curves.items() for point in curve}
        return points, self.num_chunks()

    def run_jobs(self, executor: Any, progress: Optional[Callable] = None
                 ) -> Tuple[Dict[str, Any], int]:
        """The same 40 campaigns as ``fig10_curves``, submitted to a
        ``CampaignScheduler`` directly so ``progress(point, snapshot)``
        sees every chunk.  Returns the same points as :meth:`run`."""
        from repro.analysis.correction_capability import (
            CorrectionCapabilityTask,
        )
        from repro.campaigns import CampaignScheduler, child_seed
        from repro.codes.hamming import PAPER_HAMMING_CODES

        scheduler = CampaignScheduler(executor=executor)
        jobs = {}
        for n, k in PAPER_HAMMING_CODES:
            curve_seed = child_seed(self.seed, "fig10", n, k)
            for m in FIG10_ERRORS:
                task = CorrectionCapabilityTask(
                    code_n=n, code_k=k, num_bits=FIG10_BITS, num_errors=m,
                    engine="packed")
                key = f"{n},{k},{m}"
                jobs[key] = (m, scheduler.submit(
                    task, FIG10_SEQUENCES,
                    seed=child_seed(curve_seed, "errors", m),
                    progress_callback=(None if progress is None
                                       else partial(progress, key))))
        try:
            scheduler.run()
        finally:
            scheduler.close()
        points = {}
        for key, (m, job) in jobs.items():
            counters = job.result
            points[key] = [counters.sequences,
                           counters.corrected_bits / (counters.sequences * m),
                           counters.fully_corrected]
        return points, self.num_chunks()

    def run_observed(self, log: Callable) -> Tuple[Dict[str, Any], int]:
        """:meth:`run_jobs` on the warm pool, reporting each chunk to
        ``log(point, snapshot)``."""
        return self.run_jobs(self.pool, log)

    def num_chunks(self) -> int:
        from repro.campaigns import default_chunk_size

        return self.points * math.ceil(
            FIG10_SEQUENCES / default_chunk_size(FIG10_SEQUENCES))

    def outcomes(self, points: Dict[str, Any]) -> Dict[str, float]:
        from repro.analysis.paper_data import FIG10_REFERENCE

        analytic = self._analytic()
        err = max(abs(points[key][1] - p) for key, p in analytic.items())
        paper = [abs(points[f"{n},{k},{m}"][1] * 100.0 - value)
                 for (n, k), quoted in FIG10_REFERENCE.items()
                 for m, value in quoted.items() if value is not None]
        return {"fig10_err_pp": 100.0 * err,
                "fig10_paper_err_pp": max(paper)}

    def binomial_check(self, points: Dict[str, Any]) -> Tuple[bool, str]:
        """Every point within FIG10_SIGMAS standard errors of the
        closed form."""
        worst = 0.0
        for key, p in self._analytic().items():
            sigma = math.sqrt(p * (1.0 - p) / FIG10_SEQUENCES)
            gap = abs(points[key][1] - p)
            if gap > FIG10_SIGMAS * sigma + 1e-12:
                return False, f"point {key}: |mc - analytic| = {gap:.5f} " \
                              f"> {FIG10_SIGMAS} x {sigma:.5f}"
            if sigma > 0:
                worst = max(worst, gap / sigma)
        return True, (f"all {self.points} points within {FIG10_SIGMAS} "
                      f"standard errors (worst {worst:.2f})")

    @staticmethod
    def _analytic() -> Dict[str, float]:
        from repro.analysis.correction_capability import (
            analytic_correction_probability,
        )
        from repro.codes.hamming import PAPER_HAMMING_CODES, HammingCode

        return {f"{n},{k},{m}": analytic_correction_probability(
                    HammingCode(n, k), FIG10_BITS, m)
                for n, k in PAPER_HAMMING_CODES for m in FIG10_ERRORS}

    def close(self) -> None:
        self.pool.close()


def build(name: str, seed: int, out_dir: str):
    """Set up one workload (imports, task and executor construction,
    pool spin-up): everything before the timed region."""
    if name in FIFO_PATTERN:
        return FifoWorkload(name, seed, out_dir)
    if name == "fig10":
        return Fig10Workload(name, seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")
