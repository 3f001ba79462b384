"""Benchmark E10: one warm pool against a pool built per job.

The campaign service's weak regime is many small jobs.  A pool built
for each job pays worker spin-up, task shipping and full bench
construction (design, chains, monitor bank, engine workspaces) once
per job, so on short campaigns the fixed costs dominate the actual
simulation.  One :class:`~repro.campaigns.executors.\
PersistentProcessExecutor` that outlives the jobs pays each of those
once per worker *lifetime*: tasks ship at most once per worker, and
workers memoize the seed-independent bench per task fingerprint,
rebuilding only the seed-dependent streams per chunk.

The committed ``campaign_warm_pool`` section times K back-to-back
campaigns two ways, both on one-worker pools of the same class:

* **per-job pool** -- a fresh ``PersistentProcessExecutor(1)`` per
  job, closed when the job ends;
* **one pool** -- a single ``PersistentProcessExecutor(1)`` serving
  every job.

The guarded headline is ``warm_speedup_many_jobs`` (floor 2x).  The
two sides are timed interleaved A, B, A, B, ... after an untimed
warm-up and reduced min-of-k, so host drift hits both alike.  That
both sides are bit-identical to the serial reference is asserted on
separate untimed runs, as is the setup-vs-compute split reported
through ``CampaignProgress``: by the last job of the one pool the
worker-state cache is hot, so its cumulative ``setup_seconds`` must be
exactly zero.
"""

import pytest

from benchmarks.conftest import (
    bench_sequences,
    print_section,
    record_bench,
    time_interleaved,
)
from repro.campaigns.executors import PersistentProcessExecutor
from repro.campaigns.runner import ShardedCampaignRunner
from repro.campaigns.tasks import FIFOValidationCampaignTask

#: Interleaved repeats of the timing pair (min-of-k).
REPEATS = 7
SPEEDUP_FLOOR = 2.0


def _service_task():
    """The paper's 32x32/80-chain configuration on the simd engine --
    heavy seed-independent construction, vectorised per-chunk compute:
    exactly the balance the warm pool exists to amortize."""
    return FIFOValidationCampaignTask(
        width=32, depth=32, codes=("hamming(7,4)", "crc16"), num_chains=80,
        pattern="single", engine="simd", sampler="array", batch_size=8,
        words_per_sequence=8)


def _run_job(pool, task, sequences, seed, chunk_size, progress=None):
    return ShardedCampaignRunner(task, sequences, seed=seed,
                                 chunk_size=chunk_size, executor=pool,
                                 progress_callback=progress).run()


def _per_job_pools(task, sequences, seeds, chunk_size):
    """Every job on a one-worker pool of its own."""
    results = {}
    for seed in seeds:
        with PersistentProcessExecutor(1) as pool:
            results[seed] = _run_job(pool, task, sequences, seed,
                                     chunk_size)
    return results


def _one_pool(task, sequences, seeds, chunk_size, progress=None):
    """Every job on one shared one-worker pool; ``progress[seed]``
    receives each job's final snapshot when given."""
    results = {}
    with PersistentProcessExecutor(1) as pool:
        for seed in seeds:
            snapshots = []
            results[seed] = _run_job(pool, task, sequences, seed,
                                     chunk_size, snapshots.append)
            if progress is not None:
                progress[seed] = snapshots[-1]
    return results


@pytest.mark.benchmark(group="campaign-warm-pool")
def test_warm_pool_amortization(benchmark):
    pytest.importorskip("numpy")
    task = _service_task()
    sequences = bench_sequences(64)
    chunk_size = min(8, sequences)
    num_jobs = 8
    seeds = [20100308 + job for job in range(num_jobs)]
    args = (task, sequences, seeds, chunk_size)

    serial = {seed: ShardedCampaignRunner(task, sequences, seed=seed,
                                          chunk_size=chunk_size,
                                          executor="serial").run()
              for seed in seeds}
    assert _per_job_pools(*args) == serial
    progress = {}
    assert _one_pool(*args, progress=progress) == serial

    # The amortization is observable through the timing split: the
    # first job pays the worker-state build once, the last job's
    # chunks are all served from the hot cache.
    first, last = progress[seeds[0]], progress[seeds[-1]]
    assert first.setup_seconds > 0.0
    assert last.setup_seconds == 0.0
    assert last.compute_seconds > 0.0

    best = time_interleaved({
        "per_job_pool": lambda: _per_job_pools(*args),
        "one_pool": lambda: _one_pool(*args),
    }, REPEATS)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    speedup = best["per_job_pool"] / best["one_pool"]

    results = {
        "requires": ["numpy"],
        "num_jobs": num_jobs,
        "sequences_per_job": sequences,
        "chunk_size": chunk_size,
        "repeats": REPEATS,
        "per_job_pool_s": best["per_job_pool"],
        "one_pool_s": best["one_pool"],
        "warm_speedup_many_jobs": speedup,
        "first_job_setup_s": first.setup_seconds,
        "last_job_setup_s": last.setup_seconds,
        "floors": {
            # One pool must beat a pool per job decisively in the
            # many-small-jobs regime; the floor leaves room for noisy
            # CI boxes.
            "warm_speedup_many_jobs": SPEEDUP_FLOOR,
        },
    }
    path = record_bench("campaigns", results, section="campaign_warm_pool")

    print_section(
        f"Warm pool ({num_jobs} jobs x {sequences} sequences, "
        f"chunk={chunk_size}, simd engine, 1 worker, min of {REPEATS})",
        "\n".join([
            f"a pool per job : {best['per_job_pool'] * 1e3:8.1f} ms",
            f"one pool       : {best['one_pool'] * 1e3:8.1f} ms "
            f"({speedup:.2f}x, acceptance: >= {SPEEDUP_FLOOR}x)",
            f"first-job setup {first.setup_seconds * 1e3:.1f} ms -> "
            f"last-job setup {last.setup_seconds * 1e3:.1f} ms "
            f"(cache hot)",
            f"results written to {path}",
        ]))
