"""In-process executors on reused worker state: the serial executor
keeps one state cache for its lifetime, the thread pool one per worker
thread for the pool's lifetime.  Both must stay bit-identical to the
per-chunk cold path, survive a poisoned chunk, and report the
setup/compute split."""

import gc
import threading
import time
import weakref
from dataclasses import dataclass

import pytest

from repro.analysis.correction_capability import CorrectionCounters
from repro.campaigns.executors import (
    ChunkExecutionError,
    SerialExecutor,
    resolve_executor,
)
from repro.campaigns.plan import ChunkPlan
from repro.campaigns.runner import CampaignTask, ShardedCampaignRunner
from repro.campaigns.scheduler import CampaignScheduler
from repro.campaigns.tasks import FIFOValidationCampaignTask

NUM_CHUNKS = 16
CHUNK = 4


def _fifo_task(sampler="scalar", pattern="burst", **overrides):
    common = dict(width=4, depth=4, codes=("hamming(7,4)", "crc16"),
                  num_chains=4, pattern=pattern, burst_size=2,
                  words_per_sequence=2)
    common.update(overrides)
    if sampler == "array":
        return FIFOValidationCampaignTask(engine="simd", batch_size=CHUNK,
                                          sampler="array", **common)
    return FIFOValidationCampaignTask(engine="packed", **common)


def _cold_fold(task, plan):
    """The campaign result from per-chunk cold ``run_chunk`` calls."""
    merged = task.empty_result()
    for entry in plan.entries:
        merged.merge(task.run_chunk(entry.chunk_seed, entry.count))
    return merged


def _run_timed(executor, task, plan):
    """One campaign through ``executor``: the merged result and each
    yielded chunk's timing."""
    merged = task.empty_result()
    timings = []
    for _index, result in executor.submit(iter(plan.entries), task):
        timings.append(executor.last_chunk_timing)
        merged.merge(result)
    return merged, timings


@dataclass(frozen=True)
class PoisonedFIFOTask(FIFOValidationCampaignTask):
    """Strands the bench mid-chunk on ``poison_seed``, then raises."""

    poison_seed: int = -1

    def _run_sequences(self, design, testbench, chunk_seed, num_sequences):
        if chunk_seed == self.poison_seed:
            super()._run_sequences(design, testbench, chunk_seed, 1)
            for flop in design._padding:
                flop.force(1)
                flop.force_retention(1)
            for flop in design.circuit.registers:
                flop.force(1)
                flop.power_off()
            design.controller.sleep_request()
            raise RuntimeError("poisoned chunk")
        return super()._run_sequences(design, testbench, chunk_seed,
                                      num_sequences)


class TestSerialReuse:
    PLAN = ChunkPlan.build(20100308, NUM_CHUNKS * CHUNK, CHUNK)

    @pytest.mark.parametrize("pattern", ("single", "burst", "multiple"))
    @pytest.mark.parametrize("sampler", ("scalar", "array"))
    def test_one_build_then_hits_and_cold_equal(self, sampler, pattern):
        if sampler == "array":
            pytest.importorskip("numpy")
        task = _fifo_task(sampler, pattern)
        executor = SerialExecutor()
        result, timings = _run_timed(executor, task, self.PLAN)

        assert result == _cold_fold(task, self.PLAN)
        assert executor.cache.misses == 1
        assert executor.cache.hits == NUM_CHUNKS - 1
        assert len(timings) == NUM_CHUNKS
        first, rest = timings[0], timings[1:]
        assert first.setup_seconds > 0.0 and not first.cache_hit
        assert all(t.setup_seconds == 0.0 and t.cache_hit for t in rest)
        assert all(t.compute_seconds > 0.0 for t in timings)

    def test_poisoned_chunk_then_the_same_executor_stays_exact(self):
        poison = self.PLAN.entries[3]
        task = PoisonedFIFOTask(engine="packed", width=4, depth=4,
                                num_chains=4, pattern="burst",
                                burst_size=2, words_per_sequence=2,
                                poison_seed=poison.chunk_seed)
        executor = SerialExecutor()
        with pytest.raises(ChunkExecutionError) as excinfo:
            _run_timed(executor, task, self.PLAN)
        assert excinfo.value.chunk_index == poison.index
        assert isinstance(excinfo.value.__cause__, RuntimeError)

        # Same executor, same fingerprint, so the stranded workspace is
        # reused -- and reseeded back to exactness.
        other = ChunkPlan.build(7, NUM_CHUNKS * CHUNK, CHUNK)
        assert poison.chunk_seed not in {e.chunk_seed for e in other.entries}
        result, _ = _run_timed(executor, task, other)
        assert result == _cold_fold(_fifo_task(), other)
        assert executor.cache.misses == 1

    def test_interleaved_scheduler_jobs_equal_their_solo_runs(self):
        task = _fifo_task()
        executor = SerialExecutor()
        scheduler = CampaignScheduler(executor=executor)
        jobs = {seed: scheduler.submit(task, NUM_CHUNKS * CHUNK, seed=seed,
                                       chunk_size=CHUNK)
                for seed in (41, 42)}
        scheduler.run()
        for seed, job in jobs.items():
            solo = ShardedCampaignRunner(task, NUM_CHUNKS * CHUNK,
                                         seed=seed, chunk_size=CHUNK,
                                         executor="serial").run()
            assert job.result == solo, seed
        # Both jobs share one fingerprint, hence one workspace.
        assert executor.cache.misses == 1

    def test_progress_setup_plateaus_after_the_first_chunk(self):
        snapshots = []
        ShardedCampaignRunner(_fifo_task(), NUM_CHUNKS * CHUNK, seed=5,
                              chunk_size=CHUNK, executor="serial",
                              progress_callback=snapshots.append).run()
        setups = [p.setup_seconds for p in snapshots]
        assert setups[0] > 0.0
        assert setups == [setups[0]] * NUM_CHUNKS
        assert snapshots[-1].compute_seconds > 0.0


class _LeasedState:
    """Weak-referenceable worker state, numbered in build order."""

    def __init__(self, number):
        self.number = number


@dataclass
class ThreadTrackingTask(CampaignTask):
    """Records which threads use each leased state."""

    built = []  # class-level: weak references to every state built
    users = []  # class-level: (state number, thread id) per chunk

    def empty_result(self):
        return CorrectionCounters()

    def run_chunk(self, chunk_seed, num_sequences):
        return CorrectionCounters(sequences=num_sequences,
                                  corrected_bits=chunk_seed % 1000)

    def build_worker_state(self):
        state = _LeasedState(len(ThreadTrackingTask.built))
        ThreadTrackingTask.built.append(weakref.ref(state))
        return state

    def run_chunk_warm(self, state, chunk_seed, num_sequences):
        ThreadTrackingTask.users.append((state.number,
                                         threading.get_ident()))
        time.sleep(0.002)  # keep both pool threads busy
        return self.run_chunk(chunk_seed, num_sequences)


class TestOneShotThreads:
    def test_states_are_per_thread_and_die_with_the_call(self):
        ThreadTrackingTask.built = []
        ThreadTrackingTask.users = []
        task = ThreadTrackingTask()
        plan = ChunkPlan.build(3, 80, 2)
        # A runner resolving "thread" owns its pool and closes it when
        # the run ends, taking the worker threads' states with it.
        result = ShardedCampaignRunner(task, 80, seed=3, chunk_size=2,
                                       num_workers=2,
                                       executor="thread").run()

        assert len(ThreadTrackingTask.built) == 2  # one per pool thread
        threads = {number: {thread for n, thread in ThreadTrackingTask.users
                            if n == number} for number in (0, 1)}
        assert all(len(used_by) == 1 for used_by in threads.values())
        assert threads[0] != threads[1]
        gc.collect()
        assert all(ref() is None for ref in ThreadTrackingTask.built)
        assert result == _cold_fold(task, plan)

    def test_single_worker_forwards_the_serial_timing(self):
        task = _fifo_task()
        plan = ChunkPlan.build(9, 3 * CHUNK, CHUNK)
        result, timings = _run_timed(resolve_executor("thread", 1), task,
                                     plan)
        assert result == _cold_fold(task, plan)
        assert [t.cache_hit for t in timings] == [False, True, True]
