"""Warm pools: a lifecycle state machine over both pool classes, pool
reuse, incremental task shipping, streaming backpressure, failure
containment, owner-closes-the-pool, and the bit-identity acceptance
invariant (pool == serial)."""

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.analysis.correction_capability import (
    CorrectionCounters,
    correction_capability_curve,
    fig10_curves,
)
from repro.campaigns.executors import (
    ChunkExecutionError,
    PersistentProcessExecutor,
    PersistentThreadExecutor,
    resolve_executor,
)
from repro.campaigns.plan import ChunkPlan
from repro.campaigns.runner import CampaignTask, ShardedCampaignRunner
from repro.campaigns.scheduler import CampaignScheduler
from repro.campaigns.tasks import FIFOValidationCampaignTask
from repro.codes.hamming import HammingCode

WORKER_COUNTS = (1, 2, 4)


@dataclass
class TrialTask(CampaignTask):
    """Cheap deterministic task for exercising pool mechanics."""

    scale: int = 3

    def empty_result(self):
        return CorrectionCounters()

    def run_chunk(self, chunk_seed, num_sequences):
        import random
        rng = random.Random(chunk_seed)
        value = sum(rng.randrange(self.scale * 1000)
                    for _ in range(num_sequences))
        return CorrectionCounters(sequences=num_sequences,
                                  corrected_bits=value)


@dataclass
class FailingTask(TrialTask):
    """Fails on the chunk whose seed hits ``poison_seed``."""

    poison_seed: int = -1

    def run_chunk(self, chunk_seed, num_sequences):
        if chunk_seed == self.poison_seed:
            raise RuntimeError("poisoned chunk")
        return super().run_chunk(chunk_seed, num_sequences)


@dataclass
class DyingTask(TrialTask):
    """Kills its whole worker process on the poisoned chunk."""

    poison_seed: int = -1

    def run_chunk(self, chunk_seed, num_sequences):
        if chunk_seed == self.poison_seed:
            os._exit(13)
        return super().run_chunk(chunk_seed, num_sequences)


def _sampler_task(mode: str) -> FIFOValidationCampaignTask:
    common = dict(width=4, depth=4, codes=("hamming(7,4)", "crc16"),
                  num_chains=4, pattern="burst", burst_size=2,
                  words_per_sequence=2)
    if mode == "scalar":
        return FIFOValidationCampaignTask(engine="packed", **common)
    if mode == "batched":
        return FIFOValidationCampaignTask(engine="batched", batch_size=4,
                                          **common)
    return FIFOValidationCampaignTask(engine="simd", batch_size=4,
                                      sampler="array", **common)


def _warm_children():
    """Live warm-pool worker processes spawned by this process."""
    return [child for child in multiprocessing.active_children()
            if (child.name or "").startswith("repro-warm-worker")]


def _run(pool, task, total=60, seed=11, chunk=10):
    """One campaign through ``pool``; returns the merged counters."""
    entries = ChunkPlan.build(seed, total, chunk).entries
    merged = task.empty_result()
    for _index, result in sorted(pool.submit(iter(entries), task)):
        merged.merge(result)
    return merged


def _serial(task, total=60, seed=11, chunk=10):
    return ShardedCampaignRunner(task, total, seed=seed, chunk_size=chunk,
                                 executor="serial").run()


def _warm_threads():
    """Live pool worker threads of this process."""
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("repro-warm")]


class PoolLifecycle(RuleBasedStateMachine):
    """Any sequence of submits, resubmits, failing chunks, idle
    teardowns, worker kills and closes keeps the pool exact and
    bounded; ``close()`` leaves no worker behind and is final."""

    pool_class = PersistentProcessExecutor
    WINDOW = 3

    def __init__(self):
        super().__init__()
        self.pool = self.pool_class(2, window=self.WINDOW)
        assert self.pool.alive_workers == 0  # workers start on first use
        self.task = TrialTask()
        self.closed = False

    def _check_run(self, task, seed):
        """Run ``task`` through a counting feed: equal to serial, and
        the feed never runs more than ``WINDOW`` ahead."""
        entries = ChunkPlan.build(seed, 60, 10).entries
        pulled = []

        def feed():
            for entry in entries:
                pulled.append(entry.index)
                yield (None, entry, task)

        merged = task.empty_result()
        for consumed, (_, _index, result) in enumerate(
                self.pool.submit_jobs(feed()), start=1):
            assert len(pulled) <= consumed + self.WINDOW
            merged.merge(result)
        assert merged == _serial(task, seed=seed)
        assert self.pool.alive_workers == self.pool.num_workers

    @precondition(lambda self: not self.closed)
    @rule(seed=st.integers(0, 3), scale=st.sampled_from((3, 5)))
    def submit(self, seed, scale):
        self._check_run(TrialTask(scale=scale), seed)

    @precondition(lambda self: not self.closed)
    @rule(seed=st.integers(0, 3))
    def resubmit_same_task(self, seed):
        self._check_run(self.task, seed)
        self._check_run(self.task, seed)

    @precondition(lambda self: not self.closed)
    @rule(poisoned=st.integers(0, 5))
    def failing_chunk(self, poisoned):
        entry = ChunkPlan.build(7, 60, 10).entries[poisoned]
        with pytest.raises(ChunkExecutionError) as excinfo:
            _run(self.pool, FailingTask(poison_seed=entry.chunk_seed),
                 seed=7)
        assert excinfo.value.chunk_index == entry.index
        assert "poisoned chunk" in (excinfo.value.worker_traceback or "")

    @precondition(lambda self: not self.closed)
    @rule()
    def idle_teardown(self):
        self.pool._idle_teardown()  # what the idle_timeout timer fires
        assert self.pool.alive_workers == 0

    @precondition(lambda self: not self.closed
                  and self.pool_class is PersistentProcessExecutor
                  and self.pool.alive_workers > 0)
    @rule()
    def kill_a_worker(self):
        record = next(record for record in self.pool._workers.values()
                      if record.handle.is_alive())
        os.kill(record.handle.pid, signal.SIGKILL)
        record.handle.join(timeout=10.0)

    @rule()
    def shut_down(self):
        self.pool.close()  # idempotent
        self.closed = True
        assert self.pool.alive_workers == 0
        assert multiprocessing.active_children() == []
        assert _warm_threads() == []

    @precondition(lambda self: self.closed)
    @rule()
    def submit_after_close(self):
        with pytest.raises(RuntimeError, match="closed"):
            _run(self.pool, TrialTask())

    @invariant()
    def bounded(self):
        assert self.pool.alive_workers <= self.pool.num_workers

    def teardown(self):
        self.pool.close()


class ThreadPoolLifecycle(PoolLifecycle):
    pool_class = PersistentThreadExecutor


TestProcessPoolLifecycle = PoolLifecycle.TestCase
TestThreadPoolLifecycle = ThreadPoolLifecycle.TestCase
TestProcessPoolLifecycle.settings = TestThreadPoolLifecycle.settings = \
    settings(max_examples=30, stateful_step_count=12, deadline=None)


class TestLifecycle:
    def test_context_manager_tears_the_pool_down(self):
        with PersistentProcessExecutor(2) as pool:
            assert pool.alive_workers == 0  # lazy: nothing spawned yet
            _run(pool, TrialTask())
            assert pool.alive_workers == 2
        assert pool.alive_workers == 0
        assert _warm_children() == []

    def test_close_is_final_and_idempotent(self):
        pool = PersistentProcessExecutor(1)
        _run(pool, TrialTask())
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            list(pool.submit(iter(ChunkPlan.build(1, 10, 5).entries),
                             TrialTask()))

    def test_thread_pool_lifecycle(self):
        with PersistentThreadExecutor(2) as pool:
            assert _run(pool, TrialTask()) == _serial(TrialTask())
        pool.close()  # idempotent after __exit__
        assert _warm_threads() == []
        with pytest.raises(RuntimeError, match="closed"):
            list(pool.submit(iter(ChunkPlan.build(1, 10, 5).entries),
                             TrialTask()))

    def test_idle_timeout_reclaims_then_respawns(self):
        with PersistentProcessExecutor(1, idle_timeout=0.2) as pool:
            reference = _run(pool, TrialTask())
            assert pool.alive_workers == 1
            deadline = time.monotonic() + 10.0
            while pool.alive_workers and time.monotonic() < deadline:
                time.sleep(0.05)
            # The pool was reclaimed, but the executor stays usable:
            # the next call pays one cold spin-up again.
            assert pool.alive_workers == 0
            assert _run(pool, TrialTask()) == reference
            assert pool.alive_workers == 1

    def test_constructor_validation(self):
        for cls in (PersistentProcessExecutor, PersistentThreadExecutor):
            with pytest.raises(ValueError):
                cls(0)
            with pytest.raises(ValueError):
                cls(2, window=0)
            with pytest.raises(ValueError):
                cls(2, idle_timeout=0.0)


class TestPoolReuse:
    def test_workers_survive_across_submit_calls(self):
        with PersistentProcessExecutor(2) as pool:
            first = _run(pool, TrialTask())
            pids = sorted(r.handle.pid for r in pool._workers.values())
            second = _run(pool, TrialTask(), seed=12)
            assert sorted(r.handle.pid
                          for r in pool._workers.values()) == pids
            assert first == _serial(TrialTask())
            assert second == _serial(TrialTask(), seed=12)

    def test_task_ships_at_most_once_per_worker(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")

        class CountingTask(TrialTask):
            pickles = 0

            def __reduce__(self):
                CountingTask.pickles += 1
                return (TrialTask, (self.scale,))

        CountingTask.pickles = 0
        with PersistentProcessExecutor(2, start_method="fork") as pool:
            for seed in (21, 22, 23):
                _run(pool, CountingTask(), seed=seed)
        # Three submit_jobs calls of 6 chunks each historically meant
        # up to 18 task pickles; incremental shipping means one per
        # worker lifetime.
        assert CountingTask.pickles == 2

    def test_repeat_chunks_hit_the_worker_cache(self):
        with PersistentProcessExecutor(1) as pool:
            task = TrialTask()
            entries = ChunkPlan.build(5, 30, 10).entries
            first_call = []
            for _ in pool.submit(iter(entries), task):
                first_call.append(pool.last_chunk_timing)
            second_call = []
            for _ in pool.submit(iter(entries), task):
                second_call.append(pool.last_chunk_timing)
        # First sighting builds the state (a miss), everything after
        # is served warm with zero setup.
        assert [t.cache_hit for t in first_call] == [False, True, True]
        assert all(t.cache_hit for t in second_call)
        assert all(t.setup_seconds == 0.0 for t in second_call)


class TestBackpressure:
    def test_dispatch_never_outruns_the_window(self):
        class CountingFeed:
            def __init__(self, jobs):
                self.jobs = iter(jobs)
                self.pulled = 0

            def __iter__(self):
                return self

            def __next__(self):
                item = next(self.jobs)
                self.pulled += 1
                return item

        task = TrialTask()
        entries = ChunkPlan.build(9, 200, 10).entries  # 20 chunks
        window = 3
        with PersistentProcessExecutor(1, window=window) as pool:
            feed = CountingFeed((None, e, task) for e in entries)
            consumed = 0
            for _ in pool.submit_jobs(feed):
                consumed += 1
                # The lazy feed is topped up only as capacity frees:
                # a huge plan is never materialized into the pool.
                assert feed.pulled <= consumed + window
            assert consumed == len(entries)
            assert feed.pulled == len(entries)

    def test_thread_pool_honours_the_window_too(self):
        task = TrialTask()
        entries = ChunkPlan.build(9, 120, 10).entries
        pulled = []

        def feed():
            for entry in entries:
                pulled.append(entry.index)
                yield (None, entry, task)

        with PersistentThreadExecutor(2, window=4) as pool:
            consumed = 0
            for _ in pool.submit_jobs(feed()):
                consumed += 1
                assert len(pulled) <= consumed + 4
            assert consumed == len(entries)


class TestFailureContainment:
    def test_raised_chunk_leaves_the_pool_warm(self):
        plan = ChunkPlan.build(7, 40, 10)
        poison = plan.entries[2].chunk_seed
        with PersistentProcessExecutor(2) as pool:
            with pytest.raises(ChunkExecutionError) as excinfo:
                _run(pool, FailingTask(poison_seed=poison), total=40,
                     seed=7)
            assert "poisoned chunk" in (excinfo.value.worker_traceback
                                        or "")
            # Same pool, next campaign: still correct, nobody died.
            assert _run(pool, TrialTask()) == _serial(TrialTask())
            assert pool.alive_workers == 2
        assert _warm_children() == []

    def test_failure_names_the_chunk(self):
        plan = ChunkPlan.build(7, 40, 10)
        entry = plan.entries[2]
        with PersistentProcessExecutor(1) as pool:
            with pytest.raises(ChunkExecutionError) as excinfo:
                _run(pool, FailingTask(poison_seed=entry.chunk_seed),
                     total=40, seed=7)
        error = excinfo.value
        assert error.chunk_index == entry.index
        assert error.chunk_seed == entry.chunk_seed
        assert error.count == entry.count

    def test_dead_worker_is_reported_and_replaced(self):
        plan = ChunkPlan.build(7, 40, 10)
        poison = plan.entries[1].chunk_seed
        with PersistentProcessExecutor(2) as pool:
            with pytest.raises(ChunkExecutionError) as excinfo:
                _run(pool, DyingTask(poison_seed=poison), total=40,
                     seed=7)
            assert "worker process died" in str(excinfo.value)
            # The next call replaces the dead worker (cold cache) and
            # the pool is whole again.
            assert _run(pool, TrialTask()) == _serial(TrialTask())
            assert pool.alive_workers == 2

    def test_worker_killed_holding_the_result_lock_cannot_hang(self):
        with PersistentProcessExecutor(2) as pool:
            _run(pool, TrialTask())
            # A worker SIGKILLed mid-send leaves the shared result
            # queue's write lock held: no survivor could report again.
            pool._result_queue._wlock.acquire()
            victim = next(iter(pool._workers.values())).handle
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            assert _run(pool, TrialTask()) == _serial(TrialTask())
            assert pool.alive_workers == 2


class TestWarmBitIdentity:
    """Acceptance invariant: warm results are bit-identical to serial
    for 1/2/4 workers, on a fresh pool and on a reused one."""

    def test_trial_task_fresh_and_reused_pools(self):
        reference = _serial(TrialTask(), total=200, seed=99, chunk=13)
        for workers in WORKER_COUNTS:
            with PersistentProcessExecutor(workers) as pool:
                fresh = _run(pool, TrialTask(), total=200, seed=99,
                             chunk=13)
                reused = _run(pool, TrialTask(), total=200, seed=99,
                              chunk=13)
            assert fresh == reference, workers
            assert reused == reference, workers

    @pytest.mark.parametrize("mode", ("scalar", "batched", "array"))
    def test_sampler_modes_fresh_and_reused_pools(self, mode):
        if mode == "array":
            pytest.importorskip("numpy")
        task = _sampler_task(mode)
        reference = _serial(task, total=12, seed=20100308, chunk=4)
        assert reference.stats.num_sequences == 12
        for workers in (1, 2):
            with PersistentProcessExecutor(workers) as pool:
                fresh = _run(pool, task, total=12, seed=20100308,
                             chunk=4)
                reused = _run(pool, task, total=12, seed=20100308,
                              chunk=4)
            assert fresh == reference, (mode, workers)
            assert reused == reference, (mode, workers)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_thread_warm_matches_serial(self, workers):
        pytest.importorskip("numpy")
        for mode in ("scalar", "array"):
            task = _sampler_task(mode)
            reference = _serial(task, total=12, seed=20100308, chunk=4)
            with PersistentThreadExecutor(workers) as pool:
                fresh = _run(pool, task, total=12, seed=20100308, chunk=4)
                reused = _run(pool, task, total=12, seed=20100308,
                              chunk=4)
            assert fresh == reference, mode
            assert reused == reference, mode


class TestResolvePools:
    def test_prebuilt_instances_pass_through(self):
        pool = PersistentProcessExecutor(2)
        try:
            assert resolve_executor(pool) is pool
        finally:
            pool.close()


class TestRunnerIntegration:
    def test_runner_with_warm_spec_closes_its_pool(self):
        result = ShardedCampaignRunner(
            TrialTask(), 200, seed=99, chunk_size=13, num_workers=2,
            executor="process").run()
        assert result == _serial(TrialTask(), total=200, seed=99,
                                 chunk=13)
        # The runner resolved the spec, so the runner closed the pool.
        assert _warm_children() == []

    def test_runner_leaves_prebuilt_pool_warm(self):
        with PersistentProcessExecutor(2) as pool:
            for seed in (1, 2):
                result = ShardedCampaignRunner(
                    TrialTask(), 60, seed=seed, chunk_size=10,
                    executor=pool).run()
                assert result == _serial(TrialTask(), seed=seed)
            # Caller-owned pool: still warm after both runs.
            assert pool.alive_workers == 2
        assert _warm_children() == []

    def test_progress_carries_the_setup_compute_split(self):
        task = _sampler_task("scalar")
        snapshots = []
        ShardedCampaignRunner(
            task, 12, seed=5, chunk_size=4, num_workers=2,
            executor="process",
            progress_callback=snapshots.append).run()
        final = snapshots[-1]
        # Each worker built the workspace once (setup), then computed
        # its chunks: both halves of the split are visible.
        assert final.setup_seconds > 0.0
        assert final.compute_seconds > 0.0
        assert final.sequences_completed == 12


class TestSchedulerIntegration:
    def test_one_warm_pool_serves_many_jobs(self):
        with CampaignScheduler(executor="process",
                               num_workers=2) as scheduler:
            jobs = [scheduler.submit(TrialTask(), 60, seed=seed,
                                     chunk_size=10)
                    for seed in (31, 32, 33)]
            scheduler.run()
            for seed, job in zip((31, 32, 33), jobs):
                assert job.result == _serial(TrialTask(), seed=seed)
            pool = scheduler.executor
            assert pool.alive_workers == 2  # run() keeps the pool hot
            # A repeated identical campaign is served from the memo
            # without touching the pool.
            repeat = scheduler.submit(TrialTask(), 60, seed=31,
                                      chunk_size=10)
            assert repeat.from_cache
            assert repeat.result == jobs[0].result
        assert _warm_children() == []

    def test_back_to_back_rounds_reuse_the_pool(self):
        with CampaignScheduler(executor="process",
                               num_workers=2) as scheduler:
            scheduler.submit(TrialTask(), 60, seed=41, chunk_size=10)
            scheduler.run()
            pids = sorted(r.handle.pid for r in
                          scheduler.executor._workers.values())
            scheduler.submit(TrialTask(), 60, seed=42, chunk_size=10)
            scheduler.run()
            assert sorted(
                r.handle.pid for r in
                scheduler.executor._workers.values()) == pids

    def test_prebuilt_pool_is_left_to_its_owner(self):
        with PersistentProcessExecutor(1) as pool:
            with CampaignScheduler(executor=pool) as scheduler:
                scheduler.submit(TrialTask(), 60, seed=51,
                                 chunk_size=10)
                scheduler.run()
            # Scheduler closed; the caller's pool is untouched.
            assert pool.alive_workers == 1
        assert _warm_children() == []

    def test_jobs_accumulate_their_timing_split(self):
        task = _sampler_task("scalar")
        with CampaignScheduler(executor="process",
                               num_workers=2) as scheduler:
            job = scheduler.submit(task, 12, seed=6, chunk_size=4)
            scheduler.run()
        assert job.setup_seconds > 0.0
        assert job.compute_seconds > 0.0

    @pytest.mark.parametrize("driver", ("fig10_curves",
                                        "correction_capability_curve"))
    def test_curve_drivers_close_the_scheduler_they_build(
            self, driver, monkeypatch):
        closes = []
        original = CampaignScheduler.close

        def counting_close(scheduler):
            closes.append(scheduler)
            original(scheduler)

        monkeypatch.setattr(CampaignScheduler, "close", counting_close)
        kwargs = dict(error_counts=(1, 5), sequences=40, seed=3,
                      engine="packed", executor="process", num_workers=2)
        if driver == "fig10_curves":
            fig10_curves(family=((7, 4),), **kwargs)
        else:
            correction_capability_curve(HammingCode(7, 4), **kwargs)
        assert len(closes) == 1
        assert multiprocessing.active_children() == []

    def test_curve_driver_leaves_a_callers_scheduler_open(self):
        with CampaignScheduler(executor="process",
                               num_workers=2) as scheduler:
            correction_capability_curve(HammingCode(7, 4),
                                        error_counts=(1,), sequences=40,
                                        seed=3, scheduler=scheduler)
            assert scheduler.executor.alive_workers == 2
        assert _warm_children() == []
