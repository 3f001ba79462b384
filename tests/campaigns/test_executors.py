"""Executor layer: equivalence across executors, error wrapping,
once-per-worker task shipping, spec resolution, and a spawned process
pool."""

import multiprocessing
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.correction_capability import CorrectionCounters
from repro.campaigns.executors import (
    EXECUTOR_KINDS,
    ChunkExecutionError,
    PersistentProcessExecutor,
    PersistentThreadExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.campaigns.plan import ChunkPlan
from repro.campaigns.runner import CampaignTask, ShardedCampaignRunner
from repro.campaigns.tasks import FIFOValidationCampaignTask

EXECUTORS = ("serial", "thread", "process")
WORKER_COUNTS = (1, 2, 4)


@dataclass
class TrialTask(CampaignTask):
    """Cheap deterministic task for exercising executor mechanics."""

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


def _sampler_task(mode: str,
                  pattern: str = "burst") -> FIFOValidationCampaignTask:
    """A tiny Fig. 8 task in one of the three sampler modes."""
    common = dict(width=4, depth=4, codes=("hamming(7,4)", "crc16"),
                  num_chains=4, pattern=pattern, burst_size=2,
                  words_per_sequence=2)
    if mode == "scalar":
        return FIFOValidationCampaignTask(engine="packed", **common)
    if mode == "batched":
        return FIFOValidationCampaignTask(engine="batched", batch_size=4,
                                          **common)
    return FIFOValidationCampaignTask(engine="simd", batch_size=4,
                                      sampler="array", **common)


class TestExecutorEquivalence:
    """The PR's acceptance invariant: same plan => same merged stats,
    for every executor kind and worker count."""

    def test_trial_task_identical_everywhere(self):
        reference = ShardedCampaignRunner(
            TrialTask(), 200, seed=99, chunk_size=13).run()
        for spec in EXECUTORS:
            for workers in WORKER_COUNTS:
                result = ShardedCampaignRunner(
                    TrialTask(), 200, seed=99, chunk_size=13,
                    num_workers=workers, executor=spec).run()
                assert result == reference, (spec, workers)

    @pytest.mark.parametrize("mode", ("scalar", "batched", "array"))
    def test_sampler_modes_identical_across_executors(self, mode):
        if mode == "array":
            pytest.importorskip("numpy")
        for pattern in ("single", "burst", "multiple"):
            task = _sampler_task(mode, pattern)
            # Reference: cold per-chunk run_chunk calls, folded in order.
            reference = task.empty_result()
            for entry in ChunkPlan.build(20100308, 12, 4).entries:
                reference.merge(task.run_chunk(entry.chunk_seed,
                                               entry.count))
            assert reference.stats.num_sequences == 12
            for spec in EXECUTOR_KINDS:
                for workers in WORKER_COUNTS:
                    snapshots = []
                    result = ShardedCampaignRunner(
                        task, 12, seed=20100308, chunk_size=4,
                        num_workers=workers, executor=spec,
                        progress_callback=snapshots.append).run()
                    where = (mode, pattern, spec, workers)
                    assert result == reference, where
                    # Every built-in executor reports the timing split.
                    assert snapshots[-1].setup_seconds > 0.0, where
                    assert snapshots[-1].compute_seconds > 0.0, where

    @given(seed=st.integers(0, 2**32), chunk=st.integers(1, 9))
    @settings(max_examples=20, deadline=None)
    def test_thread_executor_matches_serial_property(self, seed, chunk):
        serial = ShardedCampaignRunner(TrialTask(), 30, seed=seed,
                                       chunk_size=chunk,
                                       executor="serial").run()
        threaded = ShardedCampaignRunner(TrialTask(), 30, seed=seed,
                                         chunk_size=chunk, num_workers=3,
                                         executor="thread").run()
        assert serial == threaded


class TestChunkExecutionError:
    def _poisoned(self, executor, workers=2):
        plan = ChunkPlan.build(7, 40, 10)
        poison = plan.entries[2].chunk_seed
        return ShardedCampaignRunner(
            FailingTask(poison_seed=poison), 40, seed=7, chunk_size=10,
            num_workers=workers, executor=executor), plan.entries[2]

    @pytest.mark.parametrize("spec", EXECUTORS)
    def test_failure_names_the_chunk(self, spec):
        runner, entry = self._poisoned(spec)
        with pytest.raises(ChunkExecutionError) as excinfo:
            runner.run()
        error = excinfo.value
        assert error.chunk_index == entry.index
        assert error.chunk_seed == entry.chunk_seed
        assert error.count == entry.count
        assert str(entry.index) in str(error)

    def test_serial_failure_chains_original_exception(self):
        runner, _ = self._poisoned("serial", workers=1)
        with pytest.raises(ChunkExecutionError) as excinfo:
            runner.run()
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_process_failure_carries_worker_traceback(self):
        runner, _ = self._poisoned("process")
        with pytest.raises(ChunkExecutionError) as excinfo:
            runner.run()
        assert "poisoned chunk" in (excinfo.value.worker_traceback or "")

    def test_checkpoint_survives_failure_and_resumes(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        reference = ShardedCampaignRunner(TrialTask(), 40, seed=7,
                                          chunk_size=10).run()
        plan = ChunkPlan.build(7, 40, 10)
        poison = plan.entries[2].chunk_seed
        failing = ShardedCampaignRunner(
            FailingTask(poison_seed=poison), 40, seed=7, chunk_size=10,
            checkpoint_path=path, save_interval=4, executor="serial")
        # FailingTask and TrialTask share repr-based fingerprints only
        # if the fields match; pin the fingerprint so the resumed
        # (fixed) task accepts the failed run's checkpoint.
        failing.task.fingerprint = TrialTask().fingerprint
        with pytest.raises(ChunkExecutionError):
            failing.run()
        # The final flush on the way out persisted the partial
        # interval: both chunks that completed before the poison.
        resumed_calls = []
        fixed_task = TrialTask()
        original = TrialTask.run_chunk

        def counting(self, seed, count):
            resumed_calls.append(seed)
            return original(self, seed, count)

        TrialTask.run_chunk = counting
        try:
            resumed = ShardedCampaignRunner(
                fixed_task, 40, seed=7, chunk_size=10,
                checkpoint_path=path).run()
        finally:
            TrialTask.run_chunk = original
        assert resumed == reference
        assert len(resumed_calls) == 2  # only the poisoned chunk + tail


class TestProcessExecutorShipping:
    def test_task_not_pickled_per_job_under_fork(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")

        class CountingTask(TrialTask):
            pickles = 0

            def __reduce__(self):
                CountingTask.pickles += 1
                return (TrialTask, (self.scale,))

        CountingTask.pickles = 0
        with PersistentProcessExecutor(2, start_method="fork") as pool:
            result = ShardedCampaignRunner(
                CountingTask(), 120, seed=3, chunk_size=10,
                executor=pool).run()
        assert result == ShardedCampaignRunner(
            TrialTask(), 120, seed=3, chunk_size=10,
            executor="serial").run()
        # 12 chunks through a job queue would mean 12 task pickles;
        # the pool ships the task at most once to each worker.
        assert CountingTask.pickles <= 2


class TestSpawnStartMethod:
    def test_spawned_pool_matches_serial(self):
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        task = _sampler_task("scalar")
        reference = ShardedCampaignRunner(task, 12, seed=20100308,
                                          chunk_size=4,
                                          executor="serial").run()
        with PersistentProcessExecutor(2, start_method="spawn") as pool:
            for _ in range(2):  # fresh pool, then the same pool reused
                result = ShardedCampaignRunner(
                    task, 12, seed=20100308, chunk_size=4,
                    executor=pool).run()
                assert result == reference
            assert pool.alive_workers == 2
        assert multiprocessing.active_children() == []


class TestResolveExecutor:
    def test_none_keeps_historical_behaviour(self):
        assert isinstance(resolve_executor(None, 1), SerialExecutor)
        pool = resolve_executor(None, 4)
        assert type(pool) is PersistentProcessExecutor
        pool.close()

    def test_strings_and_instances(self):
        assert EXECUTOR_KINDS == ("serial", "thread", "process")
        assert isinstance(resolve_executor("serial", 4), SerialExecutor)
        for spec, cls in (("thread", PersistentThreadExecutor),
                          ("process", PersistentProcessExecutor)):
            pool = resolve_executor(spec, 4)
            assert type(pool) is cls and pool.num_workers == 4
            pool.close()
            # One worker needs no pool: the serial executor is as warm.
            assert isinstance(resolve_executor(spec, 1), SerialExecutor)
        instance = PersistentProcessExecutor(1)
        assert resolve_executor(instance) is instance
        assert resolve_executor(instance, 1) is instance
        instance.close()

    def test_rejects_unknown_specs(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu", 2)
        with pytest.raises(TypeError):
            resolve_executor(42, 2)
        with pytest.raises(ValueError, match="process-warm"):
            resolve_executor("process-warm", 2)
        with pytest.raises(ValueError):
            PersistentThreadExecutor(0)
        with pytest.raises(ValueError):
            PersistentProcessExecutor(0)
