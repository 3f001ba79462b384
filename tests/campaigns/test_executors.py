"""Executor layer: equivalence across executors, error wrapping,
once-per-worker task shipping."""

import multiprocessing
import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.correction_capability import CorrectionCounters
from repro.campaigns.executors import (
    EXECUTOR_KINDS,
    ChunkExecutionError,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    _slot_jobs,
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
        result = ShardedCampaignRunner(
            CountingTask(), 120, seed=3, chunk_size=10, num_workers=2,
            executor=ProcessExecutor(2, start_method="fork")).run()
        assert result.sequences == 120
        # 12 chunks historically meant 12 task pickles through the job
        # queue; the initializer table under fork means zero.
        assert CountingTask.pickles == 0

    def test_task_pickled_once_per_worker_under_spawn(self):
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        task = TrialTask()
        payload = pickle.dumps(task)
        # The job tuples the pool ships are plan coordinates only.
        entries = ChunkPlan.build(3, 40, 10).entries
        tuples = [(pos, 0, e.index, e.chunk_seed, e.count)
                  for pos, e in enumerate(entries)]
        assert all(isinstance(v, int) for job in tuples for v in job)
        assert len(pickle.dumps(tuples)) < len(payload) * len(entries)


class TestSlotJobs:
    """Task-table slots key on ``fingerprint()``, never ``id()``."""

    def _jobs(self, *tasks):
        entries = ChunkPlan.build(1, 10 * len(tasks), 10).entries
        return [(None, entry, task)
                for entry, task in zip(entries, tasks)]

    def test_equal_fingerprint_tasks_share_one_slot(self):
        # Two distinct objects describing the same work: one table
        # entry, one per-worker pickle.
        a, b = TrialTask(scale=5), TrialTask(scale=5)
        assert a is not b
        tuples, tasks = _slot_jobs(self._jobs(a, b))
        assert len(tasks) == 1
        assert [slot for _pos, slot, *_ in tuples] == [0, 0]

    def test_distinct_fingerprints_get_distinct_slots(self):
        tuples, tasks = _slot_jobs(
            self._jobs(TrialTask(scale=1), TrialTask(scale=2)))
        assert len(tasks) == 2
        assert [slot for _pos, slot, *_ in tuples] == [0, 1]

    def test_id_reuse_cannot_alias_slots(self):
        # The historical id(task)-keyed table could alias two
        # *different* tasks if CPython reused a freed id mid-run.
        # Fingerprint keys are value-based, so even tasks constructed
        # at the same recycled address slot separately.
        jobs = []
        entries = ChunkPlan.build(1, 20, 10).entries
        for entry, scale in zip(entries, (1, 2)):
            task = TrialTask(scale=scale)
            jobs.append((None, entry, task))
            del task  # eligible for id reuse before slotting runs
        tuples, tasks = _slot_jobs(jobs)
        assert len(tasks) == 2
        assert sorted(t.scale for t in tasks.values()) == [1, 2]


class TestResolveExecutor:
    def test_none_keeps_historical_behaviour(self):
        assert isinstance(resolve_executor(None, 1), SerialExecutor)
        assert isinstance(resolve_executor(None, 4), ProcessExecutor)

    def test_strings_and_instances(self):
        assert isinstance(resolve_executor("serial", 4), SerialExecutor)
        assert isinstance(resolve_executor("thread", 4), ThreadExecutor)
        assert isinstance(resolve_executor("process", 4), ProcessExecutor)
        instance = ThreadExecutor(2)
        assert resolve_executor(instance) is instance

    def test_rejects_unknown_specs(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu", 2)
        with pytest.raises(TypeError):
            resolve_executor(42, 2)
        with pytest.raises(ValueError):
            ThreadExecutor(0)
        with pytest.raises(ValueError):
            ProcessExecutor(0)
