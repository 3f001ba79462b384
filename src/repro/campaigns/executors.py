"""Executor layer: strategies for turning plan entries into results.

A :class:`ChunkExecutor` consumes :class:`~repro.campaigns.plan.\
ChunkPlanEntry` values and yields ``(index, result)`` pairs as chunks
complete -- in any order, because the merge is index-sorted downstream.
Executors own *where* chunks run and nothing else: the plan layer has
already fixed every seed and boundary, so any executor at any
concurrency produces bit-identical merged statistics for the same plan.

Every executor runs chunks through one helper -- lease the task's
state from a :class:`~repro.campaigns.worker_cache.WorkerStateCache`,
run ``task.run_chunk_warm``, report a :class:`ChunkTiming` -- and they
differ only in how long each cache lives.

Five implementations ship, in two families:

**One-shot** (pool per ``submit_jobs`` call):

* :class:`SerialExecutor` -- inline in the calling thread; the
  ``num_workers == 1`` path.  Its cache lives as long as the executor,
  so only a task's first chunk builds the bench.
* :class:`ThreadExecutor` -- a ``concurrent.futures`` thread pool,
  with one cache per pool thread for the length of the call.  Useful
  when chunk work releases the GIL (numpy kernels in the simd engine)
  and for the campaign service's many-small-interactive-jobs regime,
  where process fan-out overhead dominates tiny jobs.
* :class:`ProcessExecutor` -- ``multiprocessing`` fan-out, cold:
  every chunk builds its own state.  Each worker receives the task
  table **once**, through the pool initializer, instead of a task copy
  pickled into every job tuple; job tuples carry only ``(position,
  slot, index, seed, count)``.

**Warm persistent** (pool outlives ``submit_jobs`` calls; explicit
``close()`` / context-manager lifecycle, optional idle teardown):

* :class:`PersistentProcessExecutor` -- long-lived worker processes
  created once and reused by every subsequent call (and every
  scheduler job).  Tasks ship **incrementally**: a worker receives a
  task at most once per process lifetime, keyed on
  ``task.fingerprint()``; workers memoize seed-independent heavy
  state per fingerprint in a :class:`~repro.campaigns.worker_cache.\
WorkerStateCache` and run chunks through ``run_chunk_warm``.
  Dispatch streams through a bounded in-flight window, so a
  10^5-chunk plan never materializes 10^5 job tuples.
* :class:`PersistentThreadExecutor` -- the same warm lifecycle over a
  long-lived thread pool, with one state cache per worker thread.

Chunk failures surface as :class:`ChunkExecutionError` carrying the
failing chunk's index, seed and count (plus the worker traceback for
process pools), so a 10^7-sequence campaign names the chunk that died
and a resume can re-run exactly that work.  A failed chunk does not
poison a warm pool: the pool survives, stale in-flight results are
discarded by epoch, and the next ``submit_jobs`` replaces any worker
that died.

The scheduler-facing entry point is :meth:`ChunkExecutorBase.\
submit_jobs`, which multiplexes entries from *several* tasks over one
executor; :meth:`~ChunkExecutorBase.submit` is the single-task
convenience defined in terms of it.
"""

from __future__ import annotations

import multiprocessing
import queue as _queue
import sys
import threading
import time
import traceback
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Protocol,
                    Sequence, Set, Tuple)

from repro.campaigns.plan import ChunkPlanEntry
from repro.campaigns.worker_cache import (
    DEFAULT_MAX_ENTRIES,
    ChunkTiming,
    WorkerStateCache,
    task_state_key,
)

#: A scheduler job: an opaque tag, the plan entry to run, and the task
#: that runs it.  Tags come back attached to results so the caller can
#: route completions to the right campaign.
TaggedJob = Tuple[Any, ChunkPlanEntry, Any]


class ChunkExecutionError(RuntimeError):
    """A chunk of campaign work failed.

    Carries the failing chunk's plan coordinates -- ``chunk_index``,
    ``chunk_seed``, ``count`` -- so a failed multi-hour campaign says
    *which* chunk died (and therefore which seed reproduces the crash
    in isolation), plus ``worker_traceback`` when the failure happened
    in a worker process whose live traceback cannot cross the pickle
    boundary.  The original exception is chained as ``__cause__`` when
    it is available in-process.
    """

    def __init__(self, chunk_index: int, chunk_seed: int, count: int,
                 message: str,
                 worker_traceback: Optional[str] = None):
        detail = (f"chunk {chunk_index} (seed={chunk_seed}, "
                  f"count={count}) failed: {message}")
        if worker_traceback:
            detail += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(detail)
        self.chunk_index = chunk_index
        self.chunk_seed = chunk_seed
        self.count = count
        self.worker_traceback = worker_traceback

    @classmethod
    def from_worker(cls, entry: ChunkPlanEntry,
                    worker_traceback: str) -> "ChunkExecutionError":
        """A failure reported by a worker process as traceback text."""
        return cls(entry.index, entry.chunk_seed, entry.count,
                   "worker process raised", worker_traceback)

    @classmethod
    def wrap(cls, entry: ChunkPlanEntry,
             exc: BaseException) -> "ChunkExecutionError":
        """Wrap an in-process exception, preserving it as the cause."""
        error = cls(entry.index, entry.chunk_seed, entry.count,
                    f"{type(exc).__name__}: {exc}")
        error.__cause__ = exc
        return error


class ChunkExecutor(Protocol):
    """Protocol of the executor layer.

    ``submit`` runs one task's plan entries and yields ``(index,
    result)`` pairs as they complete (any order); implementations that
    also support :meth:`ChunkExecutorBase.submit_jobs` can serve the
    multi-campaign scheduler.  Failures are raised as
    :class:`ChunkExecutionError` from the consuming iterator.
    """

    last_chunk_timing: Optional[ChunkTiming]

    def submit(self, entries: Iterable[ChunkPlanEntry],
               task: Any) -> Iterator[Tuple[int, Any]]:
        ...


class ChunkExecutorBase:
    """Shared plumbing: ``submit`` in terms of ``submit_jobs``."""

    #: Timing of the chunk just yielded by ``submit_jobs``.
    last_chunk_timing: Optional[ChunkTiming] = None

    def submit(self, entries: Iterable[ChunkPlanEntry],
               task: Any) -> Iterator[Tuple[int, Any]]:
        """Run one task's entries; yield ``(index, result)`` pairs.

        ``entries`` is consumed lazily: streaming executors pull from
        it as their in-flight window frees up (one-shot executors
        materialize it).
        """
        for _, index, result in self.submit_jobs(
                ((None, entry, task) for entry in entries)):
            yield index, result

    def submit_jobs(self, jobs: Iterable[TaggedJob]
                    ) -> Iterator[Tuple[Any, int, Any]]:
        """Run tagged ``(tag, entry, task)`` jobs; yield ``(tag, index,
        result)`` as chunks complete."""
        raise NotImplementedError


def _run_leased(cache: WorkerStateCache, task: Any, entry: ChunkPlanEntry
                ) -> Tuple[Any, ChunkTiming]:
    """Run one entry on ``task``'s state leased from ``cache``: a miss
    builds the state (the timing's ``setup``), ``run_chunk_warm`` runs
    the chunk (its ``compute``).  Failures are wrapped as
    :class:`ChunkExecutionError` naming the entry."""
    try:
        state, setup, cache_hit = cache.lease(task)
        started = time.perf_counter()
        result = task.run_chunk_warm(state, entry.chunk_seed, entry.count)
    except ChunkExecutionError:
        raise
    except Exception as exc:
        raise ChunkExecutionError.wrap(entry, exc) from exc
    return result, ChunkTiming(setup, time.perf_counter() - started,
                               cache_hit)


def _run_thread_leased(local: threading.local, max_entries: int,
                       entry: ChunkPlanEntry, task: Any
                       ) -> Tuple[Any, ChunkTiming]:
    """:func:`_run_leased` on the calling thread's own cache in ``local``
    (designs are not thread-safe, so threads never share a state)."""
    cache = getattr(local, "cache", None)
    if cache is None:
        cache = local.cache = WorkerStateCache(max_entries=max_entries)
    return _run_leased(cache, task, entry)


class SerialExecutor(ChunkExecutorBase):
    """Run every chunk inline, in submission order, on state from one
    :class:`WorkerStateCache` that lives as long as the executor: a
    task's first chunk builds its bench, later chunks with the same
    fingerprint reuse it.  Serves one thread at a time."""

    def __init__(self) -> None:
        self.cache = WorkerStateCache()

    def submit_jobs(self, jobs: Iterable[TaggedJob]
                    ) -> Iterator[Tuple[Any, int, Any]]:
        for tag, entry, task in jobs:
            result, self.last_chunk_timing = _run_leased(self.cache, task,
                                                         entry)
            yield tag, entry.index, result

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ThreadExecutor(ChunkExecutorBase):
    """Fan chunks out over a thread pool.

    Threads share the interpreter, so this pays no pickling or process
    start-up cost; it overlaps real work only where the chunk's inner
    loop releases the GIL (numpy kernels) or blocks on IO.  Jobs are
    dispatched in submission order, which is what gives the scheduler
    its fair-share interleaving.  Each pool thread has its own state
    cache for the length of the call.
    """

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers

    def submit_jobs(self, jobs: Iterable[TaggedJob]
                    ) -> Iterator[Tuple[Any, int, Any]]:
        from concurrent.futures import FIRST_COMPLETED
        from concurrent.futures import ThreadPoolExecutor as _Pool
        from concurrent.futures import wait

        jobs = list(jobs)
        if len(jobs) <= 1 or self.num_workers == 1:
            serial = SerialExecutor()
            for item in serial.submit_jobs(jobs):
                self.last_chunk_timing = serial.last_chunk_timing
                yield item
            return
        local = threading.local()
        with _Pool(max_workers=min(self.num_workers, len(jobs))) as pool:
            futures = {pool.submit(_run_thread_leased, local,
                                   DEFAULT_MAX_ENTRIES, entry, task):
                       (tag, entry) for tag, entry, task in jobs}
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    tag, entry = futures[future]
                    result, self.last_chunk_timing = future.result()
                    yield tag, entry.index, result

    def __repr__(self) -> str:
        return f"ThreadExecutor(num_workers={self.num_workers})"


def _start_context(start_method: Optional[str]):
    """The multiprocessing context for ``start_method`` (default:
    ``fork`` when available, else ``spawn``)."""
    method = start_method
    if method is None:
        available = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in available else "spawn"
    return multiprocessing.get_context(method)


# -- process pool plumbing (module level: pickled by name) -------------
#: Worker-side task table, installed once per worker by the pool
#: initializer.  Keys are small integer slots assigned by the parent,
#: so job tuples never carry a task copy.
_WORKER_TASKS: Dict[int, Any] = {}


def _init_worker(parent_sys_path: List[str],
                 tasks: Dict[int, Any]) -> None:
    """Pool initializer: import path + the per-worker task table.

    With the ``spawn`` start method a fresh interpreter imports this
    module from scratch; when the parent runs from a source checkout
    (``sys.path`` patched by conftest rather than PYTHONPATH), the
    child needs the same entries to unpickle the tasks.  The task
    table itself is the once-per-worker pickle that replaces the
    historical once-per-job task copy.
    """
    for entry in reversed(parent_sys_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    _WORKER_TASKS.clear()
    _WORKER_TASKS.update(tasks)


def _slot_jobs(jobs: Sequence[TaggedJob]
               ) -> Tuple[List[Tuple[int, int, int, int, int]],
                          Dict[int, Any]]:
    """Assign task-table slots and build the pool's job tuples.

    Slots are keyed on ``task.fingerprint()`` -- **not** ``id(task)``:
    object identity is neither stable (a freed task's id can be
    reused by a different task while the pool is still running) nor
    meaningful (two equal-fingerprint task objects describe the same
    work and must share one table entry).  Factored out of
    :meth:`ProcessExecutor.submit_jobs` so the slotting contract is
    directly testable.
    """
    slots: Dict[str, int] = {}
    tasks: Dict[int, Any] = {}
    tuples: List[Tuple[int, int, int, int, int]] = []
    for position, (_tag, entry, task) in enumerate(jobs):
        key = task_state_key(task)
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(slots)
            tasks[slot] = task
        tuples.append((position, slot, entry.index, entry.chunk_seed,
                       entry.count))
    return tuples, tasks


def _run_pool_job(job: Tuple[int, int, int, int, int]
                  ) -> Tuple[int, Any, Optional[ChunkTiming], Optional[str]]:
    """Worker-side entry point: run one chunk from the task table, on a
    state built for it alone.  Returns ``(position, result, timing,
    None)``, or ``(position, None, None, traceback_text)`` on failure:
    live exception objects (and their frames) may not pickle."""
    position, slot, index, chunk_seed, count = job
    try:
        result, timing = _run_leased(WorkerStateCache(), _WORKER_TASKS[slot],
                                     ChunkPlanEntry(index, chunk_seed, count))
        return position, result, timing, None
    except Exception:
        return position, None, None, traceback.format_exc()


class ProcessExecutor(ChunkExecutorBase):
    """Fan chunks out over worker processes (today's scaling path).

    Each distinct task object is pickled exactly once per worker, via
    the pool initializer's task table; the per-job tuples carry only
    plan coordinates.  Worker failures come back as
    :class:`ChunkExecutionError` with the worker traceback attached.

    Parameters
    ----------
    num_workers:
        Process count.  A single worker (or a single pending job)
        degrades to inline, still cold, execution -- same results.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``
        (cheap, inherits ``sys.path``) and falls back to ``spawn``.
    """

    def __init__(self, num_workers: int,
                 start_method: Optional[str] = None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self._start_method = start_method

    def submit_jobs(self, jobs: Iterable[TaggedJob]
                    ) -> Iterator[Tuple[Any, int, Any]]:
        jobs = list(jobs)
        if len(jobs) <= 1 or self.num_workers == 1:
            for tag, entry, task in jobs:  # a fresh state per chunk
                result, self.last_chunk_timing = _run_leased(
                    WorkerStateCache(), task, entry)
                yield tag, entry.index, result
            return
        tuples, tasks = _slot_jobs(jobs)
        context = _start_context(self._start_method)
        workers = min(self.num_workers, len(tuples))
        with context.Pool(workers, initializer=_init_worker,
                          initargs=(list(sys.path), tasks)) as pool:
            for position, result, timing, failure in pool.imap_unordered(
                    _run_pool_job, tuples):
                tag, entry, _task = jobs[position]
                if failure is not None:
                    raise ChunkExecutionError.from_worker(entry, failure)
                self.last_chunk_timing = timing
                yield tag, entry.index, result

    def __repr__(self) -> str:
        return (f"ProcessExecutor(num_workers={self.num_workers}, "
                f"start_method={self._start_method!r})")


# -- warm persistent pool plumbing (module level: pickled by name) -----
def _persistent_worker_main(parent_sys_path: List[str], worker_id: int,
                            job_queue: Any, result_queue: Any,
                            max_cached: int) -> None:
    """Long-lived worker loop of :class:`PersistentProcessExecutor`.

    Protocol (one job queue per worker, one shared result queue):

    * ``("task", key, task)`` -- install ``task`` in this worker's
      table under its fingerprint ``key``.  The parent sends this at
      most once per (worker lifetime, fingerprint): that is the
      incremental task shipping that replaces the cold pool's
      re-shipping of the whole table on every ``submit_jobs``.
    * ``("job", epoch, position, key, index, chunk_seed, count)`` --
      run one plan entry through :func:`_run_leased` on the worker's
      :class:`~repro.campaigns.worker_cache.WorkerStateCache`.
      Replies ``(worker_id, epoch, position, result, (setup, compute,
      cache_hit), None)`` on success, ``(worker_id, epoch, position,
      None, None, traceback_text)`` on failure.  Plain values keep
      the per-chunk messages cheap to pickle.
    * ``("stop",)`` -- exit the loop (sent by ``close()``).
    """
    _init_worker(parent_sys_path, {})  # the import path, as a cold worker
    tasks: Dict[str, Any] = {}
    cache = WorkerStateCache(max_entries=max_cached)
    while True:
        try:
            message = job_queue.get()
        except (EOFError, OSError):  # pragma: no cover - parent died
            return
        kind = message[0]
        if kind == "stop":
            return
        if kind == "task":
            tasks[message[1]] = message[2]
            continue
        _, epoch, position, key, *entry = message
        try:
            result, timing = _run_leased(cache, tasks[key],
                                         ChunkPlanEntry(*entry))
            result_queue.put((worker_id, epoch, position, result,
                              tuple(timing), None))
        except Exception:
            result_queue.put((worker_id, epoch, position, None, None,
                              traceback.format_exc()))


class _WorkerRecord:
    """Parent-side bookkeeping for one persistent worker process."""

    __slots__ = ("process", "queue", "shipped", "inflight")

    def __init__(self, process: Any, job_queue: Any):
        self.process = process
        self.queue = job_queue
        #: Task fingerprints already shipped to this worker's table.
        self.shipped: Set[str] = set()
        #: Jobs dispatched but not yet answered (any epoch).
        self.inflight = 0


class _WarmLifecycleMixin:
    """Shared close/context-manager/idle-timer plumbing of the warm
    executors.  Subclasses implement ``_teardown()`` (drop the pool,
    keep the executor reusable) and set ``_closed`` in ``close()``."""

    def _init_warm(self, num_workers: int, window: Optional[int],
                   idle_timeout: Optional[float], max_cached: int) -> None:
        """Validate and store the arguments both warm executors take."""
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if window is not None and window < 1:
            raise ValueError("window must be >= 1")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        self.num_workers = num_workers
        #: In-flight dispatch bound: every worker busy plus a small
        #: ready queue, never a materialized huge plan.
        self.window = window if window is not None else max(
            2 * num_workers, 4)
        self.idle_timeout = idle_timeout
        self._max_cached = max_cached
        self._closed = False
        self._lock = threading.RLock()
        self._idle_timer: Optional[threading.Timer] = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net only
        try:
            self.close()
        except Exception:
            pass

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"{type(self).__name__} is closed; create a new "
                f"executor (close() is final)")

    def _cancel_idle_timer(self) -> None:
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None

    def _start_idle_timer(self) -> None:
        if self.idle_timeout is None:
            return
        timer = threading.Timer(self.idle_timeout, self._idle_teardown)
        timer.daemon = True
        timer.start()
        self._idle_timer = timer

    def _idle_teardown(self) -> None:
        with self._lock:
            if self._closed:
                return
            # Drop the idle pool but stay usable: the next submit_jobs
            # simply pays one (cold) pool spin-up again.
            self._teardown()

    def close(self) -> None:
        """Tear the pool down and retire the executor (idempotent)."""
        with self._lock:
            self._cancel_idle_timer()
            self._teardown()
            self._closed = True


class PersistentProcessExecutor(_WarmLifecycleMixin, ChunkExecutorBase):
    """Warm process fan-out: one pool, many ``submit_jobs`` calls.

    The cold :class:`ProcessExecutor` pays pool spin-up, task-table
    shipping and per-chunk bench construction on **every** call; this
    executor pays each cost once per worker lifetime:

    * worker processes are created on first use and reused by every
      subsequent ``submit_jobs`` (and so by every scheduler job);
    * a task ships to a worker at most once, keyed on
      ``task.fingerprint()``;
    * workers memoize seed-independent heavy state (design, engine,
      workspaces, LUTs, jit warm-up) per fingerprint and run chunks
      via ``run_chunk_warm`` -- bit-identical to the cold path, for
      any worker count and any pool-reuse order.

    Dispatch streams: jobs are pulled from the (lazily consumed)
    iterable only while fewer than ``window`` are in flight, each to
    the least-loaded worker.

    Failure containment: a raised :class:`ChunkExecutionError` leaves
    the pool warm.  Results of abandoned calls are discarded by epoch,
    dead workers are replaced (with cold caches) on the next call, and
    ``close()``/``with`` tears everything down; ``idle_timeout``
    additionally reclaims the pool after that many idle seconds (the
    executor stays usable -- the next call re-spawns).

    Unlike the cold executor there is **no** inline degradation for
    single-job calls or ``num_workers=1`` -- a one-worker warm pool is
    precisely the many-small-interactive-jobs service regime.
    """

    def __init__(self, num_workers: int,
                 start_method: Optional[str] = None,
                 window: Optional[int] = None,
                 idle_timeout: Optional[float] = None,
                 max_cached_states: int = DEFAULT_MAX_ENTRIES):
        self._init_warm(num_workers, window, idle_timeout,
                        max_cached_states)
        self._start_method = start_method
        self._context: Any = None
        self._workers: Dict[int, _WorkerRecord] = {}
        self._next_worker_id = 0
        self._result_queue: Any = None
        self._epoch = 0

    # -- pool management ------------------------------------------------
    @property
    def alive_workers(self) -> int:
        """Live worker processes right now (0 before first use and
        after close/idle teardown)."""
        return sum(1 for record in self._workers.values()
                   if record.process.is_alive())

    def _ensure_pool(self) -> None:
        if self._context is None:
            self._context = _start_context(self._start_method)
        if self._result_queue is None:
            self._result_queue = self._context.Queue()
        self._drain_stale_results()
        for worker_id, record in list(self._workers.items()):
            if not record.process.is_alive():
                # A crashed worker's warm cache died with it; replace
                # below with a cold one rather than poisoning the pool.
                record.process.join(timeout=0.1)
                del self._workers[worker_id]
        while len(self._workers) < self.num_workers:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            job_queue = self._context.Queue()
            process = self._context.Process(
                target=_persistent_worker_main,
                args=(list(sys.path), worker_id, job_queue,
                      self._result_queue, self._max_cached),
                daemon=True,
                name=f"repro-warm-worker-{worker_id}")
            process.start()
            self._workers[worker_id] = _WorkerRecord(process, job_queue)

    def _drain_stale_results(self) -> None:
        """Consume results of abandoned epochs without blocking."""
        if self._result_queue is None:
            return
        while True:
            try:
                message = self._result_queue.get_nowait()
            except _queue.Empty:
                return
            record = self._workers.get(message[0])
            if record is not None:
                record.inflight -= 1

    def _teardown(self) -> None:
        workers, self._workers = self._workers, {}
        result_queue, self._result_queue = self._result_queue, None
        for record in workers.values():
            if record.process.is_alive():
                try:
                    record.queue.put(("stop",))
                except Exception:  # pragma: no cover - queue torn down
                    pass
        for record in workers.values():
            record.process.join(timeout=5.0)
            if record.process.is_alive():  # pragma: no cover - stuck chunk
                record.process.terminate()
                record.process.join(timeout=1.0)
            record.queue.close()
            record.queue.cancel_join_thread()
        if result_queue is not None:
            while True:
                try:
                    result_queue.get_nowait()
                except _queue.Empty:
                    break
            result_queue.close()
            result_queue.cancel_join_thread()

    # -- dispatch -------------------------------------------------------
    def _dispatch(self, epoch: int, position: int, entry: ChunkPlanEntry,
                  task: Any) -> int:
        """Send one job to the least-loaded worker; returns its id."""
        worker_id, record = min(self._workers.items(),
                                key=lambda item: item[1].inflight)
        key = task_state_key(task)
        if key not in record.shipped:
            record.queue.put(("task", key, task))
            record.shipped.add(key)
        record.queue.put(("job", epoch, position, key, *entry))
        record.inflight += 1
        return worker_id

    def _next_result(self, epoch: int,
                     assigned: Dict[int, int]) -> Tuple[Any, ...]:
        """Block for the next worker reply, watching for worker death.

        A worker that dies mid-chunk would otherwise hang the consumer
        forever; instead its earliest outstanding chunk is reported as
        a failure (the pool replaces the worker on the next call).
        """
        while True:
            try:
                return self._result_queue.get(timeout=1.0)
            except _queue.Empty:
                for position in sorted(assigned):
                    worker_id = assigned[position]
                    record = self._workers.get(worker_id)
                    if record is None or record.process.is_alive():
                        continue
                    exitcode = record.process.exitcode
                    record.process.join(timeout=0.1)
                    del self._workers[worker_id]
                    return (None, epoch, position, None, None,
                            f"worker process died (exit code "
                            f"{exitcode}) before returning a result")

    def submit_jobs(self, jobs: Iterable[TaggedJob]
                    ) -> Iterator[Tuple[Any, int, Any]]:
        with self._lock:
            self._check_open()
            self._cancel_idle_timer()
            self._ensure_pool()
            self._epoch += 1
            epoch = self._epoch
        jobs_iter = iter(jobs)
        pending: Dict[int, Tuple[Any, ChunkPlanEntry]] = {}
        assigned: Dict[int, int] = {}
        next_position = 0
        exhausted = False
        try:
            while True:
                # Top the in-flight window up from the lazy job feed
                # (this backpressure is what keeps huge plans from
                # materializing).
                while not exhausted and len(pending) < self.window:
                    try:
                        tag, entry, task = next(jobs_iter)
                    except StopIteration:
                        exhausted = True
                        break
                    position = next_position
                    next_position += 1
                    pending[position] = (tag, entry)
                    assigned[position] = self._dispatch(epoch, position,
                                                        entry, task)
                if not pending:
                    break
                (worker_id, reply_epoch, position, result, timing,
                 failure) = self._next_result(epoch, assigned)
                record = self._workers.get(worker_id)
                if record is not None:
                    record.inflight -= 1
                if reply_epoch != epoch:
                    # Left over from an abandoned call; already
                    # accounted above, nothing to route.
                    continue
                tag, entry = pending.pop(position)
                assigned.pop(position, None)
                if failure is not None:
                    raise ChunkExecutionError.from_worker(entry, failure)
                self.last_chunk_timing = ChunkTiming(*timing)
                yield tag, entry.index, result
        finally:
            with self._lock:
                # Whatever this call leaves in flight (early consumer
                # exit, a raised chunk) is stale for the next one.
                self._epoch += 1
                if not self._closed:
                    self._start_idle_timer()

    def __repr__(self) -> str:
        return (f"PersistentProcessExecutor(num_workers="
                f"{self.num_workers}, start_method="
                f"{self._start_method!r}, window={self.window}, "
                f"alive_workers={self.alive_workers})")


class PersistentThreadExecutor(_WarmLifecycleMixin, ChunkExecutorBase):
    """Warm thread fan-out: a long-lived thread pool with per-thread
    state caches.

    The thread twin of :class:`PersistentProcessExecutor`: the pool
    survives across ``submit_jobs`` calls, each worker thread keeps
    its own :class:`~repro.campaigns.worker_cache.WorkerStateCache`
    (designs are not thread-safe, so states are never shared between
    threads), dispatch streams through the same bounded window, and
    the same ``close()``/context-manager/``idle_timeout`` lifecycle
    applies.  Best for GIL-releasing chunk work and for warm service
    regimes where even process spin-up is too much latency.
    """

    def __init__(self, num_workers: int,
                 window: Optional[int] = None,
                 idle_timeout: Optional[float] = None,
                 max_cached_states: int = DEFAULT_MAX_ENTRIES):
        self._init_warm(num_workers, window, idle_timeout,
                        max_cached_states)
        self._pool: Any = None
        self._local = threading.local()

    def _ensure_pool(self) -> None:
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor as _Pool
            self._pool = _Pool(max_workers=self.num_workers,
                               thread_name_prefix="repro-warm")

    def _teardown(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def submit_jobs(self, jobs: Iterable[TaggedJob]
                    ) -> Iterator[Tuple[Any, int, Any]]:
        from concurrent.futures import FIRST_COMPLETED, wait

        with self._lock:
            self._check_open()
            self._cancel_idle_timer()
            self._ensure_pool()
            pool = self._pool
        jobs_iter = iter(jobs)
        futures: Dict[Any, Tuple[Any, ChunkPlanEntry]] = {}
        exhausted = False
        try:
            while True:
                while not exhausted and len(futures) < self.window:
                    try:
                        tag, entry, task = next(jobs_iter)
                    except StopIteration:
                        exhausted = True
                        break
                    future = pool.submit(_run_thread_leased, self._local,
                                         self._max_cached, entry, task)
                    futures[future] = (tag, entry)
                if not futures:
                    break
                done, _ = wait(list(futures),
                               return_when=FIRST_COMPLETED)
                for future in done:
                    tag, entry = futures.pop(future)
                    result, timing = future.result()
                    self.last_chunk_timing = timing
                    yield tag, entry.index, result
        finally:
            for future in futures:
                future.cancel()
            with self._lock:
                if not self._closed:
                    self._start_idle_timer()

    def __repr__(self) -> str:
        return (f"PersistentThreadExecutor(num_workers="
                f"{self.num_workers}, window={self.window}, "
                f"warm={self._pool is not None})")


#: Executor spec strings accepted by :func:`resolve_executor`.
EXECUTOR_KINDS = ("serial", "thread", "process", "thread-warm",
                  "process-warm")


def resolve_executor(executor: "ChunkExecutor | str | None",
                     num_workers: int = 1,
                     start_method: Optional[str] = None) -> ChunkExecutor:
    """Resolve an executor spec to an instance.

    ``None`` keeps the historical behaviour: inline for one worker,
    process fan-out otherwise.  A string names a kind from
    ``EXECUTOR_KINDS`` sized by ``num_workers``; an object exposing
    ``submit`` is returned as-is.  The warm kinds
    (``"process-warm"``/``"thread-warm"``) build persistent executors
    whose pool outlives individual calls -- whoever resolves a spec
    string owns the resulting lifecycle (the runner and scheduler
    close spec-resolved executors themselves; pass a pre-built
    instance to share one warm pool across runners/schedulers and
    close it yourself).
    """
    if executor is None:
        if num_workers == 1:
            return SerialExecutor()
        return ProcessExecutor(num_workers, start_method=start_method)
    if isinstance(executor, str):
        kind = executor.strip().lower()
        if kind == "serial":
            return SerialExecutor()
        if kind in ("thread", "threads"):
            return ThreadExecutor(num_workers)
        if kind in ("process", "processes"):
            return ProcessExecutor(num_workers, start_method=start_method)
        if kind in ("process-warm", "warm-process"):
            return PersistentProcessExecutor(num_workers,
                                             start_method=start_method)
        if kind in ("thread-warm", "warm-thread"):
            return PersistentThreadExecutor(num_workers)
        raise ValueError(
            f"unknown executor {executor!r}; choose from "
            f"{EXECUTOR_KINDS} or pass a ChunkExecutor instance")
    if hasattr(executor, "submit"):
        return executor
    raise TypeError(
        f"executor must be None, a kind string or a ChunkExecutor, "
        f"got {type(executor).__name__}")


__all__ = [
    "ChunkExecutionError",
    "ChunkExecutor",
    "ChunkExecutorBase",
    "ChunkTiming",
    "EXECUTOR_KINDS",
    "PersistentProcessExecutor",
    "PersistentThreadExecutor",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "resolve_executor",
]
