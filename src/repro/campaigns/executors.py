"""Executor layer: strategies for turning plan entries into results.

A :class:`ChunkExecutor` consumes :class:`~repro.campaigns.plan.\
ChunkPlanEntry` values and yields ``(index, result)`` pairs as chunks
complete -- in any order, because the merge is index-sorted downstream.
Executors own *where* chunks run and nothing else: the plan layer has
already fixed every seed and boundary, so any executor at any
concurrency produces bit-identical merged statistics for the same plan.

Every executor runs chunks through one helper -- lease the task's
state from a :class:`~repro.campaigns.worker_cache.WorkerStateCache`,
run ``task.run_chunk_warm``, report a :class:`ChunkTiming` -- and every
cache lives as long as the thread or process that owns it.

Three implementations ship:

* :class:`SerialExecutor` -- inline in the calling thread; the
  ``num_workers == 1`` path.  Its cache lives as long as the executor,
  so only a task's first chunk builds the bench.
* :class:`PersistentProcessExecutor` -- a warm pool of worker
  processes: CPU-bound pure-Python chunks (the common case).
* :class:`PersistentThreadExecutor` -- the same pool over worker
  threads: chunks that release the GIL (numpy kernels), and service
  regimes where even process spin-up is too much latency.

The two pools share one implementation and differ only in how a
worker starts (a ``Process`` fed by a ``multiprocessing`` queue, or a
``Thread`` fed by a ``queue.Queue``).  A pool's workers are created on
first use and survive across ``submit_jobs`` calls (and so across
scheduler jobs) until ``close()``/``with`` or an optional idle
timeout.  Tasks ship to a worker at most once, keyed on
``task.fingerprint()``; each worker memoizes seed-independent heavy
state per fingerprint and runs chunks through ``run_chunk_warm``.
Dispatch streams through a bounded in-flight window to the
least-loaded worker, so a 10^5-chunk plan never materializes 10^5 job
messages.

Chunk failures surface as :class:`ChunkExecutionError` carrying the
failing chunk's index, seed and count (plus the worker traceback from
a pool), so a 10^7-sequence campaign names the chunk that died and a
resume can re-run exactly that work.  A failed chunk does not poison a
pool: the pool survives and stale in-flight results are discarded by
epoch.  A worker that died fails the call, and the next
``submit_jobs`` starts a fresh pool.

Whoever builds a pool owns it: :func:`resolve_executor` builds one for
a ``"thread"``/``"process"`` spec, and the runner or scheduler that
resolved the spec closes it; a pre-built pool passed in stays with its
caller.

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
                    Set, Tuple)

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
    in a pool worker, which reports it as text (a live traceback cannot
    cross the pickle boundary of a process pool).  The original
    exception is chained as ``__cause__`` when the chunk ran inline.
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
        """A failure reported by a pool worker as traceback text."""
        return cls(entry.index, entry.chunk_seed, entry.count,
                   "pool worker raised", worker_traceback)

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

        ``entries`` is consumed lazily: the pools pull from it as their
        in-flight window frees up.
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


def _start_context(start_method: Optional[str]):
    """The multiprocessing context for ``start_method`` (default:
    ``fork`` when available, else ``spawn``)."""
    method = start_method
    if method is None:
        available = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in available else "spawn"
    return multiprocessing.get_context(method)


# -- pool worker (module level: a process target is pickled by name) ---
def _persistent_worker_main(parent_sys_path: List[str], worker_id: int,
                            job_queue: Any, result_queue: Any,
                            max_cached: int) -> None:
    """Long-lived worker loop of both pools.

    Protocol (one job queue per worker, one shared result queue):

    * ``("task", key, task)`` -- install ``task`` in this worker's
      table under its fingerprint ``key``.  The parent sends this at
      most once per (worker lifetime, fingerprint).
    * ``("job", epoch, position, key, index, chunk_seed, count)`` --
      run one plan entry through :func:`_run_leased` on the worker's
      :class:`~repro.campaigns.worker_cache.WorkerStateCache`.
      Replies ``(worker_id, epoch, position, result, (setup, compute,
      cache_hit), None)`` on success, ``(worker_id, epoch, position,
      None, None, traceback_text)`` on failure.  Plain values keep
      the per-chunk messages cheap to pickle.
    * ``("stop",)`` -- exit the loop (sent by ``close()``).

    A worker's cache is its own (designs are not thread-safe), so no
    two workers ever share a state.
    """
    # With the ``spawn`` start method a fresh interpreter imports this
    # module from scratch; when the parent runs from a source checkout
    # (``sys.path`` patched rather than PYTHONPATH), the child needs the
    # same entries to unpickle the tasks.
    for entry in reversed(parent_sys_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)
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
    """Parent-side bookkeeping for one pool worker."""

    __slots__ = ("handle", "queue", "shipped", "inflight")

    def __init__(self, handle: Any, job_queue: Any):
        #: The worker's ``Process`` or ``Thread``.
        self.handle = handle
        self.queue = job_queue
        #: Task fingerprints already shipped to this worker's table.
        self.shipped: Set[str] = set()
        #: Jobs dispatched but not yet answered (any epoch).
        self.inflight = 0


def _close_queue(channel: Any) -> None:
    """Release a ``multiprocessing`` queue's feeder thread (a
    ``queue.Queue`` holds nothing to release)."""
    if not isinstance(channel, _queue.Queue):
        channel.close()
        channel.cancel_join_thread()


class _WarmPool(ChunkExecutorBase):
    """One pool, many ``submit_jobs`` calls.

    A pool pays each fixed cost once per worker lifetime:

    * workers are created on first use and reused by every subsequent
      ``submit_jobs`` (and so by every scheduler job);
    * a task ships to a worker at most once, keyed on
      ``task.fingerprint()``;
    * workers memoize seed-independent heavy state (design, engine,
      workspaces, LUTs, jit warm-up) per fingerprint and run chunks
      via ``run_chunk_warm`` -- bit-identical to serial, for any
      worker count and any pool-reuse order.

    Dispatch streams: jobs are pulled from the (lazily consumed)
    iterable only while fewer than ``window`` are in flight, each to
    the least-loaded worker.

    Failure containment: a raised :class:`ChunkExecutionError` leaves
    the pool warm.  Results of abandoned calls are discarded by epoch,
    a dead worker makes the next call start a fresh pool (cold
    caches), and ``close()``/``with`` tears everything down;
    ``idle_timeout`` additionally reclaims the workers after that many
    idle seconds (the executor stays usable -- the next call re-spawns
    them).

    Subclasses say how a worker starts: ``_new_queue()`` makes a job
    or result channel, ``_new_worker(name, args)`` an unstarted worker
    running :func:`_persistent_worker_main`.
    """

    #: How the dead-worker report names a worker.
    _worker_kind = "process"

    def __init__(self, num_workers: int,
                 window: Optional[int] = None,
                 idle_timeout: Optional[float] = None,
                 max_cached_states: int = DEFAULT_MAX_ENTRIES):
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
        self._max_cached = max_cached_states
        self._closed = False
        self._lock = threading.RLock()
        self._idle_timer: Optional[threading.Timer] = None
        self._workers: Dict[int, _WorkerRecord] = {}
        self._next_worker_id = 0
        self._result_queue: Any = None
        self._epoch = 0

    def _new_queue(self) -> Any:
        raise NotImplementedError

    def _new_worker(self, name: str, args: Tuple[Any, ...]) -> Any:
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net only
        try:
            self.close()
        except Exception:
            pass

    def close(self) -> None:
        """Tear the pool down and retire the executor (idempotent)."""
        with self._lock:
            self._cancel_idle_timer()
            self._teardown()
            self._closed = True

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
            if not self._closed:
                # Drop the idle workers but stay usable: the next
                # submit_jobs simply pays one (cold) spin-up again.
                self._teardown()

    @property
    def alive_workers(self) -> int:
        """Live workers right now (0 before first use and after
        close/idle teardown)."""
        return sum(1 for record in self._workers.values()
                   if record.handle.is_alive())

    def _ensure_pool(self) -> None:
        if any(not record.handle.is_alive()
               for record in self._workers.values()):
            # A worker that died may have held the shared result
            # queue's write lock, and then no survivor could ever
            # report again: replace the whole pool, not just the dead.
            self._teardown()
        if self._result_queue is None:
            self._result_queue = self._new_queue()
        self._drain_stale_results()
        while len(self._workers) < self.num_workers:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            job_queue = self._new_queue()
            handle = self._new_worker(
                f"repro-warm-worker-{worker_id}",
                (list(sys.path), worker_id, job_queue, self._result_queue,
                 self._max_cached))
            handle.start()
            self._workers[worker_id] = _WorkerRecord(handle, job_queue)

    def _drain_stale_results(self) -> None:
        """Consume results of abandoned epochs without blocking."""
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
            if record.handle.is_alive():
                try:
                    record.queue.put(("stop",))
                except Exception:  # pragma: no cover - queue torn down
                    pass
        for record in workers.values():
            record.handle.join(timeout=5.0)
            if (record.handle.is_alive()  # pragma: no cover - stuck chunk
                    and hasattr(record.handle, "terminate")):
                record.handle.terminate()
                record.handle.join(timeout=1.0)
            _close_queue(record.queue)
        if result_queue is not None:
            while True:
                try:
                    result_queue.get_nowait()
                except _queue.Empty:
                    break
            _close_queue(result_queue)

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

        A dead worker would otherwise hang the consumer forever: its
        own chunks never return, and if it died holding the result
        queue's write lock neither do anyone else's.  So any death
        fails the call, naming the dead worker's earliest outstanding
        chunk (else the earliest pending one); the next call replaces
        the pool.
        """
        while True:
            try:
                return self._result_queue.get(timeout=1.0)
            except _queue.Empty:
                dead = {worker_id: record.handle
                        for worker_id, record in self._workers.items()
                        if not record.handle.is_alive()}
                if not dead:
                    continue
                on_dead = [position for position, worker_id
                           in assigned.items() if worker_id in dead]
                exitcode = getattr(next(iter(dead.values())), "exitcode",
                                   None)
                return (None, epoch, min(on_dead or assigned), None, None,
                        f"worker {self._worker_kind} died (exit code "
                        f"{exitcode}) before returning a result")

    def submit_jobs(self, jobs: Iterable[TaggedJob]
                    ) -> Iterator[Tuple[Any, int, Any]]:
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    f"{type(self).__name__} is closed; create a new "
                    f"executor (close() is final)")
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
        return (f"{type(self).__name__}(num_workers={self.num_workers}, "
                f"window={self.window}, "
                f"alive_workers={self.alive_workers})")


class PersistentProcessExecutor(_WarmPool):
    """The pool over worker processes, each fed by its own
    ``multiprocessing`` queue.

    ``start_method`` picks the ``multiprocessing`` start method; the
    default prefers ``fork`` (cheap, inherits ``sys.path``) and falls
    back to ``spawn``.  A one-worker pool is still a pool -- the
    many-small-interactive-jobs service regime.
    """

    def __init__(self, num_workers: int,
                 start_method: Optional[str] = None,
                 window: Optional[int] = None,
                 idle_timeout: Optional[float] = None,
                 max_cached_states: int = DEFAULT_MAX_ENTRIES):
        super().__init__(num_workers, window, idle_timeout,
                         max_cached_states)
        self._context = _start_context(start_method)

    def _new_queue(self) -> Any:
        return self._context.Queue()

    def _new_worker(self, name: str, args: Tuple[Any, ...]) -> Any:
        return self._context.Process(target=_persistent_worker_main,
                                     args=args, daemon=True, name=name)


class PersistentThreadExecutor(_WarmPool):
    """The pool over worker threads, each fed by its own
    ``queue.Queue``: no pickling and no process spin-up, with real
    overlap only where chunk work releases the GIL."""

    _worker_kind = "thread"

    def _new_queue(self) -> Any:
        return _queue.Queue()

    def _new_worker(self, name: str, args: Tuple[Any, ...]) -> Any:
        return threading.Thread(target=_persistent_worker_main,
                                args=args, daemon=True, name=name)


#: Executor spec strings accepted by :func:`resolve_executor`.
EXECUTOR_KINDS = ("serial", "thread", "process")


def resolve_executor(executor: "ChunkExecutor | str | None",
                     num_workers: int = 1,
                     start_method: Optional[str] = None) -> ChunkExecutor:
    """Resolve an executor spec to an instance.

    A string names a kind from ``EXECUTOR_KINDS`` sized by
    ``num_workers``; ``None`` means ``"process"``.  ``"thread"`` and
    ``"process"`` build the matching pool, and whoever resolved the
    spec owns it: the runner closes its pool when its run ends, the
    scheduler in ``close()``.  ``"serial"``, and any kind with
    ``num_workers == 1``, resolves to a :class:`SerialExecutor`, which
    is as warm as a one-worker pool without the IPC.  An object
    exposing ``submit`` is returned as-is (pass a pre-built pool to
    share it across runners and schedulers, and close it yourself).
    """
    if executor is None:
        kind = "process"
    elif isinstance(executor, str):
        kind = executor.strip().lower()
        if kind not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from "
                f"{EXECUTOR_KINDS} or pass a ChunkExecutor instance")
    elif hasattr(executor, "submit"):
        return executor
    else:
        raise TypeError(
            f"executor must be None, a kind string or a ChunkExecutor, "
            f"got {type(executor).__name__}")
    if kind == "serial" or num_workers == 1:
        return SerialExecutor()
    if kind == "thread":
        return PersistentThreadExecutor(num_workers)
    return PersistentProcessExecutor(num_workers, start_method=start_method)


__all__ = [
    "ChunkExecutionError",
    "ChunkExecutor",
    "ChunkExecutorBase",
    "ChunkTiming",
    "EXECUTOR_KINDS",
    "PersistentProcessExecutor",
    "PersistentThreadExecutor",
    "SerialExecutor",
    "resolve_executor",
]
