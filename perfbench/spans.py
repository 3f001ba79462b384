"""In-memory spans around the public entry points of each layer.

Only the traced run installs a :class:`Tracer`.  It replaces the
listed functions and methods with thin wrappers that record ``(name,
parent, start, end)`` and restores the originals on exit, so nothing
under ``src/`` is edited and the untraced run executes the library
exactly as users do.  Spans are recorded in the calling process only:
work inside pool worker processes is measured through the campaign
progress callbacks instead (see ``workloads.py``).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Records nested spans; a context manager that patches and
    restores the traced entry points."""

    def __init__(self):
        #: ``[name, parent_index, start, end]`` per span, in start order.
        self.spans: List[list] = []
        #: Work counts recorded at the same boundaries as the spans.
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._targets: List[tuple] = []
        self._saved: List[tuple] = []

    def add(self, owner: Any, attr: str, name: str,
            on_return: Optional[Callable[[Counter, tuple, Any], None]]
            = None) -> None:
        """Trace ``owner.attr`` (a module function or a class method)
        as span ``name``; ``on_return(counts, args, result)`` records
        counts after each call."""
        self._targets.append((owner, attr, name, on_return))

    def __enter__(self) -> "Tracer":
        for owner, attr, name, on_return in self._targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original,
                                attr in vars(owner)))
            setattr(owner, attr, self._wrap(original, name, on_return))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for owner, attr, original, owned in reversed(self._saved):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def _wrap(self, original, name, on_return):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else None, clock(), 0.0])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            if on_return is not None:
                on_return(counts, args, result)
            return result

        return traced

    # -- analysis -------------------------------------------------------
    def mark(self) -> int:
        """Span index to pass to :meth:`self_times` for "from here on"."""
        return len(self.spans)

    def self_times(self, start: int = 0) -> Dict[str, float]:
        """Self time per span name over spans ``start:``: each span's
        duration minus the part its direct children cover."""
        child = defaultdict(float)
        for _, parent, begin, end in self.spans[start:]:
            if parent is not None:
                child[parent] += end - begin
        totals: Dict[str, float] = defaultdict(float)
        for index in range(start, len(self.spans)):
            name, _, begin, end = self.spans[index]
            totals[name] += (end - begin) - child[index]
        return totals

    def calls(self, start: int = 0) -> Counter:
        """Number of spans per name over spans ``start:``."""
        return Counter(span[0] for span in self.spans[start:])

    def durations(self, name: str, start: int = 0) -> List[float]:
        """Wall duration of every ``name`` span over spans ``start:``."""
        return [end - begin for span_name, _, begin, end
                in self.spans[start:] if span_name == name]

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        epoch = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, begin, end) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "parent": parent, "name": name,
                    "start": begin - epoch, "end": end - epoch}) + "\n")


def _count_flips(counts: Counter, args: tuple, batch: Any) -> None:
    counts["faults.flips"] += batch.num_flips


def _count_delta(counts: Counter, args: tuple, arrays: Any) -> None:
    if args[0].last_summary_path == "delta":
        counts["engines.delta_batches"] += 1


def _count_write(counts: Counter, args: tuple, result: Any) -> None:
    if args[0].path is not None:
        counts["campaigns.checkpoint_writes"] += 1


def layer_tracer() -> Tracer:
    """A tracer over the public entry point of every layer the
    benchmark splits time into."""
    import repro.core.protected as protected
    import repro.engines.registry as engine_registry
    import repro.faults.batch as faults_batch
    from repro.analysis.correction_capability import (
        CorrectionCapabilityTask,
        CorrectionCounters,
    )
    from repro.campaigns import (
        CampaignScheduler,
        CheckpointStore,
        FIFOValidationCampaignTask,
        ShardedCampaignRunner,
        StreamingCampaignResult,
    )
    from repro.circuit.fifo import SyncFIFO
    from repro.core.protected import ProtectedDesign
    from repro.engines.simd import SimdBatchedEngine
    from repro.power.domain import PowerDomain
    from repro.validation.stimulus import StimulusGenerator
    from repro.validation.testbench import FIFOTestbench

    tracer = Tracer()
    tracer.add(faults_batch, "sample_pattern_batch", "faults.sample",
               _count_flips)
    tracer.add(StimulusGenerator, "burst", "validation.stimulus")
    tracer.add(FIFOTestbench, "run_sequence_batch_summary",
               "validation.batch")
    tracer.add(FIFOTestbench, "__init__", "validation.build")
    tracer.add(SyncFIFO, "reset", "circuit.reset")
    tracer.add(SyncFIFO, "push", "circuit.push")
    tracer.add(SyncFIFO, "__init__", "circuit.build")
    tracer.add(PowerDomain, "enter_sleep", "power.sleep")
    tracer.add(PowerDomain, "wake_up", "power.wake")
    # ProtectedDesign calls the name it imported, so trace it there.
    tracer.add(protected, "pack_chains", "engines.pack")
    tracer.add(SimdBatchedEngine, "run_batch_summary", "engines.summary",
               _count_delta)
    tracer.add(engine_registry, "get_engine", "engines.build")
    tracer.add(ProtectedDesign, "sleep_wake_cycle_batch_summary",
               "core.cycle")
    tracer.add(ProtectedDesign, "__init__", "core.build")
    tracer.add(ShardedCampaignRunner, "run", "campaigns.run")
    tracer.add(CampaignScheduler, "run", "campaigns.run")
    tracer.add(FIFOValidationCampaignTask, "run_chunk", "campaigns.chunk")
    tracer.add(StreamingCampaignResult, "add_batch", "campaigns.stats")
    tracer.add(StreamingCampaignResult, "merge", "campaigns.stats")
    tracer.add(CorrectionCounters, "merge", "campaigns.stats")
    tracer.add(CheckpointStore, "record", "campaigns.checkpoint")
    tracer.add(CheckpointStore, "flush", "campaigns.checkpoint")
    tracer.add(CheckpointStore, "write", "campaigns.checkpoint",
               _count_write)
    tracer.add(CorrectionCapabilityTask, "run_chunk", "analysis.trial")
    return tracer
