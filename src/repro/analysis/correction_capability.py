"""Correction-capability study (paper Fig. 10).

The paper injects 1--10 random errors into a test sequence of 1000 bits
(emulating 1000 flip-flops), passes the sequence through four Hamming
implementations and reports the percentage of injected errors that each
code corrects, over one million simulated sequences.

The mechanism behind the curves: the 1000-bit state is carved into
consecutive codewords; a single-error-correcting code repairs an
injected error only when it is the *only* error in its codeword.
Longer codewords (lower redundancy) make collisions more likely, so
Hamming(63,57) degrades much faster than Hamming(7,4) as the error
count grows.

Both a Monte-Carlo campaign (matching the paper's methodology) and the
closed-form expectation are provided; the property-based tests check
they agree.

The Monte-Carlo trials run one chunk at a time through a
:data:`SEQUENCE_ENGINES` entry.  ``reference`` calls ``random.sample``
once per trial.  ``packed`` reads the same Mersenne-Twister words of
the chunk's ``random.Random`` in bulk (one ``getrandbits`` call per
few thousand words) and replays ``random.sample``'s draw rules on
them, so it picks exactly the same error positions and returns the
same counters, without a Python method call per draw.  Both are
stdlib-only.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.campaigns.runner import CampaignTask
from repro.campaigns.scheduler import CampaignScheduler
from repro.campaigns.seeding import child_seed
from repro.codes.hamming import PAPER_HAMMING_CODES, HammingCode


@dataclass(frozen=True)
class CorrectionCapabilityResult:
    """Correction statistics of one code at one injected-error count.

    Attributes
    ----------
    code_n, code_k:
        The Hamming code parameters.
    num_errors:
        Errors injected per test sequence.
    sequences:
        Monte-Carlo sample size.
    corrected_fraction:
        Fraction of injected error bits that were corrected (the y axis
        of the paper's Fig. 10).
    sequences_fully_corrected:
        Number of sequences in which every injected error was corrected.
    """

    code_n: int
    code_k: int
    num_errors: int
    sequences: int
    corrected_fraction: float
    sequences_fully_corrected: int

    @property
    def corrected_percent(self) -> float:
        """Corrected fraction as a percentage."""
        return self.corrected_fraction * 100.0


def analytic_correction_probability(code: HammingCode, num_bits: int,
                                    num_errors: int) -> float:
    """Expected fraction of corrected errors, in closed form.

    With the ``num_bits`` state carved into codewords of ``n`` bits, an
    error is corrected exactly when none of the other ``num_errors - 1``
    errors falls into its codeword.  For errors placed uniformly at
    random without replacement this probability is

    ``prod_{i=1..m-1} (num_bits - n - i + 1) / (num_bits - i)``

    with ``m = num_errors`` and ``n`` the codeword length (capped at the
    sequence size).
    """
    if num_errors <= 0:
        return 1.0
    if num_bits <= 0:
        raise ValueError("the sequence must contain at least one bit")
    n = min(code.n, num_bits)
    probability = 1.0
    for i in range(1, num_errors):
        remaining_outside = num_bits - n - (i - 1)
        remaining_total = num_bits - i
        if remaining_total <= 0 or remaining_outside <= 0:
            return 0.0
        probability *= remaining_outside / remaining_total
    return probability


@dataclass
class CorrectionCounters:
    """Mergeable counters of one correction-capability shard."""

    sequences: int = 0
    corrected_bits: int = 0
    fully_corrected: int = 0

    def merge(self, other: "CorrectionCounters") -> "CorrectionCounters":
        """Add another shard's counters into this one (in place)."""
        self.sequences += other.sequences
        self.corrected_bits += other.corrected_bits
        self.fully_corrected += other.fully_corrected
        return self

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict form (JSON-safe) for checkpoints."""
        return {"sequences": self.sequences,
                "corrected_bits": self.corrected_bits,
                "fully_corrected": self.fully_corrected}

    @classmethod
    def from_dict(cls, payload: Dict[str, int]) -> "CorrectionCounters":
        """Rebuild the counters from :meth:`to_dict` output."""
        return cls(sequences=int(payload["sequences"]),
                   corrected_bits=int(payload["corrected_bits"]),
                   fully_corrected=int(payload["fully_corrected"]))


def _reference_chunk(code: HammingCode, num_bits: int, num_errors: int,
                     rng: random.Random,
                     num_sequences: int) -> CorrectionCounters:
    """One chunk of trials, one ``rng.sample`` call per trial -- the
    oracle the ``packed`` kernel is checked against."""
    counters = CorrectionCounters()
    for _ in range(num_sequences):
        positions = rng.sample(range(num_bits), num_errors)
        codeword_of = [pos // code.n for pos in positions]
        counts: Dict[int, int] = {}
        for word in codeword_of:
            counts[word] = counts.get(word, 0) + 1
        corrected = sum(1 for word in codeword_of if counts[word] == 1)
        counters.sequences += 1
        counters.corrected_bits += corrected
        counters.fully_corrected += corrected == num_errors
    return counters


#: Most Mersenne-Twister words the packed kernel reads at once; bounds
#: its memory for any chunk size.
_WORD_BLOCK = 1 << 14


def _mt_words(rng: random.Random, count: int) -> array:
    """The next ``count`` 32-bit Mersenne-Twister outputs of ``rng``, in
    generation order.

    ``getrandbits(32 * count)`` places output ``i`` at bits
    ``32 i .. 32 i + 31`` of the result, so its little-endian bytes
    are the words in order; one call replaces ``count`` calls.  (An
    ``array("I")`` item is 32 bits on every supported platform.)
    """
    words = array("I", rng.getrandbits(32 * count)
                  .to_bytes(4 * count, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _sample_setsize(num_errors: int) -> int:
    """``random.sample``'s pool/set switch point, computed exactly as
    CPython does: it uses a pool list when the population is at most
    this size and a set of picks otherwise."""
    setsize = 21
    if num_errors > 5:
        setsize += 4 ** math.ceil(math.log(num_errors * 3, 4))
    return setsize


def _corrected(codewords: Sequence[int]) -> int:
    """Errors of one trial that are alone in their codeword, from the
    trial's codeword indices (bitmask collision count: the masks are
    as wide as the largest index)."""
    seen = multi = 0
    for word in codewords:
        bit = 1 << word
        multi |= seen & bit
        seen |= bit
    return (seen ^ multi).bit_count()


def _packed_chunk(code: HammingCode, num_bits: int, num_errors: int,
                  rng: random.Random,
                  num_sequences: int) -> CorrectionCounters:
    """One chunk of trials on bulk-read Mersenne-Twister words.

    Draws exactly the positions :func:`_reference_chunk` draws -- the
    same words of the same ``rng``, through the rules of
    ``random.sample``: ``_randbelow(n)`` keeps ``getrandbits(k)`` for
    ``k = n.bit_length()`` (for ``k <= 32`` the top ``k`` bits of one
    word) and redraws values ``>= n``; the set method also redraws a
    cell already picked.  Over a population larger than
    :func:`_sample_setsize` every draw is ``_randbelow(num_bits)``, so
    the accepted values form one stream, filtered in bulk; a trial
    takes the next ``num_errors`` of them whenever they are distinct
    and otherwise walks the stream skipping repeats.  Populations that
    ``random.sample`` draws with its pool method, and populations above
    2**32, run :func:`_reference_chunk` itself.  Returns counters equal
    to the reference's for the same ``rng`` state.
    """
    m = num_errors
    k = num_bits.bit_length()
    if num_bits <= _sample_setsize(m) or k > 32:
        return _reference_chunk(code, num_bits, m, rng, num_sequences)
    n = code.n
    shift = 32 - k
    values: List[int] = []
    codewords: List[int] = []
    i = 0
    corrected_bits = fully_corrected = 0
    left = num_sequences
    while left:
        last = len(values) - m
        while left and i <= last:
            # Distinct codewords imply distinct cells: nothing to redraw
            # and every error corrected.
            hits = codewords[i:i + m]
            if len(set(hits)) == m:
                corrected = m
            elif len(set(values[i:i + m])) == m:
                corrected = _corrected(hits)
            else:
                break  # a repeated cell: redrawn, walk it below
            i += m
            corrected_bits += corrected
            fully_corrected += corrected == m
            left -= 1
        if not left:
            break
        picked: List[int] = []
        while len(picked) < m:
            if i == len(values):
                # Enough words for the remaining trials (with margin
                # for rejections and repeats), up to one block.
                count = min(_WORD_BLOCK, 64 + int(
                    left * m * (1 << k) / num_bits * 1.05))
                values = [v for v in (w >> shift
                                      for w in _mt_words(rng, count))
                          if v < num_bits]
                codewords = [v // n for v in values]
                i = 0
                continue
            value = values[i]
            i += 1
            if value not in picked:
                picked.append(value)
        corrected = _corrected([p // n for p in picked])
        corrected_bits += corrected
        fully_corrected += corrected == m
        left -= 1
    return CorrectionCounters(num_sequences, corrected_bits,
                              fully_corrected)


#: Chunk simulators selectable via this study's ``engine`` option:
#: ``(code, num_bits, num_errors, rng, num_sequences) -> counters``.
#: Deliberately separate from the design-engine registry of
#: :mod:`repro.engines`: these simulate abstract codeword collisions
#: over a 1000-bit sequence, not a protected design, so engines
#: registered there do not apply here.
SEQUENCE_ENGINES = {
    "reference": _reference_chunk,
    "packed": _packed_chunk,
}


def _check_study(error_counts: Sequence[int], num_bits: int,
                engine: str) -> None:
    """Reject a Fig. 10 study configuration up front, with a clear
    ``ValueError``: no error counts, a count below 0 or above
    ``num_bits``, or an engine not in :data:`SEQUENCE_ENGINES`."""
    if len(error_counts) == 0:
        raise ValueError("error_counts is empty; name at least one "
                         "injected-error count")
    for num_errors in error_counts:
        if num_errors < 0:
            raise ValueError(f"cannot inject a negative number of errors "
                             f"({num_errors})")
        if num_errors > num_bits:
            raise ValueError(f"cannot inject more errors than there are "
                             f"bits ({num_errors} > {num_bits})")
    if engine not in SEQUENCE_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from "
            f"{tuple(SEQUENCE_ENGINES)}")


@dataclass(frozen=True)
class CorrectionCapabilityTask(CampaignTask):
    """One chunk of the Fig. 10 Monte-Carlo study, for the sharded
    runner of :mod:`repro.campaigns`."""

    code_n: int
    code_k: int
    num_bits: int
    num_errors: int
    engine: str = "reference"

    def __post_init__(self) -> None:
        _check_study((self.num_errors,), self.num_bits, self.engine)

    def empty_result(self) -> CorrectionCounters:
        return CorrectionCounters()

    def run_chunk(self, chunk_seed: int,
                  num_sequences: int) -> CorrectionCounters:
        return SEQUENCE_ENGINES[self.engine](
            HammingCode(self.code_n, self.code_k), self.num_bits,
            self.num_errors, random.Random(chunk_seed), num_sequences)


def _submit_curve(scheduler: CampaignScheduler, code: HammingCode,
                  error_counts: Sequence[int], num_bits: int,
                  sequences: int, seed: Optional[Union[int, str]],
                  engine: str, chunk_size: Optional[int],
                  progress_callback=None) -> list:
    """Queue one code's curve (one job per error count) on a scheduler."""
    jobs = []
    for num_errors in error_counts:
        task = CorrectionCapabilityTask(
            code_n=code.n, code_k=code.k, num_bits=num_bits,
            num_errors=num_errors, engine=engine)
        jobs.append((num_errors, scheduler.submit(
            task, sequences,
            seed=None if seed is None else child_seed(seed, "errors",
                                                      num_errors),
            chunk_size=chunk_size,
            progress_callback=progress_callback)))
    return jobs


def _curve_results(code: HammingCode,
                   jobs: list) -> List[CorrectionCapabilityResult]:
    """Collect one code's finished scheduler jobs into curve points."""
    results = []
    for num_errors, job in jobs:
        counters = job.result
        results.append(CorrectionCapabilityResult(
            code_n=code.n, code_k=code.k,
            num_errors=num_errors,
            sequences=counters.sequences,
            corrected_fraction=(
                counters.corrected_bits / (counters.sequences * num_errors)
                if num_errors > 0 else 1.0),
            sequences_fully_corrected=counters.fully_corrected))
    return results


def correction_capability_curve(code: HammingCode,
                                error_counts: Sequence[int] = tuple(
                                    range(1, 11)),
                                num_bits: int = 1000,
                                sequences: int = 2000,
                                seed: Optional[Union[int, str]] = 1234,
                                engine: str = "reference",
                                num_workers: int = 1,
                                chunk_size: Optional[int] = None,
                                progress_callback=None,
                                executor=None,
                                scheduler: Optional[CampaignScheduler] = None
                                ) -> List[CorrectionCapabilityResult]:
    """Monte-Carlo correction-capability curve for one code.

    Parameters mirror the paper's setup (1000-bit sequences, 1--10
    injected errors); ``sequences`` trades accuracy against runtime
    (the paper used 10^6, the default here is CI-sized and the
    benchmark harness can raise it).  ``engine="packed"`` selects the
    bulk chunk kernel: it reads the same Mersenne-Twister words as
    ``random.sample`` in bulk and replays its draw rules, so it picks
    the same error positions and returns identical statistics, just
    faster.  ``error_counts`` must be non-empty with every count in
    ``0..num_bits``; a bad count or engine raises ``ValueError``
    before any job is queued.

    The per-error-count campaigns run as jobs of one
    :class:`~repro.campaigns.scheduler.CampaignScheduler` sharing a
    single executor (``executor`` accepts ``"serial"``/``"thread"``/
    ``"process"`` or an instance, sized by ``num_workers``), their
    chunks interleaved fair-share and their merged results memoized --
    re-requesting a curve point on the same scheduler is free.  Each
    error count keeps its own seed-split campaign root, so the
    statistics are bit-identical to the historical one-runner-per-point
    execution for any worker count and executor kind (given the same
    ``chunk_size``).
    """
    _check_study(error_counts, num_bits, engine)
    # A scheduler built here is closed here; a caller's stays open.
    owned = (CampaignScheduler(executor=executor, num_workers=num_workers)
             if scheduler is None else nullcontext(scheduler))
    with owned as scheduler:
        jobs = _submit_curve(scheduler, code, error_counts, num_bits,
                             sequences, seed, engine, chunk_size,
                             progress_callback=progress_callback)
        scheduler.run()
    return _curve_results(code, jobs)


def fig10_curves(error_counts: Sequence[int] = tuple(range(1, 11)),
                 num_bits: int = 1000,
                 sequences: int = 2000,
                 seed: Optional[Union[int, str]] = 1234,
                 family: Sequence[Tuple[int, int]] = PAPER_HAMMING_CODES,
                 engine: str = "reference",
                 num_workers: int = 1,
                 chunk_size: Optional[int] = None,
                 executor=None
                 ) -> Dict[Tuple[int, int], List[CorrectionCapabilityResult]]:
    """Regenerate all four curves of the paper's Fig. 10.

    All ``len(family) * len(error_counts)`` campaigns are submitted to
    **one** scheduler and executed fair-share over one shared executor
    pool -- the Fig. 10 figure is exactly the many-jobs-one-pool shape
    the campaign service is built for.

    Each curve derives its root seed with hash-based seed-splitting
    (``child_seed(seed, "fig10", n, k)``) instead of the historical
    ``seed + offset`` scheme, under which the same integer seed could
    serve two different (code, error count) campaigns -- e.g. curve 0
    with user seed ``s + 1`` and curve 1 with user seed ``s`` --
    silently correlating samples that the statistics assume are
    independent.
    """
    _check_study(error_counts, num_bits, engine)
    submitted = []
    with CampaignScheduler(executor=executor,
                           num_workers=num_workers) as scheduler:
        for n, k in family:
            code = HammingCode(n, k)
            curve_seed = (None if seed is None
                          else child_seed(seed, "fig10", n, k))
            submitted.append((code, _submit_curve(
                scheduler, code, error_counts, num_bits, sequences,
                curve_seed, engine, chunk_size)))
        scheduler.run()
    return {(code.n, code.k): _curve_results(code, jobs)
            for code, jobs in submitted}


__all__ = [
    "CorrectionCapabilityResult",
    "CorrectionCapabilityTask",
    "CorrectionCounters",
    "SEQUENCE_ENGINES",
    "analytic_correction_probability",
    "correction_capability_curve",
    "fig10_curves",
]
