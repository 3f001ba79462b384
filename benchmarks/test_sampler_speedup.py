"""Benchmark: bulk samplers against the per-row / per-trial samplers
they replaced, bit-identical by construction.

Two guarded sections of ``BENCH_engines.json``:

* **pattern_sampler_multiple** -- the array-mode multi-error sampler
  (``faults.batch._distinct_cells``) at the Fig. 8 bench's size: 4096
  sequences x 1040 scan cells, 4 distinct flips each.  The blocked
  threshold selection must hold >= 1.5x over the whole-matrix
  ``argpartition`` oracle below (the sampler before the change).
* **fig10_trial_kernel** -- the Fig. 10 ``packed`` chunk kernel (bulk
  Mersenne-Twister words) against the ``reference`` chunk (one
  ``random.sample`` per trial) on 313-trial chunks, the chunk size of a
  20k-trial curve point split 64 ways: >= 1.5x.

Both pairs are timed interleaved A, B, A, B, ... after a warm-up and
reduced min-of-k, so host drift hits both sides alike.  That the two
sides of each pair compute the same thing is asserted separately, on
untimed runs.
"""

import random

import pytest

from benchmarks.conftest import print_section, record_bench, time_interleaved
from repro.analysis.correction_capability import SEQUENCE_ENGINES
from repro.codes.hamming import PAPER_HAMMING_CODES, HammingCode

#: Interleaved repeats of each timing pair (min-of-k).
REPEATS = 7
SPEEDUP_FLOOR = 1.5
BATCH, POPULATION, DRAWS = 4096, 1040, 4
TRIALS, NUM_BITS, ERROR_COUNTS = 313, 1000, (1, 4, 10)


def _argpartition_cells(rng, batch_size, population, draws):
    """The multi-error sampler before blocking: one whole key matrix,
    ``argpartition`` per row."""
    import numpy as np

    keys = rng.random((batch_size, population))
    return np.argpartition(keys, draws - 1, axis=1)[:, :draws] \
        .astype(np.int64)


@pytest.mark.benchmark(group="engines")
def test_pattern_sampler_speedup():
    np = pytest.importorskip("numpy")
    from repro.faults.batch import _distinct_cells

    for seed in range(3):
        old_rng = np.random.default_rng(seed)
        new_rng = np.random.default_rng(seed)
        old = _argpartition_cells(old_rng, BATCH, POPULATION, DRAWS)
        new = _distinct_cells(new_rng, BATCH, POPULATION, DRAWS)
        assert [set(row) for row in old.tolist()] == \
            [set(row) for row in new.tolist()]
        assert old_rng.bit_generator.state == new_rng.bit_generator.state

    rng = np.random.default_rng(1)
    best = time_interleaved({
        "argpartition": lambda: _argpartition_cells(rng, BATCH, POPULATION,
                                                    DRAWS),
        "blocked": lambda: _distinct_cells(rng, BATCH, POPULATION, DRAWS),
    }, REPEATS)
    speedup = best["argpartition"] / best["blocked"]
    record_bench("engines", {
        "requires": ["numpy"],
        "batch_size": BATCH,
        "population": POPULATION,
        "draws": DRAWS,
        "repeats": REPEATS,
        "seconds_per_batch": best,
        "speedup_vs_argpartition": speedup,
        "floors": {"speedup_vs_argpartition": SPEEDUP_FLOOR},
    }, section="pattern_sampler_multiple")
    print_section(
        f"Multi-error pattern sampler -- {BATCH} x {POPULATION}, "
        f"{DRAWS} draws",
        f"argpartition : {best['argpartition'] * 1e3:8.2f} ms per batch\n"
        f"blocked      : {best['blocked'] * 1e3:8.2f} ms per batch\n"
        f"speedup      : {speedup:8.2f}x "
        f"(acceptance: >= {SPEEDUP_FLOOR}x)")
    assert speedup >= SPEEDUP_FLOOR


def _chunks(engine):
    """One ``TRIALS``-trial chunk per paper code and error count."""
    simulate = SEQUENCE_ENGINES[engine]
    points = [(code, m) for code in PAPER_HAMMING_CODES
              for m in ERROR_COUNTS]
    return [simulate(HammingCode(*code), NUM_BITS, m, random.Random(seed),
                     TRIALS)
            for seed, (code, m) in enumerate(points)]


@pytest.mark.benchmark(group="engines")
def test_fig10_trial_kernel_speedup():
    assert _chunks("packed") == _chunks("reference")

    best = time_interleaved({
        "reference": lambda: _chunks("reference"),
        "packed": lambda: _chunks("packed"),
    }, REPEATS)
    speedup = best["reference"] / best["packed"]
    trials = TRIALS * len(PAPER_HAMMING_CODES) * len(ERROR_COUNTS)
    record_bench("engines", {
        "num_bits": NUM_BITS,
        "trials_per_chunk": TRIALS,
        "error_counts": list(ERROR_COUNTS),
        "repeats": REPEATS,
        "trials_per_second": {name: trials / seconds
                              for name, seconds in best.items()},
        "packed_speedup_vs_reference": speedup,
        "floors": {"packed_speedup_vs_reference": SPEEDUP_FLOOR},
    }, section="fig10_trial_kernel")
    print_section(
        f"Fig. 10 trial kernel -- {TRIALS}-trial chunks, 4 codes x "
        f"m in {ERROR_COUNTS}",
        f"reference : {trials / best['reference']:10.0f} trials/s\n"
        f"packed    : {trials / best['packed']:10.0f} trials/s\n"
        f"speedup   : {speedup:10.2f}x (acceptance: >= {SPEEDUP_FLOOR}x)")
    assert speedup >= SPEEDUP_FLOOR
