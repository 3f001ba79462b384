"""The ``packed`` Fig. 10 chunk kernel equals the per-trial
``random.sample`` reference, counter for counter.

The kernel replays ``random.sample``'s set method on bulk-read
Mersenne-Twister words, so these tests pin that replay (the bulk stream,
the repeat walk and word refills inside a chunk) and the populations it
hands to the reference loop: those below CPython's pool/set switch and
those above 2**32.  Run across the CI Python matrix, they also catch
any drift in ``random.sample``'s internals.
"""

import random

import pytest

from repro.analysis import correction_capability as cc
from repro.analysis.correction_capability import (
    CorrectionCapabilityTask,
    correction_capability_curve,
    fig10_curves,
)
from repro.codes.hamming import PAPER_HAMMING_CODES, HammingCode

SEEDS = (1, 20100308, 2**70 + 3)


def chunk(engine, code, num_bits, num_errors, seed, num_sequences):
    task = CorrectionCapabilityTask(code_n=code[0], code_k=code[1],
                                    num_bits=num_bits,
                                    num_errors=num_errors, engine=engine)
    return task.run_chunk(seed, num_sequences)


def assert_engines_agree(code, num_bits, num_errors, seed, num_sequences):
    packed = chunk("packed", code, num_bits, num_errors, seed,
                   num_sequences)
    reference = chunk("reference", code, num_bits, num_errors, seed,
                      num_sequences)
    assert packed == reference
    assert packed.sequences == num_sequences


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("num_errors", range(11))
@pytest.mark.parametrize("code", PAPER_HAMMING_CODES)
def test_paper_grid(code, num_errors, seed):
    assert_engines_agree(code, 1000, num_errors, seed, 313)


@pytest.mark.parametrize("num_sequences", (1, 313, 5000))
@pytest.mark.parametrize("num_errors", (1, 4, 10))
def test_chunk_sizes(num_errors, num_sequences):
    # 5000 trials need several word blocks, so refills land mid-trial.
    assert 5000 * 10 > 2 * cc._WORD_BLOCK
    assert_engines_agree((63, 57), 1000, num_errors, 7, num_sequences)


@pytest.mark.parametrize("num_bits", (1, 2, 7, 10, 21, 22, 85, 86, 1000,
                                      1024))
@pytest.mark.parametrize("code", PAPER_HAMMING_CODES)
def test_pool_and_set_methods(code, num_bits):
    """Populations on both sides of random.sample's pool/set switch
    (21 for up to 5 draws, 85 for 6..21)."""
    for num_errors in range(min(num_bits, 10) + 1):
        for seed in SEEDS[:2]:
            assert_engines_agree(code, num_bits, num_errors, seed, 60)


@pytest.mark.parametrize("num_errors", (1, 2, 3))
def test_multi_word_draws(num_errors):
    """num_bits > 2**32, where each draw spans two 32-bit words: the
    kernel runs the reference loop."""
    assert_engines_agree((63, 57), 2**33 + 12345, num_errors, 11, 200)


def test_setsize_matches_cpython_switch():
    """The pool/set switch the kernel mirrors: the population sizes at
    which random.sample stops using a pool list."""
    assert [cc._sample_setsize(m) for m in (1, 5, 6, 21, 22)] == \
        [21, 21, 85, 85, 277]


def test_bulk_words_are_getrandbits_words():
    bulk = cc._mt_words(random.Random(5), 100)
    single = random.Random(5)
    assert list(bulk) == [single.getrandbits(32) for _ in range(100)]


def test_fig10_curves_equal_across_engines():
    kwargs = dict(error_counts=(1, 5, 10), sequences=200,
                  family=PAPER_HAMMING_CODES[:2], seed=3, chunk_size=64)
    assert fig10_curves(engine="packed", **kwargs) == \
        fig10_curves(engine="reference", **kwargs)


@pytest.mark.parametrize("counts,message", [
    ((), "empty"),
    ((1, -1), "negative"),
    ((4, 11), "more errors than there are bits"),
])
def test_bad_error_counts_rejected_up_front(counts, message):
    code = HammingCode(7, 4)
    with pytest.raises(ValueError, match=message):
        correction_capability_curve(code, error_counts=counts, num_bits=10,
                                    sequences=10)
    with pytest.raises(ValueError, match=message):
        fig10_curves(error_counts=counts, num_bits=10, sequences=10)


def test_unknown_engine_rejected_up_front():
    with pytest.raises(ValueError, match="unknown engine"):
        correction_capability_curve(HammingCode(7, 4), sequences=10,
                                    engine="fast")
    with pytest.raises(ValueError, match="unknown engine"):
        fig10_curves(sequences=10, engine="fast")


@pytest.mark.parametrize("fields,message", [
    (dict(num_errors=-1), "negative"),
    (dict(num_errors=11), "more errors than there are bits"),
    (dict(engine="fast"), "unknown engine"),
])
def test_task_rejects_bad_fields_at_construction(fields, message):
    base = dict(code_n=7, code_k=4, num_bits=10, num_errors=2)
    base.update(fields)
    with pytest.raises(ValueError, match=message):
        CorrectionCapabilityTask(**base)
