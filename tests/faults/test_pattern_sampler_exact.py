"""The blocked threshold selection of ``faults.batch._distinct_cells``
picks exactly the cells of a whole-matrix ``np.argpartition``.

The oracle below is the original one-call sampler: one
``(batch, population)`` key matrix, ``argpartition`` per row.  The new
sampler must give every row the same cell *set* (order within a row is
free -- every consumer is order-insensitive) and leave the generator in
the same state, so array-mode campaign counters do not move.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.campaigns.tasks import FIFOValidationCampaignTask  # noqa: E402
from repro.faults import batch as batch_module  # noqa: E402
from repro.faults.batch import _distinct_cells  # noqa: E402


def argpartition_cells(rng, batch_size, population, draws):
    """The whole-matrix random-key sampler (the exactness oracle)."""
    if draws > population:
        raise ValueError("too many draws")
    if draws == population:
        return np.broadcast_to(np.arange(population, dtype=np.int64),
                               (batch_size, population))
    keys = rng.random((batch_size, population))
    return np.argpartition(keys, draws - 1, axis=1)[:, :draws] \
        .astype(np.int64)


def row_sets(cells):
    return [frozenset(row) for row in cells.tolist()]


def assert_same_sample(make_rng, batch_size, population, draws):
    oracle_rng, rng = make_rng(), make_rng()
    expected = argpartition_cells(oracle_rng, batch_size, population, draws)
    cells = _distinct_cells(rng, batch_size, population, draws)
    assert cells.shape == (batch_size, draws)
    assert row_sets(cells) == row_sets(expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@st.composite
def population_and_draws(draw):
    population = draw(st.integers(1, 1500))
    draws = draw(st.one_of(
        st.sampled_from(sorted({1, max(1, population - 1), population})),
        st.integers(1, population)))
    return population, draws


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), batch_size=st.integers(1, 600),
       shape=population_and_draws())
@example(seed=7, batch_size=600, shape=(1040, 4))  # 2 full blocks + 96
@example(seed=1, batch_size=253, shape=(1040, 1))
@example(seed=2, batch_size=9, shape=(1040, 1039))
def test_rows_and_generator_state_match_argpartition(seed, batch_size,
                                                     shape):
    population, draws = shape
    assert_same_sample(lambda: np.random.default_rng(seed), batch_size,
                       population, draws)


@pytest.mark.parametrize("population,draws", [
    (1040, 4), (1040, 1), (1040, 10), (60, 4), (8, 4), (5, 4), (4, 3),
    (2, 1), (1040, 1039)])
@pytest.mark.parametrize("seed", range(5))
def test_fixed_grid_matches_argpartition(seed, population, draws):
    assert_same_sample(lambda: np.random.default_rng(seed), 700,
                       population, draws)


class QuantisedKeys:
    """A generator whose keys take only four values, so rows tie at
    their ``draws``-th key or have too few keys under the candidate
    threshold -- the two cases that fall back to per-row argpartition."""

    def __init__(self, seed, low):
        self.bit_generator = np.random.default_rng(seed).bit_generator
        self._rng = np.random.Generator(self.bit_generator)
        self._low = low

    def _quantise(self, keys):
        return self._low + np.floor(keys * 4) / 4 * (1 - self._low)

    def random(self, size=None, out=None):
        if out is None:
            return self._quantise(self._rng.random(size))
        self._rng.random(out=out)
        out[...] = self._quantise(out)
        return out


@pytest.mark.parametrize("population,draws,low", [
    (60, 4, 0.0),     # many candidates, tied at the draws-th key
    (8, 4, 0.0),      # threshold 1: every key a candidate, heavy ties
    (1040, 4, 0.05),  # no key under the threshold: too few candidates
    (1040, 1, 0.05),
])
@pytest.mark.parametrize("seed", range(3))
def test_fallback_rows_match_argpartition(monkeypatch, seed, population,
                                          draws, low):
    oracle_rng = QuantisedKeys(seed, low)
    expected = argpartition_cells(oracle_rng, 300, population, draws)
    calls = []
    argpartition = np.argpartition

    def spy(*args, **kwargs):
        calls.append(args)
        return argpartition(*args, **kwargs)

    monkeypatch.setattr(np, "argpartition", spy)
    rng = QuantisedKeys(seed, low)
    cells = _distinct_cells(rng, 300, population, draws)
    assert calls, "no row took the argpartition fallback"
    assert row_sets(cells) == row_sets(expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


# A burst of 10 over 8 chains spans a 16-cell window, so it samples
# (a burst no wider than the chain count fills its window exactly).
@pytest.mark.parametrize("kind,errors", (("multiple", 4), ("burst", 10)))
@pytest.mark.parametrize("engine", ("simd", "packed"))
def test_array_campaign_counters_match_the_oracle(monkeypatch, kind,
                                                  errors, engine):
    """Array-mode chunks over the Fig. 8 style bench: the summary path
    (simd) and the object-path fallback (packed) give the counters of
    a run on the argpartition oracle."""
    task = FIFOValidationCampaignTask(
        width=8, depth=8, codes=("hamming(7,4)", "crc16"), num_chains=8,
        pattern=kind, burst_size=errors, engine=engine, batch_size=16,
        sampler="array")
    result = task.run_chunk(chunk_seed=20100308, num_sequences=70)
    monkeypatch.setattr(batch_module, "_distinct_cells",
                        argpartition_cells)
    assert task.run_chunk(chunk_seed=20100308, num_sequences=70) == result
