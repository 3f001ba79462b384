"""Equivalence of the bulk flop operations with the per-flop methods.

Every helper in :mod:`repro.circuit.flipflop`'s bulk section must leave
each flop's ``(q, retention_value, power)`` exactly as the per-flop
method sequence it replaces, raise the same error, and mutate nothing
when it raises.  The last class runs whole summary batches on the
paper's 32x32 FIFO bench against an oracle built from the per-flop
method loops.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.fifo import SyncFIFO
from repro.circuit.flipflop import (
    PowerState,
    RetentionFlipFlop,
    force_all,
    load_flops,
    pack_flops,
    power_off_flops,
    power_on_flops,
    restore_all_from,
    restore_flops,
    retain_flops,
    sleep_all,
    wake_all,
)
from repro.core.protected import ProtectedDesign
from repro.fastpath.packed_chain import pack_state
from repro.validation.stimulus import StimulusGenerator
from repro.validation.testbench import FIFOTestbench

VALUES = st.sampled_from((0, 1, None))
FLOP_STATES = st.lists(
    st.tuples(VALUES, VALUES, st.sampled_from((PowerState.ON,
                                               PowerState.OFF))),
    max_size=40)
POWERED_STATES = st.lists(
    st.tuples(VALUES, VALUES, st.just(PowerState.ON)), max_size=40)


def _build(states):
    """Flops holding the given ``(q, retention, power)`` triples."""
    flops = []
    for index, (q, retention, power) in enumerate(states):
        ff = RetentionFlipFlop(name=f"ff{index}")
        if power is PowerState.OFF:
            ff.power_off()
        ff.force(q)
        ff.force_retention(retention)
        flops.append(ff)
    return flops


def _triples(flops):
    return [(ff.q, type(ff.q), ff.retention_value, ff.power)
            for ff in flops]


def _outcome(action, flops):
    """``(triples, error)`` after ``action(flops)``."""
    try:
        action(flops)
    except (RuntimeError, ValueError) as exc:
        return _triples(flops), (type(exc), str(exc))
    return _triples(flops), None


def _per_flop(*methods):
    """The old loops: each method over every flop, one after another."""
    def run(flops):
        for method in methods:
            for ff in flops:
                getattr(ff, method)()
    return run


def _assert_equivalent(bulk, oracle, states):
    bulk_flops, oracle_flops = _build(states), _build(states)
    before = _triples(bulk_flops)
    got, error = _outcome(bulk, bulk_flops)
    expected, expected_error = _outcome(oracle, oracle_flops)
    assert error == expected_error
    if error is None:
        assert got == expected
    else:
        assert got == before  # validated before mutating anything


class TestRetentionSequence:
    @settings(max_examples=150, deadline=None)
    @given(POWERED_STATES)
    def test_sleep_all_is_retain_then_power_off(self, states):
        _assert_equivalent(sleep_all, _per_flop("retain", "power_off"),
                           states)

    @settings(max_examples=150, deadline=None)
    @given(FLOP_STATES)
    def test_wake_all_is_power_on_then_restore(self, states):
        _assert_equivalent(wake_all, _per_flop("power_on", "restore"),
                           states)

    @settings(max_examples=150, deadline=None)
    @given(FLOP_STATES)
    def test_single_steps_match_their_methods(self, states):
        for bulk, method in ((power_off_flops, "power_off"),
                             (power_on_flops, "power_on")):
            _assert_equivalent(bulk, _per_flop(method), states)
        if all(power is PowerState.ON for _, _, power in states):
            for bulk, method in ((retain_flops, "retain"),
                                 (restore_flops, "restore")):
                _assert_equivalent(bulk, _per_flop(method), states)

    @settings(max_examples=150, deadline=None)
    @given(FLOP_STATES.filter(
        lambda states: any(p is PowerState.OFF for _, _, p in states)))
    def test_powered_off_flop_raises_and_mutates_nothing(self, states):
        first_off = next(i for i, (_, _, p) in enumerate(states)
                         if p is PowerState.OFF)
        for bulk, method in ((sleep_all, "retain"),
                             (retain_flops, "retain"),
                             (restore_flops, "restore")):
            flops = _build(states)
            before = _triples(flops)
            with pytest.raises(RuntimeError) as bulk_error:
                bulk(flops)
            with pytest.raises(RuntimeError) as method_error:
                getattr(_build(states)[first_off], method)()
            assert str(bulk_error.value) == str(method_error.value)
            assert _triples(flops) == before


class TestWrites:
    @settings(max_examples=150, deadline=None)
    @given(FLOP_STATES.filter(bool), st.one_of(VALUES, st.sampled_from(
        (True, False, 1.0, 2, -1))))
    def test_force_all_matches_force(self, states, value):
        # Non-empty: force_all validates its one value even when there
        # is no flop to write.
        _assert_equivalent(
            lambda flops: force_all(flops, value),
            lambda flops: [ff.force(value) for ff in flops], states)

    @settings(max_examples=150, deadline=None)
    @given(FLOP_STATES.flatmap(lambda states: st.tuples(
        st.just(states),
        st.lists(st.one_of(VALUES, st.sampled_from((True, 1.0, 2, -1))),
                 min_size=len(states), max_size=len(states)))))
    def test_load_flops_matches_force(self, case):
        states, values = case

        def per_flop(flops):
            for ff, value in zip(flops, values):
                ff.force(value)

        if any(v in (2, -1) for v in values):
            # The old loop wrote the flops before the bad value; the
            # bulk write validates first, so compare only the error.
            flops = _build(states)
            before = _triples(flops)
            with pytest.raises(ValueError) as bulk_error:
                load_flops(flops, values)
            with pytest.raises(ValueError) as method_error:
                per_flop(_build(states))
            assert str(bulk_error.value) == str(method_error.value)
            assert _triples(flops) == before
        else:
            _assert_equivalent(lambda flops: load_flops(flops, values),
                               per_flop, states)

    @settings(max_examples=150, deadline=None)
    @given(FLOP_STATES.flatmap(lambda states: st.tuples(
        st.just(states),
        st.lists(st.tuples(VALUES, VALUES), min_size=len(states),
                 max_size=len(states)))))
    def test_restore_all_from_matches_reseed_loop(self, case):
        states, snapshot = case

        def per_flop(flops):
            for ff, (q, retention) in zip(flops, snapshot):
                ff.power_on()
                ff.force(q)
                ff.force_retention(retention)

        _assert_equivalent(lambda flops: restore_all_from(flops, snapshot),
                           per_flop, states)

    @settings(max_examples=150, deadline=None)
    @given(FLOP_STATES)
    def test_pack_flops_matches_pack_state(self, states):
        flops = _build(states)
        assert pack_flops(flops) == pack_state([ff.q for ff in flops])


# -- the 32x32 FIFO bench against an oracle of per-flop method loops ----
def _oracle_reset(fifo):
    for row in fifo._memory:
        for ff in row:
            ff.reset(0)
    for ff in fifo._wr_ptr + fifo._rd_ptr:
        ff.force(0)
    for ff, value in ((fifo._full_flag, 0), (fifo._empty_flag, 1),
                      (fifo._overflow_flag, 0), (fifo._underflow_flag, 0)):
        ff.force(value)


def _oracle_push(fifo, word):
    span = 1 << fifo._ptr_bits
    write = sum(ff.q << i for i, ff in enumerate(fifo._wr_ptr))
    read = sum(ff.q << i for i, ff in enumerate(fifo._rd_ptr))
    occupancy = (write - read) % span
    if occupancy >= fifo.depth:
        fifo._overflow_flag.force(1)
        return
    for ff, bit in zip(fifo._memory[write % fifo.depth], word):
        ff.force(int(bit))
    for i, ff in enumerate(fifo._wr_ptr):
        ff.force((((write + 1) % span) >> i) & 1)
    fifo._full_flag.force(1 if occupancy + 1 >= fifo.depth else 0)
    fifo._empty_flag.force(0)


class TestFIFOSummaryBatch:
    @pytest.mark.parametrize("num_chains", (80, 77))
    def test_flop_state_matches_method_loop_oracle(self, num_chains):
        design = ProtectedDesign(SyncFIFO(32, 32),
                                 codes=["hamming(7,4)", "crc16"],
                                 num_chains=num_chains, engine="batched")
        bench = FIFOTestbench(design, seed=13)
        oracle = ProtectedDesign(SyncFIFO(32, 32),
                                 codes=["hamming(7,4)", "crc16"],
                                 num_chains=num_chains, engine="batched")
        oracle_flops = list(oracle.circuit.registers) + oracle._padding
        stimulus = StimulusGenerator(32, seed=13)
        flops = list(design.circuit.registers) + design._padding
        assert design.padding_cells == (0 if num_chains == 80 else 38)
        batches = ({(3, 5): 0b1011, (10, 0): 0b100},
                   {(num_chains - 1, 12): 0b1},
                   {})
        for flips in batches:
            bench.run_sequence_batch_summary(flips, 4)
            _oracle_reset(oracle.circuit)
            for word in stimulus.burst(bench.words_per_sequence):
                _oracle_push(oracle.circuit, word)
            for method in ("retain", "power_off", "power_on", "restore"):
                for ff in oracle_flops:
                    getattr(ff, method)()
            assert _triples(flops) == _triples(oracle_flops)
