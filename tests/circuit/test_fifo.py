"""Tests for the synchronous FIFO case-study circuit."""

import pytest

from repro.circuit.fifo import FIFOError, SyncFIFO


class TestGeometry:
    def test_paper_fifo_register_count(self):
        # 32x32 data bits plus 16 control flops = 1040 registers,
        # matching the paper's 80 chains x 13 flops.
        fifo = SyncFIFO(32, 32)
        assert fifo.num_registers == 1040

    def test_small_fifo_register_count(self):
        fifo = SyncFIFO(8, 4)
        # 32 data flops + 2 * 3-bit pointers + 4 flags = 42.
        assert fifo.num_registers == 8 * 4 + 2 * 3 + 4

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SyncFIFO(0, 4)
        with pytest.raises(ValueError):
            SyncFIFO(4, 0)

    def test_netlist_contains_retention_flops(self):
        fifo = SyncFIFO(8, 8)
        assert fifo.netlist.count("rsdff") == fifo.num_registers


class TestPushPop:
    def test_fifo_ordering(self):
        fifo = SyncFIFO(8, 4)
        for value in (3, 5, 250):
            assert fifo.push_int(value)
        assert fifo.pop_int() == 3
        assert fifo.pop_int() == 5
        assert fifo.pop_int() == 250

    def test_occupancy_and_flags(self):
        fifo = SyncFIFO(4, 4)
        assert fifo.is_empty and not fifo.is_full
        for i in range(4):
            assert fifo.push_int(i)
        assert fifo.is_full and not fifo.is_empty
        assert fifo.occupancy == 4

    def test_push_when_full_rejected_and_flagged(self):
        fifo = SyncFIFO(4, 2)
        fifo.push_int(1)
        fifo.push_int(2)
        assert not fifo.push_int(3)
        assert fifo.pop_int() == 1     # original data not clobbered

    def test_pop_when_empty_returns_none(self):
        fifo = SyncFIFO(4, 2)
        assert fifo.pop() is None

    def test_wrap_around(self):
        fifo = SyncFIFO(8, 4)
        for round_trip in range(10):
            assert fifo.push_int(round_trip % 256)
            assert fifo.pop_int() == round_trip % 256
        assert fifo.is_empty

    def test_push_validates_word(self):
        fifo = SyncFIFO(4, 2)
        with pytest.raises(ValueError):
            fifo.push([1, 0])
        with pytest.raises(ValueError):
            fifo.push([1, 0, 2, 0])

    def test_peek_does_not_consume(self):
        fifo = SyncFIFO(8, 4)
        fifo.push_int(77)
        fifo.push_int(99)
        assert fifo.peek(0) is not None
        assert fifo.peek(5) is None
        assert fifo.occupancy == 2

    def test_reset_clears_everything(self):
        fifo = SyncFIFO(8, 4)
        fifo.push_int(1)
        fifo.push_int(2)
        fifo.reset()
        assert fifo.is_empty
        assert fifo.occupancy == 0
        assert fifo.pop() is None


class TestRetentionInteraction:
    def test_sleep_wake_preserves_contents_without_faults(self):
        fifo = SyncFIFO(8, 8)
        for i in range(5):
            fifo.push_int(i * 31 % 256)
        fifo.retain_all()
        fifo.power_off_all()
        fifo.power_on_all()
        fifo.restore_all()
        for i in range(5):
            assert fifo.pop_int() == i * 31 % 256

    def test_corrupted_pointer_detected_via_unknown_or_mismatch(self):
        fifo = SyncFIFO(8, 8)
        fifo.push_int(42)
        fifo.retain_all()
        fifo.power_off_all()
        # Flip a write-pointer retention bit while asleep.
        fifo._wr_ptr[0].corrupt_retention()
        fifo.power_on_all()
        fifo.restore_all()
        assert fifo.write_pointer != 1

    def test_operating_on_powered_off_fifo_raises(self):
        fifo = SyncFIFO(8, 4)
        fifo.push_int(9)
        fifo.retain_all()
        fifo.power_off_all()
        with pytest.raises(FIFOError):
            fifo.pop()


class _PropertyFIFO(SyncFIFO):
    """Reference push/pop that decode the pointers through the public
    properties (``is_full``, ``write_pointer``, ...) on every use: the
    oracle for the single-decode ``push``/``pop``."""

    def _flags_from_properties(self):
        self._full_flag.force(1 if self.is_full else 0)
        self._empty_flag.force(1 if self.is_empty else 0)

    def push(self, word):
        if len(word) != self.width:
            raise ValueError("bad width")
        if self.is_full:
            self._overflow_flag.force(1)
            return False
        row = self.write_pointer % self.depth
        for ff, bit in zip(self._memory[row], word):
            ff.force(int(bit))
        self._write_value(self._wr_ptr,
                          (self.write_pointer + 1) % (1 << self._ptr_bits))
        self._flags_from_properties()
        return True

    def pop(self):
        if self.is_empty:
            self._underflow_flag.force(1)
            return None
        row = self.read_pointer % self.depth
        word = []
        for ff in self._memory[row]:
            if ff.q is None:
                raise FIFOError(
                    f"stored data in row {row} holds an unknown value")
            word.append(ff.q)
        self._write_value(self._rd_ptr,
                          (self.read_pointer + 1) % (1 << self._ptr_bits))
        self._flags_from_properties()
        return word


class TestPointerDecodeEquivalence:
    """``push``/``pop`` read each pointer once per call; over random
    push/pop/reset sequences with pointer upsets and unknown values
    they must leave exactly the state the property-based model
    leaves, including overflow, underflow and pointer wrap."""

    @staticmethod
    def _apply(fifo, op):
        kind, arg = op
        try:
            if kind == "push":
                return fifo.push_int(arg)
            if kind == "pop":
                return fifo.pop_int()
            if kind == "reset":
                return fifo.reset()
            if kind == "flip":
                return fifo.registers[arg].flip()
            return fifo.registers[arg].force(None)
        except FIFOError as exc:
            return str(exc)

    @pytest.mark.parametrize("depth", (4, 3, 1))
    @pytest.mark.parametrize("seed", range(4))
    def test_random_sequences_match_the_property_model(self, depth, seed):
        import random

        rng = random.Random(seed)
        fast, model = SyncFIFO(3, depth), _PropertyFIFO(3, depth)
        control = range(3 * depth, fast.num_registers)
        overflows = wraps = 0
        for _ in range(600):
            roll = rng.random()
            if roll < 0.5:
                op = ("push", rng.randrange(8))
            elif roll < 0.85:
                op = ("pop", None)
            elif roll < 0.88:
                op = ("reset", None)
            elif roll < 0.97:
                op = ("flip", rng.choice(control))
            else:
                op = ("unknown", rng.choice(control))
            before = [ff.q for ff in model._wr_ptr]
            outcome = self._apply(model, op)
            assert self._apply(fast, op) == outcome, op
            assert [ff.q for ff in fast.registers] == \
                [ff.q for ff in model.registers], op
            overflows += op[0] == "push" and outcome is False
            wraps += (op[0] == "push" and outcome is True
                      and model.write_pointer < sum(
                          bit << i for i, bit in enumerate(before)))
        assert overflows and wraps  # both edge cases were exercised
