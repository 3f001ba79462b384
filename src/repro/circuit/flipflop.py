"""Flip-flop models: plain, scan-enabled and state-retention.

The paper's Fig. 1 shows a state-retention flip-flop: the master
flip-flop is built from low-Vt transistors and powered from the gated
rail (fast but leaky, loses state in sleep), while the slave retention
latch is built from high-Vt transistors on the always-on rail (slow but
low leakage, keeps state in sleep).  A ``RETAIN`` control copies master
to slave before sleep and slave back to master before resuming active
operation.

These models are *cycle-level*: they expose ``capture`` / ``shift``
operations rather than modelling individual transistors.  Supply-droop
induced corruption of the retention latch is applied externally by the
fault models in :mod:`repro.faults` and :mod:`repro.power.retention`.

Bulk operations
---------------

A campaign batch sleeps and wakes the whole register file, resets the
FIFO's data array and packs every scan chain; through the per-flop
methods that is several thousand Python method calls per batch.  The
module-level helpers below make one tight pass over a flop list and
apply the matching method's state change inline: :func:`sleep_all`
(retain + power off) and :func:`wake_all` (power on + restore) for the
sleep/wake cycle, their single steps (:func:`retain_flops`,
:func:`power_off_flops`, :func:`power_on_flops`,
:func:`restore_flops`), :func:`force_all` and :func:`load_flops` for
resets and row writes, :func:`restore_all_from` for rewinding a bench
to a pristine snapshot, and :func:`pack_flops` for packing a chain.
Each leaves every flop's ``q``, ``retention_value`` and ``power``
exactly as the per-flop method sequence it replaces and raises the
same errors, but validates before it mutates anything.  They live
here, next to the ``__slots__`` they touch, and are the only code
outside the methods that reads or writes ``_q``, ``_retention`` or
``_power`` -- the project linter's ``flop-slots`` rule enforces that,
so a change to the slot layout has one module to update.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence, Tuple


class PowerState(enum.Enum):
    """Power state of the gated rail feeding a flip-flop's master stage."""

    #: Gated rail energised; the master flip-flop holds valid data.
    ON = "on"
    #: Gated rail collapsed; the master flip-flop's content is unknown.
    OFF = "off"


class DFlipFlop:
    """A plain positive-edge D flip-flop.

    The stored value is an integer in ``{0, 1}`` or ``None`` for the
    unknown value ``X`` (e.g. before the first clock edge or after a
    power-down of a non-retention flop).
    """

    __slots__ = ("name", "_q")

    def __init__(self, name: str = "", init: Optional[int] = None):
        self.name = name
        self._q: Optional[int] = self._check(init)

    @staticmethod
    def _check(value: Optional[int]) -> Optional[int]:
        if value is None:
            return None
        v = int(value)
        if v not in (0, 1):
            raise ValueError(f"flip-flop values must be 0, 1 or None; got {value!r}")
        return v

    @property
    def q(self) -> Optional[int]:
        """Current output value (None models the unknown value X)."""
        return self._q

    def clock(self, d: Optional[int]) -> Optional[int]:
        """Apply one clock edge capturing ``d``; returns the new output."""
        self._q = self._check(d)
        return self._q

    def reset(self, value: int = 0) -> None:
        """Synchronous reset to ``value``."""
        self._q = self._check(value)

    def force(self, value: Optional[int]) -> None:
        """Directly overwrite the stored value (used by fault injection)."""
        self._q = self._check(value)

    def flip(self) -> None:
        """Invert the stored bit (single-event-upset style corruption)."""
        if self._q is not None:
            self._q ^= 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, q={self._q!r})"


class ScanFlipFlop(DFlipFlop):
    """A mux-D scan flip-flop.

    In functional mode (``se = 0``) the flop captures its functional
    ``d`` input; in scan mode (``se = 1``) it captures the serial scan
    input ``si`` instead.  Scan insertion replaces every system flip-flop
    with one of these (paper Section II).
    """

    __slots__ = ()

    def clock_scan(self, d: Optional[int], si: Optional[int],
                   se: int) -> Optional[int]:
        """One clock edge with explicit scan-enable selection."""
        return self.clock(si if se else d)

    def shift(self, si: Optional[int]) -> Optional[int]:
        """Scan-shift: capture ``si`` and return the *previous* output.

        This is the natural primitive for chain shifting -- the value
        that leaves this flop on a shift cycle is the value it held
        before the clock edge.
        """
        previous = self._q
        self.clock(si)
        return previous


class RetentionFlipFlop(ScanFlipFlop):
    """State-retention scan flip-flop (paper Fig. 1).

    Adds an always-on slave retention latch and a ``RETAIN`` control:

    * :meth:`retain` (RETAIN := 1) copies the master value into the
      retention latch; this happens during the sleep sequence.
    * :meth:`power_off` collapses the gated rail -- the master value
      becomes unknown, the retention latch keeps its value.
    * :meth:`power_on` re-energises the gated rail (master still
      unknown until restored).
    * :meth:`restore` (RETAIN := 0) copies the retention latch back into
      the master; this happens during the wake-up sequence.

    The retention latch can be corrupted externally through
    :meth:`corrupt_retention` -- this is precisely the failure mode the
    paper's methodology protects against (rush-current induced supply
    droop flipping retention latches).
    """

    __slots__ = ("_retention", "_power", "retention_margin")

    def __init__(self, name: str = "", init: Optional[int] = None,
                 retention_margin: float = 1.0):
        super().__init__(name, init)
        #: Value held by the always-on retention latch (None = unknown).
        self._retention: Optional[int] = None
        self._power = PowerState.ON
        #: Relative noise margin of this latch's retention node; used by
        #: the droop-driven upset model (1.0 = nominal).
        self.retention_margin = retention_margin

    # -- power-state bookkeeping ---------------------------------------
    @property
    def power(self) -> PowerState:
        """Power state of the gated rail feeding the master stage."""
        return self._power

    @property
    def retention_value(self) -> Optional[int]:
        """Value currently stored in the retention latch."""
        return self._retention

    def clock(self, d: Optional[int]) -> Optional[int]:
        """Clock the master; illegal while the gated rail is off."""
        if self._power is PowerState.OFF:
            raise RuntimeError(
                f"flip-flop {self.name!r} clocked while powered off")
        return super().clock(d)

    # -- retention sequence --------------------------------------------
    def retain(self) -> None:
        """RETAIN := 1 -- copy master into the retention latch."""
        if self._power is PowerState.OFF:
            raise RuntimeError(
                f"cannot retain {self.name!r}: master is powered off")
        self._retention = self._q

    def power_off(self) -> None:
        """Collapse the gated rail; master content becomes unknown."""
        self._power = PowerState.OFF
        self._q = None

    def power_on(self) -> None:
        """Re-energise the gated rail; master remains unknown until restore."""
        self._power = PowerState.ON

    def restore(self) -> None:
        """RETAIN := 0 -- copy the retention latch back into the master."""
        if self._power is PowerState.OFF:
            raise RuntimeError(
                f"cannot restore {self.name!r}: master is powered off")
        self._q = self._retention

    # -- fault hooks -----------------------------------------------------
    def corrupt_retention(self) -> None:
        """Flip the retention latch value (supply-droop induced upset)."""
        if self._retention is not None:
            self._retention ^= 1

    def force_retention(self, value: Optional[int]) -> None:
        """Directly overwrite the retention latch (fault injection)."""
        self._retention = self._check(value)


# -- bulk operations ---------------------------------------------------
#: The values a flop may hold (``_check``'s accepted results).
_FLOP_VALUES = frozenset((0, 1, None))
#: Element types that need no ``int()`` coercion to be stored.
_STORED_TYPES = frozenset((int, type(None)))


def _checked(values: Sequence[Optional[int]]) -> Sequence[Optional[int]]:
    """``values`` as :meth:`DFlipFlop.force` would store them, raising
    its ``ValueError`` on the first illegal value."""
    if _FLOP_VALUES.issuperset(values) and \
            _STORED_TYPES.issuperset(map(type, values)):
        return values
    return [DFlipFlop._check(value) for value in values]


def _require_powered(flops: Sequence[RetentionFlipFlop],
                     action: str) -> None:
    """Raise ``action``'s ``RuntimeError`` for the first powered-off
    flop (the message of :meth:`RetentionFlipFlop.retain`/``restore``)."""
    off = PowerState.OFF
    for ff in flops:
        if ff._power is off:
            raise RuntimeError(
                f"cannot {action} {ff.name!r}: master is powered off")


def retain_flops(flops: Sequence[RetentionFlipFlop]) -> None:
    """``retain()`` on every flop."""
    _require_powered(flops, "retain")
    for ff in flops:
        ff._retention = ff._q


def power_off_flops(flops: Sequence[RetentionFlipFlop]) -> None:
    """``power_off()`` on every flop."""
    off = PowerState.OFF
    for ff in flops:
        ff._power = off
        ff._q = None


def power_on_flops(flops: Sequence[RetentionFlipFlop]) -> None:
    """``power_on()`` on every flop."""
    on = PowerState.ON
    for ff in flops:
        ff._power = on


def restore_flops(flops: Sequence[RetentionFlipFlop]) -> None:
    """``restore()`` on every flop."""
    _require_powered(flops, "restore")
    for ff in flops:
        ff._q = ff._retention


def sleep_all(flops: Sequence[RetentionFlipFlop]) -> None:
    """:func:`retain_flops` then :func:`power_off_flops`, fused into
    one pass after the power check."""
    _require_powered(flops, "retain")
    off = PowerState.OFF
    for ff in flops:
        ff._retention = ff._q
        ff._power = off
        ff._q = None


def wake_all(flops: Sequence[RetentionFlipFlop]) -> None:
    """:func:`power_on_flops` then :func:`restore_flops`, fused into
    one pass (a freshly powered flop always restores)."""
    on = PowerState.ON
    for ff in flops:
        ff._power = on
        ff._q = ff._retention


def force_all(flops: Sequence[DFlipFlop], value: Optional[int]) -> None:
    """``force(value)`` (equivalently ``reset(value)``) on every flop."""
    value = DFlipFlop._check(value)
    for ff in flops:
        ff._q = value


def load_flops(flops: Sequence[DFlipFlop],
               values: Sequence[Optional[int]]) -> None:
    """``flops[i].force(values[i])`` for each pair (``zip`` order);
    every value is validated before any flop is written."""
    for ff, value in zip(flops, _checked(values)):
        ff._q = value


def restore_all_from(flops: Sequence[RetentionFlipFlop],
                     snapshot: Sequence[Tuple[Optional[int],
                                              Optional[int]]]) -> None:
    """Put every flop back to a snapshot of ``(q, retention_value)``
    pairs with its rail on: ``power_on()``, ``force(q)``,
    ``force_retention(retention_value)`` per flop.

    The snapshot is taken from flops (``[(f.q, f.retention_value) for
    f in flops]``), so its values are already valid.
    """
    on = PowerState.ON
    for ff, (q, retention) in zip(flops, snapshot):
        ff._power = on
        ff._q = q
        ff._retention = retention


def pack_flops(flops: Sequence[DFlipFlop]) -> Tuple[int, int]:
    """``pack_state([f.q for f in flops])``: bit ``i`` of ``state`` is
    ``flops[i].q``; an unknown flop has a 0 ``known`` bit and a 0
    ``state`` bit."""
    state = known = 0
    bit = 1
    for ff in flops:
        q = ff._q
        if q is not None:
            known |= bit
            if q:
                state |= bit
        bit <<= 1
    return state, known


__all__ = [
    "PowerState",
    "DFlipFlop",
    "ScanFlipFlop",
    "RetentionFlipFlop",
    "retain_flops",
    "power_off_flops",
    "power_on_flops",
    "restore_flops",
    "sleep_all",
    "wake_all",
    "force_all",
    "load_flops",
    "restore_all_from",
    "pack_flops",
]
