"""Rule ``flop-slots``: only the flip-flop module touches flop slots.

``RetentionFlipFlop`` keeps its state in three slots -- ``_q`` (the
master), ``_retention`` (the always-on latch) and ``_power`` (the gated
rail).  The per-flop methods and the bulk helpers next to them in
``repro/circuit/flipflop.py`` are the only code allowed to read or
write them: the bulk helpers bypass the methods for speed, and keeping
every bypass in one module keeps them provably equivalent to the
methods (``tests/circuit/test_flipflop_bulk.py``).  Anywhere else, a
slot access would skip the methods' validation and power checks.  The
rule flags attribute access with those names and their string forms in
``getattr``/``setattr``/``delattr``/``hasattr``/``attrgetter`` calls.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.devtools.lint.findings import (
    Finding,
    Project,
    Rule,
    SourceFile,
    dotted_name,
)

#: The flop state slots.
SLOTS = frozenset({"_q", "_retention", "_power"})

#: The one module allowed to touch them.
OWNER = "repro/circuit/flipflop.py"

#: Calls that reach an attribute through its name as a string.
STRING_ACCESSORS = frozenset({"getattr", "setattr", "delattr", "hasattr",
                              "attrgetter"})


class FlopSlotsRule(Rule):
    id = "flop-slots"
    description = ("only repro/circuit/flipflop.py may read or write a "
                   "flip-flop's _q, _retention or _power slot; use the "
                   "flop methods or its bulk helpers")

    def check_file(self, project: Project,
                   file: SourceFile) -> Iterator[Finding]:
        if file.relpath.endswith(OWNER):
            return
        for node in ast.walk(file.tree):
            slot = None
            if isinstance(node, ast.Attribute) and node.attr in SLOTS:
                slot = node.attr
            elif isinstance(node, ast.Call):
                slot = _string_slot(node)
            if slot is None:
                continue
            yield project.finding(
                self.id, file, node,
                f"flip-flop slot {slot!r} touched outside "
                f"{OWNER}: go through the flop methods or a bulk "
                f"helper there (sleep_all, load_flops, pack_flops, ...)")


def _string_slot(node: ast.Call) -> Optional[str]:
    """The slot a ``getattr(obj, "_q")``-style call names, if any."""
    name = dotted_name(node.func)
    if name is None or name.split(".")[-1] not in STRING_ACCESSORS:
        return None
    for arg in node.args:
        if isinstance(arg, ast.Constant) and arg.value in SLOTS:
            return arg.value
    return None


RULE = FlopSlotsRule()

__all__ = ["FlopSlotsRule", "RULE", "OWNER", "SLOTS"]
