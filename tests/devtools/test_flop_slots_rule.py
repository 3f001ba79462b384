"""Fixture tests of the ``flop-slots`` rule."""

import pytest

from repro.devtools.lint.rules.flop_slots import OWNER, RULE, SLOTS


class TestFlopSlotOwnership:
    @pytest.mark.parametrize("slot", sorted(SLOTS))
    def test_read_fires_outside_the_owner(self, run_rule, slot):
        findings = run_rule(RULE, f"def f(ff):\n    return ff.{slot}\n",
                            "repro/engines/packing.py")
        assert len(findings) == 1
        assert slot in findings[0].message

    def test_write_and_augmented_write_fire(self, run_rule):
        findings = run_rule(
            RULE,
            "def f(ff):\n"
            "    ff._q = 1\n"
            "    ff._retention ^= 1\n",
            "repro/circuit/fifo.py")
        assert [f.line for f in findings] == [2, 3]

    @pytest.mark.parametrize("call", [
        "getattr(ff, '_q')",
        "setattr(ff, '_power', None)",
        "operator.attrgetter('_retention')(ff)",
    ])
    def test_string_access_fires(self, run_rule, call):
        findings = run_rule(
            RULE, f"import operator\ndef f(ff):\n    return {call}\n",
            "repro/faults/injector.py")
        assert len(findings) == 1

    def test_owner_module_is_exempt(self, run_rule):
        findings = run_rule(
            RULE, "def f(ff):\n    ff._q = ff._retention\n", OWNER)
        assert findings == []

    def test_other_private_names_are_quiet(self, run_rule):
        findings = run_rule(
            RULE,
            "def f(obj):\n"
            "    obj._power_estimator = obj._quorum\n"
            "    return getattr(obj, '_flops'), obj.q, obj.power\n",
            "repro/core/protected.py")
        assert findings == []

    def test_real_tree_is_clean(self):
        from pathlib import Path

        from repro.devtools.lint import run_rules, scan

        src = Path(__file__).resolve().parents[2] / "src"
        project = scan([src])
        assert run_rules(project, rules=[RULE], reflection=False) == []
