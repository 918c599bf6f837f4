"""Tests for removal-set classification (repro.analysis.reachability)."""

from __future__ import annotations

from operator import attrgetter

import pytest

from repro.analysis import BlockClass, build_cfg, refine_removal_set
from repro.isa.disassembler import disassemble_range
from repro.tracing import BlockRecord

from .helpers import build_minic

# `pad` absorbs the _start fall-through edge so feature_work's only
# predecessor is the dispatcher arm that calls it.
DISPATCHER = """
func pad() { return 0; }
func feature_work(x) { return x * 3; }
func other_work(x) { return x + 1; }
func dispatch(cmd) {
    if (cmd == 5) { return feature_work(cmd); }
    return other_work(cmd);
}
func main() { return dispatch(1); }
"""


@pytest.fixture(scope="module")
def dispatcher():
    image = build_minic(DISPATCHER, "dispatcher", with_libc=False)
    return image, build_cfg(image)


def _function_records(image, cfg, name):
    return [
        BlockRecord(image.name, block.start, block.size)
        for block in image.blocks_in_function(
            name, cfg.blocks, attrgetter("start")
        )
    ]


def _arm_record(image, cfg, callee):
    """The dispatcher block whose ``call`` targets ``callee``."""
    target = image.symbol_address(callee)
    text = image.segment("text")
    for block in cfg.blocks:
        decoded, __ = disassemble_range(
            text.data, block.start, block.end, base=text.vaddr
        )
        if any(
            insn.mnemonic == "call" and insn.branch_target() == target
            for insn in decoded
        ):
            return BlockRecord(image.name, block.start, block.size)
    raise AssertionError(f"no block calls {callee}")


class TestFeatureClassification:
    def test_guarded_feature_is_provably_dead(self, dispatcher):
        image, cfg = dispatcher
        arm = _arm_record(image, cfg, "feature_work")
        body = _function_records(image, cfg, "feature_work")
        result = refine_removal_set(image, [arm] + body, entries=[arm])
        assert result.verdict_of(arm) is BlockClass.TRAP_REQUIRED
        for record in body:
            assert result.verdict_of(record) is BlockClass.PROVABLY_DEAD
        assert not result.suspect

    def test_kept_reachable_block_is_suspect(self, dispatcher):
        image, cfg = dispatcher
        arm = _arm_record(image, cfg, "feature_work")
        shared = _function_records(image, cfg, "other_work")
        result = refine_removal_set(image, [arm] + shared, entries=[arm])
        # other_work is called from the kept fall-through arm: removing
        # it would break wanted traffic -> suspect, dropped
        for record in shared:
            assert result.verdict_of(record) is BlockClass.SUSPECT
        assert result.removable == [arm]

    def test_suspicion_propagates(self, dispatcher):
        image, cfg = dispatcher
        arm = _arm_record(image, cfg, "other_work")
        body = _function_records(image, cfg, "other_work")
        # no entry guards other_work's arm; kept code reaches the arm,
        # and through it the whole body: everything is suspect
        result = refine_removal_set(
            image, [arm] + body, entries=[BlockRecord(image.name, 0, 1)]
        )
        assert result.verdict_of(arm) is BlockClass.SUSPECT
        for record in body:
            assert result.verdict_of(record) is BlockClass.SUSPECT

    def test_mid_block_record_needs_trap(self, dispatcher):
        image, cfg = dispatcher
        arm = _arm_record(image, cfg, "feature_work")
        mid = BlockRecord(image.name, arm.offset + 1, arm.size - 1)
        result = refine_removal_set(image, [mid], entries=[arm])
        # kept bytes at the block start fall straight into the record
        assert result.verdict_of(mid) is BlockClass.TRAP_REQUIRED

    def test_record_outside_recovered_code_needs_trap(self, dispatcher):
        image, __ = dispatcher
        stray = BlockRecord(image.name, 0x10, 4)
        result = refine_removal_set(image, [stray])
        assert result.verdict_of(stray) is BlockClass.TRAP_REQUIRED


class TestAutoFrontier:
    def test_frontier_traps_interior_dies(self, dispatcher):
        image, cfg = dispatcher
        arm = _arm_record(image, cfg, "feature_work")
        body = _function_records(image, cfg, "feature_work")
        result = refine_removal_set(image, [arm] + body)   # no entries
        assert result.verdict_of(arm) is BlockClass.TRAP_REQUIRED
        for record in body:
            assert result.verdict_of(record) is BlockClass.PROVABLY_DEAD
        # the auto-frontier mode never produces suspects
        assert not result.suspect

    def test_counts_and_removable(self, dispatcher):
        image, cfg = dispatcher
        arm = _arm_record(image, cfg, "feature_work")
        body = _function_records(image, cfg, "feature_work")
        result = refine_removal_set(image, [arm] + body)
        assert result.counts == {
            "provably_dead": len(body),
            "trap_required": 1,
            "suspect": 0,
        }
        assert set(result.removable) == {arm} | set(body)
        assert result.entry_starts == (arm.offset,)
