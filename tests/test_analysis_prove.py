"""Prove-mode removal-set classification (DynaFlow liveness proofs).

Legacy refinement assumes every kept block is live, so a removed block
any kept byte can reach stays SUSPECT forever.  Prove mode only roots
liveness at the entry point, address-taken code, and dynamic exports —
a kept-but-unreachable reference no longer pins a removed block.  The
synthetic guest below isolates exactly that upgrade; the server test
exercises the same path over a real traced removal set.
"""

from __future__ import annotations

import json

from repro.analysis.reachability import BlockClass, refine_removal_set
from repro.tracing import BlockRecord

from .helpers import build_asm

# _start either exits or enters the undesired feature through arm_entry
# (the designated trap site).  helper_arm is only otherwise referenced
# by unused_kept — kept code that nothing live ever reaches.
DISPATCH = """
.section text
.global _start
.global arm_entry
.global helper_arm
.global unused_kept
_start:
    cmpi r1, 0
    je _Ldone
    jmp arm_entry
_Ldone:
    movi r0, 0
    hlt
arm_entry:
    movi r0, 1
    jmp helper_arm
helper_arm:
    movi r0, 2
    ret
unused_kept:
    jmp helper_arm
"""


def _dispatch_records(image):
    arm = image.symbol_address("arm_entry")
    helper = image.symbol_address("helper_arm")
    unused = image.symbol_address("unused_kept")
    records = [
        BlockRecord(image.name, arm, helper - arm),
        BlockRecord(image.name, helper, unused - helper),
    ]
    return records, [records[0]]


class TestSuspectUpgrade:
    def test_legacy_keeps_kept_reference_suspect(self):
        image = build_asm(DISPATCH, "prove_legacy")
        records, entries = _dispatch_records(image)
        result = refine_removal_set(image, records, entries)
        assert result.mode == "legacy"
        assert result.verdict_of(entries[0]) is BlockClass.TRAP_REQUIRED
        # unused_kept jumps into helper_arm and legacy assumes all kept
        # code is live, so the block cannot be proven dead
        assert result.verdict_of(records[1]) is BlockClass.SUSPECT

    def test_prove_upgrades_unrooted_reference(self):
        image = build_asm(DISPATCH, "prove_upgrade")
        records, entries = _dispatch_records(image)
        result = refine_removal_set(image, records, entries, prove=True)
        assert result.mode == "prove"
        assert result.fallback_reason is None
        assert result.verdict_of(entries[0]) is BlockClass.TRAP_REQUIRED
        # unused_kept is not a liveness root (not the entry, not
        # address-taken, not exported): its reference no longer counts
        assert result.verdict_of(records[1]) is BlockClass.PROVABLY_DEAD
        assert result.legacy_counts == {
            "provably_dead": 0, "trap_required": 1, "suspect": 1,
        }

    def test_trap_entries_never_upgrade(self):
        image = build_asm(DISPATCH, "prove_entries")
        records, entries = _dispatch_records(image)
        result = refine_removal_set(image, records, entries, prove=True)
        assert entries[0] in result.trap_required
        assert entries[0] not in result.provably_dead

    def test_address_taken_in_dead_code_still_upgrades(self):
        # the lea lives inside unused_kept itself: the address is taken,
        # but only by code no liveness root reaches — the prover keeps
        # the precision and the verdict stays dead
        image = build_asm(
            DISPATCH.replace(
                "unused_kept:\n    jmp helper_arm",
                "unused_kept:\n    lea r1, helper_arm\n    jmpr r1",
            ),
            "prove_taken_dead",
        )
        records, entries = _dispatch_records(image)
        result = refine_removal_set(image, records, entries, prove=True)
        assert result.mode == "prove"
        assert result.verdict_of(records[1]) is BlockClass.PROVABLY_DEAD

    def test_unresolved_indirect_in_live_code_pins_taken_block(self):
        # an unresolved jmpr on the live path may land on any address-
        # taken byte; helper_arm's address is taken there, so proving it
        # dead would be unsound and the verdict must stay SUSPECT
        image = build_asm(
            """
            .section text
            .global _start
            .global noop
            .global arm_entry
            .global helper_arm
            _start:
                cmpi r1, 0
                je _Ldone
                jmp arm_entry
            _Ldone:
                lea r2, helper_arm
                call noop
                jmpr r2
            noop:
                ret
            arm_entry:
                movi r0, 1
                jmp helper_arm
            helper_arm:
                movi r0, 2
                ret
            """,
            "prove_taken_live",
        )
        arm = image.symbol_address("arm_entry")
        helper = image.symbol_address("helper_arm")
        records = [
            BlockRecord(image.name, arm, helper - arm),
            BlockRecord(image.name, helper, 11),
        ]
        result = refine_removal_set(
            image, records, [records[0]], prove=True
        )
        assert result.mode == "prove"   # bounded, so no fallback
        assert result.verdict_of(records[1]) is BlockClass.SUSPECT

    def test_init_records_without_entries_derive_frontier(self):
        image = build_asm(DISPATCH, "prove_frontier")
        records, __ = _dispatch_records(image)
        result = refine_removal_set(image, records, prove=True)
        # no designated entries: the removed block with a kept direct
        # edge becomes the trap frontier automatically
        assert result.entry_starts
        assert not result.suspect


class TestDeterministicSerialization:
    def test_to_dict_is_stable_across_runs(self):
        dumps = []
        for run in range(2):
            image = build_asm(DISPATCH, "prove_det")
            records, entries = _dispatch_records(image)
            result = refine_removal_set(image, records, entries, prove=True)
            dumps.append(json.dumps(result.to_dict(), sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_to_dict_sorted_and_typed(self):
        image = build_asm(DISPATCH, "prove_shape")
        records, entries = _dispatch_records(image)
        payload = refine_removal_set(
            image, records, entries, prove=True
        ).to_dict()
        assert list(payload["entry_starts"]) == sorted(payload["entry_starts"])
        for bucket in ("provably_dead", "trap_required", "suspect"):
            offsets = [r["offset"] for r in payload[bucket]]
            assert offsets == sorted(offsets)
        assert payload["mode"] == "prove"
        assert payload["counts"] == {
            "provably_dead": 1, "trap_required": 1, "suspect": 0,
        }
        # round-trips through JSON without loss
        assert json.loads(json.dumps(payload)) == payload

    def test_wipe_safe_subset_of_provably_dead(self):
        image = build_asm(DISPATCH, "prove_wipe")
        records, entries = _dispatch_records(image)
        result = refine_removal_set(image, records, entries, prove=True)
        dead_offsets = {r.offset for r in result.provably_dead}
        assert set(result.wipe_safe) <= dead_offsets
        assert all(
            r in result.provably_dead for r in result.wipe_safe_records()
        )


class TestServerProfile:
    def test_redis_thin_profile_upgrades_suspects(self):
        from repro.experiments.dynaflow_refinement import _dispatcher_entries
        from repro.workloads import corpus

        profile = corpus.profile(corpus.CORPORA["dynalint-redis"])
        binary = profile.kernel.binaries[profile.binary]
        entries = _dispatcher_entries(profile)
        legacy = refine_removal_set(binary, profile.blocks, entries)
        prove = refine_removal_set(
            binary, profile.blocks, entries, prove=True
        )
        assert prove.mode == "prove"
        assert len(prove.suspect) < len(legacy.suspect)
        # the upgrade moves suspects into provably-dead, never drops one
        assert len(prove.removable) + len(prove.suspect) == len(
            legacy.removable
        ) + len(legacy.suspect)
        assert prove.legacy_counts == legacy.counts
