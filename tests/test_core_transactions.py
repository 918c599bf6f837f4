"""Transactional customize(): journal, pristine images, rollback.

The engine's contract: a customize session either commits (rewritten
tree live) or rolls back (pristine tree live) — never anything in
between — and the journal in the image directory records exactly how
far each attempt got.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import REDIS_PORT, stage_redis
from repro.apps.kvstore import REDIS_BINARY
from repro.core import (
    BlockMode,
    CustomizationAborted,
    DynaCut,
    JournalEntry,
    RewriteError,
    RollbackFailed,
    TraceDiff,
    TrapPolicy,
    TxJournal,
)
from repro.core.dynacut import MAX_ATTEMPTS
from repro.core.transaction import (
    PHASE_COMMITTED,
    PHASE_RETRYING,
    PHASE_ROLLED_BACK,
)
from repro.criu import DEFAULT_COST_MODEL
from repro.criu.images import CheckpointImage
from repro.faults import FaultPlan, TransientFault
from repro.kernel import Kernel
from repro.tracing import BlockTracer
from repro.workloads import RedisClient

IMAGE_DIR = "/tmp/criu/dynacut"


def _staged():
    kernel = Kernel()
    proc = stage_redis(kernel)
    client = RedisClient(kernel, REDIS_PORT)
    return kernel, proc, client


def _profile_set(kernel, proc):
    tracer = BlockTracer(kernel, proc).attach()
    client = RedisClient(kernel, REDIS_PORT)
    for cmd in ("PING", "GET a", "DEL a"):
        client.command(cmd)
    wanted = tracer.nudge_dump()
    client.command("SET a 1")
    undesired = tracer.finish()
    return TraceDiff(REDIS_BINARY).feature_blocks("SET", [wanted], [undesired])


class TestCommitPath:
    def test_commit_journal_and_report(self):
        kernel, proc, client = _staged()
        dynacut = DynaCut(kernel)
        report = dynacut.customize(proc.pid, lambda rw: None)
        assert report.outcome == "committed"
        assert report.attempts == 1
        assert not report.rolled_back
        journal = dynacut.last_journal
        assert journal.phase == PHASE_COMMITTED
        assert journal.phases(attempt=1) == [
            "begin", "checkpointed", "pristine-saved", "rewritten",
            "saved", "restored", "committed",
        ]
        assert client.ping()

    def test_journal_persisted_in_image_dir(self):
        kernel, proc, __ = _staged()
        dynacut = DynaCut(kernel)
        dynacut.customize(proc.pid, lambda rw: None)
        loaded = TxJournal.load(kernel.fs, dynacut.image_dir)
        assert loaded.phase == PHASE_COMMITTED
        assert loaded.entries == dynacut.last_journal.entries

    def test_journal_entry_round_trip(self):
        entry = JournalEntry("restored", 2, 123456, "note with spaces")
        assert JournalEntry.parse(entry.line()) == entry

    def test_pristine_dir_holds_unmutated_images(self):
        kernel, proc, __ = _staged()
        feature = _profile_set(kernel, proc)
        dynacut = DynaCut(kernel)
        dynacut.disable_feature(
            proc.pid, feature, policy=TrapPolicy.TERMINATE
        )
        entry = feature.entry
        pristine = CheckpointImage.load(kernel.fs, dynacut.pristine_dir)
        working = CheckpointImage.load(kernel.fs, dynacut.image_dir)
        original = kernel.binaries[REDIS_BINARY].read_bytes(entry.offset, 1)
        assert pristine.root().read_memory(entry.offset, 1) == original
        assert working.root().read_memory(entry.offset, 1) == b"\xcc"


class TestLintStrictReject:
    """Regression: a strict-lint rejection must not kill the service.

    Before the transactional engine, checkpoint.save() had already
    overwritten the only on-disk copy of the pristine images and the
    tree was already destroyed by the dump, so a strict reject left the
    service dead with no way back.
    """

    def _corrupting_actions(self, kernel):
        # a non-int3 byte in executable code is structural damage the
        # lint flags as DL103
        address = kernel.binaries[REDIS_BINARY].symbol_address("cmd_get")

        def actions(rewriter):
            image, base = rewriter.images_mapping(REDIS_BINARY)[0]
            image.write_memory(base + address, b"\x90")

        return address, actions

    def test_lint_strict_reject_leaves_service_running(self):
        kernel, proc, client = _staged()
        dynacut = DynaCut(kernel, lint_mode="always", lint_strict=True)
        address, actions = self._corrupting_actions(kernel)

        with pytest.raises(CustomizationAborted) as excinfo:
            dynacut.customize(proc.pid, actions)
        assert "dynalint rejected" in str(excinfo.value)

        # the service survived the rejection, unmodified
        proc = dynacut.restored_process(proc.pid)
        assert proc.alive
        assert client.ping()
        assert client.set("k", "v")
        assert client.get("k") == "v"

        # and the live code carries the pristine byte, not the damage
        original = kernel.binaries[REDIS_BINARY].read_bytes(address, 1)
        assert proc.memory.read_raw(address, 1) == original

    def test_reject_restores_pristine_on_disk_images(self):
        kernel, proc, __ = _staged()
        dynacut = DynaCut(kernel, lint_mode="always", lint_strict=True)
        address, actions = self._corrupting_actions(kernel)
        with pytest.raises(CustomizationAborted):
            dynacut.customize(proc.pid, actions)
        # the working directory holds pristine images again (the
        # rewritten save was rolled back), so a crash-recovery restore
        # from disk would also come up clean
        working = CheckpointImage.load(kernel.fs, dynacut.image_dir)
        original = kernel.binaries[REDIS_BINARY].read_bytes(address, 1)
        assert working.root().read_memory(address, 1) == original
        assert dynacut.last_journal.phase == PHASE_ROLLED_BACK

    def test_reject_report_recorded_as_rolled_back(self):
        kernel, proc, __ = _staged()
        dynacut = DynaCut(kernel, lint_mode="always", lint_strict=True)
        __, actions = self._corrupting_actions(kernel)
        with pytest.raises(CustomizationAborted) as excinfo:
            dynacut.customize(proc.pid, actions)
        report = excinfo.value.report
        assert report is not None
        assert report.outcome == "rolled-back"
        assert report.rolled_back
        assert dynacut.history[-1] is report


class TestTransientRetry:
    def test_single_transient_fault_retries_then_commits(self):
        kernel, proc, client = _staged()
        dynacut = DynaCut(kernel)
        plan = FaultPlan(seed=7).arm(
            "restore.memory", "transient", on_call=1
        )
        with plan:
            report = dynacut.customize(proc.pid, lambda rw: None)
        assert report.outcome == "committed"
        assert report.attempts == 2
        assert plan.fired == 1
        journal = dynacut.last_journal
        assert PHASE_ROLLED_BACK in journal.phases(attempt=1)
        assert PHASE_RETRYING in journal.phases(attempt=1)
        assert journal.phases(attempt=2)[-1] == PHASE_COMMITTED
        assert client.ping()

    def test_backoff_charged_to_virtual_clock(self):
        kernel, proc, __ = _staged()
        dynacut = DynaCut(kernel)
        # dump fails before the tree is destroyed: the only extra cost
        # over a clean run is the re-dump and the backoff
        plan = FaultPlan(seed=1).arm(
            "checkpoint.dump_pages", "transient", on_call=1
        )
        with plan:
            dynacut.customize(proc.pid, lambda rw: None)
        journal = dynacut.last_journal
        retrying = [e for e in journal.entries if e.phase == PHASE_RETRYING]
        assert len(retrying) == 1
        assert retrying[0].note == (
            f"backoff={DEFAULT_COST_MODEL.retry_backoff(1)}ns"
        )

    def test_retry_is_deterministic(self):
        def campaign():
            kernel, proc, __ = _staged()
            dynacut = DynaCut(kernel)
            plan = FaultPlan(seed=42).arm(
                "restore.fds", "transient", probability=0.8, times=2
            )
            with plan:
                dynacut.customize(proc.pid, lambda rw: None)
            return (
                [(r.site, r.call_index, r.kind) for r in plan.log],
                dynacut.last_journal.serialize(),
            )

        assert campaign() == campaign()

    def test_retry_exhaustion_aborts_with_fault_chain(self):
        kernel, proc, client = _staged()
        dynacut = DynaCut(kernel)
        # restore.memory is visited alternately by the attempt and by
        # the rollback: calls 1, 3, 5 are the three attempts
        plan = FaultPlan(seed=0)
        for call in (1, 3, 5):
            plan.arm("restore.memory", "transient", on_call=call)
        with plan:
            with pytest.raises(CustomizationAborted) as excinfo:
                dynacut.customize(proc.pid, lambda rw: None)
        assert isinstance(excinfo.value.__cause__, TransientFault)
        assert excinfo.value.__cause__.site == "restore.memory"
        assert excinfo.value.report.attempts == MAX_ATTEMPTS
        assert plan.fired == 3
        # the service rolled back and keeps serving
        assert dynacut.restored_process(proc.pid).alive
        assert client.ping()


class TestPermanentFault:
    def test_permanent_fault_rolls_back_first_attempt(self):
        kernel, proc, client = _staged()
        feature = _profile_set(kernel, proc)
        dynacut = DynaCut(kernel)
        # image.save call 3 is the rewritten-image save (1 = the dump's
        # own save, 2 = the pristine save)
        plan = FaultPlan(seed=3).arm("image.save", "permanent", on_call=3)
        with plan:
            with pytest.raises(CustomizationAborted) as excinfo:
                dynacut.disable_feature(
                    proc.pid, feature, policy=TrapPolicy.TERMINATE
                )
        assert excinfo.value.report.attempts == 1
        assert dynacut.last_journal.phase == PHASE_ROLLED_BACK
        # rolled back: the feature was never disabled
        assert dynacut.disabled_features(proc.pid) == []
        assert client.ping()
        assert client.set("still", "works")

    def test_rollback_failed_when_faults_saturate_restore(self):
        kernel, proc, __ = _staged()
        dynacut = DynaCut(kernel)
        plan = FaultPlan(seed=9).arm(
            "restore.memory", "transient", probability=1.0, times=0
        )
        with plan:
            with pytest.raises(RollbackFailed):
                dynacut.customize(proc.pid, lambda rw: None)
        # the one scenario where the service is genuinely down
        survivor = kernel.processes.get(proc.pid)
        assert survivor is None or not survivor.alive


def _code_pages(proc) -> dict[int, bytes]:
    """Every executable mapping of ``proc``, by start address."""
    return {
        vma.start: proc.memory.read_raw(vma.start, vma.size)
        for vma in proc.memory.vmas
        if vma.executable
    }


class TestRollbackAfterInPlacePatch:
    """The rewriter patches the working checkpoint's pages buffer in
    place, so the pristine copy must be taken before the first patch
    and share no buffer with it: a rollback after the rewrite of a
    VERIFY disable has to bring back exactly the pre-disable code."""

    @pytest.mark.parametrize("site", ["lint.strict_reject", "restore.memory"])
    def test_rollback_restores_the_pre_disable_code_pages(self, site):
        kernel, proc, client = _staged()
        feature = _profile_set(kernel, proc)
        dynacut = DynaCut(kernel)
        before = _code_pages(proc)
        # on_call=1: the lint of the rewritten image, or the restore of
        # the rewritten tree; the rollback's own restore is not armed
        plan = FaultPlan(seed=11).arm(site, "permanent", on_call=1)
        with plan:
            with pytest.raises(CustomizationAborted):
                dynacut.disable_feature(
                    proc.pid, feature, policy=TrapPolicy.VERIFY,
                    refine=True, prove=True,
                )
        assert plan.fired == 1
        phases = dynacut.last_journal.phases(attempt=1)
        # the rewrite (int3 patches, injected handler pages) did happen
        assert "rewritten" in phases and phases[-1] == PHASE_ROLLED_BACK
        restored = dynacut.restored_process(proc.pid)
        assert _code_pages(restored) == before
        assert dynacut.disabled_features(proc.pid) == []
        assert client.set("k", "v")
        assert client.get("k") == "v"


class TestEnableFeatureRecord:
    def test_disabled_record_survives_aborted_reenable(self):
        kernel, proc, client = _staged()
        feature = _profile_set(kernel, proc)
        dynacut = DynaCut(kernel)
        dynacut.disable_feature(
            proc.pid, feature, policy=TrapPolicy.REDIRECT,
            redirect_symbol="redis_unknown_cmd",
        )
        assert dynacut.disabled_features(proc.pid) == ["SET"]
        assert client.command("SET k v").startswith("-ERR")

        plan = FaultPlan(seed=5).arm("restore.memory", "permanent", on_call=1)
        with plan:
            with pytest.raises(CustomizationAborted):
                dynacut.enable_feature(proc.pid, feature)
        # the re-enable rolled back: the feature is still disabled and
        # the record survived for the retry
        assert dynacut.disabled_features(proc.pid) == ["SET"]
        assert client.command("SET k v").startswith("-ERR")

        dynacut.enable_feature(proc.pid, feature)
        assert dynacut.disabled_features(proc.pid) == []
        assert client.set("k", "v2")
        assert client.get("k") == "v2"


# ----------------------------------------------------------------------
# DynaShelve: block-granular partial re-enable with decay


def _shelved_staged():
    """A verify-mode ALL removal of SET, ready for shelving."""
    kernel, proc, client = _staged()
    tracer = BlockTracer(kernel, proc).attach()
    for cmd in ("PING", "GET a", "DEL a"):
        client.command(cmd)
    wanted = tracer.nudge_dump()
    client.command("SET a 1")
    undesired = tracer.finish()
    feature = TraceDiff(REDIS_BINARY).feature_blocks(
        "SET", [wanted], [undesired]
    )
    dynacut = DynaCut(kernel)
    dynacut.disable_feature(
        proc.pid, feature, policy=TrapPolicy.VERIFY, mode=BlockMode.ALL
    )
    return kernel, proc, client, feature, dynacut


def _entry_bytes(kernel, dynacut, feature):
    """Entry byte of every feature block in the committed working image."""
    image = CheckpointImage.load(kernel.fs, dynacut.image_dir)
    root = image.root()
    return [root.read_memory(block.offset, 1) for block in feature.blocks]


class TestShelveDecay:
    def test_shelve_restores_only_requested_blocks(self):
        kernel, proc, client, feature, dynacut = _shelved_staged()
        removed = dynacut.disabled_blocks(proc.pid, "SET")
        targets = [block.offset for block in removed[:2]]
        report = dynacut.reenable_blocks(proc.pid, feature, targets)
        assert report is not None and report.outcome == "committed"
        # the shelve session is tagged in the journal
        journal = dynacut.last_journal
        assert journal.op == "shelve"
        assert any("op=shelve" in e.note for e in journal.entries)
        # exactly the requested blocks were restored in the image
        binary = kernel.binaries[REDIS_BINARY]
        image = CheckpointImage.load(kernel.fs, dynacut.image_dir).root()
        for block in removed:
            byte = image.read_memory(block.offset, 1)
            if block.offset in targets:
                assert byte == binary.read_bytes(block.offset, 1)
            else:
                assert byte == b"\xcc"
        # and the bookkeeping agrees
        assert dynacut.shelved_offsets(proc.pid, "SET") == sorted(targets)
        still = {b.offset for b in dynacut.disabled_blocks(proc.pid, "SET")}
        assert still == {b.offset for b in removed} - set(targets)
        assert dynacut.status(proc.pid)["shelved_blocks"] == {"SET": 2}

    def test_reshelve_is_idempotent_no_journal_growth(self):
        kernel, proc, client, feature, dynacut = _shelved_staged()
        targets = [dynacut.disabled_blocks(proc.pid, "SET")[0].offset]
        dynacut.reenable_blocks(proc.pid, feature, targets)
        rewrites = dynacut.status(proc.pid)["rewrites"]
        # everything requested is already shelved: no transaction opens
        assert dynacut.reenable_blocks(proc.pid, feature, targets) is None
        assert dynacut.status(proc.pid)["rewrites"] == rewrites

    def test_unknown_offsets_rejected(self):
        kernel, proc, client, feature, dynacut = _shelved_staged()
        with pytest.raises(RewriteError, match="not part of feature"):
            dynacut.reenable_blocks(proc.pid, feature, [0xDEAD])
        fresh = DynaCut(kernel, image_dir="/tmp/criu/other")
        with pytest.raises(RewriteError, match="not disabled"):
            fresh.reenable_blocks(proc.pid, feature, [feature.entry.offset])

    def test_decay_repatches_cold_blocks_only(self):
        kernel, proc, client, feature, dynacut = _shelved_staged()
        removed = dynacut.disabled_blocks(proc.pid, "SET")
        targets = [block.offset for block in removed[:2]]
        dynacut.reenable_blocks(proc.pid, feature, targets)
        # nothing is cold yet: no transaction, no change
        rewrites = dynacut.status(proc.pid)["rewrites"]
        assert dynacut.decay_shelved(proc.pid, feature, decay_ns=10**12) == []
        assert dynacut.status(proc.pid)["rewrites"] == rewrites
        # advance past the decay window: both blocks re-removed
        kernel.clock_ns += 5
        cold = dynacut.decay_shelved(proc.pid, feature, decay_ns=5)
        assert sorted(block.offset for block in cold) == sorted(targets)
        assert dynacut.last_journal.op == "decay"
        assert dynacut.shelved_offsets(proc.pid, "SET") == []
        image = CheckpointImage.load(kernel.fs, dynacut.image_dir).root()
        for offset in targets:
            assert image.read_memory(offset, 1) == b"\xcc"
        # the disabling session's handler tables survived shelve/decay:
        # a decayed block heals again when traffic returns (verify mode)
        assert client.set("k", "v")
        assert client.get("k") == "v"

    def test_enable_feature_clears_the_shelf(self):
        kernel, proc, client, feature, dynacut = _shelved_staged()
        targets = [dynacut.disabled_blocks(proc.pid, "SET")[0].offset]
        dynacut.reenable_blocks(proc.pid, feature, targets)
        dynacut.enable_feature(proc.pid, feature)
        assert dynacut.shelved_offsets(proc.pid, "SET") == []
        assert dynacut.status(proc.pid)["shelved_blocks"] == {}


class TestShelveConvergence:
    @settings(
        max_examples=5, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(picks=st.lists(st.integers(0, 63), min_size=1, max_size=5))
    def test_shelve_decay_reshelve_converges(self, picks):
        """shelve -> decay -> re-shelve is a fixed cycle.

        For any subset of the removal set: re-shelving an already
        shelved subset opens no transaction (no journal growth), decay
        returns the image to the exact post-disable bytes, and a second
        shelve of the same subset reproduces the exact post-shelve
        bytes — the cycle converges instead of accreting state.
        """
        kernel, proc, client, feature, dynacut = _shelved_staged()
        disabled_image = _entry_bytes(kernel, dynacut, feature)
        removed = dynacut.disabled_blocks(proc.pid, "SET")
        offsets = sorted({removed[i % len(removed)].offset for i in picks})

        report = dynacut.reenable_blocks(proc.pid, feature, offsets)
        assert report is not None and report.outcome == "committed"
        shelved_image = _entry_bytes(kernel, dynacut, feature)
        rewrites = dynacut.status(proc.pid)["rewrites"]

        # re-shelving the shelved subset is a no-op: no journal growth
        assert dynacut.reenable_blocks(proc.pid, feature, offsets) is None
        assert dynacut.status(proc.pid)["rewrites"] == rewrites
        assert _entry_bytes(kernel, dynacut, feature) == shelved_image

        # decay re-removes everything: byte-identical to post-disable
        kernel.clock_ns += 1
        cold = dynacut.decay_shelved(proc.pid, feature, decay_ns=1)
        assert sorted(block.offset for block in cold) == offsets
        assert _entry_bytes(kernel, dynacut, feature) == disabled_image
        assert dynacut.shelved_offsets(proc.pid, "SET") == []

        # a drained shelf decays no further: no journal growth
        rewrites = dynacut.status(proc.pid)["rewrites"]
        assert dynacut.decay_shelved(proc.pid, feature, decay_ns=1) == []
        assert dynacut.status(proc.pid)["rewrites"] == rewrites

        # the second shelve reproduces the first, byte for byte
        report = dynacut.reenable_blocks(proc.pid, feature, offsets)
        assert report is not None and report.outcome == "committed"
        assert _entry_bytes(kernel, dynacut, feature) == shelved_image
        assert dynacut.shelved_offsets(proc.pid, "SET") == offsets
