"""Fault injection: corrupted images and the typed fault taxonomy.

Two layers of failure are covered.  Hand-corrupted images (truncated
files, swapped magics, inconsistent pagemaps) must fail loudly with
typed errors, never silently produce a half-restored process.  And the
seeded injection subsystem (:mod:`repro.faults`) must classify every
injected failure as transient (retryable) or permanent, preserve the
error chain through retry exhaustion, and leave the pipeline's
abort-safety intact (a failed dump thaws the tree it froze).
"""

from __future__ import annotations

import pytest

from repro.criu import (
    CheckpointImage,
    ImageError,
    PagemapEntry,
    RestoreError,
    checkpoint_tree,
    restore_tree,
)
from repro.apps import REDIS_PORT, stage_redis
from repro.core import CustomizationAborted, DynaCut
from repro.faults import (
    FaultPlan,
    InjectedFault,
    PermanentFault,
    TransientFault,
)
from repro.kernel import Kernel
from repro.workloads import RedisClient


@pytest.fixture()
def checkpointed():
    kernel = Kernel()
    proc = stage_redis(kernel)
    checkpoint = checkpoint_tree(kernel, proc.pid, image_dir="/tmp/criu/fi")
    return kernel, proc, checkpoint


class TestCorruptedImages:
    def test_truncated_core_image_rejected(self, checkpointed):
        kernel, proc, __ = checkpointed
        path = f"/tmp/criu/fi/core-{proc.pid}.img"
        data = kernel.fs.read_file(path)
        kernel.fs.write_file(path, data[: len(data) // 2])
        with pytest.raises(ValueError):
            CheckpointImage.load(kernel.fs, "/tmp/criu/fi")

    def test_swapped_magic_rejected(self, checkpointed):
        kernel, proc, __ = checkpointed
        core = kernel.fs.read_file(f"/tmp/criu/fi/core-{proc.pid}.img")
        kernel.fs.write_file(f"/tmp/criu/fi/mm-{proc.pid}.img", core)
        with pytest.raises(ImageError):
            CheckpointImage.load(kernel.fs, "/tmp/criu/fi")

    def test_missing_image_file_rejected(self, checkpointed):
        kernel, proc, __ = checkpointed
        kernel.fs.unlink(f"/tmp/criu/fi/pages-{proc.pid}.img")
        with pytest.raises(Exception):
            CheckpointImage.load(kernel.fs, "/tmp/criu/fi")

    def test_missing_backing_binary_rejected(self, checkpointed):
        kernel, proc, checkpoint = checkpointed
        del kernel.binaries["miniredis"]
        with pytest.raises(RestoreError):
            restore_tree(kernel, checkpoint)

    def test_pagemap_pages_mismatch_detected(self, checkpointed):
        kernel, proc, checkpoint = checkpointed
        image = checkpoint.processes[0]
        # claim one more page than the blob holds
        entry = image.pagemap.entries[-1]
        image.pagemap.entries[-1] = PagemapEntry(entry.vaddr, entry.nr_pages + 4)
        with pytest.raises(Exception):
            restore_tree(kernel, checkpoint)
            # if restore tolerated it, reading the claimed range must fail
            image.read_memory(entry.vaddr + entry.size, 1)

    def test_dumped_run_outside_every_vma_rejected(self, checkpointed):
        from repro.kernel import MemoryFault

        kernel, proc, checkpoint = checkpointed
        image = checkpoint.processes[0]
        # the sizes still agree, but the last run's pages map nowhere
        entry = image.pagemap.entries[-1]
        image.pagemap.entries[-1] = PagemapEntry(0x6000_0000_0000, entry.nr_pages)
        with pytest.raises(MemoryFault) as excinfo:
            restore_tree(kernel, checkpoint)
        # the restore wrote from views of the pages buffer; while the
        # failure's traceback lives (a CustomizationAborted keeps it as
        # its cause), the buffer must not stay exported, or the image
        # could no longer grow
        assert excinfo.tb is not None
        image.add_pages(0x7D000000, b"\x01")
        assert image.read_memory(0x7D000000, 1) == b"\x01"

    def test_overlapping_vmas_rejected_at_restore(self, checkpointed):
        kernel, proc, checkpoint = checkpointed
        image = checkpoint.processes[0]
        first = image.mm.vmas[0]
        from repro.criu import VmaEntry

        image.mm.vmas.append(
            VmaEntry(first.start, first.end, "rw-", "", 0, "evil-dup")
        )
        with pytest.raises(Exception):
            restore_tree(kernel, checkpoint)


class TestPartialFailureContainment:
    def test_failed_restore_leaves_no_live_process(self, checkpointed):
        kernel, proc, checkpoint = checkpointed
        del kernel.binaries["miniredis"]
        with pytest.raises(RestoreError):
            restore_tree(kernel, checkpoint)
        survivor = kernel.processes.get(proc.pid)
        assert survivor is None or not survivor.alive

    def test_rewriter_error_reported_with_context(self, checkpointed):
        from repro.core.rewriter import ImageRewriter, RewriteError
        from repro.tracing import BlockRecord

        kernel, proc, checkpoint = checkpointed
        rewriter = ImageRewriter(kernel, checkpoint)
        with pytest.raises(RewriteError) as excinfo:
            # address far outside any dumped region
            rewriter.block_entry_int3(
                "miniredis", [BlockRecord("miniredis", 0xDEAD0000, 4)]
            )
        assert "0xdead0000" in str(excinfo.value).lower()


class TestTypedFaultTaxonomy:
    """Injected faults are typed: transient retries, permanent aborts."""

    def test_taxonomy_hierarchy(self):
        assert issubclass(TransientFault, InjectedFault)
        assert issubclass(PermanentFault, InjectedFault)
        assert TransientFault.kind == "transient"
        assert PermanentFault.kind == "permanent"
        # transient is never a subtype of permanent or vice versa: the
        # engine's except clauses rely on the split
        assert not issubclass(TransientFault, PermanentFault)
        assert not issubclass(PermanentFault, TransientFault)

    def test_injected_fault_carries_site_and_call(self):
        plan = FaultPlan(seed=0).arm("restore.memory", "permanent", on_call=2)
        with plan:
            assert plan.check("restore.memory", "pid=7") is None
            fault = plan.check("restore.memory", "pid=7")
        assert isinstance(fault, PermanentFault)
        assert fault.site == "restore.memory"
        assert fault.call_index == 2
        assert "pid=7" in str(fault)

    def test_torn_write_persists_truncated_prefix(self):
        kernel = Kernel()
        payload = bytes(range(256)) * 4
        plan = FaultPlan(seed=11).arm(
            "fs.write_file", "transient", on_call=1, torn=True
        )
        with plan:
            with pytest.raises(TransientFault) as excinfo:
                kernel.fs.write_file("/tmp/torn", payload)
        surviving = kernel.fs.read_file("/tmp/torn")
        fault = excinfo.value
        assert fault.fraction is not None
        assert 0.1 <= fault.fraction <= 0.9
        assert len(surviving) == fault.keep_bytes(len(payload))
        assert 0 < len(surviving) < len(payload)
        assert surviving == payload[: len(surviving)]
        # a retried write repairs the torn file (the transient contract)
        kernel.fs.write_file("/tmp/torn", payload)
        assert kernel.fs.read_file("/tmp/torn") == payload

    def test_plain_write_fault_persists_nothing(self):
        kernel = Kernel()
        plan = FaultPlan(seed=1).arm("fs.write_file", "permanent", on_call=1)
        with plan:
            with pytest.raises(PermanentFault):
                kernel.fs.write_file("/tmp/gone", b"data")
        assert not kernel.fs.exists("/tmp/gone")

    def test_failed_dump_thaws_the_frozen_tree(self):
        kernel = Kernel()
        proc = stage_redis(kernel)
        client = RedisClient(kernel, REDIS_PORT)
        plan = FaultPlan(seed=2).arm(
            "checkpoint.dump_pages", "permanent", on_call=1
        )
        with plan:
            with pytest.raises(PermanentFault):
                checkpoint_tree(kernel, proc.pid, image_dir="/tmp/criu/thaw")
        # abort-safe: nothing was destroyed and nothing stayed frozen
        assert proc.alive
        assert client.ping()
        assert client.set("after", "dump-fault")
        assert client.get("after") == "dump-fault"

    def test_retry_exhaustion_preserves_error_chain(self):
        kernel = Kernel()
        proc = stage_redis(kernel)
        dynacut = DynaCut(kernel)
        # every dump attempt fails before the tree is destroyed, so the
        # engine retries until the budget is gone
        plan = FaultPlan(seed=3).arm(
            "checkpoint.dump_pages", "transient", probability=1.0, times=0
        )
        with plan:
            with pytest.raises(CustomizationAborted) as excinfo:
                dynacut.customize(proc.pid, lambda rw: None)
        chain = excinfo.value.__cause__
        assert isinstance(chain, TransientFault)
        assert chain.site == "checkpoint.dump_pages"
        assert excinfo.value.report.attempts == dynacut.max_attempts
        assert plan.fired == dynacut.max_attempts
        # dump faults never destroy the tree: the service kept running
        assert proc.alive
        assert RedisClient(kernel, REDIS_PORT).ping()
