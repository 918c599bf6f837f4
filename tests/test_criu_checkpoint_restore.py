"""Checkpoint/restore behaviour: identity, TCP repair, page policies."""

from __future__ import annotations

import pytest

from repro.apps import (
    REDIS_PORT,
    nginx_worker,
    stage_nginx,
    stage_redis,
)
from repro.criu import (
    CheckpointImage,
    RestoreError,
    checkpoint_tree,
    process_tree_pids,
    restore_from_dir,
    restore_tree,
)
from repro.kernel import Kernel, ProcessState
from repro.workloads import HttpClient, RedisClient

from .helpers import build_minic


class TestIdentityRoundTrip:
    def test_registers_memory_preserved(self, redis_server):
        kernel, proc, client = redis_server
        client.set("key", "val")
        regs_before = proc.regs.snapshot()
        vmas_before = [vma.describe() for vma in proc.memory.vmas]
        mem_probe = proc.memory.read_raw(0x400000, 64)

        checkpoint = checkpoint_tree(kernel, proc.pid)
        (restored,) = restore_tree(kernel, checkpoint)

        assert restored.pid == proc.pid
        assert restored.regs.snapshot() == regs_before
        assert [vma.describe() for vma in restored.memory.vmas] == vmas_before
        assert restored.memory.read_raw(0x400000, 64) == mem_probe
        assert restored.state is ProcessState.RUNNABLE

    def test_sigactions_preserved(self, redis_server):
        kernel, proc, client = redis_server
        before = dict(proc.sigactions)
        checkpoint = checkpoint_tree(kernel, proc.pid)
        (restored,) = restore_tree(kernel, checkpoint)
        assert {int(s): (a.handler, a.restorer) for s, a in restored.sigactions.items()} == {
            int(s): (a.handler, a.restorer) for s, a in before.items()
        }

    def test_server_still_serves_after_roundtrip(self, redis_server):
        kernel, proc, client = redis_server
        client.set("a", "1")
        checkpoint = checkpoint_tree(kernel, proc.pid)
        restore_tree(kernel, checkpoint)
        assert client.get("a") == "1"        # same connection, TCP repair
        assert client.set("b", "2")
        fresh = RedisClient(kernel, REDIS_PORT)
        assert fresh.get("b") == "2"          # and new connections work

    def test_buffered_request_survives(self, redis_server):
        kernel, proc, client = redis_server
        client.set("k", "v")
        sock = kernel.connect(REDIS_PORT)
        sock.send("GET k\n")                  # in flight during the dump
        checkpoint = checkpoint_tree(kernel, proc.pid)
        restore_tree(kernel, checkpoint)
        assert sock.recv_until(b"\n") == b"$v\n"

    def test_open_file_offsets_preserved(self):
        source = r"""
extern func open; extern func read; extern func println; extern func sleep_ms;
func main() {
    var fd = open("/data/f", 0);
    var buf[8];
    read(fd, buf, 4);          // consume 4 bytes
    println("midway");
    sleep_ms(100000);          // long pause: checkpoint here
    read(fd, buf, 4);          // must continue at offset 4
    store8(buf + 4, 0);
    println(buf);
    return 0;
}
"""
        image = build_minic(source, "fileoff")
        kernel = Kernel()
        from repro.apps import libc_image

        kernel.register_binary(libc_image())
        kernel.register_binary(image)
        kernel.fs.write_file("/data/f", "ABCDEFGH")
        proc = kernel.spawn("fileoff")
        kernel.run_until(lambda: "midway" in proc.stdout_text())
        checkpoint = checkpoint_tree(kernel, proc.pid)
        (restored,) = restore_tree(kernel, checkpoint)
        restored.sleep_until = None           # cut the nap short
        restored.stdout = proc.stdout         # keep collected output
        kernel.run_until(lambda: not restored.alive)
        assert "EFGH" in restored.stdout_text()


class TestTreeCheckpoint:
    def test_process_tree_pids(self, nginx_server):
        kernel, master, client = nginx_server
        pids = process_tree_pids(kernel, master.pid)
        assert master.pid in pids
        assert len(pids) == 2  # master + one worker

    def test_multiprocess_roundtrip(self, nginx_server):
        kernel, master, client = nginx_server
        checkpoint = checkpoint_tree(kernel, master.pid)
        assert len(checkpoint.processes) == 2
        restored = restore_tree(kernel, checkpoint)
        new_master = next(p for p in restored if p.pid == master.pid)
        worker = next(p for p in restored if p.pid != master.pid)
        assert worker.ppid == master.pid
        assert worker.pid in new_master.children
        assert client.get("/").status == 200

    def test_shared_listener_rebinds(self, nginx_server):
        kernel, master, client = nginx_server
        checkpoint = checkpoint_tree(kernel, master.pid)
        restore_tree(kernel, checkpoint)
        assert client.get("/").status == 200


class TestPagePolicies:
    def test_exec_pages_dumped_only_with_flag(self, redis_server):
        kernel, proc, client = redis_server
        with_exec = checkpoint_tree(
            kernel, proc.pid, image_dir=None, dump_exec_pages=True,
            leave_running=True,
        )
        without = checkpoint_tree(
            kernel, proc.pid, image_dir=None, dump_exec_pages=False,
            leave_running=True,
        )
        assert with_exec.total_pages() > without.total_pages()
        text_addr = 0x400000
        assert with_exec.processes[0].has_dumped(text_addr)
        assert not without.processes[0].has_dumped(text_addr)

    def test_patch_lost_without_exec_dump(self, redis_server):
        """Vanilla CRIU semantics: code patches do not survive restore
        because text is reconstructed from the pristine binary — the
        exact problem DynaCut's criu/mem.c change solves."""
        kernel, proc, client = redis_server
        checkpoint = checkpoint_tree(kernel, proc.pid, dump_exec_pages=False)
        (restored,) = restore_tree(kernel, checkpoint)
        # text matches the registered binary byte-for-byte
        binary = kernel.binaries["miniredis"]
        text = binary.segment("text")
        assert restored.memory.read_raw(text.vaddr, 64) == text.data[:64]

    def test_anonymous_pages_always_dumped(self, redis_server):
        kernel, proc, client = redis_server
        checkpoint = checkpoint_tree(
            kernel, proc.pid, dump_exec_pages=False, leave_running=True,
        )
        image = checkpoint.processes[0]
        stack_vma = next(v for v in image.mm.vmas if v.tag == "stack")
        assert image.has_dumped(stack_vma.start)


class TestLifecycleEdges:
    def test_originals_killed_by_default(self, redis_server):
        kernel, proc, client = redis_server
        checkpoint_tree(kernel, proc.pid)
        assert not proc.alive

    def test_leave_running_keeps_process(self, redis_server):
        kernel, proc, client = redis_server
        checkpoint_tree(kernel, proc.pid, leave_running=True)
        assert proc.alive
        assert client.ping()

    def test_restore_over_live_pid_rejected(self, redis_server):
        kernel, proc, client = redis_server
        checkpoint = checkpoint_tree(kernel, proc.pid, leave_running=True)
        with pytest.raises(RestoreError):
            restore_tree(kernel, checkpoint)

    def test_restore_from_saved_directory(self, redis_server):
        kernel, proc, client = redis_server
        checkpoint_tree(kernel, proc.pid, image_dir="/tmp/criu/rt")
        loaded = CheckpointImage.load(kernel.fs, "/tmp/criu/rt")
        assert loaded.pids == [proc.pid]
        restored = restore_from_dir(kernel, "/tmp/criu/rt")
        assert restored[0].pid == proc.pid
        assert client.ping()

    def test_checkpoint_advances_clock(self, redis_server):
        kernel, proc, client = redis_server
        before = kernel.clock_ns
        checkpoint = checkpoint_tree(kernel, proc.pid)
        mid = kernel.clock_ns
        restore_tree(kernel, checkpoint)
        after = kernel.clock_ns
        assert mid > before
        assert after > mid

    def test_image_dir_contains_expected_files(self, redis_server):
        kernel, proc, client = redis_server
        checkpoint_tree(kernel, proc.pid, image_dir="/tmp/criu/files")
        names = kernel.fs.listdir("/tmp/criu/files")
        expected = {
            f"/tmp/criu/files/{stem}-{proc.pid}.img"
            for stem in ("core", "mm", "pagemap", "pages", "files")
        } | {"/tmp/criu/files/inventory.img"}
        assert expected <= set(names)


def _image_page(binary, vaddr):
    """One page of file content at link-relative ``vaddr`` (None if hole)."""
    from repro.kernel.memory import PAGE_SIZE

    for seg in binary.segments:
        if seg.vaddr <= vaddr < seg.vaddr + max(len(seg.data), 1):
            chunk = seg.data[vaddr - seg.vaddr:vaddr - seg.vaddr + PAGE_SIZE]
            return chunk + b"\x00" * (PAGE_SIZE - len(chunk)) if chunk else None
    return None


def _mmap_then_write_raw(kernel, image):
    """The address space restore built before it built each page once:
    map every VMA zeroed, fill the undumped file-backed pages from the
    binary, then write every dumped run over them."""
    from repro.kernel.memory import PAGE_SIZE, AddressSpace, FileBacking

    dumped = {
        index
        for entry in image.pagemap.entries
        for index in range(entry.vaddr // PAGE_SIZE, entry.end // PAGE_SIZE)
    }
    memory = AddressSpace()
    for vma in image.mm.vmas:
        backing = None
        if vma.file_path:
            backing = FileBacking(vma.file_path, vma.file_offset)
        memory.mmap(vma.start, vma.size, vma.perms, backing=backing, tag=vma.tag)
        if backing is None:
            continue
        binary = kernel.binaries[backing.path]
        for page_offset in range(0, vma.size, PAGE_SIZE):
            data = _image_page(binary, backing.offset + page_offset)
            if (vma.start + page_offset) // PAGE_SIZE not in dumped and data:
                memory.write_raw(vma.start + page_offset, data)
    cursor = 0
    for entry in image.pagemap.entries:
        memory.write_raw(entry.vaddr, image.pages.data[cursor:cursor + entry.size])
        cursor += entry.size
    return memory


class TestRestoreBuildsEachPageOnce:
    """A restored space equals the map-zeroed-then-overwrite construction."""

    @staticmethod
    def _assert_same_space(kernel, image):
        from repro.criu.restore import _restore_memory

        built = _restore_memory(kernel, image)
        reference = _mmap_then_write_raw(kernel, image)
        assert built.pages == reference.pages
        assert built.vmas == reference.vmas
        for index, page in built.pages.items():
            assert len(page) == 4096, index
        assert built.readable_pages.keys() == reference.readable_pages.keys()
        assert built.executable_pages.keys() == reference.executable_pages.keys()
        assert built.store_pages.keys() == reference.store_pages.keys()

    def test_staged_and_rewritten_images(self, redis_server):
        from repro.core import BlockMode, DynaCut, TrapPolicy
        from repro.fleet import get_app
        from repro.fleet.apps import profile_feature

        kernel, proc, __ = redis_server
        for image in checkpoint_tree(kernel, proc.pid, leave_running=True).processes:
            self._assert_same_space(kernel, image)
        # a rewritten image: int3-patched code pages and an injected library
        dynacut = DynaCut(kernel)
        dynacut.disable_feature(
            proc.pid, profile_feature(get_app("redis"), "SET"),
            policy=TrapPolicy.VERIFY, mode=BlockMode.ALL,
        )
        checkpoint = CheckpointImage.load(kernel.fs, dynacut.image_dir)
        for image in checkpoint.processes:
            self._assert_same_space(kernel, image)

    def test_multi_process_tree(self):
        kernel = Kernel()
        master = stage_nginx(kernel)
        checkpoint = checkpoint_tree(kernel, master.pid, leave_running=True)
        assert len(checkpoint.processes) == 2
        for image in checkpoint.processes:
            self._assert_same_space(kernel, image)

    def test_unaligned_runs_overlay_like_writes(self, redis_server):
        from repro.criu import PagemapEntry

        kernel, proc, __ = redis_server
        (image,) = checkpoint_tree(
            kernel, proc.pid, leave_running=True, dump_exec_pages=False
        ).processes
        text = next(v for v in image.mm.vmas if v.file_path and "x" in v.perms)
        # the text is not dumped, so its pages come from the binary; a run
        # starting and ending mid-page overlays a zeroed first page and a
        # second page filled from the binary
        image.pagemap.entries.append(PagemapEntry(text.start + 0x800, 1))
        image.pages.data += bytes(range(256)) * 16
        self._assert_same_space(kernel, image)
