"""Checkpoint (dump) a process tree into CRIU-style images.

Follows CRIU's dump pipeline: freeze every task in the tree, walk
``/proc``-equivalent state into per-process images, then either kill
the originals (CRIU's default, what DynaCut's rewrite flow uses) or
thaw them (``--leave-running``).

The **page-dump policy** reproduces both vanilla CRIU and DynaCut's
modification (criu/mem.c):

* anonymous pages: always dumped;
* writable file-backed private pages: dumped (they may be dirty);
* read-only file-backed pages: skipped — the restorer reconstructs
  them from the binary (vanilla CRIU's bandwidth optimization);
* **executable** file-backed private pages: dumped only when
  ``dump_exec_pages=True`` — DynaCut's change.  Without it, int3
  patches applied to the image's code would be silently lost at
  restore, because the pristine binary would be mapped back in.

Killing the originals uses TCP-repair semantics: established
connections are detached silently (buffers serialized into the files
image) so the remote peers never see a reset.
"""

from __future__ import annotations

from .. import faults
from ..kernel.filesystem import FileHandle
from ..kernel.kernel import Kernel
from ..kernel.memory import PAGE_SIZE, VMA
from ..kernel.network import SocketDescriptor
from ..kernel.process import Process, ProcessState
from .costmodel import DEFAULT_COST_MODEL
from .images import (
    CheckpointImage,
    CoreImage,
    FdEntryImage,
    FilesImage,
    MmImage,
    PagemapEntry,
    PagemapImage,
    PagesImage,
    ProcessImage,
    RegsImage,
    SigactionEntry,
    VmaEntry,
)

DEFAULT_IMAGE_DIR = "/tmp/criu"


class CheckpointError(RuntimeError):
    pass


def process_tree_pids(kernel: Kernel, root_pid: int) -> list[int]:
    """``root_pid`` plus all live descendants, parents before children."""
    root = kernel.processes.get(root_pid)
    if root is None or not root.alive:
        raise CheckpointError(f"no live process {root_pid}")
    out = [root_pid]
    frontier = [root_pid]
    while frontier:
        pid = frontier.pop()
        for proc in kernel.processes.values():
            if proc.ppid == pid and proc.alive and proc.pid not in out:
                out.append(proc.pid)
                frontier.append(proc.pid)
    return out


def checkpoint_tree(
    kernel: Kernel,
    root_pid: int,
    image_dir: str | None = DEFAULT_IMAGE_DIR,
    dump_exec_pages: bool = True,
    leave_running: bool = False,
) -> CheckpointImage:
    """Dump ``root_pid``'s process tree; returns the checkpoint image.

    When ``image_dir`` is given the image files are also written into
    the kernel filesystem (the paper stores them on a tmpfs).
    """
    pids = process_tree_pids(kernel, root_pid)
    procs = [kernel.freeze(pid) for pid in pids]

    # The dump is abort-safe: until it fully succeeds (including the
    # image-dir save) nothing has been destroyed, so any failure thaws
    # the frozen tree and the service keeps running untouched.
    try:
        images = [
            _dump_process(proc, dump_exec_pages=dump_exec_pages)
            for proc in procs
        ]
        checkpoint = CheckpointImage(images, clock_ns=kernel.clock_ns)

        if image_dir is not None:
            checkpoint.save(kernel.fs, image_dir)
    except Exception:
        for pid in pids:
            kernel.thaw(pid)
        raise

    kernel.clock_ns += DEFAULT_COST_MODEL.checkpoint_cost(
        checkpoint.total_pages(), len(procs)
    )

    if leave_running:
        for pid in pids:
            kernel.thaw(pid)
    else:
        for proc in procs:
            _destroy_quietly(kernel, proc)
    return checkpoint


# ----------------------------------------------------------------------


def _dump_process(proc: Process, dump_exec_pages: bool) -> ProcessImage:
    core = CoreImage(
        pid=proc.pid,
        ppid=proc.ppid,
        binary=proc.binary,
        regs=RegsImage(
            list(proc.regs.gpr), proc.regs.rip, proc.regs.zf, proc.regs.lt
        ),
        sigactions=[
            SigactionEntry(int(sig), action.handler, action.restorer)
            for sig, action in sorted(proc.sigactions.items())
        ],
        next_fd=proc.next_fd,
        syscall_filter=(
            sorted(proc.syscall_filter)
            if proc.syscall_filter is not None else None
        ),
    )
    mm = MmImage(
        vmas=[
            VmaEntry(
                vma.start,
                vma.end,
                vma.perms,
                vma.backing.path if vma.backing else "",
                vma.backing.offset if vma.backing else 0,
                vma.tag,
            )
            for vma in proc.memory.vmas
        ]
    )
    pagemap, pages = _dump_pages(proc, dump_exec_pages)
    files = _dump_files(proc)
    return ProcessImage(core, mm, pagemap, pages, files)


def _should_dump(vma: VMA, dump_exec_pages: bool) -> bool:
    if vma.backing is None:
        return True
    if vma.writable:
        return True
    if vma.executable:
        return dump_exec_pages
    return False  # read-only file pages: reconstructed from the binary


def _dump_pages(
    proc: Process, dump_exec_pages: bool
) -> tuple[PagemapImage, PagesImage]:
    faults.trip("checkpoint.dump_pages", detail=f"pid={proc.pid}")
    entries: list[PagemapEntry] = []
    pages: list[memoryview] = []
    for vma in proc.memory.vmas:
        if not _should_dump(vma, dump_exec_pages):
            continue
        nr_pages = vma.size // PAGE_SIZE
        if entries and entries[-1].end == vma.start:
            entries[-1] = PagemapEntry(
                entries[-1].vaddr, entries[-1].nr_pages + nr_pages
            )
        else:
            entries.append(PagemapEntry(vma.start, nr_pages))
        pages += proc.memory.raw_views(vma.start, vma.size)
    # each page copied once, into the one buffer the pages image keeps
    # and the rewriter patches in place
    return PagemapImage(entries), PagesImage(bytearray().join(pages))


def _dump_files(proc: Process) -> FilesImage:
    fds: list[FdEntryImage] = []
    for fd, descriptor in sorted(proc.fds.items()):
        if isinstance(descriptor, FileHandle):
            fds.append(
                FdEntryImage(
                    fd,
                    "file",
                    path=descriptor.path,
                    offset=descriptor.offset,
                    flags=descriptor.flags,
                )
            )
        elif isinstance(descriptor, SocketDescriptor):
            if descriptor.listener is not None:
                fds.append(
                    FdEntryImage(
                        fd,
                        "socket-listen",
                        port=descriptor.listener.port,
                        pending_conns=[
                            conn.conn_id for conn in descriptor.listener.backlog
                        ],
                    )
                )
            elif descriptor.endpoint is not None:
                endpoint = descriptor.endpoint
                fds.append(
                    FdEntryImage(
                        fd,
                        "socket-conn",
                        conn_id=endpoint.conn_id,
                        side=endpoint.side,
                        recv_buffer=bytes(endpoint.recv_buffer),
                    )
                )
            else:
                fds.append(
                    FdEntryImage(fd, "socket-raw", port=descriptor.bound_port or 0)
                )
    return FilesImage(fds)


def _destroy_quietly(kernel: Kernel, proc: Process) -> None:
    """Remove a dumped process without disturbing its connections.

    Unlike a normal exit, endpoints are *not* closed (TCP repair keeps
    them alive for the restored process) — but listening ports are
    released so the restorer can rebind them.
    """
    for descriptor in proc.fds.values():
        if not isinstance(descriptor, SocketDescriptor):
            continue
        if descriptor.listener:
            kernel.net.release_port(descriptor.listener.port)
        if descriptor.endpoint is not None:
            # the dumped bytes now belong to the image; anything the peer
            # sends while we are down accumulates freshly and is appended
            # after the image bytes at repair time
            descriptor.endpoint.recv_buffer.clear()
    proc.fds.clear()
    proc.state = ProcessState.DEAD
    kernel.detach_tracer(proc.pid)
