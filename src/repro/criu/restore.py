"""Restore CRIU-style images into live processes.

Mirrors CRIU's restore pipeline:

* recreate each address space from the mm image — the dumped pages
  from the pagemap/pages images are written in, and the file-backed
  pages that were not dumped are populated from the named binary (the
  page-fault-handler reconstruction vanilla CRIU relies on), so
  DynaCut's patched code pages win over the pristine binary content;
* reinstall registers and sigactions from the core image;
* rebuild the fd table: regular files reopen at their saved offsets,
  listening sockets rebind with their saved backlog, and established
  connections re-attach through TCP repair with their buffered bytes;
* reconstruct the loaded-module map from the file-backed VMAs, which
  is how the rewriter (and the PLT analysis) knows where libc lives.

Restored processes keep their original pids, parent links, and blocked
syscalls simply re-execute (every syscall in this kernel is
restartable), so a process frozen inside ``accept`` resumes waiting.

A restored address space also adopts the CPU decode and block caches
of the dead process it replaces, minus every entry that may read an
executable page whose bytes or execute bit the restore changed
(:meth:`~repro.kernel.memory.AddressSpace.adopt_decodes`): after a
rewrite only the rewritten pages decode again.  The caches are
host-side state only, so no virtual-time result depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import faults
from ..binfmt.self_format import SelfImage
from ..kernel.filesystem import O_CREAT, O_TRUNC
from ..kernel.kernel import Kernel
from ..kernel.memory import AddressSpace, FileBacking, PAGE_SIZE
from ..kernel.network import Endpoint, NetworkError, SocketDescriptor
from ..kernel.process import LoadedModule, Process, ProcessState
from ..kernel.signals import SigAction, Signal
from .costmodel import CriuCostModel, DEFAULT_COST_MODEL
from .images import CheckpointImage, ProcessImage


class RestoreError(RuntimeError):
    pass


@dataclass
class _UndoLog:
    """Side effects of an in-flight restore, in application order.

    A restore that fails halfway has already rebound listening ports,
    repaired TCP endpoints, and registered processes; unwinding these
    precisely is what lets the transactional engine retry the restore
    (or restore a different image) without double-repairing buffers or
    colliding on ports.
    """

    ports: list[int] = field(default_factory=list)
    #: (endpoint, reinstated-prefix length, closed flag before repair)
    repairs: list[tuple[Endpoint, int, bool]] = field(default_factory=list)
    #: (pid, table entry before registration — usually the dead original)
    registered: list[tuple[int, Process | None]] = field(default_factory=list)


def _unwind(kernel: Kernel, undo: _UndoLog) -> None:
    for pid, prior in reversed(undo.registered):
        if prior is None:
            kernel.processes.pop(pid, None)
        else:
            kernel.processes[pid] = prior
        kernel.detach_tracer(pid)
    for endpoint, prefix_len, was_closed in reversed(undo.repairs):
        del endpoint.recv_buffer[:prefix_len]
        endpoint.closed = was_closed
    for port in reversed(undo.ports):
        kernel.net.release_port(port)


def restore_tree(
    kernel: Kernel,
    checkpoint: CheckpointImage,
    cost_model: CriuCostModel = DEFAULT_COST_MODEL,
) -> list[Process]:
    """Restore every process of ``checkpoint``; returns them in image order.

    All-or-nothing: a failure mid-restore unwinds every side effect of
    the partial restore (registered pids, rebound ports, repaired
    endpoints) before re-raising, so the kernel is exactly as it was
    and the same — or a pristine — checkpoint can be restored next.
    """
    for pid in checkpoint.pids:
        existing = kernel.processes.get(pid)
        if existing is not None and existing.alive:
            raise RestoreError(f"pid {pid} is still alive; cannot restore over it")

    undo = _UndoLog()
    try:
        restored = [
            _restore_process(kernel, image, undo)
            for image in checkpoint.processes
        ]
    except Exception:
        _unwind(kernel, undo)
        raise

    # parent/child links within the restored tree
    by_pid = {proc.pid: proc for proc in restored}
    for proc in restored:
        parent = by_pid.get(proc.ppid)
        if parent is not None and proc.pid not in parent.children:
            parent.children.append(proc.pid)

    kernel.clock_ns += cost_model.restore_cost(
        checkpoint.total_pages(), len(restored)
    )
    return restored


def restore_from_dir(
    kernel: Kernel,
    image_dir: str,
    cost_model: CriuCostModel = DEFAULT_COST_MODEL,
) -> list[Process]:
    """Load images from the kernel fs and restore them."""
    checkpoint = CheckpointImage.load(kernel.fs, image_dir)
    return restore_tree(kernel, checkpoint, cost_model)


# ----------------------------------------------------------------------


def _restore_process(
    kernel: Kernel, image: ProcessImage, undo: _UndoLog
) -> Process:
    memory = _restore_memory(kernel, image)
    replaced = kernel.processes.get(image.core.pid)
    if replaced is not None:
        memory.adopt_decodes(replaced.memory)
    proc = Process(image.core.pid, image.core.ppid, image.core.binary, memory)

    regs = image.core.regs
    proc.regs.gpr = list(regs.gpr)
    proc.regs.rip = regs.rip
    proc.regs.zf = regs.zf
    proc.regs.lt = regs.lt

    for entry in image.core.sigactions:
        proc.sigactions[Signal(entry.signal)] = SigAction(
            entry.handler, entry.restorer
        )
    proc.next_fd = image.core.next_fd
    if image.core.syscall_filter is not None:
        proc.syscall_filter = frozenset(image.core.syscall_filter)
    proc.modules = _restore_modules(kernel, image)
    _restore_fds(kernel, proc, image, undo)

    proc.state = ProcessState.RUNNABLE
    undo.registered.append((proc.pid, kernel.processes.get(proc.pid)))
    kernel.processes[proc.pid] = proc
    return proc


def _restore_memory(kernel: Kernel, image: ProcessImage) -> AddressSpace:
    faults.trip("restore.memory", detail=f"pid={image.pid}")
    claimed = sum(entry.size for entry in image.pagemap.entries)
    if claimed != len(image.pages.data):
        raise RestoreError(
            f"pid {image.pid}: pagemap claims {claimed} bytes of pages but "
            f"the pages image holds {len(image.pages.data)} (corrupt dump?)"
        )
    # a dumped page is written once, from the dump, never first from
    # the binary as well
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
        if backing is not None:
            _populate_from_binary(
                kernel, memory, vma.start, vma.size, backing, dumped
            )
    # the dumped pages (patched code pages included), written from
    # views of the pages buffer rather than from copies of it
    with memoryview(image.pages.data) as pages:
        cursor = 0
        for entry in image.pagemap.entries:
            run = pages[cursor:cursor + entry.size]
            cursor += entry.size
            try:
                memory.write_raw(entry.vaddr, run)
            finally:
                # a failed write must not leave the buffer exported: the
                # traceback still holds ``run``, and an exported buffer
                # cannot grow (``add_pages``)
                run.release()
    return memory


def _populate_from_binary(
    kernel: Kernel,
    memory: AddressSpace,
    start: int,
    size: int,
    backing: FileBacking,
    dumped: set[int],
) -> None:
    """Fill the pages of ``[start, start+size)`` that are not in
    ``dumped`` (page numbers) from the backing binary."""
    binary = kernel.binaries.get(backing.path)
    if binary is None:
        raise RestoreError(f"backing binary {backing.path!r} not registered")
    for page_offset in range(0, size, PAGE_SIZE):
        if (start + page_offset) // PAGE_SIZE in dumped:
            continue
        file_offset = backing.offset + page_offset
        data = _read_image_page(binary, file_offset)
        if data is not None:
            memory.write_raw(start + page_offset, data)


def _read_image_page(binary: SelfImage, vaddr: int) -> bytes | None:
    """One page of file content at link-relative ``vaddr`` (None if hole)."""
    for seg in binary.segments:
        if seg.vaddr <= vaddr < seg.vaddr + max(len(seg.data), 1):
            offset = vaddr - seg.vaddr
            chunk = seg.data[offset:offset + PAGE_SIZE]
            if not chunk:
                return None
            return chunk + b"\x00" * (PAGE_SIZE - len(chunk))
    return None


def _restore_modules(kernel: Kernel, image: ProcessImage) -> list[LoadedModule]:
    bases: dict[str, int] = {}
    for vma in image.mm.vmas:
        if not vma.file_path:
            continue
        base = vma.start - vma.file_offset
        previous = bases.get(vma.file_path)
        if previous is None or base < previous:
            bases[vma.file_path] = base
    modules: list[LoadedModule] = []
    main = image.core.binary
    ordered = sorted(bases, key=lambda name: (name != main, bases[name]))
    for name in ordered:
        binary = kernel.binaries.get(name)
        if binary is None:
            raise RestoreError(f"module binary {name!r} not registered")
        modules.append(LoadedModule(binary, bases[name]))
    return modules


def _restore_fds(
    kernel: Kernel, proc: Process, image: ProcessImage, undo: _UndoLog
) -> None:
    faults.trip("restore.fds", detail=f"pid={image.pid}")
    for entry in image.files.fds:
        if entry.kind == "file":
            flags = entry.flags & ~(O_TRUNC | O_CREAT)
            handle = kernel.fs.open(entry.path, flags | O_CREAT)
            if handle is None:
                raise RestoreError(f"cannot reopen {entry.path!r}")
            handle.flags = entry.flags
            handle.offset = entry.offset
            proc.fds[entry.fd] = handle
        elif entry.kind == "socket-listen":
            sock = SocketDescriptor()
            sock.bound_port = entry.port
            sock.listener = kernel.net.rebind_listener(
                entry.port, entry.pending_conns
            )
            undo.ports.append(entry.port)
            proc.fds[entry.fd] = sock
        elif entry.kind == "socket-conn":
            sock = SocketDescriptor()
            try:
                prior_closed = _endpoint_closed(kernel, entry.conn_id, entry.side)
                sock.endpoint = kernel.net.repair_endpoint(
                    entry.conn_id, entry.side, entry.recv_buffer
                )
                undo.repairs.append(
                    (sock.endpoint, len(entry.recv_buffer), prior_closed)
                )
            except NetworkError:
                # peer vanished while we were down: a dead endpoint (EOF)
                dead = Endpoint(entry.conn_id, entry.side)
                dead.recv_buffer = bytearray(entry.recv_buffer)
                dead.closed = False
                sock.endpoint = dead
            proc.fds[entry.fd] = sock
        elif entry.kind == "socket-raw":
            sock = SocketDescriptor()
            sock.bound_port = entry.port or None
            proc.fds[entry.fd] = sock
        else:
            raise RestoreError(f"unknown fd kind {entry.kind!r}")


def _endpoint_closed(kernel: Kernel, conn_id: int, side: str) -> bool:
    """The ``closed`` flag a repair is about to clear (for the undo log)."""
    conn = kernel.net.connections.get(conn_id)
    if conn is None:
        return False  # repair_endpoint will raise; value never recorded
    return conn.endpoint(side).closed
