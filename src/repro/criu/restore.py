"""Restore CRIU-style images into live processes.

Mirrors CRIU's restore pipeline:

* recreate each address space from the mm image, building each page
  once: a dumped page from the pagemap/pages images, a file-backed page
  that was not dumped from the named binary (the page-fault-handler
  reconstruction vanilla CRIU relies on), any other page zeroed — so
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

from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter

from .. import faults
from ..binfmt.self_format import SelfImage
from ..kernel.filesystem import O_CREAT, O_TRUNC
from ..kernel.kernel import Kernel
from ..kernel.memory import PAGE_SIZE, VMA, AddressSpace, FileBacking, MemoryFault
from ..kernel.network import Endpoint, NetworkError, SocketDescriptor
from ..kernel.process import LoadedModule, Process, ProcessState
from ..kernel.signals import SigAction, Signal
from .costmodel import DEFAULT_COST_MODEL
from .images import CheckpointImage, ProcessImage, VmaEntry

#: the transient-fault budget: a restore (and a customize transaction)
#: gives up when this many attempts have hit transient faults
MAX_ATTEMPTS = 3


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


def restore_tree(kernel: Kernel, checkpoint: CheckpointImage) -> list[Process]:
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

    kernel.clock_ns += DEFAULT_COST_MODEL.restore_cost(
        checkpoint.total_pages(), len(restored)
    )
    return restored


def restore_with_retry(
    kernel: Kernel, checkpoint: CheckpointImage
) -> list[Process]:
    """:func:`restore_tree`, retried after each transient fault.

    Every retry first charges the cost model's capped backoff to the
    virtual clock.  The transient fault of the :data:`MAX_ATTEMPTS`-th
    failed attempt is re-raised; any other exception goes through at
    once.
    """
    failures = 0
    while True:
        try:
            return restore_tree(kernel, checkpoint)
        except faults.TransientFault:
            failures += 1
            if failures >= MAX_ATTEMPTS:
                raise
            kernel.clock_ns += DEFAULT_COST_MODEL.retry_backoff(failures)


def restore_from_dir(kernel: Kernel, image_dir: str) -> list[Process]:
    """Load images from the kernel fs and restore them."""
    checkpoint = CheckpointImage.load(kernel.fs, image_dir)
    return restore_tree(kernel, checkpoint)


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
    """The address space of ``image``, each page built once: from the
    dump, else from the backing binary, else zeroed."""
    faults.trip("restore.memory", detail=f"pid={image.pid}")
    data = image.pages.data
    claimed = sum(entry.size for entry in image.pagemap.entries)
    if claimed != len(data):
        raise RestoreError(
            f"pid {image.pid}: pagemap claims {claimed} bytes of pages but "
            f"the pages image holds {len(data)} (corrupt dump?)"
        )
    # a dumped page is built from the dump, never from the binary as well
    dumped = {
        index
        for entry in image.pagemap.entries
        for index in range(entry.vaddr // PAGE_SIZE, entry.end // PAGE_SIZE)
    }
    vmas: list[VMA] = []
    pages: dict[int, bytearray] = {}
    for entry in image.mm.vmas:
        vma = _map(vmas, entry)
        backing, binary = vma.backing, None
        if backing is not None:
            binary = kernel.binaries.get(backing.path)
            if binary is None:
                raise RestoreError(f"backing binary {backing.path!r} not registered")
        for address in range(vma.start, vma.end, PAGE_SIZE):
            index = address // PAGE_SIZE
            if index in dumped:
                pages[index] = _DUMPED
            elif binary is None:
                pages[index] = bytearray(PAGE_SIZE)
            else:
                pages[index] = _binary_page(
                    binary, backing.offset + address - vma.start
                )
    # the dumped runs (patched code pages included), a whole page as one
    # slice of the pages buffer: a copy, so the buffer is never exported
    cursor = 0
    for entry in image.pagemap.entries:
        address = entry.vaddr
        while address < entry.end:
            index = address // PAGE_SIZE
            page = pages.get(index)
            if page is None:
                raise MemoryFault(address, "write", "page not present")
            offset = address % PAGE_SIZE
            take = min(entry.end - address, PAGE_SIZE - offset)
            if take == PAGE_SIZE:
                pages[index] = data[cursor:cursor + take]
            else:
                if page is _DUMPED:
                    page = pages[index] = bytearray(PAGE_SIZE)
                page[offset:offset + take] = data[cursor:cursor + take]
            address += take
            cursor += take
    return AddressSpace(pages=pages, vmas=vmas)


#: stands in for a dumped page until its run is read
_DUMPED = bytearray()


def _map(vmas: list[VMA], entry: VmaEntry) -> VMA:
    """The VMA of ``entry``, refused as :meth:`AddressSpace.mmap` would
    refuse mapping it beside ``vmas``; inserted into ``vmas`` (kept
    sorted by start)."""
    if entry.start % PAGE_SIZE:
        raise ValueError(f"mmap start {entry.start:#x} not page aligned")
    end = entry.start + -(-entry.size // PAGE_SIZE) * PAGE_SIZE
    for vma in vmas:
        if vma.overlaps(entry.start, end):
            raise MemoryFault(entry.start, "map", f"overlaps {vma.describe()}")
    backing = None
    if entry.file_path:
        backing = FileBacking(entry.file_path, entry.file_offset)
    vma = VMA(entry.start, end, entry.perms, backing, entry.tag)
    insort(vmas, vma, key=attrgetter("start"))
    return vma


def _binary_page(binary: SelfImage, vaddr: int) -> bytearray:
    """The page of file content at link-relative ``vaddr``, zero-padded
    (zeroed if it is a hole)."""
    page = bytearray(PAGE_SIZE)
    for seg in binary.segments:
        if seg.vaddr <= vaddr < seg.vaddr + max(len(seg.data), 1):
            offset = vaddr - seg.vaddr
            chunk = seg.data[offset:offset + PAGE_SIZE]
            page[:len(chunk)] = chunk
            break
    return page


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
