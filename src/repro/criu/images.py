"""CRIU-style process images.

A checkpoint is a set of per-process image files, mirroring CRIU's
layout (§3.3 of the paper):

* ``core-<pid>.img`` — registers, sigactions, binary name;
* ``mm-<pid>.img`` — every VMA (start, end, perms, file backing);
* ``pagemap-<pid>.img`` — which page ranges were dumped;
* ``pages-<pid>.img`` — the raw page contents;
* ``files-<pid>.img`` — fd table incl. TCP-repair connection state;
* ``inventory.img`` — checkpoint metadata and the pid list.

Each file serializes with the same TLV scheme as the SELF format
(:mod:`repro.binfmt.serde`) — a stand-in for CRIU's protobuf encoding
that CRIT (:mod:`repro.criu.crit`) can decode to JSON and re-encode.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from typing import TypeVar

from .. import faults
from ..binfmt.serde import ByteCounter, ByteReader, ByteWriter
from ..kernel.memory import PAGE_SIZE

IMAGE_VERSION = 3
_MAGICS = {
    "core": b"CORE\x01",
    "mm": b"MMAP\x01",
    "pagemap": b"PGMP\x01",
    "pages": b"PAGE\x01",
    "files": b"FILE\x01",
    "inventory": b"INVT\x01",
}


#: an encoder's output: the bytes themselves, or only their length
_Out = TypeVar("_Out", ByteWriter, ByteCounter)


class ImageError(ValueError):
    """Malformed or mismatched image data."""


def _check_magic(data: bytes, kind: str) -> ByteReader:
    magic = _MAGICS[kind]
    if data[: len(magic)] != magic:
        raise ImageError(f"not a {kind} image (bad magic)")
    return ByteReader(data, len(magic))


# ----------------------------------------------------------------------
# core


@dataclass
class RegsImage:
    gpr: list[int]
    rip: int
    zf: bool
    lt: bool


@dataclass
class SigactionEntry:
    signal: int
    handler: int
    restorer: int


@dataclass
class CoreImage:
    pid: int
    ppid: int
    binary: str
    regs: RegsImage
    sigactions: list[SigactionEntry] = field(default_factory=list)
    next_fd: int = 3
    #: seccomp-style syscall allow-list; None means unrestricted
    syscall_filter: list[int] | None = None

    def to_bytes(self) -> bytes:
        return self._encode(ByteWriter()).getvalue()

    def byte_size(self) -> int:
        """``len(self.to_bytes())``, without encoding."""
        return len(self._encode(ByteCounter()))

    def _encode(self, w: _Out) -> _Out:
        w.raw(_MAGICS["core"])
        w.u64(self.pid).u64(self.ppid).string(self.binary)
        for value in self.regs.gpr:
            w.u64(value)
        w.u64(self.regs.rip).u8(int(self.regs.zf)).u8(int(self.regs.lt))
        w.u32(len(self.sigactions))
        for entry in self.sigactions:
            w.u32(entry.signal).u64(entry.handler).u64(entry.restorer)
        w.u64(self.next_fd)
        if self.syscall_filter is None:
            w.u8(0)
        else:
            w.u8(1)
            w.u32(len(self.syscall_filter))
            for number in sorted(self.syscall_filter):
                w.u32(number)
        return w

    @classmethod
    def from_bytes(cls, data: bytes) -> "CoreImage":
        r = _check_magic(data, "core")
        pid = r.u64()
        ppid = r.u64()
        binary = r.string()
        gpr = [r.u64() for __ in range(16)]
        regs = RegsImage(gpr, r.u64(), bool(r.u8()), bool(r.u8()))
        sigactions = [
            SigactionEntry(r.u32(), r.u64(), r.u64()) for __ in range(r.u32())
        ]
        next_fd = r.u64()
        syscall_filter = None
        if r.u8():
            syscall_filter = [r.u32() for __ in range(r.u32())]
        return cls(pid, ppid, binary, regs, sigactions, next_fd, syscall_filter)


# ----------------------------------------------------------------------
# mm


@dataclass
class VmaEntry:
    start: int
    end: int
    perms: str
    file_path: str = ""      # "" means anonymous
    file_offset: int = 0
    tag: str = ""

    @property
    def is_anon(self) -> bool:
        return not self.file_path

    @property
    def size(self) -> int:
        return self.end - self.start

    @property
    def executable(self) -> bool:
        return "x" in self.perms

    @property
    def writable(self) -> bool:
        return "w" in self.perms


@dataclass
class MmImage:
    vmas: list[VmaEntry] = field(default_factory=list)

    def to_bytes(self) -> bytes:
        return self._encode(ByteWriter()).getvalue()

    def byte_size(self) -> int:
        """``len(self.to_bytes())``, without encoding."""
        return len(self._encode(ByteCounter()))

    def _encode(self, w: _Out) -> _Out:
        w.raw(_MAGICS["mm"])
        w.u32(len(self.vmas))
        for vma in self.vmas:
            w.u64(vma.start).u64(vma.end).string(vma.perms)
            w.string(vma.file_path).u64(vma.file_offset).string(vma.tag)
        return w

    @classmethod
    def from_bytes(cls, data: bytes) -> "MmImage":
        r = _check_magic(data, "mm")
        vmas = []
        for __ in range(r.u32()):
            vmas.append(
                VmaEntry(r.u64(), r.u64(), r.string(), r.string(), r.u64(), r.string())
            )
        return cls(vmas)

    def vma_at(self, address: int) -> VmaEntry | None:
        for vma in self.vmas:
            if vma.start <= address < vma.end:
                return vma
        return None


# ----------------------------------------------------------------------
# pagemap + pages


@dataclass
class PagemapEntry:
    vaddr: int
    nr_pages: int

    @property
    def size(self) -> int:
        return self.nr_pages * PAGE_SIZE

    @property
    def end(self) -> int:
        return self.vaddr + self.size


@dataclass
class PagemapImage:
    entries: list[PagemapEntry] = field(default_factory=list)

    def to_bytes(self) -> bytes:
        return self._encode(ByteWriter()).getvalue()

    def byte_size(self) -> int:
        """``len(self.to_bytes())``, without encoding."""
        return len(self._encode(ByteCounter()))

    def _encode(self, w: _Out) -> _Out:
        w.raw(_MAGICS["pagemap"])
        w.u32(len(self.entries))
        for entry in self.entries:
            w.u64(entry.vaddr).u64(entry.nr_pages)
        return w

    @classmethod
    def from_bytes(cls, data: bytes) -> "PagemapImage":
        r = _check_magic(data, "pagemap")
        return cls([PagemapEntry(r.u64(), r.u64()) for __ in range(r.u32())])

    @property
    def total_pages(self) -> int:
        return sum(entry.nr_pages for entry in self.entries)


@dataclass
class PagesImage:
    """The dumped page contents, one buffer the rewriter patches in place
    (:meth:`ProcessImage.write_memory`); bytes given to the constructor
    are copied into a buffer of their own."""

    data: bytearray = field(default_factory=bytearray)

    def __post_init__(self) -> None:
        if not isinstance(self.data, bytearray):
            self.data = bytearray(self.data)

    def to_bytes(self) -> bytes:
        size = len(self.data).to_bytes(4, "little")
        return b"".join((_MAGICS["pages"], size, self.data))

    def byte_size(self) -> int:
        """``len(self.to_bytes())``, without encoding."""
        return len(_MAGICS["pages"]) + 4 + len(self.data)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PagesImage":
        return cls(bytearray(_check_magic(data, "pages").blob()))


# ----------------------------------------------------------------------
# files (fd table, incl. TCP repair state)


@dataclass
class FdEntryImage:
    fd: int
    kind: str                # "file" | "socket-listen" | "socket-conn" | "socket-raw"
    path: str = ""
    offset: int = 0
    flags: int = 0
    port: int = 0
    pending_conns: list[int] = field(default_factory=list)
    conn_id: int = 0
    side: str = ""
    recv_buffer: bytes = b""


@dataclass
class FilesImage:
    fds: list[FdEntryImage] = field(default_factory=list)

    def to_bytes(self) -> bytes:
        return self._encode(ByteWriter()).getvalue()

    def byte_size(self) -> int:
        """``len(self.to_bytes())``, without encoding."""
        return len(self._encode(ByteCounter()))

    def _encode(self, w: _Out) -> _Out:
        w.raw(_MAGICS["files"])
        w.u32(len(self.fds))
        for entry in self.fds:
            w.u64(entry.fd).string(entry.kind).string(entry.path)
            w.u64(entry.offset).u64(entry.flags).u64(entry.port)
            w.u32(len(entry.pending_conns))
            for cid in entry.pending_conns:
                w.u64(cid)
            w.u64(entry.conn_id).string(entry.side).blob(entry.recv_buffer)
        return w

    @classmethod
    def from_bytes(cls, data: bytes) -> "FilesImage":
        r = _check_magic(data, "files")
        fds = []
        for __ in range(r.u32()):
            fd = r.u64()
            kind = r.string()
            path = r.string()
            offset = r.u64()
            flags = r.u64()
            port = r.u64()
            pending = [r.u64() for __ in range(r.u32())]
            conn_id = r.u64()
            side = r.string()
            buffered = r.blob()
            fds.append(
                FdEntryImage(
                    fd, kind, path, offset, flags, port, pending, conn_id,
                    side, buffered,
                )
            )
        return cls(fds)


# ----------------------------------------------------------------------
# per-process bundle + checkpoint


@dataclass
class ProcessImage:
    """All image files of one checkpointed process."""

    core: CoreImage
    mm: MmImage
    pagemap: PagemapImage
    pages: PagesImage
    files: FilesImage

    @property
    def pid(self) -> int:
        return self.core.pid

    # ------------------------------------------------------------------
    # page-content access, used heavily by the rewriter

    def _locate(self, address: int) -> int | None:
        """Offset of ``address`` within the dumped pages blob, or None."""
        cursor = 0
        for entry in self.pagemap.entries:
            if entry.vaddr <= address < entry.end:
                return cursor + (address - entry.vaddr)
            cursor += entry.size
        return None

    def has_dumped(self, address: int) -> bool:
        return self._locate(address) is not None

    def dumped_chunks(
        self, address: int, size: int
    ) -> Iterator[tuple[int, bytes]]:
        """The dumped bytes of ``[address, address+size)``, one
        page-bounded ``(chunk address, bytes)`` at a time in address
        order; pages that were not dumped are skipped."""
        end = address + size
        runs: list[tuple[int, int, int]] = []
        cursor = 0
        for entry in self.pagemap.entries:
            low, high = max(address, entry.vaddr), min(end, entry.end)
            if low < high:
                runs.append((low, high, cursor + (low - entry.vaddr)))
            cursor += entry.size
        data = self.pages.data
        for low, high, offset in sorted(runs):
            while low < high:
                chunk_end = min((low | (PAGE_SIZE - 1)) + 1, high)
                yield low, bytes(data[offset:offset + chunk_end - low])
                offset += chunk_end - low
                low = chunk_end

    def _dumped_range(self, address: int, size: int) -> int:
        """Offset of ``[address, address+size)`` in the pages blob; the
        range must be dumped, and contiguously."""
        offset = self._locate(address)
        if offset is None:
            raise ImageError(f"address {address:#x} not in dumped pages")
        end_offset = self._locate(address + size - 1)
        if end_offset is None or end_offset != offset + size - 1:
            raise ImageError(
                f"range {address:#x}+{size:#x} spans non-dumped pages"
            )
        return offset

    def read_memory(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes of dumped memory (must be fully dumped)."""
        offset = self._dumped_range(address, size)
        return bytes(self.pages.data[offset:offset + size])

    def write_memory(self, address: int, data: bytes) -> None:
        """Patch dumped memory in place (the rewriter's byte-replacement
        primitive)."""
        offset = self._dumped_range(address, len(data))
        self.pages.data[offset:offset + len(data)] = data

    def add_pages(self, vaddr: int, data: bytes) -> None:
        """Append a dumped-page run (library injection support)."""
        if vaddr % PAGE_SIZE:
            raise ImageError(f"page run at {vaddr:#x} not page aligned")
        padded = data + b"\x00" * (-len(data) % PAGE_SIZE)
        self.pagemap.entries.append(PagemapEntry(vaddr, len(padded) // PAGE_SIZE))
        self.pages.data += padded

    def relocate_page_range(self, start: int, end: int, delta: int) -> int:
        """Relabel dumped pages in ``[start, end)`` to ``+delta`` addresses.

        The pages blob is untouched (entry order keeps its chunk
        correspondence); only the virtual addresses move.  Used by the
        re-randomization rewrite.  Returns pages moved; raises if a
        pagemap run straddles the range boundary.
        """
        if delta % PAGE_SIZE:
            raise ImageError(f"relocation delta {delta:#x} not page aligned")
        moved = 0
        for index, entry in enumerate(self.pagemap.entries):
            if entry.end <= start or entry.vaddr >= end:
                continue
            if not (start <= entry.vaddr and entry.end <= end):
                raise ImageError(
                    f"pagemap run {entry.vaddr:#x}+{entry.nr_pages}p "
                    f"straddles the relocated range"
                )
            self.pagemap.entries[index] = PagemapEntry(
                entry.vaddr + delta, entry.nr_pages
            )
            moved += entry.nr_pages
        return moved

    def drop_range(self, start: int, end: int) -> int:
        """Remove dumped pages overlapping [start, end); returns pages dropped."""
        new_entries: list[PagemapEntry] = []
        new_data = bytearray()
        dropped = 0
        cursor = 0
        for entry in self.pagemap.entries:
            chunk = self.pages.data[cursor:cursor + entry.size]
            cursor += entry.size
            for page_index in range(entry.nr_pages):
                page_vaddr = entry.vaddr + page_index * PAGE_SIZE
                page_data = chunk[page_index * PAGE_SIZE:(page_index + 1) * PAGE_SIZE]
                if start <= page_vaddr < end:
                    dropped += 1
                    continue
                if new_entries and new_entries[-1].end == page_vaddr:
                    new_entries[-1] = PagemapEntry(
                        new_entries[-1].vaddr, new_entries[-1].nr_pages + 1
                    )
                else:
                    new_entries.append(PagemapEntry(page_vaddr, 1))
                new_data += page_data
        self.pagemap.entries = new_entries
        self.pages.data = new_data
        return dropped

    def copy(self) -> "ProcessImage":
        """An equal image that shares no mutable object with this one."""
        core = self.core
        return ProcessImage(
            core=replace(
                core,
                regs=replace(core.regs, gpr=list(core.regs.gpr)),
                sigactions=[replace(entry) for entry in core.sigactions],
                syscall_filter=(
                    None if core.syscall_filter is None
                    else list(core.syscall_filter)
                ),
            ),
            mm=MmImage([replace(vma) for vma in self.mm.vmas]),
            pagemap=PagemapImage(
                [replace(entry) for entry in self.pagemap.entries]
            ),
            pages=PagesImage(bytearray(self.pages.data)),
            files=FilesImage([
                replace(
                    entry,
                    pending_conns=list(entry.pending_conns),
                    recv_buffer=bytes(entry.recv_buffer),
                )
                for entry in self.files.fds
            ]),
        )

    def total_bytes(self) -> int:
        """On-disk image size (the paper's 'image size'): the summed
        lengths of the five image files, computed without encoding."""
        return (
            self.core.byte_size()
            + self.mm.byte_size()
            + self.pagemap.byte_size()
            + self.pages.byte_size()
            + self.files.byte_size()
        )


@dataclass
class CheckpointImage:
    """A full checkpoint: one or more process images plus metadata."""

    processes: list[ProcessImage] = field(default_factory=list)
    clock_ns: int = 0
    version: int = IMAGE_VERSION

    @property
    def pids(self) -> list[int]:
        return [p.pid for p in self.processes]

    def process(self, pid: int) -> ProcessImage:
        for proc in self.processes:
            if proc.pid == pid:
                return proc
        raise ImageError(f"no process image for pid {pid}")

    def root(self) -> ProcessImage:
        """The tree root: the process whose parent is outside the image."""
        pids = set(self.pids)
        for proc in self.processes:
            if proc.core.ppid not in pids:
                return proc
        return self.processes[0]

    def total_bytes(self) -> int:
        return sum(proc.total_bytes() for proc in self.processes)

    def copy(self) -> "CheckpointImage":
        """An equal checkpoint that shares no mutable object with this
        one: what ``copy.deepcopy`` makes, field by field (a
        transaction's pristine copy, taken before the first patch)."""
        return CheckpointImage(
            [proc.copy() for proc in self.processes], self.clock_ns,
            self.version,
        )

    def total_pages(self) -> int:
        return sum(proc.pagemap.total_pages for proc in self.processes)

    # ------------------------------------------------------------------
    # filesystem layout (tmpfs in the paper)

    def inventory_bytes(self) -> bytes:
        w = ByteWriter().raw(_MAGICS["inventory"])
        w.u32(self.version).u64(self.clock_ns).u32(len(self.processes))
        for proc in self.processes:
            w.u64(proc.pid)
        return w.getvalue()

    def save(self, fs, directory: str) -> None:
        """Write all image files into ``directory`` of a kernel fs."""
        directory = directory.rstrip("/")
        faults.trip("image.save", detail=directory)
        fs.write_file(f"{directory}/inventory.img", self.inventory_bytes())
        for proc in self.processes:
            pid = proc.pid
            fs.write_file(f"{directory}/core-{pid}.img", proc.core.to_bytes())
            fs.write_file(f"{directory}/mm-{pid}.img", proc.mm.to_bytes())
            fs.write_file(f"{directory}/pagemap-{pid}.img", proc.pagemap.to_bytes())
            fs.write_file(f"{directory}/pages-{pid}.img", proc.pages.to_bytes())
            fs.write_file(f"{directory}/files-{pid}.img", proc.files.to_bytes())

    @classmethod
    def load(cls, fs, directory: str) -> "CheckpointImage":
        directory = directory.rstrip("/")
        r = _check_magic(fs.read_file(f"{directory}/inventory.img"), "inventory")
        version = r.u32()
        clock_ns = r.u64()
        pids = [r.u64() for __ in range(r.u32())]
        processes = []
        for pid in pids:
            processes.append(
                ProcessImage(
                    core=CoreImage.from_bytes(
                        fs.read_file(f"{directory}/core-{pid}.img")
                    ),
                    mm=MmImage.from_bytes(fs.read_file(f"{directory}/mm-{pid}.img")),
                    pagemap=PagemapImage.from_bytes(
                        fs.read_file(f"{directory}/pagemap-{pid}.img")
                    ),
                    pages=PagesImage.from_bytes(
                        fs.read_file(f"{directory}/pages-{pid}.img")
                    ),
                    files=FilesImage.from_bytes(
                        fs.read_file(f"{directory}/files-{pid}.img")
                    ),
                )
            )
        return cls(processes, clock_ns, version)
