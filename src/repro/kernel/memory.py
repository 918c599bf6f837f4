"""Paged virtual address spaces with VMA bookkeeping.

The memory model mirrors what CRIU sees through ``/proc/pid/maps`` and
``/proc/pid/pagemap``:

* an :class:`AddressSpace` is a sparse set of 4 KiB pages plus a sorted
  list of :class:`VMA` regions carrying permissions and (optionally)
  file-backing metadata;
* permission checks distinguish read/write/execute, so executing an
  unmapped or non-executable address faults exactly like on Linux;
* a page index maps each page number to its page bytearray, one map per
  permission (readable, writable, executable), plus a *store map* of
  the pages a guest store may write directly: writable and not
  executable.  Each page also has one *word view*, a
  ``memoryview(page).cast("Q")`` built when the page is, and the index
  keeps the views of the readable pages and of the store map, so an
  aligned 8-byte load or store is one dict probe plus one word index.
  Views use the host's byte order, so they exist only on a
  little-endian host (VM64 is little-endian); elsewhere the word maps
  stay empty.  A page with an exported view cannot change size, and
  none does: every page write is a same-length slice assignment.  Only
  ``mmap``, ``munmap``, ``mprotect`` and construction (hence ``clone``)
  change VMAs, and each rebuilds the index over exactly the pages it
  changed.  A guest load, store or fetch inside one page is then one
  dict probe plus a slice; anything else (cross-page, zero-length,
  unmapped, wrong permission, a store to an executable page) takes the
  checked page-by-page path, which faults at the same address and with
  the same reason as a VMA-by-VMA walk;
* the CPU's decode cache and block cache live here and are evicted by
  range: a store or ``write_raw`` to an executable page, an ``munmap``
  of executable memory and an ``mprotect`` that flips some page's
  execute bit drop the cached decodes that start in
  ``[start - (MAX_INSTRUCTION - 1), end)``, the only ones whose fetched
  bytes can overlap the change, and every translated block whose extent
  meets that range.  This is what makes an ``int3`` patched into a
  running image take effect on its next execution.  ``code_epoch``
  counts those changes.  A restored address space adopts both caches of
  the dead one it replaces (:meth:`AddressSpace.adopt_decodes`), minus
  the same ranges around every executable page whose bytes or execute
  bit differ.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from operator import attrgetter

PAGE_SIZE = 4096
PAGE_SHIFT = 12
_OFFSET_MASK = PAGE_SIZE - 1
#: longest encoded instruction (movi: opcode + reg + imm64); a decode
#: reads at most this many bytes, all of them its own instruction's
MAX_INSTRUCTION = 10
#: the key the VMA list is sorted on
_vma_start = attrgetter("start")
#: a word view reads and writes qwords in the host's byte order, which
#: is the guest's (little-endian) only on a little-endian host
_WORD_VIEWS = sys.byteorder == "little"


class MemoryFault(Exception):
    """An access violation; the kernel turns this into SIGSEGV."""

    def __init__(self, address: int, access: str, reason: str):
        super().__init__(f"{access} fault at {address:#x}: {reason}")
        self.address = address
        self.access = access
        self.reason = reason


@dataclass(frozen=True)
class FileBacking:
    """File-backing metadata for a VMA (the ``/proc/maps`` file column)."""

    path: str          # binary or library name in the kernel binary registry
    offset: int        # offset of the VMA start within that file's image
    private: bool = True


@dataclass
class VMA:
    """A virtual memory area: ``[start, end)`` with permissions."""

    start: int
    end: int
    perms: str                      # "rwx" subset, e.g. "r-x"
    backing: FileBacking | None = None
    tag: str = ""                   # human-readable label ("stack", "[heap]")

    def __post_init__(self) -> None:
        if self.start % PAGE_SIZE or self.end % PAGE_SIZE:
            raise ValueError(
                f"VMA [{self.start:#x}, {self.end:#x}) is not page aligned"
            )
        if self.end <= self.start:
            raise ValueError("empty VMA")

    @property
    def size(self) -> int:
        return self.end - self.start

    @property
    def readable(self) -> bool:
        return "r" in self.perms

    @property
    def writable(self) -> bool:
        return "w" in self.perms

    @property
    def executable(self) -> bool:
        return "x" in self.perms

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end

    def overlaps(self, start: int, end: int) -> bool:
        return self.start < end and start < self.end

    def describe(self) -> str:
        backing = self.backing.path if self.backing else "anon"
        label = f" {self.tag}" if self.tag else ""
        return f"{self.start:#014x}-{self.end:#014x} {self.perms} {backing}{label}"


@dataclass
class AddressSpace:
    """A process's virtual memory."""

    pages: dict[int, bytearray] = field(default_factory=dict)
    vmas: list[VMA] = field(default_factory=list)
    #: counts changes to executable bytes or to the execute permission
    code_epoch: int = 0
    #: CPU decode cache: address -> (handler, operands, length, ends);
    #: never serialized or forked.  A new or cloned address space starts
    #: with a cold cache; a restored one adopts the still-valid decodes of
    #: the dead address space it replaces (:meth:`adopt_decodes`)
    decode_cache: dict = field(default_factory=dict, repr=False, compare=False)
    #: CPU block cache: start address -> (translation, instructions, end);
    #: built from the decode cache, evicted and adopted with it
    block_cache: dict = field(default_factory=dict, repr=False, compare=False)
    #: the page index: page number -> page, for pages with that permission
    readable_pages: dict[int, bytearray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    writable_pages: dict[int, bytearray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    executable_pages: dict[int, bytearray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: the store map: the writable pages that are not executable
    store_pages: dict[int, bytearray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: page number -> the word view of the page now under that number
    #: (empty on a big-endian host)
    words: dict[int, memoryview] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: the word views of the readable pages and of the store map
    readable_words: dict[int, memoryview] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    store_words: dict[int, memoryview] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for index, page in list(self.pages.items()):
            self._add_page(index, page)
        for vma in self.vmas:
            self._index(vma.start, vma.end, vma.perms)

    # ------------------------------------------------------------------
    # VMA management

    def find_vma(self, address: int) -> VMA | None:
        """The VMA containing ``address``: a binary search of the list."""
        vmas = self.vmas
        position = bisect_right(vmas, address, key=_vma_start)
        if position and address < vmas[position - 1].end:
            return vmas[position - 1]
        return None

    def mmap(
        self,
        start: int,
        size: int,
        perms: str,
        backing: FileBacking | None = None,
        tag: str = "",
    ) -> VMA:
        """Map ``[start, start+size)`` (page-rounded); pages start zeroed."""
        end = start + _page_round_up(size)
        if start % PAGE_SIZE:
            raise ValueError(f"mmap start {start:#x} not page aligned")
        for vma in self.vmas:
            if vma.overlaps(start, end):
                raise MemoryFault(start, "map", f"overlaps {vma.describe()}")
        vma = VMA(start, end, perms, backing, tag)
        self.vmas.insert(bisect_right(self.vmas, start, key=_vma_start), vma)
        for index in range(start >> PAGE_SHIFT, end >> PAGE_SHIFT):
            self._add_page(index, bytearray(PAGE_SIZE))
        self._index(start, end, perms)
        if "x" in perms:
            # nothing cached can depend on bytes that were unmapped
            self.code_epoch += 1
        return vma

    def munmap(self, start: int, size: int) -> None:
        """Unmap ``[start, start+size)``; splits partially covered VMAs."""
        end = start + _page_round_up(size)
        if start % PAGE_SIZE:
            raise ValueError(f"munmap start {start:#x} not page aligned")
        touched_exec = False
        kept: list[VMA] = []
        removed: list[tuple[int, int]] = []
        for vma in self.vmas:
            if not vma.overlaps(start, end):
                kept.append(vma)
                continue
            touched_exec = touched_exec or vma.executable
            removed.append((max(vma.start, start), min(vma.end, end)))
            if vma.start < start:
                kept.append(replace(vma, end=start))
            if vma.end > end:
                tail_backing = vma.backing
                if tail_backing is not None:
                    tail_backing = replace(
                        tail_backing, offset=tail_backing.offset + (end - vma.start)
                    )
                kept.append(replace(vma, start=end, backing=tail_backing))
        self.vmas = kept
        for lo, hi in removed:
            self._index(lo, hi, "")
            for index in range(lo >> PAGE_SHIFT, hi >> PAGE_SHIFT):
                del self.pages[index]
                self.words.pop(index, None)
        if touched_exec:
            self._code_changed(start, end)

    def mprotect(self, start: int, size: int, perms: str) -> None:
        """Change permissions on ``[start, start+size)``."""
        end = start + _page_round_up(size)
        exec_after = "x" in perms
        flips_exec = False
        updated: list[VMA] = []
        changed: list[VMA] = []
        for vma in self.vmas:
            if not vma.overlaps(start, end):
                updated.append(vma)
                continue
            flips_exec = flips_exec or vma.executable != exec_after
            if vma.start < start:
                updated.append(replace(vma, end=start))
            mid_start = max(vma.start, start)
            mid_end = min(vma.end, end)
            mid_backing = vma.backing
            if mid_backing is not None and mid_start > vma.start:
                mid_backing = replace(
                    mid_backing, offset=mid_backing.offset + (mid_start - vma.start)
                )
            middle = VMA(mid_start, mid_end, perms, mid_backing, vma.tag)
            changed.append(middle)
            updated.append(middle)
            if vma.end > end:
                tail_backing = vma.backing
                if tail_backing is not None:
                    tail_backing = replace(
                        tail_backing, offset=tail_backing.offset + (end - vma.start)
                    )
                updated.append(replace(vma, start=end, backing=tail_backing))
        self.vmas = updated
        for vma in changed:
            self._index(vma.start, vma.end, perms)
        if flips_exec:
            self._code_changed(start, end)

    def find_free_range(self, size: int, hint: int = 0x7F00_0000_0000) -> int:
        """Find an unmapped, page-aligned range of ``size`` bytes."""
        size = _page_round_up(size)
        candidate = hint
        for vma in self.vmas:
            if candidate + size <= vma.start:
                return candidate
            if vma.end > candidate:
                candidate = vma.end
        return candidate

    def _add_page(self, index: int, page: bytearray) -> None:
        """Put ``page`` under page number ``index``, with its word view."""
        self.pages[index] = page
        if _WORD_VIEWS:
            self.words[index] = memoryview(page).cast("Q")

    def _index(self, start: int, end: int, perms: str) -> None:
        """Point the page index for ``[start, end)`` at ``perms``."""
        pages, words = self.pages, self.words
        readable = "r" in perms
        stores = "w" in perms and "x" not in perms
        indices = range(start >> PAGE_SHIFT, end >> PAGE_SHIFT)
        for allowed, source, wanted in (
            (self.readable_pages, pages, readable),
            (self.writable_pages, pages, "w" in perms),
            (self.executable_pages, pages, "x" in perms),
            (self.store_pages, pages, stores),
            (self.readable_words, words, readable and _WORD_VIEWS),
            (self.store_words, words, stores and _WORD_VIEWS),
        ):
            if wanted:
                for index in indices:
                    allowed[index] = source[index]
            else:
                for index in indices:
                    allowed.pop(index, None)

    # ------------------------------------------------------------------
    # checked access (guest loads/stores)

    def read(self, address: int, size: int) -> bytes:
        page = self.readable_pages.get(address >> PAGE_SHIFT)
        offset = address & _OFFSET_MASK
        end = offset + size
        if page is not None and offset < end <= PAGE_SIZE:
            return bytes(page[offset:end])
        self._check(address, size, "read")
        return self._read_raw(address, size)

    def write(self, address: int, data: bytes) -> None:
        page = self.store_pages.get(address >> PAGE_SHIFT)
        offset = address & _OFFSET_MASK
        end = offset + len(data)
        if page is not None and offset < end <= PAGE_SIZE:
            page[offset:end] = data
            return
        self._check(address, len(data), "write")
        self._write_raw(address, data)
        self._stored(address, len(data))

    def fetch(self, address: int, size: int) -> bytes:
        """Instruction fetch: requires execute permission."""
        page = self.executable_pages.get(address >> PAGE_SHIFT)
        offset = address & _OFFSET_MASK
        end = offset + size
        if page is not None and offset < end <= PAGE_SIZE:
            return bytes(page[offset:end])
        self._check(address, size, "exec")
        return self._read_raw(address, size)

    def read_cstring(self, address: int, limit: int = 65536) -> bytes:
        """Read a NUL-terminated string (guest ``char*``)."""
        out = bytearray()
        cursor = address
        while len(out) < limit:
            size = min(256, PAGE_SIZE - (cursor & _OFFSET_MASK), limit - len(out))
            chunk = self.read(cursor, size)
            nul = chunk.find(b"\x00")
            if nul >= 0:
                out += chunk[:nul]
                return bytes(out)
            out += chunk
            cursor += size
        raise MemoryFault(address, "read", "unterminated string")

    def _check(self, address: int, size: int, access: str) -> None:
        """Fault at the first byte of ``[address, address+size)`` that
        ``access`` may not touch; a fetch always checks ``address``."""
        if access == "read":
            allowed, refusal = self.readable_pages, "permission"
        elif access == "write":
            allowed, refusal = self.writable_pages, "permission"
        else:
            allowed, refusal = self.executable_pages, "not executable"
            size = max(size, 1)
        for index in _pages(address, size):
            if index not in allowed:
                cursor = max(address, index << PAGE_SHIFT)
                vma = self.find_vma(cursor)
                if vma is None:
                    raise MemoryFault(cursor, access, "unmapped")
                raise MemoryFault(cursor, access, f"{refusal} ({vma.perms})")

    def _stored(self, address: int, size: int) -> None:
        """Note a store of ``size`` bytes: executable bytes may have changed."""
        executable = self.executable_pages
        for index in _pages(address, size):
            if index in executable:
                self._code_changed(address, address + size)
                return

    def _code_changed(self, start: int, end: int) -> None:
        """Executable bytes or permissions in ``[start, end)`` changed:
        drop the cached decodes that may have read them."""
        self.code_epoch += 1
        self._evict_decodes(start, end)

    def _evict_decodes(self, start: int, end: int) -> None:
        """Drop the cached decodes that may read a byte of ``[start, end)``
        (those starting in ``[start - (MAX_INSTRUCTION - 1), end)``), and
        every translated block whose extent meets that range: a block
        never outlives a decode it was built from."""
        cache = self.decode_cache
        low = start - (MAX_INSTRUCTION - 1)
        if end - low <= len(cache):
            for address in range(low, end):
                cache.pop(address, None)
        else:
            for address in [address for address in cache if low <= address < end]:
                del cache[address]
        blocks = self.block_cache
        if blocks:
            for address in [
                address for address, block in blocks.items()
                if address < end and low < block[2]
            ]:
                del blocks[address]

    # ------------------------------------------------------------------
    # raw access (kernel/loader/checkpoint: no permission checks)

    def _read_raw(self, address: int, size: int) -> bytes:
        # one copy: the join reads each page in place
        return b"".join(self.raw_views(address, size))

    def _write_raw(self, address: int, data: bytes) -> None:
        pages = self.pages
        cursor = address
        pos = 0
        with memoryview(data) as view:
            size = len(view)
            while pos < size:
                page = pages.get(cursor >> PAGE_SHIFT)
                if page is None:
                    raise MemoryFault(cursor, "write", "page not present")
                offset = cursor & _OFFSET_MASK
                take = min(size - pos, PAGE_SIZE - offset)
                # a slice of the view, not of ``data``: no copy per page
                page[offset:offset + take] = view[pos:pos + take]
                cursor += take
                pos += take

    def write_raw(self, address: int, data: bytes) -> None:
        """Kernel-privileged write (loader, restore, ptrace-style pokes)."""
        try:
            self._write_raw(address, data)
        finally:
            # a write that faults part-way has still stored the bytes
            # before the faulting page
            self._stored(address, len(data))

    def read_raw(self, address: int, size: int) -> bytes:
        """Kernel-privileged read."""
        return self._read_raw(address, size)

    def raw_views(self, address: int, size: int) -> list[memoryview]:
        """Read-only views of ``[address, address+size)``, one per page
        it touches, in address order: what :meth:`read_raw` copies,
        uncopied (so a view shows any later write to its page)."""
        pages = self.pages
        views: list[memoryview] = []
        cursor = address
        end = address + size
        while cursor < end:
            page = pages.get(cursor >> PAGE_SHIFT)
            if page is None:
                raise MemoryFault(cursor, "read", "page not present")
            offset = cursor & _OFFSET_MASK
            take = min(end - cursor, PAGE_SIZE - offset)
            views.append(memoryview(page)[offset:offset + take].toreadonly())
            cursor += take
        return views

    # ------------------------------------------------------------------
    # whole-space operations

    def adopt_decodes(self, old: "AddressSpace") -> None:
        """Start from copies of ``old``'s decode and block caches, minus
        what may not hold here.

        ``old`` is the address space of the dead process this one
        replaces.  A cached decode depends only on the bytes it decoded
        and their execute bit, so dropping, by the store rule above,
        every decode that may read an executable page whose bytes or
        execute bit differ between the two spaces leaves entries that
        decode here exactly as they did there; the same call drops the
        blocks built from them.  ``old`` keeps its caches (a restore
        that fails later can adopt them again); no executable byte
        changed here, so ``code_epoch`` does not move.
        """
        self.decode_cache = dict(old.decode_cache)
        self.block_cache = dict(old.block_cache)
        ours, theirs = self.executable_pages, old.executable_pages
        pages = {
            index for index in ours.keys() | theirs.keys()
            if ours.get(index) != theirs.get(index)
        }
        if not pages:
            return
        # one pass over each cache evicts what ``_evict_decodes`` would
        # over each changed page: a decode at ``a`` may read pages
        # ``a >> PAGE_SHIFT`` and ``(a + MAX_INSTRUCTION - 1) >> PAGE_SHIFT``;
        # a block ``[a, end)`` never straddles a page, so it meets the
        # range of pages ``a >> PAGE_SHIFT`` and ``(end + MAX_INSTRUCTION
        # - 2) >> PAGE_SHIFT``.  Entries outside the window spanning every
        # changed page skip the set lookups.
        reach = MAX_INSTRUCTION - 1
        low = (min(pages) << PAGE_SHIFT) - reach
        high = (max(pages) + 1) << PAGE_SHIFT
        cache = self.decode_cache
        for address in [
            address for address in cache
            if low <= address < high and (
                address >> PAGE_SHIFT in pages
                or (address + reach) >> PAGE_SHIFT in pages
            )
        ]:
            del cache[address]
        blocks = self.block_cache
        for address in [
            address for address, block in blocks.items()
            if address < high and low < block[2] and (
                address >> PAGE_SHIFT in pages
                or (block[2] + reach - 1) >> PAGE_SHIFT in pages
            )
        ]:
            del blocks[address]

    def clone(self) -> "AddressSpace":
        """Deep copy (fork)."""
        return AddressSpace(
            pages={index: bytearray(page) for index, page in self.pages.items()},
            vmas=[replace(vma) for vma in self.vmas],
            code_epoch=self.code_epoch,
        )

    def describe_maps(self) -> str:
        """A ``/proc/pid/maps``-style listing."""
        return "\n".join(vma.describe() for vma in self.vmas)


def _pages(address: int, size: int) -> range:
    """The page numbers that ``[address, address+size)`` touches."""
    if size <= 0:
        return range(0)
    return range(address >> PAGE_SHIFT, ((address + size - 1) >> PAGE_SHIFT) + 1)


def _page_round_up(value: int) -> int:
    return -(-value // PAGE_SIZE) * PAGE_SIZE
