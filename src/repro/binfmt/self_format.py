"""SELF — the Simulated ELF binary format.

A linked VM64 binary.  SELF keeps the ELF concepts DynaCut's pipeline
touches:

* loadable **segments** with page-aligned virtual addresses and
  ``rwx`` permissions (text/plt are ``r-x``, rodata ``r--``, data/got
  ``rw-``, bss ``rw-`` with zero-filled tail);
* a **symbol table** (function starts feed the static CFG recovery);
* **dynamic relocations** applied by the loader (``RELATIVE`` for
  position-independent data, ``GLOB_DAT`` for imports);
* a **PLT/GOT map** so "disable the PLT entry for fork()" is a
  first-class operation;
* a ``needed`` list naming the shared libraries to load.

Images serialize to a compact binary file (magic ``SELF``), and
:func:`load_self`/:meth:`SelfImage.to_bytes` round-trip exactly — the
CRIU-style injector parses signal-handler libraries from these bytes
the way the paper uses pyelftools.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .serde import ByteReader, ByteWriter

MAGIC = b"SELF\x01"

PAGE_SIZE = 4096

#: Default link base for executables (mirrors the classic x86-64 base).
DEFAULT_EXEC_BASE = 0x400000


class ImageKind(Enum):
    EXEC = "exec"
    DYN = "dyn"


class DynRelocType(Enum):
    """Dynamic relocation kinds applied at load time."""

    RELATIVE = "relative"   # *site = load_base + addend
    GLOB_DAT = "glob_dat"   # *site = resolve(symbol) + addend


@dataclass(frozen=True)
class Segment:
    """One loadable region."""

    name: str
    vaddr: int
    data: bytes
    memsize: int        # >= len(data); excess is zero-filled (bss)
    perms: str          # e.g. "r-x"

    @property
    def end(self) -> int:
        return self.vaddr + self.memsize

    def contains(self, address: int) -> bool:
        return self.vaddr <= address < self.end


@dataclass(frozen=True)
class SymbolInfo:
    """A linked symbol: final virtual address relative to the link base."""

    name: str
    vaddr: int
    is_function: bool
    is_global: bool
    size: int = 0


@dataclass(frozen=True)
class DynReloc:
    """A load-time relocation at virtual address ``vaddr``."""

    vaddr: int
    type: DynRelocType
    symbol: str          # empty for RELATIVE
    addend: int


@dataclass
class SelfImage:
    """A linked SELF binary (executable or shared object).

    An image is never mutated after it is built: the linker,
    :meth:`from_bytes` and the static-debloating baseline each build a
    new one.  That is what lets :attr:`digest` be computed once.
    """

    name: str
    kind: ImageKind
    base: int
    entry: int
    segments: list[Segment] = field(default_factory=list)
    symbols: dict[str, SymbolInfo] = field(default_factory=dict)
    dynamic_relocs: list[DynReloc] = field(default_factory=list)
    plt_entries: dict[str, int] = field(default_factory=dict)
    got_entries: dict[str, int] = field(default_factory=dict)
    needed: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # queries

    def segment(self, name: str) -> Segment:
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise KeyError(f"{self.name}: no segment {name!r}")

    def text_range(self) -> tuple[int, int]:
        """[start, end) of the text segment (link-base relative)."""
        seg = self.segment("text")
        return seg.vaddr, seg.vaddr + len(seg.data)

    def exports(self) -> dict[str, SymbolInfo]:
        """Global symbols importable by other modules."""
        return {n: s for n, s in self.symbols.items() if s.is_global}

    def functions(self) -> dict[str, SymbolInfo]:
        return {n: s for n, s in self.symbols.items() if s.is_function}

    def symbol_address(self, name: str) -> int:
        try:
            return self.symbols[name].vaddr
        except KeyError:
            raise KeyError(f"{self.name}: undefined symbol {name!r}") from None

    def code_size(self) -> int:
        """Bytes of machine code (text + plt)."""
        total = 0
        for seg in self.segments:
            if seg.name in ("text", "plt"):
                total += len(seg.data)
        return total

    @cached_property
    def digest(self) -> str:
        """:func:`content_digest` of this image, computed on first use and
        kept for the object's life (an image is never mutated)."""
        return content_digest(self)

    def read_bytes(self, vaddr: int, size: int) -> bytes:
        """Read image bytes by (link-base-relative) virtual address."""
        for seg in self.segments:
            if seg.contains(vaddr):
                offset = vaddr - seg.vaddr
                chunk = seg.data[offset:offset + size]
                if len(chunk) < size:
                    chunk += b"\x00" * (size - len(chunk))
                return chunk
        raise ValueError(f"{self.name}: address {vaddr:#x} not in any segment")

    # ------------------------------------------------------------------
    # serialization

    def to_bytes(self) -> bytes:
        w = ByteWriter()
        w.raw(MAGIC)
        w.string(self.name)
        w.string(self.kind.value)
        w.u64(self.base)
        w.u64(self.entry)
        w.u32(len(self.segments))
        for seg in self.segments:
            w.string(seg.name).u64(seg.vaddr).blob(seg.data)
            w.u64(seg.memsize).string(seg.perms)
        w.u32(len(self.symbols))
        for sym in self.symbols.values():
            w.string(sym.name).u64(sym.vaddr)
            w.u8(1 if sym.is_function else 0).u8(1 if sym.is_global else 0)
            w.u64(sym.size)
        w.u32(len(self.dynamic_relocs))
        for rel in self.dynamic_relocs:
            w.u64(rel.vaddr).string(rel.type.value).string(rel.symbol)
            w.i64(rel.addend)
        w.u32(len(self.plt_entries))
        for name, vaddr in self.plt_entries.items():
            w.string(name).u64(vaddr)
        w.u32(len(self.got_entries))
        for name, vaddr in self.got_entries.items():
            w.string(name).u64(vaddr)
        w.u32(len(self.needed))
        for lib in self.needed:
            w.string(lib)
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "SelfImage":
        if data[: len(MAGIC)] != MAGIC:
            raise ValueError("not a SELF image (bad magic)")
        r = ByteReader(data, len(MAGIC))
        name = r.string()
        kind = ImageKind(r.string())
        base = r.u64()
        entry = r.u64()
        segments = []
        for _ in range(r.u32()):
            seg_name = r.string()
            vaddr = r.u64()
            seg_data = r.blob()
            memsize = r.u64()
            perms = r.string()
            segments.append(Segment(seg_name, vaddr, seg_data, memsize, perms))
        symbols = {}
        for _ in range(r.u32()):
            sym_name = r.string()
            vaddr = r.u64()
            is_function = bool(r.u8())
            is_global = bool(r.u8())
            size = r.u64()
            symbols[sym_name] = SymbolInfo(sym_name, vaddr, is_function, is_global, size)
        relocs = []
        for _ in range(r.u32()):
            vaddr = r.u64()
            rtype = DynRelocType(r.string())
            symbol = r.string()
            addend = r.i64()
            relocs.append(DynReloc(vaddr, rtype, symbol, addend))
        plt = {}
        for _ in range(r.u32()):
            plt_name = r.string()
            plt[plt_name] = r.u64()
        got = {}
        for _ in range(r.u32()):
            got_name = r.string()
            got[got_name] = r.u64()
        needed = [r.string() for _ in range(r.u32())]
        return cls(
            name=name, kind=kind, base=base, entry=entry, segments=segments,
            symbols=symbols, dynamic_relocs=relocs, plt_entries=plt,
            got_entries=got, needed=needed,
        )


def content_digest(image: SelfImage) -> str:
    """SHA-256 over everything static analysis reads, hashed afresh.

    Covers every segment's bytes, the kind, the entry point, symbols,
    PLT stubs and dynamic relocations: two images with equal digests
    produce identical CFGs *and* identical dataflow results.
    """
    h = hashlib.sha256()
    h.update(image.entry.to_bytes(8, "little"))
    h.update(image.kind.value.encode())
    for seg in sorted(image.segments, key=lambda s: s.vaddr):
        h.update(seg.name.encode())
        h.update(seg.vaddr.to_bytes(8, "little"))
        h.update(seg.perms.encode())
        h.update(seg.data)
    for name, sym in sorted(image.symbols.items()):
        h.update(name.encode())
        h.update(sym.vaddr.to_bytes(8, "little"))
        h.update(bytes([sym.is_function, sym.is_global]))
    for name, stub in sorted(image.plt_entries.items()):
        h.update(name.encode())
        h.update(stub.to_bytes(8, "little"))
    for reloc in image.dynamic_relocs:
        h.update(reloc.vaddr.to_bytes(8, "little"))
        h.update(reloc.type.value.encode())
        h.update(reloc.symbol.encode())
        h.update(reloc.addend.to_bytes(8, "little", signed=True))
    return h.hexdigest()


def load_self(data: bytes) -> SelfImage:
    """Parse SELF bytes (pyelftools-equivalent entry point)."""
    return SelfImage.from_bytes(data)


def page_align(value: int) -> int:
    """Round ``value`` up to the next page boundary."""
    return -(-value // PAGE_SIZE) * PAGE_SIZE
