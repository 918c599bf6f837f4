"""Static linker: object modules -> SELF executable or shared object.

Responsibilities (mirroring a classic ELF link step):

* merge same-named sections from all input modules, laying sections out
  page-aligned in canonical order (text, plt, rodata, data, got, bss);
* resolve symbols across modules; route unresolved references to the
  exports of the supplied shared libraries (imports);
* synthesize one PLT stub + GOT slot per imported *function* (a
  ``PCREL32``-referenced import), recording the stub/slot addresses in
  the image so DynaCut can later disable individual PLT entries;
* convert ``ABS64`` references into link-time patches (executables) or
  ``RELATIVE``/``GLOB_DAT`` dynamic relocations (shared objects and
  imports), applied by the loader.

PLT stub shape (15 bytes)::

    lea  r11, <got slot>     ; 6 bytes, pc-relative
    ld64 r11, [r11]          ; 7 bytes
    jmpr r11                 ; 2 bytes
"""

from __future__ import annotations

import struct

from ..isa.encoding import encode_fields
from ..isa.instructions import SPEC_BY_MNEMONIC
from .object import EXEC_SECTIONS, ObjectModule, RelocType, SECTION_ORDER
from .self_format import (
    DEFAULT_EXEC_BASE,
    DynReloc,
    DynRelocType,
    ImageKind,
    PAGE_SIZE,
    Segment,
    SelfImage,
    SymbolInfo,
    page_align,
)

PLT_STUB_SIZE = 15
GOT_SLOT_SIZE = 8

_SECTION_PERMS = {
    "text": "r-x",
    "plt": "r-x",
    "rodata": "r--",
    "data": "rw-",
    "got": "rw-",
    "bss": "rw-",
}


class LinkError(ValueError):
    """Raised on unresolved or conflicting symbols, or layout errors."""


class Linker:
    """Links object modules against optional shared libraries."""

    def __init__(
        self,
        modules: list[ObjectModule],
        name: str,
        kind: ImageKind,
        libraries: list[SelfImage] | None = None,
        base: int | None = None,
    ):
        if not modules:
            raise LinkError("no input modules")
        self.modules = modules
        self.name = name
        self.kind = kind
        self.libraries = libraries or []
        if base is None:
            base = DEFAULT_EXEC_BASE if kind is ImageKind.EXEC else 0
        if base % PAGE_SIZE:
            raise LinkError(f"link base {base:#x} is not page aligned")
        self.base = base

        # module name -> section name -> offset in merged section
        self._placement: dict[tuple[str, str], int] = {}
        self._merged: dict[str, bytearray] = {}
        self._bss_size = 0
        self._section_vaddr: dict[str, int] = {}
        self._symbols: dict[str, SymbolInfo] = {}
        # symbol name (per module scope) resolution happens via
        # _resolve(module, name).
        self._lib_exports: dict[str, tuple[str, SymbolInfo]] = {}
        self._plt: dict[str, int] = {}
        self._got: dict[str, int] = {}
        self._dyn_relocs: list[DynReloc] = []
        self._needed: set[str] = set()

    # ------------------------------------------------------------------

    def link(self) -> SelfImage:
        self._index_library_exports()
        self._merge_sections()
        self._collect_imports()
        self._layout()
        self._finalize_symbols()
        self._emit_plt_got()
        self._apply_relocations()
        return self._build_image()

    # ------------------------------------------------------------------

    def _index_library_exports(self) -> None:
        for lib in self.libraries:
            for sym_name, info in lib.exports().items():
                # first library wins, like traditional link order
                self._lib_exports.setdefault(sym_name, (lib.name, info))

    def _merge_sections(self) -> None:
        seen_modules: set[str] = set()
        for module in self.modules:
            if module.name in seen_modules:
                raise LinkError(f"duplicate module name {module.name!r}")
            seen_modules.add(module.name)
            for section in SECTION_ORDER:
                if section in ("plt", "got"):
                    continue
                if section == "bss":
                    self._bss_size = -(-self._bss_size // 16) * 16
                    self._placement[(module.name, "bss")] = self._bss_size
                    self._bss_size += module.bss_size
                    continue
                data = module.sections.get(section)
                if data is None:
                    continue
                merged = self._merged.setdefault(section, bytearray())
                pad = (-len(merged)) % 16
                merged += (b"\x90" if section in EXEC_SECTIONS else b"\x00") * pad
                self._placement[(module.name, section)] = len(merged)
                merged += data

    def _collect_imports(self) -> None:
        """Determine which symbols come from libraries, and which need PLT."""
        global_defs: dict[str, str] = {}
        for module in self.modules:
            for sym in module.symbols.values():
                if sym.is_global:
                    if sym.name in global_defs:
                        raise LinkError(
                            f"duplicate global symbol {sym.name!r} in "
                            f"{global_defs[sym.name]!r} and {module.name!r}"
                        )
                    global_defs[sym.name] = module.name
        self._global_defs = global_defs

        plt_names: set[str] = set()
        for module in self.modules:
            for reloc in module.relocations:
                if reloc.symbol in module.symbols:
                    continue
                if reloc.symbol in global_defs:
                    continue
                if reloc.symbol in self._lib_exports:
                    lib_name, info = self._lib_exports[reloc.symbol]
                    self._needed.add(lib_name)
                    if reloc.type is RelocType.PCREL32:
                        if not info.is_function:
                            raise LinkError(
                                f"pc-relative reference to imported data "
                                f"symbol {reloc.symbol!r}"
                            )
                        plt_names.add(reloc.symbol)
                    continue
                raise LinkError(
                    f"undefined symbol {reloc.symbol!r} "
                    f"(referenced from {module.name!r})"
                )
        self._plt_names = sorted(plt_names)

    def _layout(self) -> None:
        sizes = {
            "text": len(self._merged.get("text", b"")),
            "plt": PLT_STUB_SIZE * len(self._plt_names),
            "rodata": len(self._merged.get("rodata", b"")),
            "data": len(self._merged.get("data", b"")),
            "got": GOT_SLOT_SIZE * len(self._plt_names),
            "bss": self._bss_size,
        }
        cursor = self.base
        for section in SECTION_ORDER:
            if sizes[section] == 0:
                continue
            vaddr = page_align(cursor) if cursor != self.base else cursor
            self._section_vaddr[section] = vaddr
            cursor = vaddr + sizes[section]
        self._sizes = sizes

    def _module_section_vaddr(self, module: str, section: str) -> int:
        key = (module, section)
        if key not in self._placement or section not in self._section_vaddr:
            raise LinkError(f"module {module!r} has no section {section!r}")
        return self._section_vaddr[section] + self._placement[key]

    def _finalize_symbols(self) -> None:
        for module in self.modules:
            for sym in module.symbols.values():
                if sym.name in self._symbols:
                    # duplicate locals across modules: keep first, they are
                    # only reachable from their own module's relocations,
                    # which _resolve handles per-module.
                    if sym.is_global:
                        raise LinkError(f"duplicate symbol {sym.name!r}")
                    continue
                vaddr = self._module_section_vaddr(module.name, sym.section) + sym.offset
                self._symbols[sym.name] = SymbolInfo(
                    sym.name, vaddr, sym.is_function, sym.is_global, sym.size
                )

    def _resolve(self, module: ObjectModule, name: str) -> int | None:
        """Final vaddr of ``name`` as seen from ``module``; None if import."""
        sym = module.symbols.get(name)
        if sym is not None:
            return self._module_section_vaddr(module.name, sym.section) + sym.offset
        if name in self._global_defs:
            defining = self._global_defs[name]
            for candidate in self.modules:
                if candidate.name == defining:
                    target = candidate.symbols[name]
                    return (
                        self._module_section_vaddr(defining, target.section)
                        + target.offset
                    )
        return None

    def _emit_plt_got(self) -> None:
        if not self._plt_names:
            return
        plt_base = self._section_vaddr["plt"]
        got_base = self._section_vaddr["got"]
        lea = SPEC_BY_MNEMONIC["lea"]
        ld64 = SPEC_BY_MNEMONIC["ld64"]
        jmpr = SPEC_BY_MNEMONIC["jmpr"]
        stubs = bytearray()
        for index, name in enumerate(self._plt_names):
            stub_vaddr = plt_base + index * PLT_STUB_SIZE
            got_slot = got_base + index * GOT_SLOT_SIZE
            self._plt[name] = stub_vaddr
            self._got[name] = got_slot
            # lea r11, <got_slot>: rel32 relative to end of the 6-byte lea
            stubs += encode_fields(lea, (11, got_slot - (stub_vaddr + lea.length)))
            stubs += encode_fields(ld64, (11, 11, 0))
            stubs += encode_fields(jmpr, (11,))
            self._dyn_relocs.append(
                DynReloc(got_slot, DynRelocType.GLOB_DAT, name, 0)
            )
        self._merged["plt"] = stubs
        self._merged["got"] = bytearray(GOT_SLOT_SIZE * len(self._plt_names))

    def _apply_relocations(self) -> None:
        for module in self.modules:
            for reloc in module.relocations:
                merged = self._merged[reloc.section]
                site = self._placement[(module.name, reloc.section)] + reloc.offset
                site_vaddr = self._section_vaddr[reloc.section] + site
                target = self._resolve(module, reloc.symbol)
                if reloc.type is RelocType.PCREL32:
                    if target is None:
                        target = self._plt[reloc.symbol]
                    value = target + reloc.addend - (site_vaddr + 4)
                    if not -(1 << 31) <= value < (1 << 31):
                        raise LinkError(
                            f"pc-relative overflow for {reloc.symbol!r}"
                        )
                    merged[site:site + 4] = struct.pack("<i", value)
                else:  # ABS64
                    if target is None:
                        self._dyn_relocs.append(
                            DynReloc(
                                site_vaddr, DynRelocType.GLOB_DAT,
                                reloc.symbol, reloc.addend,
                            )
                        )
                    elif self.kind is ImageKind.EXEC:
                        merged[site:site + 8] = struct.pack(
                            "<Q", (target + reloc.addend) & ((1 << 64) - 1)
                        )
                    else:
                        self._dyn_relocs.append(
                            DynReloc(
                                site_vaddr, DynRelocType.RELATIVE, "",
                                target + reloc.addend - self.base,
                            )
                        )

    def _build_image(self) -> SelfImage:
        segments = []
        for section in SECTION_ORDER:
            if self._sizes[section] == 0:
                continue
            vaddr = self._section_vaddr[section]
            if section == "bss":
                segments.append(Segment("bss", vaddr, b"", self._sizes["bss"], "rw-"))
            else:
                data = bytes(self._merged.get(section, b""))
                segments.append(
                    Segment(section, vaddr, data, len(data), _SECTION_PERMS[section])
                )
        entry = 0
        if self.kind is ImageKind.EXEC:
            start = self._symbols.get("_start")
            if start is None:
                raise LinkError("executable has no _start symbol")
            entry = start.vaddr
        return SelfImage(
            name=self.name,
            kind=self.kind,
            base=self.base,
            entry=entry,
            segments=segments,
            symbols=self._symbols,
            dynamic_relocs=self._dyn_relocs,
            plt_entries=self._plt,
            got_entries=self._got,
            needed=sorted(self._needed),
        )


def link_executable(
    modules: list[ObjectModule],
    name: str,
    libraries: list[SelfImage] | None = None,
    base: int = DEFAULT_EXEC_BASE,
) -> SelfImage:
    """Link ``modules`` into an executable SELF image."""
    return Linker(modules, name, ImageKind.EXEC, libraries, base).link()


def link_shared(
    modules: list[ObjectModule],
    name: str,
    libraries: list[SelfImage] | None = None,
) -> SelfImage:
    """Link ``modules`` into a position-independent shared object."""
    return Linker(modules, name, ImageKind.DYN, libraries, base=0).link()
