"""Program loader and dynamic linker (the ELF loader + ld.so analogue).

Maps a SELF executable and its needed shared libraries into a fresh
address space, applies load-time relocations (``RELATIVE`` rebasing for
position-independent objects, ``GLOB_DAT`` import resolution into GOT
slots and direct sites), builds the initial stack with ``argc``/
``argv``, and points ``rip`` at the entry symbol.

VMAs created here carry :class:`~repro.kernel.memory.FileBacking`
metadata naming the binary image and the in-image offset — the same
information CRIU reads from ``/proc/pid/maps`` to decide which pages
need dumping and how file-backed pages are reconstructed at restore.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from ..binfmt.self_format import (
    DynRelocType,
    ImageKind,
    PAGE_SIZE,
    SelfImage,
    page_align,
)
from .memory import AddressSpace, FileBacking
from .process import LoadedModule, Process, SP

if TYPE_CHECKING:
    from .kernel import Kernel

#: Where shared libraries are mapped, spaced widely apart.
LIBRARY_REGION = 0x7F00_0000_0000
LIBRARY_STRIDE = 0x1000_0000

STACK_TOP = 0x7FFF_FF10_0000
STACK_SIZE = 1 << 20


class LoaderError(RuntimeError):
    """Raised when an image cannot be loaded."""


class Loader:
    """Loads executables registered with the kernel's binary registry."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel

    # ------------------------------------------------------------------

    def load(self, proc: Process, binary: str, argv: list[str]) -> None:
        """Populate ``proc`` with ``binary``'s mapped image and stack."""
        image = self.kernel.binaries.get(binary)
        if image is None:
            raise LoaderError(f"unknown binary {binary!r}")
        if image.kind is not ImageKind.EXEC:
            raise LoaderError(f"{binary!r} is not an executable")

        memory = proc.memory
        self.map_image(memory, image, load_base=0)
        proc.modules.append(LoadedModule(image, 0))

        # load shared library dependencies (transitively, load order = BFS)
        pending = list(image.needed)
        loaded_names = {image.name}
        lib_index = 0
        while pending:
            name = pending.pop(0)
            if name in loaded_names:
                continue
            lib = self.kernel.binaries.get(name)
            if lib is None:
                raise LoaderError(f"{binary}: needed library {name!r} not found")
            base = LIBRARY_REGION + lib_index * LIBRARY_STRIDE
            lib_index += 1
            self.map_image(memory, lib, load_base=base)
            proc.modules.append(LoadedModule(lib, base))
            loaded_names.add(name)
            pending.extend(lib.needed)

        exports = self._export_map(proc.modules)
        for module in proc.modules:
            self.apply_dynamic_relocs(memory, module.image, module.load_base, exports)

        self._setup_stack(proc, argv)
        proc.regs.rip = image.entry

    # ------------------------------------------------------------------

    def map_image(
        self, memory: AddressSpace, image: SelfImage, load_base: int
    ) -> None:
        """Map every segment of ``image`` at ``load_base`` offsets."""
        for seg in image.segments:
            start = seg.vaddr + load_base
            if start % PAGE_SIZE:
                raise LoaderError(
                    f"{image.name}: segment {seg.name} not page aligned"
                )
            memory.mmap(
                start,
                page_align(max(seg.memsize, 1)),
                seg.perms,
                backing=FileBacking(image.name, seg.vaddr, private=True),
                tag=seg.name,
            )
            if seg.data:
                memory.write_raw(start, seg.data)

    @staticmethod
    def _export_map(modules: list[LoadedModule]) -> dict[str, int]:
        exports: dict[str, int] = {}
        for module in modules:
            for name, info in module.image.exports().items():
                exports.setdefault(name, info.vaddr + module.load_base)
        return exports

    def apply_dynamic_relocs(
        self,
        memory: AddressSpace,
        image: SelfImage,
        load_base: int,
        exports: dict[str, int],
    ) -> None:
        """Apply RELATIVE and GLOB_DAT relocations for a mapped image."""
        for reloc in image.dynamic_relocs:
            site = reloc.vaddr + load_base
            if reloc.type is DynRelocType.RELATIVE:
                value = load_base + reloc.addend
            else:  # GLOB_DAT
                target = exports.get(reloc.symbol)
                if target is None:
                    raise LoaderError(
                        f"{image.name}: unresolved import {reloc.symbol!r}"
                    )
                value = target + reloc.addend
            memory.write_raw(site, struct.pack("<Q", value & ((1 << 64) - 1)))

    # ------------------------------------------------------------------

    def _setup_stack(self, proc: Process, argv: list[str]) -> None:
        memory = proc.memory
        memory.mmap(STACK_TOP - STACK_SIZE, STACK_SIZE, "rw-", tag="stack")

        # argv strings at the very top, pointer array beneath them
        cursor = STACK_TOP
        pointers: list[int] = []
        for arg in argv:
            data = arg.encode("utf-8") + b"\x00"
            cursor -= len(data)
            memory.write_raw(cursor, data)
            pointers.append(cursor)
        cursor &= ~0x7
        cursor -= 8 * (len(pointers) + 1)
        argv_array = cursor
        packed = b"".join(struct.pack("<Q", p) for p in pointers) + b"\x00" * 8
        memory.write_raw(argv_array, packed)

        sp = (argv_array - 64) & ~0xF
        proc.regs.gpr[SP] = sp
        proc.regs.gpr[1] = len(argv)
        proc.regs.gpr[2] = argv_array
