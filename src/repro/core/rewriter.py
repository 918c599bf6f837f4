"""The process rewriter: static mutation of checkpoint images.

This is DynaCut's central mechanism (§3.2.1): all customization happens
on the *static* process image between dump and restore — never on live
memory — which is what makes the transformation race-free.

Supported operations, mirroring the paper's extended CRIT:

* replace the first byte of a basic block (or every byte of it) with
  ``int3``;
* restore a block's original bytes from the pristine binary;
* unmap whole code pages (drop the VMA and its dumped pages);
* insert a position-independent shared library: place segments at a
  free base, apply its RELATIVE relocations, resolve its GOT imports
  against the *target's* libc mapping (PLT relocation against the
  runtime libc base, §3.3), and add the pages to the image;
* update the SIGTRAP sigaction in the core image to point into the
  injected library, with the library's own restorer.

Multi-process images (Nginx master + worker) are handled by applying
each operation to every process whose memory maps the target module.

Every mutation advances the kernel's virtual clock through the CRIU
cost model, which is where Figures 6 and 7's time breakdowns come from.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import faults
from ..binfmt.self_format import DynRelocType, PAGE_SIZE, SelfImage, page_align
from ..isa.instructions import INT3_OPCODE
from ..kernel.kernel import Kernel
from ..kernel.signals import Signal
from ..tracing.drcov import BlockRecord
from ..criu.costmodel import DEFAULT_COST_MODEL
from ..criu.images import CheckpointImage, ImageError, ProcessImage, VmaEntry
from . import sighandler
from .sighandler import (
    HANDLER_SYMBOL,
    ORIG_CAPACITY,
    REDIRECT_CAPACITY,
    RESTORER_SYMBOL,
)

#: default placement region for injected libraries
_INJECT_HINT = 0x7D00_0000_0000
_INJECT_STRIDE = 0x0100_0000


class RewriteError(RuntimeError):
    pass


def handler_library(kernel: Kernel) -> SelfImage | None:
    """The trap-handler library, linked against the kernel's
    ``libc.so`` (``None`` when no libc is registered)."""
    libc = kernel.binaries.get("libc.so")
    return None if libc is None else sighandler.build_handler_library(libc)


@dataclass
class RewriteStats:
    """What a rewrite session did, and what it cost (virtual ns)."""

    blocks_patched: int = 0
    blocks_restored: int = 0
    bytes_wiped: int = 0
    pages_unmapped: int = 0
    libraries_injected: int = 0
    patch_ns: int = 0
    inject_ns: int = 0
    unmap_ns: int = 0


@dataclass
class HandlerPlacement:
    """Where the trap-handler library lives in one process image."""

    pid: int
    base: int

    def symbol_address(self, library: SelfImage, name: str) -> int:
        return self.base + library.symbol_address(name)


class ImageRewriter:
    """Rewrites one :class:`CheckpointImage` in place."""

    def __init__(self, kernel: Kernel, checkpoint: CheckpointImage):
        self.kernel = kernel
        self.checkpoint = checkpoint
        self.stats = RewriteStats()
        #: trap policies configured this session (DynaLint consults this
        #: to decide whether the post-rewrite lint should run)
        self.policies_installed: set[int] = set()

    # ------------------------------------------------------------------
    # module resolution

    def module_base(self, image: ProcessImage, module: str) -> int | None:
        """Load base of ``module`` in one process image, from its mm."""
        base: int | None = None
        for vma in image.mm.vmas:
            if vma.file_path != module:
                continue
            candidate = vma.start - vma.file_offset
            if base is None or candidate < base:
                base = candidate
        return base

    def images_mapping(self, module: str) -> list[tuple[ProcessImage, int]]:
        """Every (process image, module base) pair that maps ``module``."""
        out = []
        for image in self.checkpoint.processes:
            base = self.module_base(image, module)
            if base is not None:
                out.append((image, base))
        if not out:
            raise RewriteError(f"no process in the image maps module {module!r}")
        return out

    def _binary(self, module: str) -> SelfImage:
        binary = self.kernel.binaries.get(module)
        if binary is None:
            raise RewriteError(f"binary {module!r} not registered with the kernel")
        return binary

    # ------------------------------------------------------------------
    # code patching

    def block_entry_int3(self, module: str, blocks: list[BlockRecord]) -> int:
        """Replace the first byte of each block with ``int3``.

        The paper's default blocking mode: one byte per block is enough
        to make the block un-enterable through normal control flow.
        Returns the number of patch sites written.
        """
        patched = 0
        for image, base in self.images_mapping(module):
            for block in blocks:
                self._write_code(image, base + block.offset, bytes([INT3_OPCODE]))
                patched += 1
        self.stats.blocks_patched += patched
        self._charge_patch(patched, 0)
        return patched

    def wipe_blocks(self, module: str, blocks: list[BlockRecord]) -> int:
        """Overwrite every byte of each block with ``int3``.

        The aggressive mode: wiped blocks contain no reusable gadget
        bytes, at the price of a costlier future restore.
        """
        wiped = 0
        for image, base in self.images_mapping(module):
            for block in blocks:
                self._write_code(
                    image, base + block.offset, bytes([INT3_OPCODE]) * block.size
                )
                wiped += block.size
        self.stats.blocks_patched += len(blocks)
        self.stats.bytes_wiped += wiped
        self._charge_patch(len(blocks), wiped)
        return wiped

    def restore_blocks(self, module: str, blocks: list[BlockRecord]) -> int:
        """Write back the original bytes of each block (feature re-enable)."""
        binary = self._binary(module)
        restored = 0
        for image, base in self.images_mapping(module):
            for block in blocks:
                original = binary.read_bytes(block.offset, block.size)
                self._write_code(image, base + block.offset, original)
                restored += 1
        self.stats.blocks_restored += restored
        self._charge_patch(restored, 0)
        return restored

    def _write_code(self, image: ProcessImage, address: int, data: bytes) -> None:
        faults.trip(
            "rewriter.write_code", detail=f"pid={image.pid} @{address:#x}"
        )
        try:
            image.write_memory(address, data)
        except ImageError as exc:
            raise RewriteError(
                f"cannot patch {address:#x}: {exc}. Code pages are only "
                "present in the image when the checkpoint was taken with "
                "dump_exec_pages=True (DynaCut's CRIU modification)."
            ) from exc

    def _charge_patch(self, blocks: int, wiped_bytes: int) -> None:
        cost = DEFAULT_COST_MODEL.patch_cost(blocks, wiped_bytes)
        self.stats.patch_ns += cost
        self.kernel.clock_ns += cost

    # ------------------------------------------------------------------
    # page unmapping

    def unmap_module_range(self, module: str, offset: int, size: int) -> int:
        """Unmap whole pages of ``module`` (the large-feature policy).

        ``offset`` must be page aligned; returns pages dropped across
        all processes.
        """
        if offset % PAGE_SIZE:
            raise RewriteError(f"unmap offset {offset:#x} is not page aligned")
        size = page_align(size)
        dropped_total = 0
        for image, base in self.images_mapping(module):
            start = base + offset
            end = start + size
            dropped_total += image.drop_range(start, end)
            new_vmas: list[VmaEntry] = []
            for vma in image.mm.vmas:
                if vma.end <= start or vma.start >= end:
                    new_vmas.append(vma)
                    continue
                if vma.start < start:
                    new_vmas.append(
                        VmaEntry(
                            vma.start, start, vma.perms, vma.file_path,
                            vma.file_offset, vma.tag,
                        )
                    )
                if vma.end > end:
                    delta = end - vma.start
                    new_vmas.append(
                        VmaEntry(
                            end, vma.end, vma.perms, vma.file_path,
                            vma.file_offset + delta, vma.tag,
                        )
                    )
            image.mm.vmas = sorted(new_vmas, key=lambda v: v.start)
        pages = size // PAGE_SIZE
        self.stats.pages_unmapped += pages
        cost = DEFAULT_COST_MODEL.unmap_vma_ns * max(1, pages)
        self.stats.unmap_ns += cost
        self.kernel.clock_ns += cost
        return dropped_total

    # ------------------------------------------------------------------
    # live library re-randomization (§5 / Shuffler direction)

    def rerandomize_library(
        self, module: str, new_base: int | None = None
    ) -> dict[int, tuple[int, int]]:
        """Move a shared library to a new base in every process image.

        The §5 "live code re-randomization" direction, implemented at
        the image level: the library's VMAs and dumped pages are
        relabelled, its own RELATIVE relocations and every importer's
        GLOB_DAT sites are re-resolved against the new base, and stale
        pointers in volatile state (registers, sigactions, stack words
        that look like old-range pointers — the conservative scan
        Shuffler-style systems use) are rebased.  After restore, code
        addresses an attacker leaked before the rewrite are dead.

        Returns ``{pid: (old_base, new_base)}``.
        """
        library = self._binary(module)
        span = page_align(max(seg.end for seg in library.segments))
        results: dict[int, tuple[int, int]] = {}
        for image, old_base in self.images_mapping(module):
            base = new_base if new_base is not None else self._find_free_base(
                image, span
            )
            delta = base - old_base
            if delta == 0:
                results[image.pid] = (old_base, base)
                continue
            old_lo, old_hi = old_base, old_base + span

            # 1. relabel the VMAs and their dumped pages
            for vma in image.mm.vmas:
                if vma.file_path == module:
                    vma.start += delta
                    vma.end += delta
            image.mm.vmas.sort(key=lambda v: v.start)
            image.relocate_page_range(old_lo, old_hi, delta)

            # 2. the library's own position-dependent words
            for reloc in library.dynamic_relocs:
                site = base + reloc.vaddr
                if reloc.type is DynRelocType.RELATIVE:
                    if image.has_dumped(site):
                        image.write_memory(
                            site, ((base + reloc.addend) & ((1 << 64) - 1))
                            .to_bytes(8, "little"),
                        )
                # GLOB_DAT sites hold pointers into *other* modules:
                # unchanged by this move

            # 3. re-resolve every importer's references to the library
            exports = {
                name: base + info.vaddr
                for name, info in library.exports().items()
            }
            self._repoint_importers(image, module, exports)

            # 4. rebase volatile pointers: registers, sigactions, stack
            self._rebase_range(image, old_lo, old_hi, delta)
            results[image.pid] = (old_base, base)

        cost = DEFAULT_COST_MODEL.library_injection_cost()
        self.stats.inject_ns += cost
        self.kernel.clock_ns += cost
        return results

    def _repoint_importers(
        self, image: ProcessImage, moved: str, exports: dict[str, int]
    ) -> None:
        """Rewrite GLOB_DAT sites (GOT slots, movi fields) in every other
        mapped module that imports symbols from the moved library."""
        seen: set[str] = set()
        for vma in list(image.mm.vmas):
            name = vma.file_path
            if not name or name == moved or name in seen:
                continue
            seen.add(name)
            importer = self.kernel.binaries.get(name)
            if importer is None:
                continue
            importer_base = vma.start - vma.file_offset
            for reloc in importer.dynamic_relocs:
                if reloc.type is not DynRelocType.GLOB_DAT:
                    continue
                target = exports.get(reloc.symbol)
                if target is None:
                    continue
                site = importer_base + reloc.vaddr
                if image.has_dumped(site):
                    image.write_memory(
                        site, ((target + reloc.addend) & ((1 << 64) - 1))
                        .to_bytes(8, "little"),
                    )
        # the injected trap-handler library (anonymous VMAs) also imports
        # from libc; re-resolve its GOT through its sigaction-derived base
        handler_lib = handler_library(self.kernel)
        if handler_lib is None:
            return
        handler_base = self.existing_handler_base(image, handler_lib)
        if handler_base is None:
            return
        for reloc in handler_lib.dynamic_relocs:
            if reloc.type is not DynRelocType.GLOB_DAT:
                continue
            target = exports.get(reloc.symbol)
            if target is None:
                continue
            site = handler_base + reloc.vaddr
            if image.has_dumped(site):
                image.write_memory(
                    site, ((target + reloc.addend) & ((1 << 64) - 1))
                    .to_bytes(8, "little"),
                )

    def _rebase_range(
        self, image: ProcessImage, old_lo: int, old_hi: int, delta: int
    ) -> None:
        """Rebase pointers into [old_lo, old_hi) held in volatile state."""
        regs = image.core.regs
        if old_lo <= regs.rip < old_hi:
            regs.rip += delta
        for index, value in enumerate(regs.gpr):
            if old_lo <= value < old_hi:
                regs.gpr[index] = value + delta
        for action in image.core.sigactions:
            if old_lo <= action.handler < old_hi:
                action.handler += delta
            if old_lo <= action.restorer < old_hi:
                action.restorer += delta
        # conservative aligned-word scan of the stack (Shuffler-style)
        for vma in image.mm.vmas:
            if vma.tag != "stack":
                continue
            cursor = vma.start
            while cursor < vma.end:
                if not image.has_dumped(cursor):
                    cursor += 8
                    continue
                word = int.from_bytes(image.read_memory(cursor, 8), "little")
                if old_lo <= word < old_hi:
                    image.write_memory(
                        cursor, (word + delta).to_bytes(8, "little")
                    )
                cursor += 8

    # ------------------------------------------------------------------
    # syscall filtering (temporal specialization, §5 / Ghavamnia et al.)

    def set_syscall_filter(self, allowed: set[int] | None) -> None:
        """Install (or clear) a seccomp-style allow-list in every core image.

        Restored processes raise SIGSYS on any syscall outside
        ``allowed`` — the dynamic enable/disable of seccomp filtering
        the paper's discussion section proposes building on process
        rewriting.
        """
        for image in self.checkpoint.processes:
            image.core.syscall_filter = (
                sorted(allowed) if allowed is not None else None
            )
        self.kernel.clock_ns += DEFAULT_COST_MODEL.set_sigaction_ns

    # ------------------------------------------------------------------
    # library injection + trap handler configuration

    def existing_handler_base(
        self, image: ProcessImage, library: SelfImage
    ) -> int | None:
        """Base of an already-injected handler library, if any."""
        for entry in image.core.sigactions:
            if entry.signal == int(Signal.SIGTRAP) and entry.handler:
                return entry.handler - library.symbol_address(HANDLER_SYMBOL)
        return None

    def inject_library(
        self, image: ProcessImage, library: SelfImage, base: int | None = None
    ) -> int:
        """Insert ``library`` into one process image; returns its base.

        The library's pages are added as anonymous dumped pages (they
        did not come from a file mapping of the target) and its dynamic
        relocations are resolved against the modules the target already
        maps — exactly how the paper loads the handler library and
        performs its GOT/PLT relocations against the runtime libc base.
        """
        faults.trip("rewriter.inject_library", detail=f"pid={image.pid}")
        span = page_align(max(seg.end for seg in library.segments))
        if base is None:
            base = self._find_free_base(image, span)
        exports = self._target_exports(image)
        for seg in library.segments:
            content = bytearray(seg.data)
            content += b"\x00" * (seg.memsize - len(seg.data))
            self._apply_relocs(library, seg.vaddr, content, base, exports)
            vaddr = base + seg.vaddr
            memsize = page_align(max(seg.memsize, 1))
            image.add_pages(vaddr, bytes(content))
            image.mm.vmas.append(
                VmaEntry(vaddr, vaddr + memsize, seg.perms, "", 0,
                         f"dynacut:{seg.name}")
            )
        image.mm.vmas.sort(key=lambda v: v.start)
        self.stats.libraries_injected += 1
        cost = DEFAULT_COST_MODEL.library_injection_cost()
        self.stats.inject_ns += cost
        self.kernel.clock_ns += cost
        return base

    def _find_free_base(self, image: ProcessImage, span: int) -> int:
        base = _INJECT_HINT
        while any(
            vma.start < base + span and base < vma.end for vma in image.mm.vmas
        ):
            base += _INJECT_STRIDE
        return base

    def _target_exports(self, image: ProcessImage) -> dict[str, int]:
        """Exported symbols of every module the target maps, absolute."""
        exports: dict[str, int] = {}
        seen: set[str] = set()
        for vma in image.mm.vmas:
            if not vma.file_path or vma.file_path in seen:
                continue
            seen.add(vma.file_path)
            module_image = self.kernel.binaries.get(vma.file_path)
            if module_image is None:
                continue
            module_base = vma.start - vma.file_offset
            for name, info in module_image.exports().items():
                exports.setdefault(name, module_base + info.vaddr)
        return exports

    def _apply_relocs(
        self,
        library: SelfImage,
        seg_vaddr: int,
        content: bytearray,
        base: int,
        exports: dict[str, int],
    ) -> None:
        seg_end = seg_vaddr + len(content)
        for reloc in library.dynamic_relocs:
            if not seg_vaddr <= reloc.vaddr < seg_end:
                continue
            if reloc.type is DynRelocType.RELATIVE:
                value = base + reloc.addend
            else:
                target = exports.get(reloc.symbol)
                if target is None:
                    raise RewriteError(
                        f"cannot resolve {reloc.symbol!r} for injected library: "
                        "target process does not map a module exporting it"
                    )
                value = target + reloc.addend
            offset = reloc.vaddr - seg_vaddr
            content[offset:offset + 8] = (value & ((1 << 64) - 1)).to_bytes(
                8, "little"
            )

    # ------------------------------------------------------------------

    def install_trap_handler(
        self,
        policy: int,
        redirect_entries: list[tuple[int, int]] | None = None,
        orig_entries: list[tuple[int, int]] | None = None,
    ) -> list[HandlerPlacement]:
        """Install (or reconfigure) the SIGTRAP handler in every process.

        ``redirect_entries`` are absolute (trap address, target address)
        pairs; ``orig_entries`` absolute (address, original byte) pairs
        for the verify policy.  Re-uses an already-injected library when
        the image has one.
        """
        library = self._handler_library()
        redirect_entries = redirect_entries or []
        orig_entries = orig_entries or []
        if len(redirect_entries) > REDIRECT_CAPACITY:
            raise RewriteError(
                f"too many redirect entries ({len(redirect_entries)} > "
                f"{REDIRECT_CAPACITY})"
            )
        if len(orig_entries) > ORIG_CAPACITY:
            raise RewriteError(
                f"too many original-byte entries ({len(orig_entries)} > "
                f"{ORIG_CAPACITY})"
            )

        placements = []
        self.policies_installed.add(policy)
        for image in self.checkpoint.processes:
            base = self.existing_handler_base(image, library)
            if base is None:
                base = self.inject_library(image, library)
            self._configure_handler(
                image, library, base, policy, redirect_entries, orig_entries
            )
            self._set_sigtrap(image, library, base)
            placements.append(HandlerPlacement(image.pid, base))
        return placements

    def _configure_handler(
        self,
        image: ProcessImage,
        library: SelfImage,
        base: int,
        policy: int,
        redirect_entries: list[tuple[int, int]],
        orig_entries: list[tuple[int, int]],
    ) -> None:
        def write_u64(symbol: str, index: int, value: int) -> None:
            address = base + library.symbol_address(symbol) + 8 * index
            image.write_memory(address, value.to_bytes(8, "little"))

        write_u64(sighandler.POLICY_SYMBOL, 0, policy)
        write_u64(sighandler.REDIRECT_COUNT_SYMBOL, 0, len(redirect_entries))
        for index, (trap, target) in enumerate(redirect_entries):
            write_u64(sighandler.REDIRECT_TABLE_SYMBOL, 2 * index, trap)
            write_u64(sighandler.REDIRECT_TABLE_SYMBOL, 2 * index + 1, target)
        write_u64(sighandler.ORIG_COUNT_SYMBOL, 0, len(orig_entries))
        for index, (address, byte) in enumerate(orig_entries):
            write_u64(sighandler.ORIG_TABLE_SYMBOL, 2 * index, address)
            write_u64(sighandler.ORIG_TABLE_SYMBOL, 2 * index + 1, byte)
        write_u64(sighandler.LOG_COUNT_SYMBOL, 0, 0)

    def reset_trap_log(self) -> int:
        """Zero the verifier's trap log in every process with a handler.

        The shelve path uses this after durably restoring trapped
        blocks: their log entries are consumed, and the next drift scan
        must observe only traps that happen *after* the shelve commit.
        Unlike :meth:`install_trap_handler` this touches nothing else —
        the policy, redirect and original-byte tables stay valid for
        the blocks that remain patched.  Returns the number of process
        images whose log was cleared.
        """
        library = self._handler_library()
        cleared = 0
        for image in self.checkpoint.processes:
            base = self.existing_handler_base(image, library)
            if base is None:
                continue
            address = base + library.symbol_address(
                sighandler.LOG_COUNT_SYMBOL
            )
            image.write_memory(address, (0).to_bytes(8, "little"))
            cleared += 1
        self.kernel.clock_ns += DEFAULT_COST_MODEL.set_sigaction_ns
        return cleared

    def _handler_library(self) -> SelfImage:
        library = handler_library(self.kernel)
        if library is None:
            raise RewriteError("libc.so not registered; cannot build handler")
        return library

    def _set_sigtrap(
        self, image: ProcessImage, library: SelfImage, base: int
    ) -> None:
        handler = base + library.symbol_address(HANDLER_SYMBOL)
        restorer = base + library.symbol_address(RESTORER_SYMBOL)
        sig = int(Signal.SIGTRAP)
        for entry in image.core.sigactions:
            if entry.signal == sig:
                entry.handler = handler
                entry.restorer = restorer
                break
        else:
            from ..criu.images import SigactionEntry

            image.core.sigactions.append(SigactionEntry(sig, handler, restorer))
        self.kernel.clock_ns += DEFAULT_COST_MODEL.set_sigaction_ns
