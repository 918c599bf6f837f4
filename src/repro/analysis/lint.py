"""DynaLint image lint: static checks over rewritten CRIU images.

The rewriter mutates checkpoint images between dump and restore; a bug
in that pipeline (or a corrupted image on disk) surfaces only after
restore, as a crash in the customized process.  The lint decodes the
rewritten image against the pristine binaries registered with the
kernel and flags structural damage *before* restore.

Diagnostic codes (stable, used by tests and the CLI):

========  ============================================================
``DL101``  an ``int3`` patch run starts mid-instruction (not on a
           decoded instruction boundary of a recovered block)
``DL102``  a kept instruction decodes into wiped bytes: its first byte
           is intact but later bytes were overwritten
``DL103``  executable bytes differ from the pristine binary and are
           not ``int3`` (and not a load-time relocation site)
``DL201``  an injected (``dynacut:*``) VMA overlaps another VMA
``DL202``  an injected VMA's permissions do not match the handler
           library's segment
``DL203``  an injected VMA is not fully backed by dumped pages
``DL301``  a GOT/relocation word of the injected library does not
           resolve into a mapped VMA
``DL401``  the SIGTRAP sigaction handler does not point at mapped
           executable bytes
``DL402``  the SIGTRAP restorer does not point at mapped executable
           bytes
``DL501``  the guest contains a definite self-modifying store: a store
           whose value-set provably intersects executable bytes
``DL502``  a store derived from a code pointer is unbounded and *may*
           alias executable bytes (warning severity — unprovable)
``DL503``  a definite self-modifying store rewrites a live decoded CFG
           block (icache-coherence hazard for the CPU's block cache)
========  ============================================================

The DL50x rules come from the DynaFlow value-set analysis
(:mod:`repro.analysis.dataflow`); they lint the *guest's own* code, not
the rewrite, because a self-modifying guest silently invalidates every
static proof the customization pipeline makes about its text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..binfmt.object import EXEC_SECTIONS
from ..binfmt.self_format import DynRelocType, SelfImage
from ..isa.instructions import INT3_OPCODE
from ..kernel.kernel import Kernel
from ..kernel.signals import Signal
from ..criu.images import CheckpointImage, ProcessImage, VmaEntry
from .cfg import cached_cfg, image_cfg

INJECT_TAG_PREFIX = "dynacut:"


@dataclass(frozen=True)
class LintDiagnostic:
    """One lint finding, attributed to a process and an address."""

    code: str
    pid: int
    address: int
    message: str
    severity: str = "error"     # "error" | "warning"

    def __str__(self) -> str:
        tag = "" if self.severity == "error" else f" [{self.severity}]"
        return (
            f"{self.code}{tag} pid={self.pid} @{self.address:#x}: "
            f"{self.message}"
        )


@dataclass
class LintReport:
    """All findings over one checkpoint image."""

    diagnostics: list[LintDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Clean of *errors* — warning-severity findings don't fail."""
        return not self.errors

    @property
    def errors(self) -> list[LintDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[LintDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def codes(self) -> set[str]:
        return {diag.code for diag in self.diagnostics}

    def by_code(self, code: str) -> list[LintDiagnostic]:
        return [diag for diag in self.diagnostics if diag.code == code]

    def summary(self) -> str:
        if not self.diagnostics:
            return "dynalint: image clean"
        lines = [f"dynalint: {len(self.diagnostics)} finding(s)"]
        lines += [f"  {diag}" for diag in self.diagnostics]
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        """Deterministic JSON-ready form (stable diagnostic order)."""
        return {
            "ok": self.ok,
            "counts": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
            },
            "diagnostics": [
                {
                    "code": d.code,
                    "severity": d.severity,
                    "pid": d.pid,
                    "address": d.address,
                    "message": d.message,
                }
                for d in sorted(
                    self.diagnostics,
                    key=lambda d: (d.pid, d.code, d.address, d.message),
                )
            ],
        }


#: one byte that is not zero
_NONZERO = re.compile(rb"[^\x00]")


class ImageLinter:
    """Lints one checkpoint against the kernel's registered binaries."""

    def __init__(self, kernel: Kernel, checkpoint: CheckpointImage):
        self.kernel = kernel
        self.checkpoint = checkpoint
        self.report = LintReport()

    # ------------------------------------------------------------------

    def run(self) -> LintReport:
        # a lint reports one CFG lookup per module the checkpoint maps;
        # the checks below read the per-image store without counting
        modules: set[str] = set()
        for image in self.checkpoint.processes:
            modules.update(self._module_bases(image))
        for module in sorted(modules):
            cached_cfg(self.kernel.binaries[module])
        for image in self.checkpoint.processes:
            self._lint_code_patches(image)
            self._lint_injected_vmas(image)
            self._lint_handler_got(image)
            self._lint_sigtrap(image)
            self._lint_store_hazards(image)
        self.report.diagnostics.sort(
            key=lambda d: (d.pid, d.code, d.address, d.message)
        )
        return self.report

    def _emit(
        self, code: str, pid: int, address: int, message: str,
        severity: str = "error",
    ) -> None:
        self.report.diagnostics.append(
            LintDiagnostic(code, pid, address, message, severity)
        )

    # ------------------------------------------------------------------
    # DL1xx: code-patch checks

    def _module_bases(self, image: ProcessImage) -> dict[str, int]:
        bases: dict[str, int] = {}
        for vma in image.mm.vmas:
            module = vma.file_path
            if not module or module not in self.kernel.binaries:
                continue
            candidate = vma.start - vma.file_offset
            if module not in bases or candidate < bases[module]:
                bases[module] = candidate
        return bases

    def _lint_code_patches(self, image: ProcessImage) -> None:
        for module, base in self._module_bases(image).items():
            binary = self.kernel.binaries[module]
            for seg in binary.segments:
                if seg.name not in EXEC_SECTIONS or not seg.data:
                    continue
                self._lint_segment(image, module, binary, base, seg)

    def _lint_segment(
        self, image: ProcessImage, module: str, binary: SelfImage,
        base: int, seg,
    ) -> None:
        """DL101–DL103 over one code segment, walking changed pages only.

        Each dumped page is compared with its pristine page by one
        ``bytes`` equality; only pages that differ are walked byte by
        byte, and DL101/DL102 look only around the patched bytes, so the
        cost scales with what the rewrite changed.
        """
        pristine = seg.data
        start = base + seg.vaddr
        # link-base-relative offsets of modified bytes, split by kind
        patched: list[int] = []
        foreign: set[int] = set()
        for address, dumped in image.dumped_chunks(start, len(pristine)):
            low = address - start
            before = pristine[low:low + len(dumped)]
            if dumped == before:
                continue
            # the changed bytes are the nonzero bytes of the XOR of the
            # two pages, found without a Python loop over the page
            delta = (
                int.from_bytes(dumped, "little")
                ^ int.from_bytes(before, "little")
            ).to_bytes(len(dumped), "little")
            for changed in _NONZERO.finditer(delta):
                index = changed.start()
                if dumped[index] == INT3_OPCODE:
                    patched.append(seg.vaddr + low + index)
                else:
                    foreign.add(seg.vaddr + low + index)

        if foreign:
            foreign -= self._reloc_bytes(binary, seg)
        for offset in sorted(foreign):
            if offset - 1 in foreign:
                continue        # one diagnostic per run
            self._emit(
                "DL103", image.pid, base + offset,
                f"{module}: executable bytes differ from the pristine "
                "binary and are not int3",
            )
        if not patched:
            return

        instructions = image_cfg(binary).instruction_maps[seg.vaddr]
        patched_set = set(patched)

        def in_run(offset: int) -> bool:
            # an int3 that was patched or that was already int3 before
            # the rewrite: a wipe over a pristine 0xCC (e.g. inside a
            # movi immediate) leaves no diff there, and must not split
            # the patch run in two
            if offset in patched_set:
                return True
            address = base + offset
            return (
                offset >= seg.vaddr
                and image.has_dumped(address)
                and image.read_memory(address, 1)[0] == INT3_OPCODE
            )

        torn: set[int] = set()
        for offset in patched:
            if not in_run(offset - 1) and not instructions.starts_at(offset):
                self._emit(
                    "DL101", image.pid, base + offset,
                    f"{module}: int3 patch does not start on an "
                    "instruction boundary",
                )
            torn.update(instructions.spanning(offset))
        for index in sorted(torn):
            first = instructions.starts[index]
            if first in patched_set:
                continue        # entry byte trapped: the block is guarded
            tail = next(
                o for o in range(first + 1, instructions.ends[index])
                if o in patched_set
            )
            self._emit(
                "DL102", image.pid, base + first,
                f"{module}: kept instruction at {base + first:#x} "
                f"decodes into wiped bytes at {base + tail:#x}",
            )

    def _reloc_bytes(self, binary: SelfImage, seg) -> set[int]:
        """Offsets load-time relocation may legitimately rewrite."""
        out: set[int] = set()
        seg_end = seg.vaddr + len(seg.data)
        for reloc in binary.dynamic_relocs:
            if seg.vaddr <= reloc.vaddr < seg_end:
                out.update(range(reloc.vaddr, reloc.vaddr + 8))
        return out

    # ------------------------------------------------------------------
    # DL2xx: injected-library VMA checks

    def _lint_injected_vmas(self, image: ProcessImage) -> None:
        from ..core.rewriter import handler_library

        library = handler_library(self.kernel)
        seg_perms = (
            {seg.name: seg.perms for seg in library.segments}
            if library is not None else {}
        )
        for vma in image.mm.vmas:
            if not vma.tag.startswith(INJECT_TAG_PREFIX):
                continue
            for other in image.mm.vmas:
                if other is vma:
                    continue
                if other.start < vma.end and vma.start < other.end:
                    self._emit(
                        "DL201", image.pid, vma.start,
                        f"injected VMA [{vma.start:#x}, {vma.end:#x}) "
                        f"overlaps [{other.start:#x}, {other.end:#x}) "
                        f"({other.tag or other.file_path or 'anon'})",
                    )
            seg_name = vma.tag[len(INJECT_TAG_PREFIX):]
            expected = seg_perms.get(seg_name)
            if expected is not None and vma.perms != expected:
                self._emit(
                    "DL202", image.pid, vma.start,
                    f"injected {seg_name!r} VMA has perms {vma.perms!r}, "
                    f"library segment wants {expected!r}",
                )
            undumped = self._first_undumped(image, vma)
            if undumped is not None:
                self._emit(
                    "DL203", image.pid, undumped,
                    f"injected {seg_name!r} VMA byte {undumped:#x} has no "
                    "dumped page backing it",
                )

    def _first_undumped(self, image: ProcessImage, vma: VmaEntry) -> int | None:
        from ..kernel.memory import PAGE_SIZE

        addr = vma.start
        while addr < vma.end:
            if not image.has_dumped(addr):
                return addr
            addr += PAGE_SIZE
        return None

    # ------------------------------------------------------------------
    # DL301: injected-library relocation words

    def _injected_base(self, image: ProcessImage, library: SelfImage) -> int | None:
        """Handler base from its text VMA (independent of sigactions)."""
        text_vaddr = next(
            (seg.vaddr for seg in library.segments if seg.name == "text"), None
        )
        if text_vaddr is None:
            return None
        for vma in image.mm.vmas:
            if vma.tag == f"{INJECT_TAG_PREFIX}text":
                return vma.start - text_vaddr
        return None

    def _lint_handler_got(self, image: ProcessImage) -> None:
        from ..core.rewriter import handler_library

        library = handler_library(self.kernel)
        if library is None:
            return
        base = self._injected_base(image, library)
        if base is None:
            return
        span = max(seg.end for seg in library.segments)
        for reloc in library.dynamic_relocs:
            site = base + reloc.vaddr
            if not image.has_dumped(site):
                continue
            word = int.from_bytes(image.read_memory(site, 8), "little")
            if reloc.type is DynRelocType.RELATIVE:
                inside = base <= word < base + span
            else:
                inside = image.mm.vma_at(word) is not None
            if not inside:
                what = reloc.symbol or "RELATIVE"
                self._emit(
                    "DL301", image.pid, site,
                    f"injected-library relocation word for {what} holds "
                    f"{word:#x}, which maps to nothing",
                )

    # ------------------------------------------------------------------
    # DL4xx: SIGTRAP sigaction

    def _lint_sigtrap(self, image: ProcessImage) -> None:
        sig = int(Signal.SIGTRAP)
        for action in image.core.sigactions:
            if action.signal != sig:
                continue
            if action.handler and not self._executable_at(image, action.handler):
                self._emit(
                    "DL401", image.pid, action.handler,
                    "SIGTRAP handler does not point at mapped executable "
                    "dumped bytes",
                )
            if action.restorer and not self._executable_at(
                image, action.restorer
            ):
                self._emit(
                    "DL402", image.pid, action.restorer,
                    "SIGTRAP restorer does not point at mapped executable "
                    "dumped bytes",
                )

    # ------------------------------------------------------------------
    # DL5xx: self-modifying-store hazards (DynaFlow)

    def _lint_store_hazards(self, image: ProcessImage) -> None:
        from .dataflow.valueset import analyze_image_flow

        for module, base in sorted(self._module_bases(image).items()):
            flow = analyze_image_flow(self.kernel.binaries[module])
            for hazard in flow.hazards:
                self._emit(
                    hazard.code, image.pid, base + hazard.address,
                    f"{module}: {hazard.mnemonic} — {hazard.detail}",
                    severity=hazard.severity,
                )

    def _executable_at(self, image: ProcessImage, address: int) -> bool:
        vma = image.mm.vma_at(address)
        if vma is None or not vma.executable:
            return False
        # injected/anonymous executable code must also be in the dump;
        # file-backed text is restored from the binary either way
        if vma.is_anon and not image.has_dumped(address):
            return False
        return True


def lint_checkpoint(kernel: Kernel, checkpoint: CheckpointImage) -> LintReport:
    """Run every DynaLint image check over ``checkpoint``."""
    return ImageLinter(kernel, checkpoint).run()
