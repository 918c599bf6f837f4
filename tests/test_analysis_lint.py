"""Mutation tests for the DynaLint image linter.

Each test builds a *legitimately* rewritten checkpoint (entry-int3
blocking plus a verify-policy trap handler — the quickstart shape),
asserts it lints clean, seeds one deliberate corruption, and asserts
the linter reports exactly the expected diagnostic code(s).

The linter compares dumped code pages with pristine ones page by page
and looks only around patched bytes.  :class:`ReferenceLinter` keeps
the byte-by-byte walk it replaced; every lint in this module, and the
lint of real DynaCut rewrites below, must report exactly what the
reference reports.
"""

from __future__ import annotations

import pytest

from repro.analysis import build_cfg
from repro.analysis.lint import ImageLinter, lint_checkpoint
from repro.apps import REDIS_PORT, redis_image, stage_redis
from repro.apps.kvstore import READY_LINE, REDIS_BINARY
from repro.core import BlockMode, DynaCut, TrapPolicy, init_only_blocks
from repro.core.rewriter import ImageRewriter
from repro.core.sighandler import POLICY_VERIFY, build_handler_library
from repro.criu.checkpoint import checkpoint_tree
from repro.criu.images import CheckpointImage, ImageError, VmaEntry
from repro.fleet import get_app
from repro.fleet.apps import profile_feature
from repro.isa.disassembler import disassemble_range
from repro.isa.instructions import INT3_OPCODE
from repro.kernel import Kernel
from repro.kernel.memory import PAGE_SIZE
from repro.kernel.signals import Signal
from repro.tracing import BlockRecord, BlockTracer
from repro.workloads import RedisClient


class ReferenceLinter(ImageLinter):
    """DL101–DL103 by walking every byte of every code segment."""

    def _lint_segment(self, image, module, binary, base, seg) -> None:
        pristine = seg.data
        current = self._read_dumped(image, base + seg.vaddr, len(pristine))
        patched: set[int] = set()
        foreign: set[int] = set()
        cc_same: set[int] = set()
        for index, byte in enumerate(current):
            if byte is None:
                continue
            offset = seg.vaddr + index
            if byte == pristine[index]:
                if byte == INT3_OPCODE:
                    cc_same.add(offset)
                continue
            if byte == INT3_OPCODE:
                patched.add(offset)
            else:
                foreign.add(offset)

        reloc_bytes = self._reloc_bytes(binary, seg)
        for offset in sorted(foreign - reloc_bytes):
            if offset - 1 in foreign - reloc_bytes:
                continue
            self._emit(
                "DL103", image.pid, base + offset,
                f"{module}: executable bytes differ from the pristine "
                "binary and are not int3",
            )
        if not patched:
            return

        starts, extents = self._instruction_map(build_cfg(binary), seg)
        run_member = patched | cc_same
        for offset in sorted(patched):
            if offset - 1 in run_member:
                continue
            if offset not in starts:
                self._emit(
                    "DL101", image.pid, base + offset,
                    f"{module}: int3 patch does not start on an "
                    "instruction boundary",
                )
        for start, end in extents:
            if start in patched:
                continue
            tail = [o for o in range(start + 1, end) if o in patched]
            if tail:
                self._emit(
                    "DL102", image.pid, base + start,
                    f"{module}: kept instruction at {base + start:#x} "
                    f"decodes into wiped bytes at {base + tail[0]:#x}",
                )

    @staticmethod
    def _read_dumped(image, address, size):
        try:
            return list(image.read_memory(address, size))
        except ImageError:
            return [
                image.read_memory(address + index, 1)[0]
                if image.has_dumped(address + index) else None
                for index in range(size)
            ]

    @staticmethod
    def _instruction_map(cfg, seg):
        starts: set[int] = set()
        extents: list[tuple[int, int]] = []
        seg_end = seg.vaddr + len(seg.data)
        for block in cfg.blocks:
            if not (seg.vaddr <= block.start < seg_end):
                continue
            decoded, __ = disassemble_range(
                seg.data, block.start, min(block.end, seg_end), base=seg.vaddr
            )
            for insn in decoded:
                starts.add(insn.address)
                extents.append((insn.address, insn.end))
        return starts, extents


def lint_as_reference(kernel, checkpoint):
    """Lint ``checkpoint``, asserting the reference walk agrees."""
    report = lint_checkpoint(kernel, checkpoint)
    reference = ReferenceLinter(kernel, checkpoint).run()
    assert report.to_dict() == reference.to_dict()
    return report


class Scenario:
    """A rewritten-but-not-restored checkpoint plus handles to poke it."""

    def __init__(self):
        self.kernel = Kernel()
        proc = stage_redis(self.kernel)
        self.binary = redis_image()
        self.cfg = build_cfg(self.binary)
        self.text = next(s for s in self.binary.segments if s.name == "text")
        self.checkpoint = checkpoint_tree(
            self.kernel, proc.pid, image_dir=None, dump_exec_pages=True
        )
        self.rewriter = ImageRewriter(self.kernel, self.checkpoint)
        self.image = self.checkpoint.root()
        self.base = self.rewriter.module_base(self.image, self.binary.name)

        self.blocked = self._function_blocks(0)
        self.rewriter.block_entry_int3(self.binary.name, self.blocked)
        orig = [
            (self.base + b.offset, self.binary.read_bytes(b.offset, 1)[0])
            for b in self.blocked
        ]
        self.rewriter.install_trap_handler(POLICY_VERIFY, orig_entries=orig)

    def _function_blocks(self, index: int) -> list[BlockRecord]:
        """Blocks of the ``index``-th function with >= 2 decent blocks."""
        funcs = sorted(
            sym.vaddr for sym in self.binary.functions().values()
        ) + [self.text.vaddr + len(self.text.data)]
        found = 0
        for start, end in zip(funcs, funcs[1:]):
            blocks = [
                BlockRecord(self.binary.name, b.start, b.size)
                for b in self.cfg.blocks
                if start <= b.start < end
            ]
            if len(blocks) >= 2 and all(b.size >= 2 for b in blocks):
                if found == index:
                    return blocks
                found += 1
        raise AssertionError("fixture binary has too few suitable functions")

    # ------------------------------------------------------------------

    def lint(self):
        return lint_as_reference(self.kernel, self.checkpoint)

    def injected_vma(self, segname: str) -> VmaEntry:
        tag = f"dynacut:{segname}"
        return next(v for v in self.image.mm.vmas if v.tag == tag)

    def padding_offset(self) -> int:
        """A text byte outside every recovered block (inter-function pad)."""
        covered = set()
        for block in self.cfg.blocks:
            covered.update(range(block.start, block.end))
        text_end = self.text.vaddr + len(self.text.data)
        for offset in range(self.text.vaddr, text_end):
            inside = offset - self.text.vaddr
            if offset not in covered and self.text.data[inside] != 0xCC:
                return offset
        raise AssertionError("no padding byte found")

    def multi_insn_block(self) -> tuple[BlockRecord, int]:
        """(block, first-instruction size) from an untouched function."""
        blocked_starts = {b.offset for b in self.blocked}
        for block in self.cfg.blocks:
            if block.start in blocked_starts:
                continue
            decoded, __ = disassemble_range(
                self.text.data, block.start, block.end, base=self.text.vaddr
            )
            if len(decoded) >= 2 and decoded[0].end - decoded[0].address >= 2:
                record = BlockRecord(
                    self.binary.name, block.start, block.size
                )
                return record, decoded[0].end - decoded[0].address
        raise AssertionError("no multi-instruction block found")

    def block_with_inner_int3(self) -> BlockRecord:
        """A text block with a 0xCC byte inside one of its instructions."""
        data, vaddr = self.text.data, self.text.vaddr
        for block in self.cfg.blocks:
            if not vaddr <= block.start < vaddr + len(data):
                continue
            decoded, __ = disassemble_range(data, block.start, block.end, base=vaddr)
            for insn in decoded:
                inner = data[insn.address + 1 - vaddr:insn.end - 1 - vaddr]
                if INT3_OPCODE in inner:
                    return BlockRecord(self.binary.name, block.start, block.size)
        raise AssertionError("no block holds a 0xCC byte inside an instruction")

    def reloc_free_offset(self) -> int:
        """Start of a kept instruction not under a dynamic relocation."""
        reloc = set()
        for r in self.binary.dynamic_relocs:
            reloc.update(range(r.vaddr, r.vaddr + 8))
        blocked_starts = {b.offset for b in self.blocked}
        for block in self.cfg.blocks:
            if block.start in blocked_starts:
                continue
            if all(o not in reloc for o in range(block.start, block.start + 1)):
                return block.start
        raise AssertionError("no reloc-free byte found")

    def sigtrap_action(self):
        sig = int(Signal.SIGTRAP)
        return next(a for a in self.image.core.sigactions if a.signal == sig)


@pytest.fixture()
def scenario():
    scenario = Scenario()
    assert scenario.lint().ok, scenario.lint().summary()
    return scenario


class TestCleanImages:
    def test_entry_int3_plus_verify_is_clean(self, scenario):
        report = scenario.lint()
        assert report.ok
        assert report.codes == set()

    def test_full_wipe_is_clean(self, scenario):
        scenario.rewriter.wipe_blocks(scenario.binary.name, scenario.blocked)
        assert scenario.lint().ok

    def test_wipe_over_pristine_int3_byte_is_clean(self, scenario):
        # the wipe leaves the pristine 0xCC unchanged: it must not split
        # the patch run into a second run starting mid-instruction
        block = scenario.block_with_inner_int3()
        scenario.rewriter.wipe_blocks(scenario.binary.name, [block])
        assert scenario.lint().ok

    def test_rerandomized_libc_is_clean(self, scenario):
        scenario.rewriter.rerandomize_library("libc.so")
        report = scenario.lint()
        assert report.ok, report.summary()

    def test_restore_blocks_is_clean(self, scenario):
        scenario.rewriter.restore_blocks(scenario.binary.name, scenario.blocked)
        assert scenario.lint().ok


class TestCodePatchMutations:
    def test_dl101_mid_instruction_patch(self, scenario):
        pad = scenario.padding_offset()
        scenario.image.write_memory(scenario.base + pad, b"\xcc")
        report = scenario.lint()
        assert report.codes == {"DL101"}
        assert report.by_code("DL101")[0].address == scenario.base + pad

    def test_dl102_kept_instruction_decodes_into_wiped_bytes(self, scenario):
        block, first_size = scenario.multi_insn_block()
        scenario.rewriter.wipe_blocks(scenario.binary.name, [block])
        # un-wipe the first byte: the kept first instruction now decodes
        # straight into int3 bytes (its tail is still wiped)
        pristine = scenario.binary.read_bytes(block.offset, 1)
        scenario.image.write_memory(scenario.base + block.offset, pristine)
        report = scenario.lint()
        # the torn wipe is doubly wrong: the surviving patch run starts
        # mid-instruction (DL101) and the kept instruction is torn (DL102)
        assert report.codes == {"DL101", "DL102"}
        assert report.by_code("DL102")[0].address == scenario.base + block.offset

    def test_dl103_foreign_byte_in_text(self, scenario):
        offset = scenario.reloc_free_offset()
        pristine = scenario.binary.read_bytes(offset, 1)[0]
        foreign = next(
            b for b in (0x90, 0x91) if b not in (pristine, 0xCC)
        )
        scenario.image.write_memory(scenario.base + offset, bytes([foreign]))
        report = scenario.lint()
        assert report.codes == {"DL103"}
        assert report.by_code("DL103")[0].address == scenario.base + offset


class TestVmaMutations:
    def test_dl201_overlapping_injected_vma(self, scenario):
        text_vma = next(
            v for v in scenario.image.mm.vmas
            if v.file_path == scenario.binary.name and v.executable
        )
        evil = VmaEntry(
            text_vma.start, text_vma.start + PAGE_SIZE, "r-x",
            tag="dynacut:evil",
        )
        scenario.image.mm.vmas.append(evil)
        report = scenario.lint()
        assert report.codes == {"DL201"}
        assert report.by_code("DL201")[0].address == evil.start

    def test_dl202_wrong_injected_perms(self, scenario):
        data_vma = scenario.injected_vma("data")
        data_vma.perms = "r-x"
        report = scenario.lint()
        assert report.codes == {"DL202"}

    def test_dl203_injected_page_not_dumped(self, scenario):
        data_vma = scenario.injected_vma("data")
        dropped = scenario.image.drop_range(
            data_vma.start, data_vma.start + PAGE_SIZE
        )
        assert dropped >= 1
        report = scenario.lint()
        assert report.codes == {"DL203"}
        assert report.by_code("DL203")[0].address == data_vma.start


class TestHandlerMutations:
    def test_dl301_corrupt_got_word(self, scenario):
        library = build_handler_library(
            scenario.kernel.binaries["libc.so"]
        )
        text_vaddr = next(
            s.vaddr for s in library.segments if s.name == "text"
        )
        handler_base = scenario.injected_vma("text").start - text_vaddr
        reloc = next(
            r for r in library.dynamic_relocs if r.symbol
        )
        site = handler_base + reloc.vaddr
        scenario.image.write_memory(
            site, (0x7777_0000_0000).to_bytes(8, "little")
        )
        report = scenario.lint()
        assert report.codes == {"DL301"}
        assert report.by_code("DL301")[0].address == site

    def test_dl401_handler_not_executable(self, scenario):
        action = scenario.sigtrap_action()
        action.handler = scenario.injected_vma("data").start
        report = scenario.lint()
        assert report.codes == {"DL401"}

    def test_dl402_restorer_not_executable(self, scenario):
        action = scenario.sigtrap_action()
        action.restorer = scenario.injected_vma("data").start + 8
        report = scenario.lint()
        assert report.codes == {"DL402"}

    def test_dl401_handler_unmapped(self, scenario):
        action = scenario.sigtrap_action()
        action.handler = 0x7777_0000_0000
        report = scenario.lint()
        assert report.codes == {"DL401"}


class TestPagewiseLintMatchesReference:
    """Real rewrites: DynaCut's own disables and an init-code wipe."""

    @pytest.fixture(scope="class")
    def staged(self):
        feature = profile_feature(get_app("redis"), "SET")
        kernel = Kernel()
        proc = stage_redis(kernel)
        return kernel, proc, feature

    @pytest.mark.parametrize("mode", list(BlockMode))
    @pytest.mark.parametrize(
        "refine, prove", [(False, False), (True, False), (True, True)]
    )
    def test_feature_disable(self, staged, mode, refine, prove):
        kernel, proc, feature = staged
        dynacut = DynaCut(kernel)
        dynacut.disable_feature(
            proc.pid, feature, policy=TrapPolicy.VERIFY, mode=mode,
            refine=refine, prove=prove,
        )
        rewritten = CheckpointImage.load(kernel.fs, dynacut.image_dir)
        report = lint_as_reference(kernel, rewritten)
        assert report.ok, report.summary()
        dynacut.enable_feature(proc.pid, feature)

    def test_init_code_wipe(self):
        kernel = Kernel()
        proc = stage_redis(kernel, run_to_ready=False)
        tracer = BlockTracer(kernel, proc).attach()
        kernel.run_until(lambda: READY_LINE in proc.stdout_text(),
                         max_instructions=5_000_000)
        init_trace = tracer.nudge_dump()
        client = RedisClient(kernel, REDIS_PORT)
        for command in ("PING", "SET a 1", "GET a", "DEL a", "DBSIZE"):
            client.command(command)
        serving = tracer.finish()
        init = init_only_blocks(init_trace, serving, REDIS_BINARY)
        dynacut = DynaCut(kernel, lint_mode="always")
        report = dynacut.remove_init_code(
            proc.pid, REDIS_BINARY, list(init.init_only), wipe=True
        )
        rewritten = CheckpointImage.load(kernel.fs, dynacut.image_dir)
        assert lint_as_reference(kernel, rewritten).to_dict() == (
            report.lint.to_dict()
        )
        assert client.get("a") is None
