"""Decode-cache invalidation: patched code takes effect on its next run.

Each test runs a counted loop placed by hand in its own executable
mapping until the decode cache is warm, changes code bytes or
permissions underneath it, and checks what the CPU does on the next
pass: decode again where the change can matter, keep its cached
decodes everywhere else.
"""

from __future__ import annotations

import pytest

from repro.isa import INT3_OPCODE, SPEC_BY_MNEMONIC, encode_fields
from repro.kernel import Kernel, PAGE_SIZE, Signal

from .helpers import build_asm

CODE = 0x5000_0000
OLD_IMM = 0x1111_1111_1111_1111
#: same two low bytes: patching only the second page of the straddling
#: movi below turns OLD_IMM into NEW_IMM
NEW_IMM = 0x2222_2222_2222_1111
#: instructions per loop pass: addi, movi, cmpi, jl
PASS = 4
WARM_PASSES = 10


def _encode(*instructions: tuple) -> bytes:
    return b"".join(
        encode_fields(SPEC_BY_MNEMONIC[mnemonic], operands)
        for mnemonic, *operands in instructions
    )


def _loop(site_offset: int) -> tuple[bytes, int]:
    """A 1000-pass counted loop whose ``movi r2`` sits at ``site_offset``
    from the start of the code; returns its bytes and the loop head's
    offset.

    loop: addi r1, 1 ; site: movi r2, OLD_IMM ; cmpi r1, 1000 ; jl loop
    then exit(0).
    """
    head = _encode(("addi", 1, 1))
    body = _encode(("movi", 2, OLD_IMM), ("cmpi", 1, 1000))
    back = -(len(head) + len(body) + len(_encode(("jl", 0))))
    tail = _encode(("jl", back), ("movi", 0, 1), ("movi", 1, 0), ("syscall",))
    loop_offset = site_offset - len(head)
    code = bytes(loop_offset) + head + body + tail
    return code, loop_offset


@pytest.fixture()
def kernel():
    kernel = Kernel()
    kernel.register_binary(
        build_asm(".global _start\n_start:\n    jmp _start\n", "host")
    )
    return kernel


def _start(kernel: Kernel, site_offset: int, pages: int = 1):
    """Map the loop at ``CODE`` (``r-x``), point a process at it and run
    it until every instruction of the loop is cached."""
    code, loop_offset = _loop(site_offset)
    proc = kernel.spawn("host")
    proc.memory.mmap(CODE, pages * PAGE_SIZE, "r-x")
    proc.memory.write_raw(CODE, code)
    proc.regs.rip = CODE + loop_offset
    proc.regs.gpr[1] = 0                     # the loop counter
    assert kernel.cpu.run_quantum(proc, WARM_PASSES * PASS) == WARM_PASSES * PASS
    assert proc.regs.rip == CODE + loop_offset
    site = CODE + site_offset
    assert site in proc.memory.decode_cache
    return proc, site


def _count_decodes(kernel: Kernel, monkeypatch) -> list[int]:
    """Count CPU.step calls: inside a quantum each one is a decode miss."""
    misses = [0]
    step = kernel.cpu.step

    def counting(proc):
        misses[0] += 1
        step(proc)

    monkeypatch.setattr(kernel.cpu, "step", counting)
    return misses


class TestPatchTakesEffect:
    def test_int3_in_hot_loop_traps_on_next_pass(self, kernel):
        proc, site = _start(kernel, site_offset=0x100)
        proc.memory.write_raw(site, bytes([INT3_OPCODE]))
        assert site not in proc.memory.decode_cache
        kernel.run(until=lambda: not proc.alive)
        assert proc.term_signal is Signal.SIGTRAP
        assert proc.regs.rip == site + 1          # int3 reports past itself
        assert proc.regs.gpr[1] == WARM_PASSES + 1  # trapped on the next pass

    def test_patching_second_page_of_straddling_instruction(self, kernel):
        # movi is 10 bytes: 4 on the first page, 6 on the second
        proc, site = _start(kernel, site_offset=PAGE_SIZE - 4, pages=2)
        loop_head = site - 6
        cache = proc.memory.decode_cache
        assert proc.regs.gpr[2] == OLD_IMM
        second_page = CODE + PAGE_SIZE
        proc.memory.write_raw(second_page, NEW_IMM.to_bytes(8, "little")[2:])
        assert site not in cache
        # the loop head's fetch ends at the page boundary: it stays cached
        assert loop_head in cache
        kernel.cpu.run_quantum(proc, PASS)
        assert proc.regs.gpr[2] == NEW_IMM

    def test_straddling_instruction_faults_once_second_page_loses_x(self, kernel):
        proc, site = _start(kernel, site_offset=PAGE_SIZE - 4, pages=2)
        proc.memory.mprotect(CODE + PAGE_SIZE, PAGE_SIZE, "r--")
        assert site not in proc.memory.decode_cache
        kernel.run(until=lambda: not proc.alive)
        assert proc.term_signal is Signal.SIGSEGV
        assert proc.regs.rip == site


class TestPreciseEviction:
    def test_store_to_other_exec_page_keeps_cached_decodes(self, kernel, monkeypatch):
        proc, __ = _start(kernel, site_offset=0x100)
        memory = proc.memory
        other = CODE + 4 * PAGE_SIZE
        memory.mmap(other, PAGE_SIZE, "rwx")
        cached = dict(memory.decode_cache)
        epoch = memory.code_epoch
        memory.write(other, bytes([INT3_OPCODE]) * 8)
        assert memory.code_epoch > epoch
        assert memory.decode_cache.keys() == cached.keys()
        assert all(memory.decode_cache[rip] is cached[rip] for rip in cached)
        misses = _count_decodes(kernel, monkeypatch)
        kernel.cpu.run_quantum(proc, PASS)
        assert misses[0] == 0

    def test_mprotect_keeping_x_evicts_nothing(self, kernel, monkeypatch):
        proc, __ = _start(kernel, site_offset=0x100)
        memory = proc.memory
        cached = dict(memory.decode_cache)
        epoch = memory.code_epoch
        memory.mprotect(CODE, PAGE_SIZE, "rwx")
        assert memory.code_epoch == epoch
        assert memory.decode_cache == cached
        misses = _count_decodes(kernel, monkeypatch)
        kernel.run(until=lambda: not proc.alive)
        assert proc.term_signal is None and proc.exit_code == 0
        assert misses[0] == 3      # only the exit sequence was never decoded


class TestFetchReadsExactlyTheInstruction:
    """A decode reads its instruction's bytes and nothing past them."""

    def _spawn_at(self, kernel: Kernel, start: int, code: bytes, after=None):
        """Map one ``r-x`` page at ``CODE`` and write ``code`` at
        ``start``; the next page is mapped with ``after`` perms, or not
        at all.  Bytes of ``code`` past a missing page are dropped."""
        proc = kernel.spawn("host")
        proc.memory.mmap(CODE, PAGE_SIZE, "r-x")
        if after is not None:
            proc.memory.mmap(CODE + PAGE_SIZE, PAGE_SIZE, after)
            proc.memory.write_raw(start, code)
        else:
            proc.memory.write_raw(start, code[:CODE + PAGE_SIZE - start])
        proc.regs.rip = start
        return proc

    def _first_signal(self, kernel: Kernel, proc) -> tuple[Signal, int]:
        kernel.cpu.step(proc)
        pending = proc.pending_signals[0]
        return pending.signal, pending.fault_address

    @pytest.mark.parametrize("after", [None, "rw-"])
    def test_instruction_ending_at_mapping_end_runs(self, kernel, after):
        exit7 = _encode(("movi", 0, 1), ("movi", 1, 7), ("syscall",))
        proc = self._spawn_at(kernel, CODE + PAGE_SIZE - len(exit7), exit7, after)
        kernel.run(until=lambda: not proc.alive)
        assert proc.term_signal is None
        assert proc.exit_code == 7

    @pytest.mark.parametrize("after", [None, "rw-"])
    def test_tail_on_non_executable_page_faults_at_that_page(self, kernel, after):
        # movi is 10 bytes: 4 on the executable page, 6 past it
        site = CODE + PAGE_SIZE - 4
        proc = self._spawn_at(kernel, site, _encode(("movi", 2, OLD_IMM)), after)
        assert self._first_signal(kernel, proc) == (Signal.SIGSEGV, CODE + PAGE_SIZE)
        assert proc.regs.rip == site
        assert site not in proc.memory.decode_cache

    def test_unknown_opcode_in_last_byte_is_sigill_at_rip(self, kernel):
        site = CODE + PAGE_SIZE - 1
        proc = self._spawn_at(kernel, site, b"\xff")
        assert self._first_signal(kernel, proc) == (Signal.SIGILL, site)
        kernel.run(until=lambda: not proc.alive)
        assert proc.term_signal is Signal.SIGILL

    def test_opcode_on_non_executable_page_is_sigsegv_at_rip(self, kernel):
        site = CODE + PAGE_SIZE + 8
        proc = self._spawn_at(kernel, site, b"\x90", after="rw-")
        assert self._first_signal(kernel, proc) == (Signal.SIGSEGV, site)
