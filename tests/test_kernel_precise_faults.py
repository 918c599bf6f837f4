"""Memory faults are precise: a SIGSEGV handler sees the state before
the faulting instruction.

Each case runs a faulting ``ld64``, ``st64``, ``push``, ``pop``,
``call`` or ``ret`` twice: once on its first execution (a single step
that decodes it) and once as the last pass of a hot loop, where the
faulting instruction runs inside a translated block.  The handler copies
the sigframe's saved ``rip``, ``sp`` and ``r2`` into ``r4``..``r6`` and
exits, so the test reads them from the dead process's registers.
"""

from __future__ import annotations

import pytest

from repro.isa import SPEC_BY_MNEMONIC, encode_fields
from repro.kernel import Kernel, PAGE_SIZE, Signal
from repro.kernel.signals import FRAME_REGS, FRAME_RIP, SigAction
from repro.kernel.syscalls import Sys

from .helpers import build_asm

CODE = 0x5000_0000
HANDLER = CODE + 0x800
#: a read-only page under a read-write one; the page above is unmapped.
#: Pushes walk down into the read-only page and fault there, pops walk
#: up into the unmapped page; either way the sigframe lands in a mapped
#: page below ``sp`` (the kernel writes it without permission checks).
STACK_TOP = 0x6000_0000
STACK_RW = STACK_TOP - PAGE_SIZE
STACK_RO = STACK_TOP - 2 * PAGE_SIZE
#: one read-write page; the page after it is unmapped
DATA = 0x7000_0000


def _encode(*instructions: tuple) -> bytes:
    return b"".join(
        encode_fields(SPEC_BY_MNEMONIC[mnemonic], operands)
        for mnemonic, *operands in instructions
    )


def _length(mnemonic: str) -> int:
    return SPEC_BY_MNEMONIC[mnemonic].length


_JMP = _length("jmp")

#: name -> (code at CODE, offset of the faulting instruction, r2 and sp
#: before the code runs, r2 and sp the handler must see).  A loop's
#: faulting instruction starts it, so its offset is 0.
CASES = {
    "ld64 once": (
        _encode(("movi", 2, 0x10), ("ld64", 1, 2, 0)),
        _length("movi"), 0, STACK_TOP, 0x10, STACK_TOP,
    ),
    "st64 once": (
        _encode(("movi", 2, 0x10), ("st64", 2, 1, 0)),
        _length("movi"), 0, STACK_TOP, 0x10, STACK_TOP,
    ),
    "push once": (
        _encode(("movi", 15, DATA + PAGE_SIZE + 8), ("push", 1)),
        _length("movi"), 0, STACK_TOP, 0, DATA + PAGE_SIZE + 8,
    ),
    "call once": (
        _encode(("movi", 15, DATA + PAGE_SIZE + 8), ("call", -_length("call"))),
        _length("movi"), 0, STACK_TOP, 0, DATA + PAGE_SIZE + 8,
    ),
    "ld64 hot": (
        _encode(("ld64", 1, 2, 0), ("addi", 2, 8),
                ("jmp", -(_length("ld64") + _length("addi") + _JMP))),
        0, DATA, STACK_TOP, DATA + PAGE_SIZE, STACK_TOP,
    ),
    "st64 hot": (
        _encode(("st64", 2, 1, 0), ("addi", 2, 8),
                ("jmp", -(_length("st64") + _length("addi") + _JMP))),
        0, DATA, STACK_TOP, DATA + PAGE_SIZE, STACK_TOP,
    ),
    "push hot": (
        _encode(("push", 1), ("jmp", -(_length("push") + _JMP))),
        0, 0, STACK_TOP, 0, STACK_RW,
    ),
    "pop hot": (
        _encode(("pop", 1), ("jmp", -(_length("pop") + _JMP))),
        0, 0, STACK_RW, 0, STACK_TOP,
    ),
    "call hot": (
        _encode(("call", -_length("call"))),
        0, 0, STACK_TOP, 0, STACK_RW,
    ),
    # the stack holds the ret's own address: each ret returns to itself
    "ret hot": (
        _encode(("ret",)),
        0, 0, STACK_RW, 0, STACK_TOP,
    ),
}

_HANDLER_CODE = _encode(
    ("ld64", 4, 2, FRAME_RIP),
    ("ld64", 5, 2, FRAME_REGS + 8 * 15),
    ("ld64", 6, 2, FRAME_REGS + 8 * 2),
    ("movi", 0, int(Sys.EXIT)),
    ("movi", 1, 0),
    ("syscall",),
)


@pytest.fixture()
def kernel():
    kernel = Kernel()
    kernel.register_binary(
        build_asm(".global _start\n_start:\n    jmp _start\n", "host")
    )
    return kernel


@pytest.mark.parametrize("name", CASES)
def test_handler_sees_state_before_faulting_instruction(kernel, name):
    code, fault_offset, r2, sp, saw_r2, saw_sp = CASES[name]
    proc = kernel.spawn("host")
    memory = proc.memory
    memory.mmap(CODE, PAGE_SIZE, "r-x")
    memory.write_raw(CODE, code)
    memory.write_raw(HANDLER, _HANDLER_CODE)
    memory.mmap(STACK_RO, PAGE_SIZE, "r--")
    memory.mmap(STACK_RW, PAGE_SIZE, "rw-")
    memory.write_raw(STACK_RW, CODE.to_bytes(8, "little") * (PAGE_SIZE // 8))
    memory.mmap(DATA, PAGE_SIZE, "rw-")
    proc.sigactions[Signal.SIGSEGV] = SigAction(handler=HANDLER, restorer=HANDLER)
    proc.regs.rip = CODE
    proc.regs.gpr[2] = r2
    proc.regs.gpr[15] = sp
    kernel.run(until=lambda: not proc.alive)
    assert proc.term_signal is None and proc.exit_code == 0
    saved_rip, saved_sp, saved_r2 = proc.regs.gpr[4:7]
    assert saved_rip == CODE + fault_offset
    assert saved_sp == saw_sp
    assert saved_r2 == saw_r2
