"""VM64 instruction set definition.

VM64 is the guest ISA of this reproduction.  It is a 64-bit,
variable-length-encoded register machine designed to mirror the x86-64
properties DynaCut depends on:

* ``INT3`` is the single byte ``0xCC``, so "replace the first byte of a
  basic block with int3" is expressible byte-for-byte.
* Instructions have different lengths, so jumping into the middle of a
  basic block decodes different (possibly invalid) instructions — the
  property that makes wiping whole blocks (not just their first byte)
  meaningful against code-reuse attacks.
* PC-relative addressing (``LEA``) exists, so shared objects are
  position independent and an injected signal-handler library can run
  at any base address.

Sixteen general registers ``r0..r15``.  ``r15`` is the stack pointer
(``sp``), ``r14`` the frame pointer (``fp``), ``r11`` is reserved as the
PLT scratch register.  The calling convention passes arguments in
``r1..r6`` and returns in ``r0``; ``r7..r10`` are callee-saved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


NUM_REGISTERS = 16

#: Conventional register aliases accepted by the assembler.
REGISTER_ALIASES = {
    "sp": 15,
    "fp": 14,
}


class Operand(Enum):
    """Kinds of instruction operand fields."""

    REG = "reg"        # one byte, register index 0..15
    IMM64 = "imm64"    # 64-bit little-endian immediate
    IMM32 = "imm32"    # 32-bit little-endian signed immediate
    REL32 = "rel32"    # 32-bit signed offset, relative to the end of the field

    @property
    def size(self) -> int:
        """Encoded width in bytes."""
        return _OPERAND_SIZES[self]


_OPERAND_SIZES = {
    Operand.REG: 1,
    Operand.IMM64: 8,
    Operand.IMM32: 4,
    Operand.REL32: 4,
}


@dataclass(frozen=True)
class InstructionSpec:
    """Static description of one VM64 instruction."""

    mnemonic: str
    opcode: int
    operands: tuple[Operand, ...]
    #: total encoded length in bytes, including the opcode byte
    length: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "length", 1 + sum(op.size for op in self.operands)
        )


def _spec(mnemonic: str, opcode: int, *operands: Operand) -> InstructionSpec:
    return InstructionSpec(mnemonic, opcode, tuple(operands))


R, I64, I32, REL = Operand.REG, Operand.IMM64, Operand.IMM32, Operand.REL32

#: Every VM64 instruction, in opcode order.
INSTRUCTION_SPECS: tuple[InstructionSpec, ...] = (
    _spec("hlt", 0x00),
    _spec("movi", 0x01, R, I64),          # rd <- imm64
    _spec("mov", 0x02, R, R),             # rd <- rs
    _spec("ld8", 0x03, R, R, I32),        # rd <- zero-extended byte [rs+imm]
    _spec("ld64", 0x04, R, R, I32),       # rd <- qword [rs+imm]
    _spec("st8", 0x05, R, R, I32),        # byte [rd+imm] <- low byte of rs
    _spec("st64", 0x06, R, R, I32),       # qword [rd+imm] <- rs
    _spec("lea", 0x07, R, REL),           # rd <- address of next instr + rel
    _spec("add", 0x08, R, R),
    _spec("sub", 0x09, R, R),
    _spec("mul", 0x0A, R, R),
    _spec("div", 0x0B, R, R),             # rd <- rd / rs, signed (divide); rs 0 raises #DE
    _spec("mod", 0x0C, R, R),             # rd <- rd % rs, signed (divide); rs 0 raises #DE
    _spec("and", 0x0D, R, R),
    _spec("or", 0x0E, R, R),
    _spec("xor", 0x0F, R, R),
    _spec("shl", 0x10, R, R),
    _spec("shr", 0x11, R, R),             # logical right shift
    _spec("addi", 0x12, R, I32),
    _spec("subi", 0x13, R, I32),
    _spec("muli", 0x14, R, I32),
    _spec("andi", 0x15, R, I32),
    _spec("ori", 0x16, R, I32),
    _spec("xori", 0x17, R, I32),
    _spec("shli", 0x18, R, I32),
    _spec("shri", 0x19, R, I32),
    _spec("neg", 0x1A, R),
    _spec("not", 0x1B, R),
    _spec("cmp", 0x20, R, R),             # set ZF/LT from signed rs1 - rs2
    _spec("cmpi", 0x21, R, I32),
    _spec("jmp", 0x30, REL),
    _spec("je", 0x31, REL),
    _spec("jne", 0x32, REL),
    _spec("jl", 0x33, REL),
    _spec("jle", 0x34, REL),
    _spec("jg", 0x35, REL),
    _spec("jge", 0x36, REL),
    _spec("jmpr", 0x37, R),               # indirect jump
    _spec("call", 0x40, REL),             # push return address, jump
    _spec("callr", 0x41, R),              # indirect call
    _spec("ret", 0x42),
    _spec("push", 0x50, R),
    _spec("pop", 0x51, R),
    _spec("syscall", 0x60),               # number in r0, args in r1..r6
    _spec("nop", 0x90),
    _spec("int3", 0xCC),                  # one-byte breakpoint, raises SIGTRAP
)

#: Lookup tables.
SPEC_BY_OPCODE: dict[int, InstructionSpec] = {s.opcode: s for s in INSTRUCTION_SPECS}
SPEC_BY_MNEMONIC: dict[str, InstructionSpec] = {s.mnemonic: s for s in INSTRUCTION_SPECS}

#: Opcode of the one-byte breakpoint instruction (mirrors x86 int3).
INT3_OPCODE = 0xCC

#: Mnemonics that end a basic block (any control transfer or halt).
BLOCK_TERMINATORS = frozenset(
    {"jmp", "je", "jne", "jl", "jle", "jg", "jge", "jmpr", "call", "callr",
     "ret", "hlt", "int3"}
)

#: Conditional branches: fall-through successor exists.
CONDITIONAL_BRANCHES = frozenset({"je", "jne", "jl", "jle", "jg", "jge"})

#: Direct branches carrying a REL32 target.
DIRECT_BRANCHES = frozenset({"jmp", "je", "jne", "jl", "jle", "jg", "jge", "call"})

_MASK64 = (1 << 64) - 1


def divide(dividend: int, divisor: int) -> tuple[int, int]:
    """The results of ``div`` and ``mod`` on two register values.

    Both operands are 64-bit two's-complement integers, held as register
    values in ``[0, 2**64)``; ``divisor`` is nonzero (on the CPU a zero
    divisor raises ``SIGFPE`` instead).  The quotient is exact and truncates
    toward zero, and the remainder ``dividend - quotient * divisor``
    takes the dividend's sign, as in C.  Returns ``(quotient,
    remainder)`` as register values; the one overflowing case,
    ``-2**63 div -1``, wraps to ``-2**63``.
    """
    n = dividend - (1 << 64) if dividend >> 63 else dividend
    d = divisor - (1 << 64) if divisor >> 63 else divisor
    quotient = abs(n) // abs(d)
    if (n < 0) != (d < 0):
        quotient = -quotient
    return quotient & _MASK64, (n - quotient * d) & _MASK64


@dataclass(frozen=True)
class Instruction:
    """A decoded VM64 instruction.

    ``operands`` holds the operand values in spec order: register
    indices for ``REG`` fields and Python ints for immediate fields
    (``IMM32``/``REL32`` are sign-extended, ``IMM64`` is unsigned).
    """

    spec: InstructionSpec
    operands: tuple[int, ...]

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    @property
    def length(self) -> int:
        return self.spec.length

    def __str__(self) -> str:
        parts = []
        for kind, value in zip(self.spec.operands, self.operands):
            if kind is Operand.REG:
                parts.append(f"r{value}")
            else:
                parts.append(hex(value) if abs(value) > 9 else str(value))
        if parts:
            return f"{self.mnemonic} " + ", ".join(parts)
        return self.mnemonic
