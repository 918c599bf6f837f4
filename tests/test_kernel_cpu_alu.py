"""Property tests: the CPU's ALU vs reference 64-bit semantics.

Each test assembles a two-instruction program around one opcode and
compares all 64 bits of the guest result, read from its register after
exit, with Python's exact integer arithmetic masked to 64 bits — the
interpreter must wrap exactly like hardware.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import Kernel

from .helpers import build_asm, c_divmod

_MASK = (1 << 64) - 1

u64 = st.integers(0, _MASK)
#: dividends with more significant bits than a float keeps (53), of
#: either sign, and divisors small enough to keep that many in the quotient
dividends = st.one_of(
    u64,
    st.integers(1 << 53, (1 << 63) - 1),
    st.integers(-(1 << 63), -(1 << 53)).map(lambda value: value & _MASK),
)
divisors = st.one_of(
    st.integers(1, _MASK),
    st.integers(-1000, 1000).filter(bool).map(lambda value: value & _MASK),
)


def _signed(value: int) -> int:
    return value - (1 << 64) if value & (1 << 63) else value


def _run_binop(mnemonic: str, a: int, b: int) -> int:
    """``mnemonic r1, r2`` on ``a`` and ``b``: all 64 bits of r1 at exit."""
    source = f"""
.global _start
_start:
    movi r1, {a}
    movi r2, {b}
    {mnemonic} r1, r2
    movi r0, 1
    syscall            ; exit(r1): the exit code is its low byte
"""
    image = build_asm(source, f"alu_{mnemonic}")
    kernel = Kernel()
    kernel.register_binary(image)
    proc = kernel.spawn(image.name)
    kernel.run_until(lambda: not proc.alive, max_instructions=100)
    assert proc.term_signal is None, proc.term_signal
    result = proc.regs.gpr[1]
    assert proc.exit_code == result & 0xFF
    return result


class TestArithmetic:
    @settings(max_examples=30, deadline=None)
    @given(u64, u64)
    def test_add_wraps(self, a, b):
        assert _run_binop("add", a, b) == (a + b) & _MASK

    @settings(max_examples=30, deadline=None)
    @given(u64, u64)
    def test_sub_wraps(self, a, b):
        assert _run_binop("sub", a, b) == (a - b) & _MASK

    @settings(max_examples=20, deadline=None)
    @given(u64, u64)
    def test_mul_wraps(self, a, b):
        assert _run_binop("mul", a, b) == (a * b) & _MASK

    @settings(max_examples=20, deadline=None)
    @given(dividends, divisors)
    def test_div_truncates_toward_zero(self, a, b):
        quotient, __ = c_divmod(_signed(a), _signed(b))
        assert _run_binop("div", a, b) == quotient & _MASK

    @settings(max_examples=20, deadline=None)
    @given(dividends, divisors)
    def test_mod_matches_c(self, a, b):
        __, remainder = c_divmod(_signed(a), _signed(b))
        assert _run_binop("mod", a, b) == remainder & _MASK

    @pytest.mark.parametrize("mnemonic, a, b, expected", [
        ("mod", 10**18, 3, 1),
        ("div", 10**18, 3, 333_333_333_333_333_333),
        ("div", 2**62 + 1, 1, 2**62 + 1),
        ("div", -(10**18), 7, -142_857_142_857_142_857),
        ("mod", -(10**18), 7, -1),
        ("mod", 2**63 - 1, 2**62 + 3, 2**62 - 4),
        ("div", -(2**63), -1, -(2**63)),      # the one overflow wraps
    ])
    def test_div_mod_exact_above_2_53(self, mnemonic, a, b, expected):
        # a float quotient keeps 53 bits: these operands need all 64
        assert _run_binop(mnemonic, a & _MASK, b & _MASK) == expected & _MASK


class TestBitwise:
    @settings(max_examples=25, deadline=None)
    @given(u64, u64)
    def test_and_or_xor(self, a, b):
        assert _run_binop("and", a, b) == a & b
        assert _run_binop("or", a, b) == a | b
        assert _run_binop("xor", a, b) == a ^ b

    @settings(max_examples=25, deadline=None)
    @given(u64, st.integers(0, 63))
    def test_shifts_mask_count(self, a, s):
        assert _run_binop("shl", a, s) == (a << s) & _MASK
        assert _run_binop("shr", a, s) == a >> s

    @settings(max_examples=15, deadline=None)
    @given(u64, st.integers(64, 1 << 63))
    def test_shift_count_taken_mod_64(self, a, s):
        assert _run_binop("shl", a, s) == (a << (s & 63)) & _MASK


class TestCompare:
    @settings(max_examples=30, deadline=None)
    @given(u64, u64)
    def test_signed_comparison_flags(self, a, b):
        source = f"""
.global _start
_start:
    movi r1, {a}
    movi r2, {b}
    cmp r1, r2
    jl _less
    je _equal
    movi r1, 2         ; greater
    jmp _done
_less:
    movi r1, 0
    jmp _done
_equal:
    movi r1, 1
_done:
    movi r0, 1
    syscall
"""
        image = build_asm(source, "cmp_flags")
        kernel = Kernel()
        kernel.register_binary(image)
        proc = kernel.spawn("cmp_flags")
        kernel.run_until(lambda: not proc.alive, max_instructions=100)
        sa, sb = _signed(a), _signed(b)
        expected = 0 if sa < sb else (1 if sa == sb else 2)
        assert proc.exit_code == expected
