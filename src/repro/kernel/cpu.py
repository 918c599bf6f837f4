"""The VM64 CPU: fetch/decode/execute with signal delivery.

Key fidelity points for DynaCut:

* ``int3`` raises ``SIGTRAP`` with the saved ``rip`` pointing *after*
  the one-byte instruction (handlers recover the trap site as
  ``rip - 1``, or read it directly from ``r3``);
* a decode fetches exactly its instruction's bytes: the opcode byte,
  then the length that opcode names.  Fetching an unmapped or
  non-executable byte of the instruction raises ``SIGSEGV`` at that
  byte's page; an unknown opcode or a bad register field (wiped,
  garbage bytes) raises ``SIGILL`` at ``rip`` — what code-reuse
  attacks hit after DynaCut removes code.  A valid instruction that
  ends exactly at the end of an executable mapping runs;
* a per-address-space decode cache keeps interpretation fast.  An
  entry depends only on the bytes it decoded and their execute bit;
  the address space evicts the entries a change to those can affect
  (see :mod:`.memory`), so patched bytes (int3 insertion / feature
  restore) take effect immediately, and a restore keeps the entries of
  the pages it did not change (see :mod:`repro.criu.restore`);
* the CPU reports basic-block entries to an attached tracer with
  ``<block address, block size>`` granularity — the drcov trace format.

Execution dispatch is a per-mnemonic method table; decode-cache entries
carry the bound handler so the hot path is one dict probe plus one
call, with no string comparisons.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..isa.encoding import DecodeError, decode, instruction_length_at
from ..isa.instructions import BLOCK_TERMINATORS
from ..telemetry import trace
from .memory import MemoryFault, PAGE_SIZE
from .process import Process, SP
from .signals import (
    FRAME_LT,
    FRAME_REGS,
    FRAME_RIP,
    FRAME_SIZE,
    FRAME_ZF,
    PendingSignal,
    Signal,
    UNCATCHABLE,
)
from .syscalls import Block

if TYPE_CHECKING:
    from .kernel import Kernel

_MASK64 = (1 << 64) - 1
_SIGN_BIT = 1 << 63


def _signed(value: int) -> int:
    return value - (1 << 64) if value & _SIGN_BIT else value


def _u64(value: int) -> bytes:
    return (value & _MASK64).to_bytes(8, "little")


class CPU:
    """Interprets VM64 instructions for every process in a kernel."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._handlers = {
            "movi": self._op_movi,
            "mov": self._op_mov,
            "ld8": self._op_ld8,
            "ld64": self._op_ld64,
            "st8": self._op_st8,
            "st64": self._op_st64,
            "lea": self._op_lea,
            "add": self._op_add,
            "sub": self._op_sub,
            "mul": self._op_mul,
            "div": self._op_div,
            "mod": self._op_mod,
            "and": self._op_and,
            "or": self._op_or,
            "xor": self._op_xor,
            "shl": self._op_shl,
            "shr": self._op_shr,
            "addi": self._op_addi,
            "subi": self._op_subi,
            "muli": self._op_muli,
            "andi": self._op_andi,
            "ori": self._op_ori,
            "xori": self._op_xori,
            "shli": self._op_shli,
            "shri": self._op_shri,
            "neg": self._op_neg,
            "not": self._op_not,
            "cmp": self._op_cmp,
            "cmpi": self._op_cmpi,
            "jmp": self._op_jmp,
            "je": self._op_je,
            "jne": self._op_jne,
            "jl": self._op_jl,
            "jle": self._op_jle,
            "jg": self._op_jg,
            "jge": self._op_jge,
            "jmpr": self._op_jmpr,
            "call": self._op_call,
            "callr": self._op_callr,
            "ret": self._op_ret,
            "push": self._op_push,
            "pop": self._op_pop,
            "syscall": self._op_syscall,
            "nop": self._op_nop,
            "int3": self._op_int3,
            "hlt": self._op_hlt,
        }

    # ------------------------------------------------------------------
    # stepping

    def step(self, proc: Process) -> None:
        """Run one instruction (or deliver one pending signal)."""
        if proc.pending_signals:
            self._deliver_signal(proc)
            return

        rip = proc.regs.rip
        memory = proc.memory
        cache = memory.decode_cache
        entry = cache.get(rip)
        if entry is not None:
            handler, operands, length, terminates = entry
        else:
            # fetch exactly the instruction: the opcode byte names its
            # length, and no byte past its end is read
            try:
                instruction = decode(memory.fetch(
                    rip, instruction_length_at(memory.fetch(rip, 1))
                ))
            except MemoryFault as fault:
                self._fault(proc, Signal.SIGSEGV, fault.address)
                return
            except DecodeError:
                self._fault(proc, Signal.SIGILL, rip)
                return
            spec = instruction.spec
            length = spec.length
            mnemonic = spec.mnemonic
            handler = self._handlers[mnemonic]
            operands = instruction.operands
            terminates = mnemonic in BLOCK_TERMINATORS
            cache[rip] = (handler, operands, length, terminates)

        if proc.block_start is None:
            proc.block_start = rip

        self.kernel.clock_ns += self.kernel.config.instruction_cost_ns
        proc.instructions_retired += 1

        end = rip + length
        proc.regs.rip = end  # default fall-through; branches overwrite
        try:
            handler(proc, operands, rip, end)
        except MemoryFault as fault:
            self._fault(proc, Signal.SIGSEGV, fault.address)
            return

        if terminates:
            self._emit_block(proc, end)

    def run_quantum(self, proc: Process, budget: int) -> int:
        """Run up to ``budget`` steps of ``proc``; returns steps taken.

        The scheduler's fast path: identical semantics to calling
        :meth:`step` in a loop, with the per-instruction lookups
        (registers, decode cache, clock cost) hoisted out of the loop.
        """
        from .process import ProcessState

        executed = 0
        kernel = self.kernel
        cost = kernel.config.instruction_cost_ns
        regs = proc.regs
        cache = proc.memory.decode_cache
        gpr_state = ProcessState.RUNNABLE
        while executed < budget and proc.state is gpr_state:
            if proc.pending_signals:
                self._deliver_signal(proc)
                executed += 1
                continue
            rip = regs.rip
            entry = cache.get(rip)
            if entry is None:
                self.step(proc)      # slow path: decode (and cache) first
                executed += 1
                continue
            handler, operands, length, terminates = entry
            if proc.block_start is None:
                proc.block_start = rip
            kernel.clock_ns += cost
            proc.instructions_retired += 1
            end = rip + length
            regs.rip = end
            try:
                handler(proc, operands, rip, end)
            except MemoryFault as fault:
                self._fault(proc, Signal.SIGSEGV, fault.address)
                executed += 1
                continue
            if terminates:
                self._emit_block(proc, end)
            executed += 1
        return executed

    # ------------------------------------------------------------------
    # tracing support

    def _emit_block(self, proc: Process, block_end: int) -> None:
        start = proc.block_start
        proc.block_start = None
        if start is None:
            return
        tracer = self.kernel.tracers.get(proc.pid)
        if tracer is not None and block_end > start:
            tracer.on_block(proc, start, block_end - start)

    # ------------------------------------------------------------------
    # faults and signals

    def _fault(self, proc: Process, signal: Signal, address: int) -> None:
        """Post a synchronous fault; ``rip`` stays at the faulting site."""
        self._emit_block(proc, proc.regs.rip)
        proc.pending_signals.append(PendingSignal(signal, address))

    def _trap(self, proc: Process, address: int) -> None:
        """int3: rip has advanced past the trap; post SIGTRAP."""
        proc.pending_signals.append(PendingSignal(Signal.SIGTRAP, address))

    def _deliver_signal(self, proc: Process) -> None:
        pending = proc.pending_signals.popleft()
        signal = pending.signal
        action = proc.sigactions.get(signal)
        if signal in UNCATCHABLE:
            action = None
        if action is None:
            if signal in (Signal.SIGCHLD, Signal.SIGUSR1):
                return  # ignored by default
            self.kernel.terminate(proc, signal=signal)
            return

        # close the current (partial) trace block at the interruption point
        self._emit_block(proc, proc.regs.rip)

        if signal is Signal.SIGTRAP:
            # open a per-request trap window: delivery (incl. the frame
            # cost added below) through the handler's rt_sigreturn
            trace.note_trap_delivered(
                proc.pid, self.kernel.clock_ns, pending.fault_address
            )

        regs = proc.regs
        new_sp = (regs.gpr[SP] - (8 + FRAME_SIZE)) & ~0xF
        frame = new_sp + 8
        try:
            memory = proc.memory
            memory.write_raw(new_sp, _u64(action.restorer))
            memory.write_raw(frame + FRAME_RIP, _u64(regs.rip))
            memory.write_raw(frame + FRAME_ZF, _u64(int(regs.zf)))
            memory.write_raw(frame + FRAME_LT, _u64(int(regs.lt)))
            for index in range(16):
                memory.write_raw(frame + FRAME_REGS + 8 * index, _u64(regs.gpr[index]))
        except MemoryFault:
            self.kernel.terminate(proc, signal=Signal.SIGSEGV)
            return
        regs.gpr[SP] = new_sp
        regs.gpr[1] = int(signal)
        regs.gpr[2] = frame
        regs.gpr[3] = pending.fault_address
        regs.rip = action.handler
        self.kernel.clock_ns += self.kernel.config.signal_cost_ns

    # ------------------------------------------------------------------
    # data movement

    def _op_movi(self, proc, ops, rip, end):
        proc.regs.gpr[ops[0]] = ops[1] & _MASK64

    def _op_mov(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] = gpr[ops[1]]

    def _op_ld8(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] = proc.memory.read((gpr[ops[1]] + ops[2]) & _MASK64, 1)[0]

    def _op_ld64(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        data = proc.memory.read((gpr[ops[1]] + ops[2]) & _MASK64, 8)
        gpr[ops[0]] = int.from_bytes(data, "little")

    def _op_st8(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        proc.memory.write(
            (gpr[ops[0]] + ops[2]) & _MASK64, bytes([gpr[ops[1]] & 0xFF])
        )

    def _op_st64(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        proc.memory.write((gpr[ops[0]] + ops[2]) & _MASK64, _u64(gpr[ops[1]]))

    def _op_lea(self, proc, ops, rip, end):
        proc.regs.gpr[ops[0]] = (end + ops[1]) & _MASK64

    # ------------------------------------------------------------------
    # arithmetic / logic

    def _op_add(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] = (gpr[ops[0]] + gpr[ops[1]]) & _MASK64

    def _op_sub(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] = (gpr[ops[0]] - gpr[ops[1]]) & _MASK64

    def _op_mul(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] = (gpr[ops[0]] * gpr[ops[1]]) & _MASK64

    def _divmod(self, proc, ops, rip, want_mod: bool):
        gpr = proc.regs.gpr
        divisor = _signed(gpr[ops[1]])
        if divisor == 0:
            proc.regs.rip = rip  # fault at the div
            self._fault(proc, Signal.SIGFPE, rip)
            return
        dividend = _signed(gpr[ops[0]])
        quotient = int(dividend / divisor)  # C-style truncation
        if want_mod:
            gpr[ops[0]] = (dividend - quotient * divisor) & _MASK64
        else:
            gpr[ops[0]] = quotient & _MASK64

    def _op_div(self, proc, ops, rip, end):
        self._divmod(proc, ops, rip, want_mod=False)

    def _op_mod(self, proc, ops, rip, end):
        self._divmod(proc, ops, rip, want_mod=True)

    def _op_and(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] &= gpr[ops[1]]

    def _op_or(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] |= gpr[ops[1]]

    def _op_xor(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] ^= gpr[ops[1]]

    def _op_shl(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] = (gpr[ops[0]] << (gpr[ops[1]] & 63)) & _MASK64

    def _op_shr(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] = gpr[ops[0]] >> (gpr[ops[1]] & 63)

    def _op_addi(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] = (gpr[ops[0]] + ops[1]) & _MASK64

    def _op_subi(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] = (gpr[ops[0]] - ops[1]) & _MASK64

    def _op_muli(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] = (gpr[ops[0]] * ops[1]) & _MASK64

    def _op_andi(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] &= ops[1] & _MASK64

    def _op_ori(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] |= ops[1] & _MASK64

    def _op_xori(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] ^= ops[1] & _MASK64

    def _op_shli(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] = (gpr[ops[0]] << (ops[1] & 63)) & _MASK64

    def _op_shri(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] = gpr[ops[0]] >> (ops[1] & 63)

    def _op_neg(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] = (-gpr[ops[0]]) & _MASK64

    def _op_not(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        gpr[ops[0]] = (~gpr[ops[0]]) & _MASK64

    # ------------------------------------------------------------------
    # compare and branch

    def _op_cmp(self, proc, ops, rip, end):
        gpr = proc.regs.gpr
        a, b = _signed(gpr[ops[0]]), _signed(gpr[ops[1]])
        proc.regs.zf = a == b
        proc.regs.lt = a < b

    def _op_cmpi(self, proc, ops, rip, end):
        a = _signed(proc.regs.gpr[ops[0]])
        proc.regs.zf = a == ops[1]
        proc.regs.lt = a < ops[1]

    def _op_jmp(self, proc, ops, rip, end):
        proc.regs.rip = (end + ops[0]) & _MASK64

    def _op_je(self, proc, ops, rip, end):
        if proc.regs.zf:
            proc.regs.rip = (end + ops[0]) & _MASK64

    def _op_jne(self, proc, ops, rip, end):
        if not proc.regs.zf:
            proc.regs.rip = (end + ops[0]) & _MASK64

    def _op_jl(self, proc, ops, rip, end):
        if proc.regs.lt:
            proc.regs.rip = (end + ops[0]) & _MASK64

    def _op_jle(self, proc, ops, rip, end):
        regs = proc.regs
        if regs.lt or regs.zf:
            regs.rip = (end + ops[0]) & _MASK64

    def _op_jg(self, proc, ops, rip, end):
        regs = proc.regs
        if not (regs.lt or regs.zf):
            regs.rip = (end + ops[0]) & _MASK64

    def _op_jge(self, proc, ops, rip, end):
        if not proc.regs.lt:
            proc.regs.rip = (end + ops[0]) & _MASK64

    def _op_jmpr(self, proc, ops, rip, end):
        proc.regs.rip = proc.regs.gpr[ops[0]]

    def _op_call(self, proc, ops, rip, end):
        self._push(proc, end)
        proc.regs.rip = (end + ops[0]) & _MASK64

    def _op_callr(self, proc, ops, rip, end):
        self._push(proc, end)
        proc.regs.rip = proc.regs.gpr[ops[0]]

    def _op_ret(self, proc, ops, rip, end):
        proc.regs.rip = self._pop(proc)

    # ------------------------------------------------------------------
    # stack and system

    def _op_push(self, proc, ops, rip, end):
        self._push(proc, proc.regs.gpr[ops[0]])

    def _op_pop(self, proc, ops, rip, end):
        proc.regs.gpr[ops[0]] = self._pop(proc)

    def _op_syscall(self, proc, ops, rip, end):
        self._syscall(proc, rip)

    def _op_nop(self, proc, ops, rip, end):
        pass

    def _op_int3(self, proc, ops, rip, end):
        self._trap(proc, rip)

    def _op_hlt(self, proc, ops, rip, end):
        # privileged on x86; user-mode execution faults
        proc.regs.rip = rip
        self._fault(proc, Signal.SIGSEGV, rip)

    # ------------------------------------------------------------------

    def _push(self, proc: Process, value: int) -> None:
        proc.regs.gpr[SP] = (proc.regs.gpr[SP] - 8) & _MASK64
        proc.memory.write(proc.regs.gpr[SP], _u64(value))

    def _pop(self, proc: Process) -> int:
        value = int.from_bytes(proc.memory.read(proc.regs.gpr[SP], 8), "little")
        proc.regs.gpr[SP] = (proc.regs.gpr[SP] + 8) & _MASK64
        return value

    def _syscall(self, proc: Process, rip: int) -> None:
        self.kernel.clock_ns += self.kernel.config.syscall_cost_ns
        result = self.kernel.syscalls.dispatch(proc)
        if result is None:
            return  # exit / sigreturn / SIGSYS changed control state
        if isinstance(result, Block):
            # restartable: rewind to the syscall instruction and sleep
            proc.regs.rip = rip
            proc.block(result.predicate)
            proc.wake_deadline = result.deadline
            return
        proc.regs.gpr[0] = result & _MASK64


# page-size sanity: sigframes must fit comfortably within one page
assert FRAME_SIZE + 16 < PAGE_SIZE
