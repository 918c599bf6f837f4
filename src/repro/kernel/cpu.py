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
* memory faults are precise: a faulting load or store leaves ``rip``
  at the instruction and every register as it was before it (the
  clock and the retired count still charge it), so a SIGSEGV handler
  that returns runs the instruction again;
* a per-address-space decode cache and block cache keep interpretation
  fast.  An entry depends only on the bytes it decoded and their
  execute bit; the address space evicts the entries a change to those
  can affect (see :mod:`.memory`), so patched bytes (int3 insertion /
  feature restore) take effect immediately, and a restore keeps the
  entries of the pages it did not change (see :mod:`repro.criu.restore`);
* the CPU reports basic-block entries to an attached tracer with
  ``<block address, block size>`` granularity — the drcov trace format.

Dispatch (:meth:`CPU.run_quantum`) runs one translated basic block per
iteration at an entry address (see :mod:`.jit`), and otherwise one
instruction through the single-instruction handler its decode-cache
entry names.  Both charge the clock and the retired count themselves;
both leave early only through :class:`~.jit.BlockExit`, which
:meth:`CPU._leave` turns into the exact state stepping would reach.

A call may span many quanta (the kernel's horizon for a process that
runs alone, see :meth:`~.kernel.Kernel.run`).  Blocks cross the quantum
boundaries inside it until a *kernel-visible exit*: a syscall, an
``int3``, a posted fault (a faulting block exit among them) or a
signal delivery, each of which bumps :attr:`CPU.exits`.  The call then
ends at the next quantum boundary, where the kernel checks what the
exit may have changed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..isa.encoding import DecodeError, decode, instruction_length_at
from ..telemetry import trace
from .jit import BlockExit, HANDLERS, MNEMONICS, UNIT_ENDERS, translate
from .memory import MemoryFault, PAGE_SHIFT, PAGE_SIZE
from .process import Process, ProcessState, SP
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


def _u64(value: int) -> bytes:
    return (value & _MASK64).to_bytes(8, "little")


class CPU:
    """Interprets VM64 instructions for every process in a kernel."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        #: (start address, block bytes) -> translation record; shared by
        #: every address space this CPU runs, so respawns, forks and
        #: restores of the same code reuse the compiled block
        self._translations: dict[tuple[int, bytes], tuple] = {}
        #: kernel-visible exits so far (syscalls, traps, posted faults,
        #: signal deliveries); :meth:`run_quantum` stops at the next
        #: quantum boundary after one
        self.exits = 0

    # ------------------------------------------------------------------
    # stepping

    def step(self, proc: Process) -> None:
        """Run one instruction (or deliver one pending signal).

        Decodes on a decode-cache miss, then runs the instruction through
        the single-instruction path :meth:`run_quantum` also uses.
        """
        if proc.pending_signals:
            self._deliver_signal(proc)
            return
        rip = proc.regs.rip
        memory = proc.memory
        decoded = memory.decode_cache.get(rip)
        if decoded is None:
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
            decoded = (
                HANDLERS[spec.mnemonic], instruction.operands, spec.length,
                spec.mnemonic in UNIT_ENDERS,
            )
            memory.decode_cache[rip] = decoded
        handler, operands, length, __ = decoded
        try:
            handler(self, proc, operands, rip, rip + length)
        except BlockExit as exit:
            self._leave(proc, 1, exit)

    def run_quantum(self, proc: Process, budget: int) -> int:
        """Run up to ``budget`` steps of ``proc``; returns steps taken.

        The scheduler's one dispatch loop.  At an entry (the address
        after an instruction that ends a translation unit, after a whole
        block, or after a signal delivery) it runs the block's
        translation, translating it first if every instruction of the
        unit is already decoded.  Everywhere else it runs one
        instruction, and calls :meth:`step` only on a decode-cache miss.

        The call stops at ``budget``, or at the first multiple of the
        kernel's quantum, counted from its start, that follows a
        kernel-visible exit (see :attr:`exits`): the boundary where a
        quantum at a time would next let the kernel see that exit.  A
        block runs only if it fits the rest of that limit, so blocks
        cross the quantum boundaries before the exit and the last
        quantum ends with single steps exactly where stepping would end
        it; the next call then steps to the end of that unit.  With
        ``budget`` one quantum it runs exactly that quantum.
        """
        executed = 0
        limit = budget
        quantum = self.kernel.config.quantum
        exits = self.exits
        regs = proc.regs
        memory = proc.memory
        cache = memory.decode_cache
        blocks = memory.block_cache
        runnable = ProcessState.RUNNABLE
        # a quantum may resume mid-unit: it translates nothing until
        # the next entry, but runs a translation that starts here
        entry = regs.rip in blocks
        while executed < limit and proc.state is runnable:
            if self.exits != exits:
                # the kernel has something new to check: stop at the
                # next quantum boundary
                exits = self.exits
                limit = min(limit, -(-executed // quantum) * quantum)
                continue
            if proc.pending_signals:
                self._deliver_signal(proc)
                executed += 1
                entry = True
                continue
            rip = regs.rip
            if entry:
                block = blocks.get(rip) or self._translate(memory, rip)
                if block is not None and block[1] <= limit - executed:
                    run, size, __ = block
                    try:
                        run(self, proc)
                        executed += size
                    except BlockExit as exit:
                        executed += self._leave(proc, size, exit)
                        entry = False
                    continue
            decoded = cache.get(rip)
            if decoded is None:
                self.step(proc)      # decode miss: decode, cache, run
                decoded = cache.get(rip)
                entry = decoded is not None and decoded[3]
            else:
                handler, operands, length, entry = decoded
                try:
                    handler(self, proc, operands, rip, rip + length)
                except BlockExit as exit:
                    self._leave(proc, 1, exit)
            executed += 1
        return executed

    def _translate(self, memory, start: int) -> tuple | None:
        """The translation of the unit at ``start``, from cached decodes
        only; None while one of its instructions is undecoded."""
        cache = memory.decode_cache
        base = start >> PAGE_SHIFT << PAGE_SHIFT
        limit = base + PAGE_SIZE
        instructions = []
        address = start
        while True:
            decoded = cache.get(address)
            if decoded is None:
                return None
            handler, operands, length, ends = decoded
            end = address + length
            if end > limit:
                break            # straddles the page: not in this unit
            instructions.append((MNEMONICS[handler], operands, address, end))
            address = end
            if ends or end == limit:
                break
        if not instructions:
            return None
        page = memory.executable_pages[start >> PAGE_SHIFT]
        key = (start, bytes(page[start - base:address - base]))
        block = self._translations.get(key)
        if block is None:
            block = (translate(instructions), len(instructions), address)
            self._translations[key] = block
        memory.block_cache[start] = block
        return block

    def _leave(self, proc: Process, charged: int, exit: BlockExit) -> int:
        """Make the state exact after a handler or block that was charged
        ``charged`` instructions left at instruction ``exit.index``;
        returns the instructions retired.

        A fault retires the faulting instruction (its clock and retired
        count stay charged) with ``rip`` at it and every register as
        before it, then posts SIGSEGV; an executable-page store retires
        nothing, so that instruction runs next, alone.  That store is
        not a kernel-visible exit (it changes only guest memory), so
        :attr:`exits` stays as it is and the same :meth:`run_quantum`
        call runs the store before it can stop: a stop between the two
        would leave open a trace block that stepping has not opened
        yet, and the block at ``rip`` would leave again without
        retiring anything.
        """
        retired = exit.index + (exit.fault is not None)
        if retired < charged:
            kernel = self.kernel
            kernel.clock_ns -= (charged - retired) * kernel.config.instruction_cost_ns
            proc.instructions_retired -= charged - retired
        proc.regs.rip = exit.rip
        if exit.fault is not None:
            self._fault(proc, Signal.SIGSEGV, exit.fault.address)
        return retired

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
        self.exits += 1
        self._emit_block(proc, proc.regs.rip)
        proc.pending_signals.append(PendingSignal(signal, address))

    def _trap(self, proc: Process, address: int) -> None:
        """int3: rip has advanced past the trap; post SIGTRAP."""
        self.exits += 1
        proc.pending_signals.append(PendingSignal(Signal.SIGTRAP, address))

    def _deliver_signal(self, proc: Process) -> None:
        self.exits += 1
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
    # system

    def _syscall(self, proc: Process, rip: int) -> None:
        self.exits += 1
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
