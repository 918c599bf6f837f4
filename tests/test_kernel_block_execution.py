"""Block execution against stepping.

:class:`ReferenceCPU` is the interpreter the block translator replaced:
one ``_op_*`` method per mnemonic, dispatched once per instruction from
the decode cache, driven by a loop that steps ``budget`` times.  It
keeps one change of semantics, precise memory faults: a faulting load
or store leaves ``rip`` at the instruction and every register as before
it.

Each guest session runs twice, on twin kernels.  First the reference
CPU runs it on a kernel that schedules one quantum at a time
(:class:`~tests.helpers.OneQuantumKernel`), recording a snapshot after
every quantum.  Then the real CPU runs it on a real kernel, which lets
a process that runs alone cross quantum boundaries until it has
something new for the kernel to check.  Every stop of the real CPU must
land on the reference snapshot with the same cumulative step count, and
equal it; the reference quanta it ran through must be the same
process's.  So one comparison checks blocks against stepping and
coalesced scheduling against one quantum at a time.  A snapshot holds
the cumulative steps, the clock, the retired count, registers and
flags, ``rip``, the process state, pending signals, the open trace
block, a digest of the process's memory, the number of trace-block
events and the security and verifier trap logs.  Sessions run at
quantum sizes 1, 7 and 100 (bare code also at 3), and once with a
tracer attached whose every block event is compared.  The guests: the
three servers under a short request mix (miniredis also through a
VERIFY disable, a trapping request and an enable), the seven SPEC
kernels, the DL50x self-modifying guest, and a hot loop in an ``rwx``
mapping whose ``st8`` rewrites an instruction later in its own block.
A hypothesis property does the same for random straight-line code in
an ``rwx`` page, some of it on a stack that is not 8-byte aligned.
"""

from __future__ import annotations

import cProfile
import pstats
import zlib

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apps import (
    LIGHTTPD_PORT,
    NGINX_PORT,
    REDIS_PORT,
    benchmark_names,
    stage_lighttpd,
    stage_nginx,
    stage_redis,
    stage_spec,
)
from repro.core import BlockMode, DynaCut, TrapPolicy
from repro.core.verifier import read_verifier_log
from repro.fleet import get_app
from repro.fleet.apps import profile_feature
from repro.isa import SPEC_BY_MNEMONIC, encode_fields
from repro.isa.encoding import DecodeError, decode, instruction_length_at
from repro.isa.instructions import BLOCK_TERMINATORS
from repro.kernel import Kernel, PAGE_SIZE, ProcessState, Signal
from repro.kernel.cpu import CPU
from repro.kernel.jit import translate
from repro.kernel.memory import AddressSpace, MemoryFault
from repro.kernel.process import Process, SP
from repro.kernel.signals import FRAME_RIP, SigAction
from repro.kernel.syscalls import Sys
from repro.tracing import BlockTracer
from repro.workloads import HttpClient, RedisClient

from .helpers import OneQuantumKernel, build_asm, c_divmod

_MASK64 = (1 << 64) - 1
_SIGN_BIT = 1 << 63


def _signed(value: int) -> int:
    return value - (1 << 64) if value & _SIGN_BIT else value


def _u64(value: int) -> bytes:
    return (value & _MASK64).to_bytes(8, "little")


class ReferenceCPU(CPU):
    """One instruction per dispatch: the reference for block execution."""

    def __init__(self, kernel):
        super().__init__(kernel)
        self._ops = {
            mnemonic: getattr(self, "_op_" + mnemonic) for mnemonic in SPEC_BY_MNEMONIC
        }

    def step(self, proc) -> None:
        if proc.pending_signals:
            self._deliver_signal(proc)
            return
        rip = proc.regs.rip
        memory = proc.memory
        entry = memory.decode_cache.get(rip)
        if entry is None:
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
            mnemonic = instruction.mnemonic
            entry = (self._ops[mnemonic], instruction.operands, instruction.length,
                     mnemonic in BLOCK_TERMINATORS)
            memory.decode_cache[rip] = entry
        handler, operands, length, terminates = entry
        if proc.block_start is None:
            proc.block_start = rip
        self.kernel.clock_ns += self.kernel.config.instruction_cost_ns
        proc.instructions_retired += 1
        end = rip + length
        proc.regs.rip = end
        try:
            handler(proc, operands, rip, end)
        except MemoryFault as fault:
            proc.regs.rip = rip      # precise: at the faulting instruction
            self._fault(proc, Signal.SIGSEGV, fault.address)
            return
        if terminates:
            self._emit_block(proc, end)

    def run_quantum(self, proc, budget: int) -> int:
        executed = 0
        while executed < budget and proc.state is ProcessState.RUNNABLE:
            self.step(proc)
            executed += 1
        return executed

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

    # arithmetic and logic

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
            proc.regs.rip = rip
            self._fault(proc, Signal.SIGFPE, rip)
            return
        quotient, remainder = c_divmod(_signed(gpr[ops[0]]), divisor)
        gpr[ops[0]] = (remainder if want_mod else quotient) & _MASK64

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
        proc.regs.rip = rip
        self._fault(proc, Signal.SIGSEGV, rip)

    def _push(self, proc, value: int) -> None:
        # store first: a faulting push leaves sp unchanged
        sp = (proc.regs.gpr[SP] - 8) & _MASK64
        proc.memory.write(sp, _u64(value))
        proc.regs.gpr[SP] = sp

    def _pop(self, proc) -> int:
        value = int.from_bytes(proc.memory.read(proc.regs.gpr[SP], 8), "little")
        proc.regs.gpr[SP] = (proc.regs.gpr[SP] + 8) & _MASK64
        return value


# ----------------------------------------------------------------------
# twin runs

_ZERO_PAGE = bytes(PAGE_SIZE)


def _memory_digest(memory) -> int:
    digest = 0
    for index, page in memory.pages.items():
        if page != _ZERO_PAGE:
            digest = zlib.crc32(page, zlib.crc32(index.to_bytes(8, "little"), digest))
    return digest


class EventTracer(BlockTracer):
    """A block tracer that also keeps every ``(address, size)`` event."""

    def __init__(self, kernel, proc):
        super().__init__(kernel, proc)
        self.events: list[tuple[int, int]] = []

    def on_block(self, proc, address: int, size: int) -> None:
        self.events.append((address, size))
        super().on_block(proc, address, size)


class World:
    """One kernel of a twin run: snapshots after every ``run_quantum``."""

    FIELDS = ("pid", "steps", "clock_ns", "retired", "gpr", "rip", "zf", "lt",
              "state", "pending", "block_start", "memory", "trace_events",
              "security_log", "trap_log")

    def __init__(self, cpu_class, kernel_class=Kernel, expected: list | None = None):
        self.kernel = kernel_class()
        self.kernel.cpu = cpu_class(self.kernel)
        self.tracer: EventTracer | None = None
        self.dynacut: DynaCut | None = None
        self.snapshots: list[tuple] = []
        self.steps = 0
        self.expected = expected
        #: reference snapshots reached so far
        self.matched = 0
        quantum = self.kernel.cpu.run_quantum

        def run_quantum(proc, budget):
            steps = quantum(proc, budget)
            self._record(proc, steps)
            return steps

        self.kernel.cpu.run_quantum = run_quantum

    def trace(self, proc) -> None:
        self.tracer = EventTracer(self.kernel, proc).attach()

    def _record(self, proc, steps: int) -> None:
        regs = proc.regs
        traps = ()
        if self.dynacut is not None and proc.alive:
            traps = read_verifier_log(self.kernel, proc).trapped_addresses
        self.steps += steps
        snapshot = (
            proc.pid, self.steps, self.kernel.clock_ns, proc.instructions_retired,
            tuple(regs.gpr), regs.rip, regs.zf, regs.lt, proc.state,
            tuple(proc.pending_signals), proc.block_start,
            _memory_digest(proc.memory),
            len(self.tracer.events) if self.tracer is not None else 0,
            len(self.kernel.security_log), traps,
        )
        self.snapshots.append(snapshot)
        if self.expected is None:
            return
        # a stop that ran through several reference quanta lands on the
        # last of them; the ones before must be the same process's
        expected = self.expected
        while self.matched < len(expected) and expected[self.matched][1] < self.steps:
            skipped = expected[self.matched]
            assert skipped[0] == proc.pid, (
                f"pid {proc.pid} ran through quantum {self.matched} of pid {skipped[0]}"
            )
            self.matched += 1
        assert self.matched < len(expected), "more steps than the reference ran"
        index = self.matched
        self.matched += 1
        if snapshot != expected[index]:
            differ = [
                f"{name}: {mine!r} != {theirs!r}"
                for name, mine, theirs in zip(self.FIELDS, snapshot, expected[index])
                if mine != theirs
            ]
            pytest.fail(f"stop {len(self.snapshots) - 1} differs from stepping "
                        f"quantum {index}: " + "; ".join(differ))


def _assert_like_stepping(session) -> None:
    """Run ``session(world)`` on the reference CPU a quantum at a time,
    then on the real CPU and kernel."""
    reference = World(ReferenceCPU, OneQuantumKernel)
    session(reference)
    blocks = World(CPU, expected=reference.snapshots)
    session(blocks)
    assert blocks.matched == len(reference.snapshots)
    assert reference.snapshots, "the session ran no quantum"
    if reference.tracer is not None:
        assert blocks.tracer.events == reference.tracer.events
    assert [
        (p.pid, p.exit_code, p.term_signal, p.stdout_text())
        for p in blocks.kernel.processes.values()
    ] == [
        (p.pid, p.exit_code, p.term_signal, p.stdout_text())
        for p in reference.kernel.processes.values()
    ]


def _phases(world: World, proc, run_phase) -> None:
    """``run_phase()`` at quantum 100, 7 and 1, then traced at 100."""
    config = world.kernel.config
    for quantum in (100, 7, 1):
        config.quantum = quantum
        run_phase()
    config.quantum = 100
    world.trace(proc)
    run_phase()


# ----------------------------------------------------------------------
# guests


def _redis(world: World) -> None:
    kernel = world.kernel
    pid = stage_redis(kernel).pid
    client = RedisClient(kernel, REDIS_PORT)
    feature = profile_feature(get_app("redis"), "SET")
    counter = iter(range(1000))

    def requests() -> None:
        n = next(counter)
        client.command(f"SET k{n} v{n}")
        client.command(f"GET k{n}")

    _phases(world, kernel.processes[pid], requests)
    # restores adopt the caches, a patched int3 traps and the verifier
    # heals and logs it
    world.dynacut = DynaCut(kernel)
    world.dynacut.disable_feature(
        pid, feature, policy=TrapPolicy.VERIFY, mode=BlockMode.ENTRY
    )
    kernel.config.quantum = 7
    requests()
    world.dynacut.enable_feature(pid, feature)
    requests()


def _http(stage, port: int):
    def session(world: World) -> None:
        kernel = world.kernel
        proc = stage(kernel)
        client = HttpClient(kernel, port)
        paths = iter(["/", "/missing.html", "/", "/index.html", "/", "/nope"])

        def requests() -> None:
            client.get(next(paths))

        _phases(world, proc, requests)
    return session


def _spec(name: str):
    def session(world: World) -> None:
        kernel = world.kernel
        proc = stage_spec(kernel, name, iterations=1)

        def slice_of_run() -> None:
            kernel.run(max_instructions=int(3_000 * kernel.config.quantum ** 0.5),
                       until=lambda: not proc.alive)

        _phases(world, proc, slice_of_run)
    return session


SELF_MODIFYING = """
.section text
.global _start
.global patchee
_start:
    lea r1, patchee
    movi r2, 7
    st8 [r1], r2
    call patchee
    hlt
patchee:
    movi r0, 1
    ret
"""

CODE = 0x5000_0000


def _encode(*instructions: tuple) -> bytes:
    return b"".join(
        encode_fields(SPEC_BY_MNEMONIC[mnemonic], operands)
        for mnemonic, *operands in instructions
    )


_EXIT = _encode(("movi", 0, int(Sys.EXIT)), ("mov", 1, 4), ("syscall",))


def _rewriting_loop_code() -> bytes:
    """A 300-pass loop whose ``st8`` rewrites the low immediate byte of
    the ``addi r3`` two instructions after it, in the same block, to the
    pass number: pass ``i`` adds ``i & 0xFF`` to r3, and r4 sums r3.  The
    rewritten bytes lie more than ``MAX_INSTRUCTION`` bytes past the
    ``st8``, so its own decode survives and the loop is translated."""
    prefix = _encode(("movi", 1, 0), ("movi", 3, 0), ("movi", 4, 0))
    head = _encode(("addi", 1, 1))
    store = _encode(("st8", 5, 1, 0))
    filler = _encode(("addi", 6, 1))
    # the addi's immediate starts after its opcode and register bytes
    site = len(prefix) + len(head) + len(store) + len(filler) + 2
    body = head + _encode(("st8", 5, 1, site)) + filler + _encode(
        ("addi", 3, 0), ("add", 4, 3), ("cmpi", 1, 300))
    back = -(len(body) + len(_encode(("jl", 0))))
    return prefix + body + _encode(("jl", back)) + _EXIT


def _run_code(world: World, code: bytes, setup=None,
              max_instructions: int = 20_000) -> None:
    """Run ``code`` from a fresh ``rwx`` mapping at ``CODE``, in a bare
    process (no binary, no loader), at every quantum size."""
    kernel = world.kernel
    for quantum, traced in ((100, False), (7, False), (1, False), (3, False),
                            (100, True)):
        kernel.config.quantum = quantum
        proc = Process(kernel.allocate_pid(), 0, "bare", AddressSpace())
        kernel.processes[proc.pid] = proc
        proc.memory.mmap(CODE, PAGE_SIZE, "rwx")
        proc.memory.write_raw(CODE, code)
        proc.regs.rip = CODE
        proc.regs.gpr[5] = CODE
        if setup is not None:
            setup(proc)
        if traced:
            world.trace(proc)
        kernel.run(max_instructions=max_instructions, until=lambda: not proc.alive)


def _self_modifying(world: World) -> None:
    kernel = world.kernel
    kernel.register_binary(build_asm(SELF_MODIFYING, "smc_guest"))
    for quantum in (100, 7, 1):
        kernel.config.quantum = quantum
        proc = kernel.spawn("smc_guest")
        kernel.run(until=lambda: not proc.alive)
    proc = kernel.spawn("smc_guest")
    world.trace(proc)
    kernel.run(until=lambda: not proc.alive)


def _rewriting_loop(world: World) -> None:
    _run_code(world, _rewriting_loop_code())


GUESTS = {
    "miniredis": _redis,
    "lighttpd": _http(stage_lighttpd, LIGHTTPD_PORT),
    "nginx": _http(stage_nginx, NGINX_PORT),
    **{name: _spec(name) for name in benchmark_names()},
    "self-modifying": _self_modifying,
    "rwx-rewriting-loop": _rewriting_loop,
}


@pytest.mark.parametrize("guest", GUESTS)
def test_blocks_match_stepping(guest):
    _assert_like_stepping(GUESTS[guest])


def test_rewriting_loop_rewrites_its_own_block():
    world = World(CPU)
    _rewriting_loop(world)
    procs = list(world.kernel.processes.values())
    # the loop ran translated: one translation per rewritten immediate
    loop = CODE + len(_encode(("movi", 0, 0))) * 3
    variants = {key for key in world.kernel.cpu._translations if key[0] == loop}
    assert len(variants) == 256
    # r3 accumulated 1 + 2 + ... + 255 + 0 + 1 + ... (the low byte of r1)
    expected = sum(sum(n & 0xFF for n in range(1, i + 1)) for i in range(1, 301))
    assert all(p.exit_code == expected & 0xFF for p in procs)
    assert all(p.term_signal is None for p in procs)


# ----------------------------------------------------------------------
# where translations are made


def _bare(kernel: Kernel, code: bytes) -> Process:
    proc = Process(kernel.allocate_pid(), 0, "bare", AddressSpace())
    kernel.processes[proc.pid] = proc
    proc.memory.mmap(CODE, PAGE_SIZE, "r-x")
    proc.memory.write_raw(CODE, code)
    proc.regs.rip = CODE
    return proc


class TestTranslationPolicy:
    def test_code_that_runs_once_is_never_translated(self):
        kernel = Kernel()
        proc = _bare(kernel, _encode(*[("addi", 4, 1)] * 50, ("jmp", 0)) + _EXIT)
        kernel.run(until=lambda: not proc.alive)
        assert proc.exit_code == 50
        assert kernel.cpu._translations == {}

    @pytest.mark.parametrize("quantum", [5, 7, 100])
    def test_translations_start_only_at_entries(self, quantum):
        # a 12-instruction loop: quanta of 5 and 7 end at every offset in it
        body = _encode(*[("addi", 4, 1)] * 10, ("cmpi", 4, 600))
        loop = body + _encode(("jl", -(len(body) + len(_encode(("jl", 0))))))
        kernel = Kernel()
        kernel.config.quantum = quantum
        proc = _bare(kernel, loop + _EXIT)
        kernel.run(until=lambda: not proc.alive)
        assert proc.exit_code == 600 & 0xFF
        # the loop head (after the taken jl) and the exit code after it
        assert set(proc.memory.block_cache) <= {CODE, CODE + len(loop)}
        assert CODE in proc.memory.block_cache

    def test_each_translation_is_named_after_its_start(self):
        # every translation is compiled at <dynajit>:1, so its name is
        # all a host profile, keyed by (file, line, name), can tell apart
        first, second = (
            translate([("addi", (4, 1), start, start + 6)])
            for start in (CODE, CODE + 0x40)
        )
        assert first.__code__.co_name == f"block_{CODE:x}"
        assert second.__code__.co_name == f"block_{CODE + 0x40:x}"

    def test_a_host_profile_lists_each_translation(self):
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            kernel = Kernel()
            stage_redis(kernel)
            client = RedisClient(kernel, REDIS_PORT)
            assert client.set("k", "v") and client.get("k") == "v"
        finally:
            profiler.disable()
        blocks = [
            name for file, __, name in pstats.Stats(profiler).stats
            if file == "<dynajit>" and name.startswith("block")
        ]
        assert len(blocks) > 1


# ----------------------------------------------------------------------
# random straight-line code

DATA = 0x6000_0000
STACK_TOP = 0x7000_0000
#: registers a random instruction may write; r8..r10 hold bases, r12
#: the loop tail, r13 counts passes and r15 is sp
_FREE = st.integers(0, 7)
#: mostly the data page; sometimes the code page itself, the unmapped
#: page at 0x10, sp or a random value
_BASE = st.sampled_from([8, 8, 8, 8, 9, 10, 15, 0])
#: offsets that cross or leave the data page are the interesting ones
_IMM = st.one_of(st.integers(-64, 4200), st.integers(PAGE_SIZE - 12, PAGE_SIZE + 4))
_IMM32 = st.one_of(
    st.sampled_from([0, 1, -1, 63, 64, -(1 << 31), (1 << 31) - 1]),
    st.integers(-(1 << 31), (1 << 31) - 1),
)
_U64 = st.one_of(
    st.sampled_from([0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]),
    st.integers(0, (1 << 64) - 1),
)
_BRANCHES = ("je", "jne", "jl", "jge", "jg", "jle")


def _instruction():
    return st.one_of(
        st.tuples(st.just("movi"), _FREE, _U64),
        st.tuples(st.sampled_from(["add", "sub", "mul", "xor", "mov", "div", "mod"]),
                  _FREE, _FREE),
        st.tuples(st.sampled_from(["addi", "shli", "andi"]), _FREE, _IMM32),
        st.tuples(st.just("cmp"), _FREE, _FREE),
        st.tuples(st.just("cmpi"), _FREE, _IMM32),
        st.tuples(st.sampled_from(_BRANCHES), st.integers(0, 2)),
        st.tuples(st.sampled_from(_BRANCHES), st.integers(0, 2)),
        st.tuples(st.sampled_from(["ld8", "ld64"]), _FREE, _BASE, _IMM),
        st.tuples(st.sampled_from(["st8", "st64"]), _BASE, _FREE, _IMM),
        st.tuples(st.just("push"), _FREE),
        st.tuples(st.just("pop"), _FREE),
        st.tuples(st.just("call"), st.integers(0, 2)),
        st.tuples(st.just("ret")),
        st.tuples(st.just("int3")),
    )


def _program(values: list[int], body: list[tuple]) -> tuple[bytes, int, int]:
    """``body`` 16 times in a loop, with r0..r7 starting at ``values``;
    returns the code and the offsets of a signal handler that resumes at
    the loop's tail and of its restorer.  A branch or call skips the next
    0-2 instructions of the body; a ``ret`` returns to whatever ``sp``
    points at."""
    encoded = []
    for index, (mnemonic, *operands) in enumerate(body):
        if mnemonic in _BRANCHES or mnemonic == "call":
            operands = [len(_encode(*body[index + 1:index + 1 + operands[0]]))]
        encoded.append(_encode((mnemonic, *operands)))
    bases = [("movi", 8, DATA), ("movi", 9, CODE), ("movi", 10, 0x10),
             ("movi", 13, 16)]
    bases += [("movi", register, value) for register, value in enumerate(values)]
    tail = len(_encode(*bases)) + len(_encode(("movi", 12, 0))) + sum(map(len, encoded))
    prologue = _encode(*bases, ("movi", 12, CODE + tail))
    loop = b"".join(encoded) + _encode(("subi", 13, 1), ("cmpi", 13, 0))
    code = prologue + loop + _encode(("jg", -(len(loop) + len(_encode(("jg", 0))))))
    code += _EXIT
    handler = len(code)
    code += _encode(("st64", 2, 12, FRAME_RIP), ("ret",))
    restorer = len(code)
    code += _encode(("mov", 1, 15), ("movi", 0, int(Sys.SIGRETURN)), ("syscall",))
    return code, handler, restorer


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_U64, min_size=8, max_size=8),
       st.lists(_instruction(), min_size=4, max_size=24),
       st.one_of(st.just(0), st.integers(1, 7)))
# a block that starts with a store into its own page leaves before the
# store at a quantum boundary (quantum 1): the store must still run
# before the call stops
@example(values=[0] * 8, body=[("st8", 9, 0, 0)] + [("cmp", 0, 0)] * 3, misalign=0)
def test_random_straight_line_code_matches_stepping(values, body, misalign):
    """``misalign`` moves the initial ``sp`` off its 8-byte alignment, so
    the body's push, pop, call and ret take the unaligned path."""
    code, handler, restorer = _program(values, body)

    def setup(proc) -> None:
        proc.memory.mmap(DATA, PAGE_SIZE, "rw-")
        proc.memory.mmap(STACK_TOP - PAGE_SIZE, PAGE_SIZE, "rw-")
        proc.regs.gpr[15] = STACK_TOP - 64 - misalign
        action = SigAction(handler=CODE + handler, restorer=CODE + restorer)
        for signal in (Signal.SIGSEGV, Signal.SIGILL, Signal.SIGTRAP, Signal.SIGFPE):
            proc.sigactions[signal] = action

    def session(world: World) -> None:
        _run_code(world, code, setup=setup, max_instructions=3_000)

    _assert_like_stepping(session)
