"""The basic-block tracer (DynamoRIO drcov client analogue).

A :class:`BlockTracer` attaches to one process; the CPU reports every
completed basic block as ``(address, size)`` and the tracer resolves it
to a module-relative :class:`BlockRecord`.

The **nudge** mechanism reproduces the paper's extension to DynamoRIO:
an external signal (here a method call, there a DynamoRIO nudge) makes
the tool dump the coverage collected so far — the initialization-phase
trace — then clear its cache and keep recording, yielding the
post-initialization trace when the program finishes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .drcov import BlockRecord, CoverageTrace, ModuleEntry

if TYPE_CHECKING:
    from ..kernel.kernel import Kernel
    from ..kernel.process import Process

#: instructions :meth:`BlockTracer.quiesce` steps at most before dumping
QUIESCE_MAX_INSTRUCTIONS = 500_000


class BlockTracer:
    """Collects drcov-style coverage for one traced process."""

    def __init__(self, kernel: "Kernel", proc: "Process"):
        self.kernel = kernel
        self.proc = proc
        self.trace = CoverageTrace(modules=self._module_table(proc))
        self.dumps: list[CoverageTrace] = []
        self.block_events = 0

    @staticmethod
    def _module_table(proc: "Process") -> list[ModuleEntry]:
        table = []
        for module in proc.modules:
            start = min(seg.vaddr for seg in module.image.segments) + module.load_base
            end = max(seg.end for seg in module.image.segments) + module.load_base
            table.append(ModuleEntry(module.name, start, end))
        return table

    # ------------------------------------------------------------------
    # CPU callback

    def on_block(self, proc: "Process", address: int, size: int) -> None:
        self.block_events += 1
        module = proc.module_for(address)
        if module is None:
            record = BlockRecord("[anon]", address, size)
        else:
            record = BlockRecord(module.name, address - module.load_base, size)
        self.trace.add(record)

    def on_syscall(self, proc: "Process", number: int) -> None:
        """Record syscall usage per phase (temporal specialization input)."""
        self.trace.syscalls.add(number)

    # ------------------------------------------------------------------
    # control

    def attach(self) -> "BlockTracer":
        self.kernel.attach_tracer(self.proc.pid, self)
        return self

    def detach(self) -> None:
        self.kernel.detach_tracer(self.proc.pid)

    def quiesce(self) -> bool:
        """Step the traced process until it parks in a blocking syscall.

        Mirrors how a DynamoRIO nudge executes at a safe point: a host
        client sees a server's reply *before* the handler's tail runs,
        so dumping immediately would attribute trailing blocks to the
        wrong phase.  Only meaningful for event-loop programs; CPU-bound
        programs never block, so their callers pass ``quiesce=False``
        (their phase boundary is the observed output line itself).
        """
        from ..kernel.process import ProcessState

        executed = 0
        while (
            executed < QUIESCE_MAX_INSTRUCTIONS
            and self.proc.state is ProcessState.RUNNABLE
        ):
            self.kernel.cpu.step(self.proc)
            executed += 1
        return self.proc.state is not ProcessState.RUNNABLE

    def nudge_dump(self, quiesce: bool = True) -> CoverageTrace:
        """Dump coverage collected so far and reset the code cache.

        Returns the dumped trace (e.g. the init-phase coverage) and
        starts a fresh one for the next phase.
        """
        if quiesce:
            self.quiesce()
        dumped = self.trace
        self.dumps.append(dumped)
        self.trace = CoverageTrace(modules=self._module_table(self.proc))
        return dumped

    def finish(self, quiesce: bool = True) -> CoverageTrace:
        """Stop tracing and return the current-phase trace."""
        if quiesce:
            self.quiesce()
        self.detach()
        self.dumps.append(self.trace)
        return self.trace

    def __enter__(self) -> "BlockTracer":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

