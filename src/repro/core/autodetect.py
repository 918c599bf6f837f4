"""Automatic initialization/serving transition detection (§5).

The paper's profiling is semi-automatic: a human watches the server's
log and nudges the tracer when initialization looks finished.  Its
discussion proposes monitoring "specific system calls to determine the
end of the initialization phase, making DynaCut fully automatic".

For servers the signal is crisp: initialization ends the first time
the process *waits for a client* — the first ``accept``/``poll`` after
a ``listen``.  That is exactly the boundary the manual analyses in
prior work picked (Nginx's ``ngx_worker_process_cycle``, Lighttpd's
``server_main_loop``).  :class:`AutoNudgeTracer` watches the traced
process's syscalls and dumps the init-phase coverage at that moment,
no human in the loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..kernel.syscalls import Sys
from ..tracing.drcov import CoverageTrace
from ..tracing.tracer import BlockTracer

if TYPE_CHECKING:
    from ..kernel.kernel import Kernel
    from ..kernel.process import Process

#: syscalls that mean "the server is now waiting for clients"
TRANSITION_SYSCALLS = frozenset({int(Sys.ACCEPT), int(Sys.POLL)})


class AutoNudgeTracer(BlockTracer):
    """A block tracer that nudges itself at the init/serving boundary.

    After the traced process has issued ``listen``, the first
    transition syscall (``accept`` or ``poll``) dumps the
    coverage collected so far into :attr:`init_trace` and starts the
    serving-phase trace — the automated equivalent of the operator
    watching for the ready line.
    """

    def __init__(self, kernel: "Kernel", proc: "Process"):
        super().__init__(kernel, proc)
        self.init_trace: CoverageTrace | None = None
        self._listening = False

    @property
    def transitioned(self) -> bool:
        return self.init_trace is not None

    def on_syscall(self, proc: "Process", number: int) -> None:
        super().on_syscall(proc, number)
        if number == int(Sys.LISTEN):
            self._listening = True
            return
        # accept implies a listening socket even when it was inherited
        # from a forking master (the Nginx worker case); poll is only a
        # transition once this process is known to be a server
        waiting_for_clients = number == int(Sys.ACCEPT) or (
            self._listening and number in TRANSITION_SYSCALLS
        )
        if (
            self.init_trace is None
            and waiting_for_clients
            and number in TRANSITION_SYSCALLS
        ):
            # the boundary syscall itself belongs to the serving phase
            self.trace.syscalls.discard(number)
            self.init_trace = self.nudge_dump(quiesce=False)
            self.trace.syscalls.add(number)


def autodetect_init_phase(
    kernel: "Kernel",
    proc: "Process",
    max_instructions: int = 10_000_000,
) -> tuple[AutoNudgeTracer, CoverageTrace]:
    """Run ``proc`` until its init/serving transition; return the tracer
    (still attached, now collecting the serving phase) and the init trace.
    """
    tracer = AutoNudgeTracer(kernel, proc)
    tracer.attach()
    kernel.run_until(
        lambda: tracer.transitioned, max_instructions=max_instructions
    )
    if tracer.init_trace is None:
        tracer.detach()
        raise RuntimeError(
            f"pid {proc.pid} never reached a listen→accept/poll transition"
        )
    return tracer, tracer.init_trace
