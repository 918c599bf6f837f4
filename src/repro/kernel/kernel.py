"""The kernel: process table, scheduler, virtual clock, host APIs.

The :class:`Kernel` owns everything a real OS would: the process table,
the filesystem, the network stack, the syscall table, and the CPU.  A
deterministic **virtual clock** advances with executed instructions and
syscall costs, so every latency the evaluation reports (service
interruption, checkpoint time) is a reproducible function of work done,
not wall time.

Host-side code (experiments, attack clients) interacts through:

* :meth:`register_binary` / :meth:`spawn` — stage and start guest
  programs;
* :meth:`connect` — open a TCP connection to a guest server, returning
  a :class:`HostSocket`;
* :meth:`run` / :meth:`run_until` — drive the scheduler;
* :meth:`freeze` / :meth:`thaw` — the CRIU seize/resume primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from ..binfmt.self_format import SelfImage
from .cpu import CPU
from .filesystem import InMemoryFS
from .loader import Loader
from .memory import AddressSpace
from .network import Endpoint, NetworkStack, SocketDescriptor
from .process import Process, ProcessState
from .signals import PendingSignal, Signal
from .syscalls import SecurityEvent, SyscallTable


@dataclass
class KernelConfig:
    """Tunable costs of the virtual clock (all in virtual nanoseconds)."""

    instruction_cost_ns: int = 10_000     # 10 us per instruction
    syscall_cost_ns: int = 50_000         # extra cost of kernel entry
    signal_cost_ns: int = 100_000         # signal delivery overhead
    quantum: int = 100                    # instructions per scheduling slice


class Tracer(Protocol):
    """Anything that consumes basic-block events (see repro.tracing)."""

    def on_block(self, proc: Process, address: int, size: int) -> None: ...


class HostSocket:
    """Host side of a guest TCP connection (the remote client)."""

    def __init__(self, kernel: "Kernel", endpoint: Endpoint):
        self.kernel = kernel
        self.endpoint = endpoint

    @property
    def conn_id(self) -> int:
        return self.endpoint.conn_id

    def send(self, data: bytes | str) -> None:
        if isinstance(data, str):
            data = data.encode("utf-8")
        if self.endpoint.send(data) < 0:
            raise ConnectionError("peer closed")

    def recv_available(self) -> bytes:
        return self.endpoint.recv(len(self.endpoint.recv_buffer))

    def recv_until(
        self,
        delimiter: bytes = b"\n",
        max_instructions: int = 2_000_000,
    ) -> bytes:
        """Run the kernel until ``delimiter`` arrives (or EOF); return bytes."""
        self.kernel.run_until(
            lambda: delimiter in self.endpoint.recv_buffer
            or (self.endpoint.peer is None or self.endpoint.peer.closed),
            max_instructions=max_instructions,
        )
        buf = self.endpoint.recv_buffer
        index = buf.find(delimiter)
        if index < 0:
            return self.recv_available()
        return self.endpoint.recv(index + len(delimiter))

    def request(
        self,
        data: bytes | str,
        delimiter: bytes = b"\n",
        max_instructions: int = 2_000_000,
    ) -> bytes:
        """Send ``data`` and wait for a delimited reply."""
        self.send(data)
        return self.recv_until(delimiter, max_instructions)

    @property
    def closed_by_peer(self) -> bool:
        return self.endpoint.peer is None or self.endpoint.peer.closed

    def close(self) -> None:
        self.endpoint.close()


class Kernel:
    """A complete simulated machine."""

    def __init__(self) -> None:
        self.config = KernelConfig()
        self.clock_ns = 0
        self.fs = InMemoryFS()
        self.net = NetworkStack()
        # the stack has no kernel reference; give it a clock reader so
        # balancer route resolution can open request-trace spans
        self.net.clock = lambda: self.clock_ns
        self.binaries: dict[str, SelfImage] = {}
        self.processes: dict[int, Process] = {}
        self._next_pid = 100
        self.syscalls = SyscallTable(self)
        self.cpu = CPU(self)
        self.loader = Loader(self)
        self.tracers: dict[int, Tracer] = {}
        self.security_log: list[SecurityEvent] = []

    # ------------------------------------------------------------------
    # binaries and processes

    def register_binary(self, image: SelfImage) -> None:
        """Install ``image`` into the kernel's binary registry."""
        self.binaries[image.name] = image

    def allocate_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def spawn(
        self,
        binary: str,
        argv: list[str] | None = None,
        pid: int | None = None,
        ppid: int = 0,
    ) -> Process:
        """Create and load a new process running ``binary``."""
        if pid is None:
            pid = self.allocate_pid()
        if pid in self.processes and self.processes[pid].alive:
            raise RuntimeError(f"pid {pid} already in use")
        proc = Process(pid, ppid, binary, AddressSpace())
        self.loader.load(proc, binary, argv if argv is not None else [binary])
        self.processes[pid] = proc
        return proc

    def fork(self, parent: Process) -> Process:
        """Clone ``parent``; the caller fixes up each side's ``r0``."""
        child = Process(
            self.allocate_pid(), parent.pid, parent.binary, parent.memory.clone()
        )
        child.regs = parent.regs.clone()
        child.fds = {fd: d.clone_for_fork() for fd, d in parent.fds.items()}
        child.next_fd = parent.next_fd
        child.sigactions = dict(parent.sigactions)
        child.modules = list(parent.modules)
        parent.children.append(child.pid)
        self.processes[child.pid] = child
        return child

    def terminate(
        self,
        proc: Process,
        exit_code: int | None = None,
        signal: Signal | None = None,
    ) -> None:
        """End ``proc`` (exit or fatal signal); notify the parent."""
        if not proc.alive:
            return
        proc.state = ProcessState.ZOMBIE
        proc.exit_code = exit_code
        proc.term_signal = signal
        self._close_fds(proc)
        parent = self.processes.get(proc.ppid)
        if parent is not None and parent.alive:
            self.post_signal(parent, PendingSignal(Signal.SIGCHLD))

    def _close_fds(self, proc: Process) -> None:
        for descriptor in proc.fds.values():
            if isinstance(descriptor, SocketDescriptor):
                if descriptor.endpoint is not None:
                    descriptor.endpoint.close()
                if descriptor.listener is not None and not self._listener_shared(
                    proc, descriptor
                ):
                    self.net.release_port(descriptor.listener.port)
        proc.fds.clear()

    def _listener_shared(self, proc: Process, sock: SocketDescriptor) -> bool:
        for other in self.processes.values():
            if other.pid == proc.pid or not other.alive:
                continue
            for descriptor in other.fds.values():
                if (
                    isinstance(descriptor, SocketDescriptor)
                    and descriptor.listener is sock.listener
                ):
                    return True
        return False

    def reap(self, zombie: Process) -> None:
        zombie.state = ProcessState.DEAD
        parent = self.processes.get(zombie.ppid)
        if parent is not None and zombie.pid in parent.children:
            parent.children.remove(zombie.pid)

    def kill_process(self, pid: int, signal: Signal = Signal.SIGKILL) -> None:
        proc = self.processes.get(pid)
        if proc is not None and proc.alive:
            self.post_signal(proc, PendingSignal(signal))

    def crash_process(self, pid: int) -> list[int]:
        """Abruptly kill ``pid`` and its whole subtree (power-cut SIGKILL).

        Unlike :meth:`terminate`, nothing gets a chance to clean up:
        established peers see EOF, but the tree's listening ports stay in
        the network table marked *orphaned* — exactly the stale state a
        load balancer sees after a backend dies, and what the fleet
        supervisor must detect and clear.  Returns the pids crashed.
        """
        proc = self.processes.get(pid)
        if proc is None or not proc.alive:
            return []
        crashed: list[int] = []
        for child_pid in list(proc.children):
            crashed += self.crash_process(child_pid)
        proc.state = ProcessState.ZOMBIE
        proc.exit_code = None
        proc.term_signal = Signal.SIGKILL
        for descriptor in proc.fds.values():
            if isinstance(descriptor, SocketDescriptor):
                if descriptor.endpoint is not None:
                    descriptor.endpoint.close()
                if descriptor.listener is not None and not self._listener_shared(
                    proc, descriptor
                ):
                    descriptor.listener.orphaned = True
        proc.fds.clear()
        crashed.append(pid)
        return crashed

    def post_signal(self, proc: Process, pending: PendingSignal) -> None:
        proc.pending_signals.append(pending)
        # signals interrupt blocking syscalls
        if proc.state is ProcessState.BLOCKED and pending.signal != Signal.SIGCHLD:
            proc.state = ProcessState.RUNNABLE
            proc.wake_predicate = None
            proc.wake_deadline = None

    # ------------------------------------------------------------------
    # freeze/thaw (CRIU seize)

    def freeze(self, pid: int) -> Process:
        proc = self._live(pid)
        proc.frozen_prior_state = proc.state  # type: ignore[attr-defined]
        proc.state = ProcessState.FROZEN
        return proc

    def thaw(self, pid: int) -> Process:
        proc = self._live(pid)
        if proc.state is not ProcessState.FROZEN:
            raise RuntimeError(f"pid {pid} is not frozen")
        prior = getattr(proc, "frozen_prior_state", ProcessState.RUNNABLE)
        proc.state = (
            ProcessState.RUNNABLE if prior is ProcessState.FROZEN else prior
        )
        if proc.state is ProcessState.BLOCKED and proc.wake_predicate is None:
            proc.state = ProcessState.RUNNABLE
        return proc

    def _live(self, pid: int) -> Process:
        proc = self.processes.get(pid)
        if proc is None or not proc.alive:
            raise RuntimeError(f"no live process with pid {pid}")
        return proc

    # ------------------------------------------------------------------
    # host network API

    def connect(self, port: int) -> HostSocket:
        """Open a host-side TCP connection to a guest server."""
        return HostSocket(self, self.net.connect(port))

    # ------------------------------------------------------------------
    # tracing and security log

    def attach_tracer(self, pid: int, tracer: Tracer) -> None:
        self.tracers[pid] = tracer

    def detach_tracer(self, pid: int) -> None:
        self.tracers.pop(pid, None)

    def log_security_event(self, pid: int, kind: str, detail: str) -> None:
        self.security_log.append(SecurityEvent(pid, kind, detail, self.clock_ns))

    # ------------------------------------------------------------------
    # scheduling

    def runnable_processes(self) -> list[Process]:
        return [
            p for p in self.processes.values() if p.state is ProcessState.RUNNABLE
        ]

    def run(
        self,
        max_instructions: int = 5_000_000,
        until: Callable[[], bool] | None = None,
    ) -> int:
        """Round-robin schedule until ``until()`` holds or the budget is
        spent (a pass ends at a quantum boundary, so it may overshoot).

        Returns the number of instructions executed.  Stops early when
        no process can make progress (all exited, frozen, or blocked on
        host input); when every process sleeps, the clock jumps to the
        earliest deadline.

        The kernel checks ``until`` and wakes blocked processes at
        quantum boundaries.  With two or more runnable processes each
        runs one quantum in turn.  A process that runs alone runs to
        its :meth:`_horizon`, and :meth:`CPU.run_quantum` stops it at
        the first boundary after a syscall, trap, fault or signal
        delivery; the boundaries it skips are those at which
        nothing the kernel checks can have changed.  That is exact as
        long as ``until`` reads only what those exits change: process
        output, socket buffers and peer state, process liveness and the
        process table, the security log, and tracer state set in
        ``on_syscall``.  It must not read registers, guest memory, the
        clock or a retired count, which change between boundaries.
        """
        executed = 0
        while executed < max_instructions:
            if until is not None and until():
                break
            runnable = self._wake()
            if not runnable:
                if not self._advance_clock_to_deadline():
                    break
                continue
            budget = self._slice(runnable, max_instructions - executed)
            for proc in runnable:
                executed += self.cpu.run_quantum(proc, budget)
                if until is not None and until():
                    return executed
        return executed

    def _wake(self) -> list[Process]:
        """Wake every blocked process whose predicate holds; the
        runnable processes."""
        for proc in list(self.processes.values()):
            proc.maybe_wake()
        return self.runnable_processes()

    def _slice(self, runnable: list[Process], remaining: int) -> int:
        """The budget of each of ``runnable`` in this scheduler pass."""
        if len(runnable) == 1:
            return self._horizon(remaining)
        return self.config.quantum

    def _horizon(self, remaining: int) -> int:
        """The steps the only runnable process may take before the
        kernel must check again: ``remaining`` rounded up to whole
        quanta, cut at the quantum boundary at which the earliest
        sleeper's deadline has passed.  Every other wake predicate
        changes only at an exit, where :meth:`CPU.run_quantum` stops."""
        config = self.config
        quantum = config.quantum
        quanta = -(-remaining // quantum)
        deadline = self._earliest_deadline()
        if deadline is not None and config.instruction_cost_ns:
            ns = quantum * config.instruction_cost_ns
            quanta = min(quanta, max(1, -(-(deadline - self.clock_ns) // ns)))
        return quanta * quantum

    def _earliest_deadline(self) -> int | None:
        deadlines = [
            p.wake_deadline
            for p in self.processes.values()
            if p.state is ProcessState.BLOCKED and p.wake_deadline is not None
        ]
        return min(deadlines) if deadlines else None

    def _advance_clock_to_deadline(self) -> bool:
        """Fast-forward to the earliest sleep deadline; False if none."""
        target = self._earliest_deadline()
        if target is None or target <= self.clock_ns:
            return False
        self.clock_ns = target
        return True

    def run_until(
        self, predicate: Callable[[], bool], max_instructions: int = 5_000_000
    ) -> bool:
        """Run until ``predicate`` is true; returns whether it fired."""
        self.run(max_instructions=max_instructions, until=predicate)
        return predicate()

    def run_until_quiescent(self, max_instructions: int = 2_000_000) -> bool:
        """Run until every process is blocked/frozen/dead.

        Profiling workflows call this before dumping coverage: a host
        client sees a server's reply *before* the server finishes its
        handler, so dumping immediately would attribute the handler's
        trailing blocks to the wrong phase.
        """
        executed = 0
        while executed < max_instructions:
            runnable = self._wake()
            if not runnable:
                return True
            budget = self._slice(runnable, max_instructions - executed)
            for proc in runnable:
                executed += self.cpu.run_quantum(proc, budget)
        return not self.runnable_processes()
