"""Scheduler semantics: quantum batching, coalescing, determinism,
host sockets."""

from __future__ import annotations

from repro.apps import libc_image
from repro.kernel import Kernel, ProcessState

from .helpers import OneQuantumKernel, build_minic

_PROGRAM = (
    "extern func print_num;\n"
    "func main() { var acc = 0; var i = 0; while (i < 300) "
    "{ acc = (acc * 7 + i) % 1000; i = i + 1; } print_num(acc); return acc % 97; }"
)


def _spawn(kernel: Kernel, image):
    if "libc.so" in image.needed:
        kernel.register_binary(libc_image())
    kernel.register_binary(image)
    return kernel.spawn(image.name)


class TestQuantumParity:
    def test_single_step_and_quantum_agree(self):
        image = build_minic(_PROGRAM, "parity")

        # reference: pure single-stepping
        kernel_a = Kernel()
        proc_a = _spawn(kernel_a, image)
        while proc_a.alive:
            kernel_a.cpu.step(proc_a)
        # quantum batching through the scheduler
        kernel_b = Kernel()
        proc_b = _spawn(kernel_b, image)
        kernel_b.run_until(lambda: not proc_b.alive)

        assert proc_a.exit_code == proc_b.exit_code
        assert proc_a.stdout_text() == proc_b.stdout_text()
        assert proc_a.instructions_retired == proc_b.instructions_retired
        assert kernel_a.clock_ns == kernel_b.clock_ns

    def test_runs_are_deterministic(self):
        image = build_minic(_PROGRAM, "det")
        outcomes = []
        for __ in range(2):
            kernel = Kernel()
            proc = _spawn(kernel, image)
            kernel.run_until(lambda: not proc.alive)
            outcomes.append(
                (proc.exit_code, proc.instructions_retired, kernel.clock_ns)
            )
        assert outcomes[0] == outcomes[1]

    def test_clock_advances_per_instruction(self):
        image = build_minic("func main() { return 0; }", "clocked",
                            with_libc=False)
        kernel = Kernel()
        proc = _spawn(kernel, image)
        kernel.run_until(lambda: not proc.alive)
        expected_min = proc.instructions_retired * kernel.config.instruction_cost_ns
        assert kernel.clock_ns >= expected_min


_SPINNER = "func main() { while (1) { } return 0; }"

_SLEEPER = (
    "extern func sleep_ms; extern func clock_ns; extern func print_num;\n"
    "extern func println;\n"
    'func main() { println("sleeping"); sleep_ms(50); print_num(clock_ns()); '
    'println("woke"); return 0; }'
)

#: maps the page its first load faults on, then traps once; each handler
#: spins before and after it prints, so a stop missed after a syscall
#: shows in the clock and the retired count
_HANDLED = r"""
extern func sigaction;
extern func mmap;
extern func println;
extern func print_num;

var faults = 0;
var traps = 0;

func spin(n) {
    var i = 0; var acc = 0;
    while (i < n) { acc = (acc * 7 + i) % 1000; i = i + 1; }
    return acc;
}

func on_segv(sig, frame, fault) {
    faults = faults + 1;
    spin(300);
    mmap(fault, 4096, 3);
    println("segv");
    spin(300);
    return 0;
}

func on_trap(sig, frame, fault) {
    traps = traps + 1;
    spin(300);
    println("trap");
    spin(300);
    return 0;
}

func main() {
    sigaction(11, on_segv);
    sigaction(5, on_trap);
    var v = load8(0x50000000);
    spin(500);
    asm("int3");
    spin(500);
    print_num(faults * 10 + traps);
    return v + faults + traps;
}
"""

#: prints a number every 40 iterations, 25 times: two of them stopped
#: mid-run show the round-robin interleaving in how far each got
_TICKER = (
    "extern func print_num;\n"
    "func main() { var i = 0; while (i < 1000) { if (i % 40 == 0) "
    "{ print_num(i / 40); } i = i + 1; } return 7; }"
)


def _twins(*sources: str):
    """The same processes on a kernel that coalesces quanta and on one
    that runs a quantum at a time."""
    images = [build_minic(source, f"twin{index}")
              for index, source in enumerate(sources)]
    twins = []
    for kernel_class in (Kernel, OneQuantumKernel):
        kernel = kernel_class()
        twins.append((kernel, [_spawn(kernel, image) for image in images]))
    return twins


def _state(kernel: Kernel, procs) -> tuple:
    return kernel.clock_ns, [
        (proc.instructions_retired, tuple(proc.regs.gpr), proc.regs.rip,
         proc.regs.zf, proc.regs.lt, proc.stdout_text(), proc.state,
         proc.exit_code, proc.term_signal)
        for proc in procs
    ]


def _agree(twins) -> list:
    """Assert that both kernels reached the same state; returns the
    coalescing kernel's processes."""
    (kernel, procs), (reference, reference_procs) = twins
    assert _state(kernel, procs) == _state(reference, reference_procs)
    return procs


class TestCoalescing:
    """A process that runs alone runs whole quanta until the kernel has
    something new to check; it must stop where one quantum at a time
    stops."""

    def test_sleeper_wakes_at_the_same_boundary(self):
        twins = _twins(_SLEEPER, _SPINNER)
        for kernel, (sleeper, __) in twins:
            assert kernel.run_until(lambda: "woke" in sleeper.stdout_text(),
                                    max_instructions=200_000)
        procs = _agree(twins)
        # the spinner ran alone for the whole 50 ms sleep
        assert procs[1].instructions_retired > 5_000

    def test_instruction_budget_rounds_up_to_whole_quanta(self):
        twins = _twins(_SPINNER)
        for kernel, __ in twins:
            assert kernel.run(max_instructions=1_234) == 1_300
            assert not kernel.run_until_quiescent(max_instructions=2_345)
        procs = _agree(twins)
        assert procs[0].instructions_retired == 1_300 + 2_400

    def test_handled_fault_and_trap_stop_where_quanta_stop(self):
        twins = _twins(_HANDLED)
        for until in (lambda proc: "segv" in proc.stdout_text(),
                      lambda proc: "trap" in proc.stdout_text(),
                      lambda proc: not proc.alive):
            for kernel, (proc,) in twins:
                kernel.run_until(lambda: until(proc), max_instructions=200_000)
            procs = _agree(twins)
        assert procs[0].exit_code == 2
        assert procs[0].stdout_text() == "segv\ntrap\n11"

    def test_two_runnable_processes_interleave_a_quantum_each(self):
        twins = _twins(_TICKER, _TICKER)
        for kernel, procs in twins:
            kernel.run(max_instructions=30_000)
        procs = _agree(twins)
        # neither finished: the budget went to both in turn
        assert all(proc.alive for proc in procs)
        assert abs(procs[0].instructions_retired - procs[1].instructions_retired) <= 100


class TestQuiescence:
    def test_quiescent_when_all_exit(self):
        image = build_minic("func main() { return 0; }", "quiet",
                            with_libc=False)
        kernel = Kernel()
        _spawn(kernel, image)
        assert kernel.run_until_quiescent()
        assert not kernel.runnable_processes()

    def test_quiescent_when_blocked_on_io(self):
        image = build_minic(
            "extern func socket; extern func bind; extern func listen; "
            "extern func accept;\n"
            "func main() { var s = socket(); bind(s, 4001); listen(s, 1); "
            "accept(s); return 0; }",
            "blocker",
        )
        kernel = Kernel()
        proc = _spawn(kernel, image)
        assert kernel.run_until_quiescent()
        assert proc.state is ProcessState.BLOCKED

    def test_spinner_exhausts_budget(self):
        image = build_minic("func main() { while (1) { } return 0; }",
                            "spinner", with_libc=False)
        kernel = Kernel()
        _spawn(kernel, image)
        assert not kernel.run_until_quiescent(max_instructions=2_000)


class TestHostSocketEdges:
    def test_recv_until_returns_partial_on_eof(self):
        source = (
            "extern func socket; extern func bind; extern func listen;\n"
            "extern func accept; extern func send; extern func close;\n"
            "extern func println;\n"
            "func main() { var s = socket(); bind(s, 4002); listen(s, 1); "
            'println("up"); var c = accept(s); send(c, "nodelim", 7); '
            "close(c); return 0; }"
        )
        image = build_minic(source, "eofer")
        kernel = Kernel()
        proc = _spawn(kernel, image)
        kernel.run_until(lambda: "up" in proc.stdout_text())
        sock = kernel.connect(4002)
        data = sock.recv_until(b"\n", max_instructions=500_000)
        assert data == b"nodelim"

    def test_send_to_dead_server_raises(self):
        image = build_minic(
            "extern func socket; extern func bind; extern func listen;\n"
            "extern func accept; extern func close; extern func println;\n"
            'func main() { var s = socket(); bind(s, 4003); listen(s, 1); '
            'println("up"); var c = accept(s); close(c); return 0; }',
            "closer",
        )
        kernel = Kernel()
        proc = _spawn(kernel, image)
        kernel.run_until(lambda: "up" in proc.stdout_text())
        sock = kernel.connect(4003)
        kernel.run_until(lambda: not proc.alive)
        import pytest

        with pytest.raises(ConnectionError):
            sock.send(b"hello?")
