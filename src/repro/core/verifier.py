"""Host-side feature validation (§3.2.3).

When DynaCut runs with :attr:`TrapPolicy.VERIFY`, the injected library
restores falsely removed blocks in place and logs their addresses in
an in-library ring buffer.  This module reads that buffer back from the
live (restored) process so an operator can

* confirm the customized process still behaves correctly, and
* feed the falsely classified blocks back into the block lists
  (removing them from the "undesired" set) before the next rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..binfmt.self_format import SelfImage
from ..kernel.kernel import Kernel
from ..kernel.process import Process
from ..kernel.signals import Signal
from ..tracing.drcov import BlockRecord
from . import sighandler
from .rewriter import handler_library

#: verify-and-refine rounds :func:`validate_removal` runs at most
VALIDATION_ROUNDS = 3


@dataclass(frozen=True)
class VerificationReport:
    """Falsely-removed code observed by the verifier library."""

    pid: int
    trapped_addresses: tuple[int, ...]

    @property
    def clean(self) -> bool:
        """True when no supposedly-removed block was ever reached."""
        return not self.trapped_addresses


def _handler_base(proc: Process, library: SelfImage) -> int | None:
    action = proc.sigactions.get(Signal.SIGTRAP)
    if action is None or not action.handler:
        return None
    return action.handler - library.symbol_address(sighandler.HANDLER_SYMBOL)


def read_verifier_log(kernel: Kernel, proc: Process) -> VerificationReport:
    """Read the verifier ring buffer out of a live process's memory."""
    library = handler_library(kernel)
    if library is None:
        raise RuntimeError("libc.so not registered")
    base = _handler_base(proc, library)
    if base is None:
        return VerificationReport(proc.pid, ())
    count_addr = base + library.symbol_address(sighandler.LOG_COUNT_SYMBOL)
    table_addr = base + library.symbol_address(sighandler.LOG_TABLE_SYMBOL)
    count = int.from_bytes(proc.memory.read_raw(count_addr, 8), "little")
    count = min(count, sighandler.LOG_CAPACITY)
    addresses = tuple(
        int.from_bytes(proc.memory.read_raw(table_addr + 8 * i, 8), "little")
        for i in range(count)
    )
    return VerificationReport(proc.pid, addresses)


def falsely_removed_blocks(
    report: VerificationReport,
    candidate_blocks: list[BlockRecord],
    module_base: int = 0,
) -> list[BlockRecord]:
    """Map trapped addresses back to the blocks that were misclassified."""
    trapped = set(report.trapped_addresses)
    return [
        block for block in candidate_blocks
        if module_base + block.offset in trapped
    ]


def refine_block_list(
    blocks: list[BlockRecord],
    report: VerificationReport,
    module_base: int = 0,
) -> list[BlockRecord]:
    """Drop misclassified blocks from a removal list (the feedback loop)."""
    false = set(falsely_removed_blocks(report, blocks, module_base))
    return [block for block in blocks if block not in false]


def validate_removal(
    dynacut,
    root_pid: int,
    module: str,
    blocks: list[BlockRecord],
    exercise,
) -> tuple[list[BlockRecord], list[VerificationReport]]:
    """The full §3.2.3 workflow: verify, refine, repeat until clean.

    Removes ``blocks`` in verify mode, runs ``exercise()`` (the
    validation workload), reads back the falsely-removed log, drops the
    misclassified blocks, and repeats.  The verifier already healed the
    running process, so each round only re-applies the *refined* list.
    Returns the final (clean) block list and the per-round reports.
    """
    kernel = dynacut.kernel
    current = list(blocks)
    reports: list[VerificationReport] = []
    for __ in range(VALIDATION_ROUNDS):
        dynacut.remove_init_code(root_pid, module, current, verify=True)
        proc = dynacut.restored_process(root_pid)
        exercise()
        report = read_verifier_log(kernel, proc)
        reports.append(report)
        if report.clean:
            break
        current = refine_block_list(current, report)
        if not current:
            break
    return current, reports
