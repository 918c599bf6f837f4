"""Blind-ROP (BROP) simulation against the nginx-like server.

BROP (Bittau et al., Oakland'14) needs two properties of the target:

1. a **crash primitive** — here mininginx's unchecked 64-byte URL
   buffer, which a long request-line smashes;
2. **worker respawn** — the master forks an identical worker after
   every crash, letting the attacker brute-force one byte of the stack
   canary (or one gadget address) per probe against the *same* address
   space.

The simulator throws crash probes and counts how many consecutive
probes the service survives.  A real BROP needs on the order of
``8 * canary_bytes`` probes; if the worker is not respawned (because
DynaCut removed the master's post-init fork/respawn path), the first
probe ends the exercise and the attack is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernel.kernel import Kernel
from ..kernel.process import Process

#: probes a byte-by-byte canary brute force needs to be viable
PROBES_REQUIRED = 8
#: instructions one probe may run while waiting for a worker to change
PROBE_MAX_INSTRUCTIONS = 4_000_000


def _crash_request() -> str:
    return "GET /" + "A" * 400 + " HTTP/1.0\r\n\r\n"


def live_workers(kernel: Kernel, master_pid: int) -> list[Process]:
    return [
        proc for proc in kernel.processes.values()
        if proc.ppid == master_pid and proc.alive
    ]


@dataclass
class BropResult:
    probes_sent: int
    workers_crashed: int
    respawns_observed: int
    service_alive: bool

    @property
    def feasible(self) -> bool:
        """Could the attacker keep probing long enough to win?"""
        return self.probes_sent >= PROBES_REQUIRED and self.service_alive


def run_brop(
    kernel: Kernel,
    master: Process,
    port: int,
    probes: int = PROBES_REQUIRED,
) -> BropResult:
    """Throw ``probes`` crash probes; stop early if the service dies."""
    crashed = 0
    respawns = 0
    sent = 0
    for __ in range(probes):
        before = {proc.pid for proc in live_workers(kernel, master.pid)}
        if not before:
            break
        try:
            sock = kernel.connect(port)
        except Exception:
            break  # listener gone: service is down
        sent += 1
        sock.send(_crash_request())

        def worker_changed() -> bool:
            now = {proc.pid for proc in live_workers(kernel, master.pid)}
            return now != before or not master.alive

        kernel.run_until(worker_changed, max_instructions=PROBE_MAX_INSTRUCTIONS)
        sock.close()
        # let the master react: it either respawns a worker or dies trying
        # (wiped fork path); bounded by the probe budget otherwise
        kernel.run_until(
            lambda: bool(live_workers(kernel, master.pid)) or not master.alive,
            max_instructions=PROBE_MAX_INSTRUCTIONS,
        )
        after = {proc.pid for proc in live_workers(kernel, master.pid)}
        died = before - after
        fresh = after - before
        crashed += len(died)
        respawns += len(fresh)
        if not after:
            break  # no worker came back: nothing left to probe
    service_alive = bool(live_workers(kernel, master.pid))
    return BropResult(
        probes_sent=sent,
        workers_crashed=crashed,
        respawns_observed=respawns,
        service_alive=service_alive,
    )
