"""Extension: live library re-randomization (§5).

Measures the cost of moving libc under the running servers and
verifies the security effect: addresses leaked before the move are
dead afterwards, while service (and TCP connections) continue.
"""

from __future__ import annotations

import json
from argparse import Namespace

from ..apps import LIGHTTPD_PORT, REDIS_PORT
from ..core import DynaCut
from ..kernel import ProcessState, Signal
from ..workloads import HttpClient, RedisClient
from ..workloads.corpus import CORPORA, profile
from . import Pass, claims


def _libc_base(proc) -> int:
    return next(m.load_base for m in proc.modules if m.name == "libc.so")


def run(args: Namespace) -> Pass:
    results = {}
    for label, corpus in (("Redis", "figures-redis"),
                          ("Lighttpd", "figures-lighttpd")):
        profiled = profile(CORPORA[corpus])
        kernel = profiled.kernel
        proc = profiled.root
        dynacut = DynaCut(kernel)

        bases = [_libc_base(proc)]
        costs = []
        for __ in range(3):
            moved = dynacut.rerandomize_library(proc.pid, "libc.so")
            proc = dynacut.restored_process(proc.pid)
            bases.append(_libc_base(proc))
            costs.append(moved.total_ns / 1e6)

        if label == "Redis":
            client = RedisClient(kernel, REDIS_PORT)
            serving = client.ping() and client.set("k", "v")
        else:
            serving = HttpClient(kernel, LIGHTTPD_PORT).get("/").status == 200

        # a pre-move leak is dead: pivot the process there and watch it
        # fault without reaching libc code
        stale = bases[0] + 0x100
        proc.regs.rip = stale
        if proc.state is ProcessState.BLOCKED:
            proc.state = ProcessState.RUNNABLE
            proc.wake_predicate = None
        kernel.run(max_instructions=5_000, until=lambda: not proc.alive)
        results[label] = {
            "bases": [hex(b) for b in bases],
            "distinct_bases": len(set(bases)),
            "move_ms": costs,
            "serving_after_moves": bool(serving),
            "stale_pivot_killed": (not proc.alive)
            and proc.term_signal is Signal.SIGSEGV,
        }

    def shape() -> None:
        for label, r in results.items():
            assert r["distinct_bases"] >= 2, label
            assert r["serving_after_moves"], label
            assert r["stale_pivot_killed"], label
            assert all(c < 1000 for c in r["move_ms"]), label

    return Pass({args.output: json.dumps(results, indent=2)},
                failed=claims(shape))
