"""Extension benchmark: live library re-randomization (§5).

Measures the cost of moving libc under the running servers and
verifies the security effect: addresses leaked before the move are
dead afterwards, while service (and TCP connections) continue.
"""

from __future__ import annotations

import json

from repro.core import DynaCut
from repro.kernel import ProcessState, Signal
from repro.workloads import HttpClient, RedisClient
from repro.apps import LIGHTTPD_PORT, REDIS_PORT

from repro.workloads.corpus import CORPORA, profile

from conftest import print_table


def _libc_base(proc) -> int:
    return next(m.load_base for m in proc.modules if m.name == "libc.so")


def test_ext_live_rerandomization(benchmark, results_dir):
    def run():
        out = {}
        for label, corpus, port in (
            ("Redis", "figures-redis", REDIS_PORT),
            ("Lighttpd", "figures-lighttpd", LIGHTTPD_PORT),
        ):
            profiled = profile(CORPORA[corpus])
            kernel = profiled.kernel
            proc = profiled.root
            dynacut = DynaCut(kernel)

            bases = [_libc_base(proc)]
            costs = []
            for __ in range(3):
                report = dynacut.rerandomize_library(proc.pid, "libc.so")
                proc = dynacut.restored_process(proc.pid)
                bases.append(_libc_base(proc))
                costs.append(report.total_ns / 1e6)

            if label == "Redis":
                client = RedisClient(kernel, REDIS_PORT)
                serving = client.ping() and client.set("k", "v")
            else:
                client = HttpClient(kernel, LIGHTTPD_PORT)
                serving = client.get("/").status == 200

            # a pre-move leak is dead: pivot the process there and watch
            # it fault without reaching libc code
            stale = bases[0] + 0x100
            proc.regs.rip = stale
            if proc.state is ProcessState.BLOCKED:
                proc.state = ProcessState.RUNNABLE
                proc.wake_predicate = None
            kernel.run(max_instructions=5_000, until=lambda: not proc.alive)
            out[label] = {
                "bases": [hex(b) for b in bases],
                "distinct_bases": len(set(bases)),
                "move_ms": costs,
                "serving_after_moves": bool(serving),
                "stale_pivot_killed": (not proc.alive)
                and proc.term_signal is Signal.SIGSEGV,
            }
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [label, r["distinct_bases"],
         " / ".join(f"{c:.0f}" for c in r["move_ms"]),
         r["serving_after_moves"], r["stale_pivot_killed"]]
        for label, r in results.items()
    ]
    print_table(
        "Extension: live libc re-randomization",
        ["app", "distinct bases (4 snapshots)", "move cost ms (x3)",
         "serving after", "stale pivot dies"],
        rows,
    )
    (results_dir / "ext_rerandomization.json").write_text(
        json.dumps(results, indent=2)
    )

    for label, r in results.items():
        assert r["distinct_bases"] >= 2, label
        assert r["serving_after_moves"], label
        assert r["stale_pivot_killed"], label
        assert all(c < 1000 for c in r["move_ms"]), label
