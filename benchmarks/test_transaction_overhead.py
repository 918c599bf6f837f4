"""Virtual-time overhead of the transactional customize() engine.

Three scenarios over miniredis, all in virtual nanoseconds:

* **clean** — a fault-free committed transaction; the baseline cost of
  a customize session (checkpoint + patch + inject + restore);
* **retry** — one transient dump fault: the engine pays one backoff
  plus the re-dump, then commits;
* **rollback** — one permanent restore fault: the engine pays the
  attempt plus the pristine restore, then aborts with the service up.

The numbers quantify the paper-level claim that failure handling costs
(at most) one extra checkpoint-or-restore leg, not a service outage.
"""

from __future__ import annotations

import json

from repro.core import BlockMode, CustomizationAborted, DynaCut, TrapPolicy
from repro.faults import FaultPlan
from repro.kernel import Kernel
from repro.workloads.corpus import CORPORA, profile

from conftest import print_table


def _session(plan: FaultPlan | None):
    profiled = profile(CORPORA["transaction-redis"])
    kernel, pid = profiled.kernel, profiled.root.pid
    client, feature = profiled.client, profiled.feature
    dynacut = DynaCut(kernel)
    start = kernel.clock_ns
    outcome = "committed"
    try:
        if plan is None:
            report = dynacut.disable_feature(
                pid, feature, policy=TrapPolicy.TERMINATE, mode=BlockMode.ALL
            )
        else:
            with plan:
                report = dynacut.disable_feature(
                    pid, feature,
                    policy=TrapPolicy.TERMINATE, mode=BlockMode.ALL,
                )
    except CustomizationAborted as exc:
        outcome = "rolled-back"
        report = exc.report
    elapsed = kernel.clock_ns - start
    assert kernel.processes[pid].alive
    assert client.ping()
    return {
        "outcome": outcome,
        "attempts": report.attempts,
        "session_ns": elapsed,
        "journal_entries": len(dynacut.last_journal.entries),
    }


def test_transaction_overhead(benchmark, results_dir):
    cost = DynaCut(Kernel()).cost_model

    def run():
        return {
            "clean": _session(None),
            "retry": _session(
                FaultPlan(seed=1).arm(
                    "checkpoint.dump_pages", "transient", on_call=1
                )
            ),
            "rollback": _session(
                FaultPlan(seed=2).arm("restore.memory", "permanent", on_call=1)
            ),
            "backoff_ns": [cost.retry_backoff(n) for n in (1, 2, 3, 4, 5)],
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    clean = results["clean"]
    retry = results["retry"]
    rollback = results["rollback"]

    print_table(
        "Transactional customize(): virtual-time cost per scenario",
        ["scenario", "outcome", "attempts", "session ms", "journal entries"],
        [
            [name, row["outcome"], row["attempts"],
             round(row["session_ns"] / 1e6, 2), row["journal_entries"]]
            for name, row in (
                ("clean", clean), ("retry", retry), ("rollback", rollback)
            )
        ],
    )
    (results_dir / "transaction_overhead.json").write_text(
        json.dumps(results, indent=2)
    )

    assert clean["outcome"] == "committed" and clean["attempts"] == 1
    assert retry["outcome"] == "committed" and retry["attempts"] == 2
    assert rollback["outcome"] == "rolled-back"

    # a retried dump costs at least one backoff more than a clean run,
    # but far less than twice the session (the tree was never destroyed)
    assert retry["session_ns"] >= clean["session_ns"] + cost.retry_backoff(1)
    assert retry["session_ns"] < 2 * clean["session_ns"]
    # a rollback pays roughly one extra restore leg, not a second session
    assert rollback["session_ns"] < 2 * clean["session_ns"]
    # backoff is capped
    assert results["backoff_ns"][-1] == cost.retry_backoff_cap_ns
    assert results["backoff_ns"][0] == cost.retry_backoff_ns
