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
from argparse import Namespace
from contextlib import nullcontext

from ..core import BlockMode, CustomizationAborted, DynaCut, TrapPolicy
from ..criu.costmodel import DEFAULT_COST_MODEL
from ..faults import FaultPlan
from ..workloads.corpus import CORPORA, profile
from . import Pass, claims


def _session(plan: FaultPlan | None) -> dict:
    profiled = profile(CORPORA["transaction-redis"])
    kernel, pid = profiled.kernel, profiled.root.pid
    client, feature = profiled.client, profiled.feature
    dynacut = DynaCut(kernel)
    start = kernel.clock_ns
    outcome = "committed"
    try:
        with plan if plan is not None else nullcontext():
            report = dynacut.disable_feature(
                pid, feature, policy=TrapPolicy.TERMINATE, mode=BlockMode.ALL
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


def run(args: Namespace) -> Pass:
    cost = DEFAULT_COST_MODEL
    results = {
        "clean": _session(None),
        "retry": _session(
            FaultPlan(seed=1).arm("checkpoint.dump_pages", "transient", on_call=1)
        ),
        "rollback": _session(
            FaultPlan(seed=2).arm("restore.memory", "permanent", on_call=1)
        ),
        "backoff_ns": [cost.retry_backoff(n) for n in (1, 2, 3, 4, 5)],
    }
    clean, retry, rollback = (results[name] for name in ("clean", "retry", "rollback"))

    def shape() -> None:
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

    return Pass({args.output: json.dumps(results, indent=2)},
                failed=claims(shape))
