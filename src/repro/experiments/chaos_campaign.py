"""Seeded fault-injection campaigns over customize().

Runs :data:`RUNS` seeded chaos runs per application (minilight and
miniredis): each run stages a fresh kernel, profiles a feature, arms
one seeded fault spec at a pipeline injection site, and drives a full
``disable_feature`` transaction through it.  Afterwards the run is
scored against the availability invariant:

* **survived** — the process tree is alive and serves the wanted
  workload, whether the transaction committed or rolled back;
* **half-patched** — some but not all of the feature's blocks carry
  the rewrite (must never happen; the transactional engine's contract).

Each application is one recorded run of the ``chaos`` record, which
writes ``results/chaos_campaign.json``; the full per-application
telemetry event streams (journal phases, rewrite reports, spans) go to
the uncommitted ``.jsonl`` sidecar next to it.  The record is clean
when every run survived with zero half-patched outcomes.
"""

from __future__ import annotations

from argparse import Namespace
from functools import partial
from random import Random

from ..core import BlockMode, CustomizationAborted, DynaCut, TrapPolicy
from ..faults import KNOWN_SITES, FaultPlan
from ..telemetry import TelemetryHub
from ..workloads.corpus import CORPORA, profile
from . import Pass, recorded

#: sites a campaign run may arm (all of them — the recipe visits each)
CAMPAIGN_SITES = sorted(KNOWN_SITES)
KINDS = ("transient", "permanent")
#: applications a campaign runs against, each profiled by ``chaos-<app>``
APPS = ("lighttpd", "redis")
#: seeded runs per application; run ``i`` uses seed ``SEED_BASE + i``
RUNS = 10
SEED_BASE = 1000


def _serves(app: str, client) -> bool:
    """Whether the survivor still serves the wanted workload."""
    if app == "redis":
        return client.ping() and client.get("chaos-missing") is None
    return client.get("/").status == 200


def _module_base(proc, module: str) -> int:
    for loaded in proc.modules:
        if loaded.name == module:
            return loaded.load_base
    raise ValueError(f"module {module!r} not mapped in pid {proc.pid}")


def run_app(app: str, hub: TelemetryHub) -> dict:
    """:data:`RUNS` seeded chaos runs against ``app``; returns the record."""
    records = []
    for index in range(RUNS):
        seed = SEED_BASE + index
        rng = Random(seed)
        site = rng.choice(CAMPAIGN_SITES)
        kind = rng.choice(KINDS)

        profiled = profile(CORPORA[f"chaos-{app}"])
        kernel, proc, feature = profiled.kernel, profiled.root, profiled.feature
        # each run stages a fresh kernel; follow its virtual clock
        hub.bind_clock(lambda kernel=kernel: kernel.clock_ns)
        pid = proc.pid
        base = _module_base(proc, profiled.binary)
        offsets = [base + block.offset for block in feature.blocks]
        before = {off: proc.memory.read_raw(off, 1) for off in offsets}

        dynacut = DynaCut(kernel, lint_mode="always")
        plan = FaultPlan(seed=seed).arm(
            site, kind, probability=0.9, times=1,
            torn=(site == "fs.write_file"),
        )
        outcome = "committed"
        try:
            with plan:
                report = dynacut.disable_feature(
                    pid, feature,
                    policy=TrapPolicy.VERIFY, mode=BlockMode.ALL,
                )
        except CustomizationAborted as exc:
            outcome = "rolled-back"
            report = exc.report

        survivor = kernel.processes.get(pid)
        alive = survivor is not None and survivor.alive
        serving = bool(alive and _serves(app, profiled.client))
        after = (
            {off: survivor.memory.read_raw(off, 1) for off in offsets}
            if alive else {}
        )
        if outcome == "committed":
            intact = all(byte == b"\xcc" for byte in after.values())
        else:
            intact = after == before
        half_patched = alive and not intact

        records.append({
            "seed": seed,
            "site": site,
            "kind": kind,
            "outcome": outcome,
            "attempts": report.attempts,
            "retries": report.attempts - 1,
            "faults_fired": plan.fired,
            "log_consistent": plan.consistent_with_plan(),
            "survived": serving,
            "half_patched": half_patched,
        })

    summary = {
        "runs": RUNS,
        "survived": sum(r["survived"] for r in records),
        "committed": sum(r["outcome"] == "committed" for r in records),
        "rolled_back": sum(r["outcome"] == "rolled-back" for r in records),
        "runs_retried": sum(r["retries"] > 0 for r in records),
        "total_retries": sum(r["retries"] for r in records),
        "faults_fired": sum(r["faults_fired"] for r in records),
        "half_patched": sum(r["half_patched"] for r in records),
        "survival_rate": sum(r["survived"] for r in records) / RUNS,
    }
    return {
        "app": app,
        "ok": summary["survived"] == RUNS and summary["half_patched"] == 0,
        "summary": summary,
        "records": records,
    }


def describe(campaign: dict) -> str:
    summary = campaign["summary"]
    return (
        f"{campaign['app']}: {summary['survived']}/{summary['runs']} "
        f"survived ({summary['committed']} committed, "
        f"{summary['rolled_back']} rolled back, "
        f"{summary['total_retries']} retries, "
        f"{summary['half_patched']} half-patched)"
    )


def run(args: Namespace) -> Pass:
    return recorded(
        args.output,
        [(f"chaos-{app}", partial(run_app, app)) for app in APPS],
        describe,
    )
