"""``chaos`` CLI — seeded fault-injection campaigns over customize().

Runs N seeded chaos campaigns per application (miniredis and
minilight): each run stages a fresh kernel, profiles a feature, arms
one seeded fault spec at a pipeline injection site, and drives a full
``disable_feature`` transaction through it.  Afterwards the run is
scored against the availability invariant:

* **survived** — the process tree is alive and serves the wanted
  workload, whether the transaction committed or rolled back;
* **half-patched** — some but not all of the feature's blocks carry
  the rewrite (must never happen; the transactional engine's contract).

Each application is one recorded run of the ``chaos`` campaign
(:mod:`repro.tools.campaign`), which writes
``results/chaos_campaign.json``; the full per-application telemetry
event streams (journal phases, rewrite reports, spans) go to the
uncommitted ``.jsonl`` sidecar next to it.  Exit status is 0 when
every run survived with zero half-patched outcomes, 1 otherwise.

Usage (``python -m repro.tools.chaos_cli`` is an alias)::

    python -m repro.tools.campaign chaos [--runs N] [--seed-base S]
                                         [--output FILE] [--app redis|lighttpd]
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from random import Random

from ..core import BlockMode, CustomizationAborted, DynaCut, TrapPolicy
from ..faults import KNOWN_SITES, FaultPlan
from ..telemetry import TelemetryHub
from ..workloads.corpus import CORPORA, profile

#: sites a campaign run may arm (all of them — the recipe visits each)
CAMPAIGN_SITES = sorted(KNOWN_SITES)
KINDS = ("transient", "permanent")
#: applications a campaign runs against, each profiled by ``chaos-<app>``
APPS = ("lighttpd", "redis")


def _serves(app: str, client) -> bool:
    """Whether the survivor still serves the wanted workload."""
    if app == "redis":
        return client.ping() and client.get("chaos-missing") is None
    return client.get("/").status == 200


def _module_base(proc, module: str) -> int:
    for loaded in proc.modules:
        if loaded.name == module:
            return loaded.load_base
    raise SystemExit(f"module {module!r} not mapped in pid {proc.pid}")


def run_campaign(app: str, runs: int, seed_base: int, hub: TelemetryHub) -> dict:
    """``runs`` seeded chaos runs against ``app``; returns the record."""
    records = []
    for index in range(runs):
        seed = seed_base + index
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
        "runs": runs,
        "survived": sum(r["survived"] for r in records),
        "committed": sum(r["outcome"] == "committed" for r in records),
        "rolled_back": sum(r["outcome"] == "rolled-back" for r in records),
        "runs_retried": sum(r["retries"] > 0 for r in records),
        "total_retries": sum(r["retries"] for r in records),
        "faults_fired": sum(r["faults_fired"] for r in records),
        "half_patched": sum(r["half_patched"] for r in records),
        "survival_rate": (
            sum(r["survived"] for r in records) / runs if runs else 1.0
        ),
    }
    return {
        "app": app,
        "ok": summary["survived"] == runs and summary["half_patched"] == 0,
        "summary": summary,
        "records": records,
    }


def flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--runs", type=int, default=10,
                        help="seeded runs per application (default 10)")
    parser.add_argument("--seed-base", type=int, default=1000,
                        help="first seed; run i uses seed-base + i")
    parser.add_argument("--app", choices=APPS, action="append",
                        help="restrict to one application (repeatable); "
                             "default: all")


def runs(args: argparse.Namespace) -> list:
    return [
        (f"chaos-{app}", partial(run_campaign, app, args.runs, args.seed_base))
        for app in args.app or APPS
    ]


def describe(campaign: dict) -> str:
    summary = campaign["summary"]
    return (
        f"{campaign['app']}: {summary['survived']}/{summary['runs']} "
        f"survived ({summary['committed']} committed, "
        f"{summary['rolled_back']} rolled back, "
        f"{summary['total_retries']} retries, "
        f"{summary['half_patched']} half-patched)"
    )


def main(argv: list[str] | None = None) -> int:
    from .campaign import alias

    return alias("chaos", argv)


if __name__ == "__main__":
    sys.exit(main())
