"""Drifting-workload chaos for the shelving policies.

Each seed runs the same three-phase workload against three fresh
fleets, one per drift action, and compares what is left of the debloat
at the end:

* phase A ``[0, 3s)`` — wanted traffic only; the verify-mode removal
  set stays cold;
* phase B ``[3s, 8s)`` — the workload drifts: a seeded fraction
  (:data:`PUT_MIX`) of requests exercises the removed ``dav-write``
  feature (PUT), so the verifier heals and logs the blocks it reaches;
* phase C ``[8s, 12s)`` — the drift subsides; only the shelving policy
  can win this phase back.

Scenario verdicts (a campaign seed is **clean** only if all hold):

* ``reenable`` — today's blunt policy: the first windowed burst rolls
  the whole feature back fleet-wide and retention collapses to **0 %**
  forever (the control the shelving policies are measured against);
* ``shelve`` — only the trapping blocks come back; the cold remainder
  stays removed (retention stays positive all through the drift), and
  once the drift subsides the decay sweep re-removes the shelf, so
  final retention must recover to at least
  :data:`RETENTION_FLOOR_PCT` with zero escalations;
* ``recustomize`` — at least one adaptive narrowing round completes
  with a non-empty narrowed set and **zero** ``dead_restores`` (a
  trapped block the static classifier proved dead would mean one of
  the two analyses is wrong), leaving retention positive.

Every scenario must also lose **zero** requests: wanted traffic and
the drifted PUT mix both serve throughout (``verify`` heals, shelving
restores, nothing refuses), and the driver's accounting identity
``total == served + failed`` holds with ``failed == 0``.

This is the ``shelve`` record, which writes
``results/shelve_campaign.json``; the ``shelve-retention`` record runs
the same scenarios at another seed.
"""

from __future__ import annotations

from argparse import Namespace
from functools import partial
from random import Random

from ..fleet import DriftDetector, FleetController, FleetPolicy, RolloutExecutor
from ..kernel import Kernel
from ..telemetry import TelemetryHub
from ..workloads import (
    HttpClient,
    SECOND_NS,
    TimelineEvent,
    run_request_timeline,
)
from . import Pass, recorded

#: the removed feature the drifted mix exercises
DRIFT_FEATURE = "dav-write"
#: one isolated fleet per (seed, action); order fixes rng sub-seeds
SCENARIOS = ("reenable", "shelve", "recustomize")
#: phase boundaries (seconds of virtual time)
DRIFT_START_S, DRIFT_END_S, DURATION_S = 3, 8, 12
#: settle checks after the workload: lets the last shelf decay
SETTLE_CHECKS = 2
SEEDS = (900,)
#: instances in each scenario fleet (shelving is per instance)
SIZE = 2
#: P(a drifted PUT rides along) during phase B
PUT_MIX = 0.35
#: min % of removed bytes the shelve scenario must retain after cooldown
RETENTION_FLOOR_PCT = 60.0


def removed_bytes(controller: FleetController) -> dict[str, int]:
    """Per-instance bytes still durably patched out of the image."""
    per_instance = {}
    for instance in controller.instances:
        total = 0
        for feature_name in controller.policy.features:
            blocks = instance.engine.disabled_blocks(
                instance.root_pid, feature_name
            )
            total += sum(block.size for block in blocks)
        per_instance[instance.name] = total
    return per_instance


def retention_pct(controller: FleetController, baseline: dict) -> float:
    base = sum(baseline.values())
    if not base:
        return 0.0
    return round(100.0 * sum(removed_bytes(controller).values()) / base, 4)


def scenario_policy(action: str) -> FleetPolicy:
    return FleetPolicy(
        features=(DRIFT_FEATURE,),
        trap_policy="verify",
        block_mode="all",
        strategy="rolling",
        max_unavailable=1,
        probe_requests=2,
        drift_window_ns=4 * SECOND_NS,
        drift_trap_threshold=4,
        drift_action=action,
        shelve_decay_ns=2 * SECOND_NS,
        # the full PUT path is 24 blocks: the shelf must hold it without
        # escalating (escalation is exercised by the unit tests instead)
        shelve_max_live_blocks=32,
    )


def run_scenario(seed: int, action: str, hub: TelemetryHub) -> dict:
    rng = Random(f"shelve:{seed}:{action}")
    kernel = Kernel()
    hub.bind_clock(lambda: kernel.clock_ns)
    controller = FleetController(
        kernel, "lighttpd", scenario_policy(action), size=SIZE
    )
    controller.spawn_fleet()
    rollout = RolloutExecutor(controller).run()
    baseline = removed_bytes(controller)
    detector = DriftDetector(controller)
    app = controller.app

    puts = {"issued": 0, "ok": 0}
    start = kernel.clock_ns

    def drifted_put() -> bool:
        # PUT only — the adapter's feature_request would also DELETE,
        # heating the *entire* removal set; the point of the drifted
        # mix is that the DELETE half stays cold and stays removed
        puts["issued"] += 1
        client = HttpClient(kernel, controller.frontend_port)
        path = f"/drift-{puts['issued']:05d}.txt"
        return client.put(path, "x").status == 201

    def request_once() -> bool:
        ok = app.wanted_request(kernel, controller.frontend_port)
        offset = kernel.clock_ns - start
        in_drift = DRIFT_START_S * SECOND_NS <= offset < DRIFT_END_S * SECOND_NS
        if in_drift and rng.random() < PUT_MIX:
            if drifted_put():
                puts["ok"] += 1
        return ok

    snapshots: dict[str, float] = {}
    events = [
        TimelineEvent(
            at_ns=second * SECOND_NS,
            label=f"drift-check-{second}",
            action=detector.check,
        )
        for second in range(1, DURATION_S)
    ] + [
        # strictly after the same-second drift check: the end-of-drift
        # figure is measured on durable state, not pending heals
        TimelineEvent(
            at_ns=DRIFT_END_S * SECOND_NS + 1_000_000,
            label="retention-at-drift-end",
            action=lambda: snapshots.__setitem__(
                "drift_end_pct", retention_pct(controller, baseline)
            ),
        )
    ]
    timeline = run_request_timeline(
        kernel, request_once,
        duration_ns=DURATION_S * SECOND_NS,
        events=events,
    )
    # cooldown settle: with the workload stopped, every surviving shelf
    # entry goes cold and the decay sweep must take it back
    for __ in range(SETTLE_CHECKS):
        kernel.clock_ns += controller.policy.shelve_decay_ns
        detector.check()
    final_pct = retention_pct(controller, baseline)
    status = detector.status

    no_loss = (
        timeline.accounted
        and timeline.failed_requests == 0
        and not timeline.errors
        and puts["issued"] > 0
        and puts["ok"] == puts["issued"]
    )
    rounds = status.recustomize_rounds
    if action == "reenable":
        verdict = status.triggered and final_pct == 0.0
    elif action == "shelve":
        verdict = (
            status.shelved_blocks > 0
            and status.decayed_blocks > 0
            and not status.escalated
            and snapshots.get("drift_end_pct", 0.0) > 0.0
            and final_pct >= RETENTION_FLOOR_PCT
        )
    else:  # recustomize
        verdict = (
            len(rounds) >= 1
            and any(r["narrowed_blocks"] > 0 for r in rounds)
            and all(r["dead_restores"] == 0 for r in rounds)
            and final_pct > 0.0
        )
    return {
        "seed": seed,
        "action": action,
        "ok": bool(rollout.completed and no_loss and verdict),
        "rollout_completed": rollout.completed,
        "accounted": timeline.accounted,
        "baseline_removed_bytes": sum(baseline.values()),
        "retained_drift_pct": snapshots.get("drift_end_pct"),
        "retained_final_pct": final_pct,
        "drift": status.to_dict(),
        "workload": {
            "total_requests": timeline.total_requests,
            "served": timeline.served,
            "failed_requests": timeline.failed_requests,
            "errors": len(timeline.errors),
            "puts_issued": puts["issued"],
            "puts_ok": puts["ok"],
        },
        "clock_ns": kernel.clock_ns,
    }


def describe(campaign: dict) -> str:
    drift = campaign["drift"]
    return (
        f"seed {campaign['seed']} [{campaign['action']:>11}] "
        f"{'ok' if campaign['ok'] else 'VIOLATED'}: "
        f"retained {campaign['retained_drift_pct']}% during drift, "
        f"{campaign['retained_final_pct']}% final; "
        f"shelved {drift['shelved_blocks']} / "
        f"decayed {drift['decayed_blocks']} blocks, "
        f"{len(drift['recustomize_rounds'])} narrowing rounds, "
        f"{campaign['workload']['puts_issued']} drifted PUTs, "
        f"{campaign['workload']['failed_requests']} failed"
    )


def run(args: Namespace) -> Pass:
    return recorded(
        args.output,
        [
            (f"shelve-{seed}-{action}", partial(run_scenario, seed, action))
            for seed in SEEDS
            for action in SCENARIOS
        ],
        describe,
        header={
            "size": SIZE,
            "put_mix": PUT_MIX,
            "retention_floor_pct": RETENTION_FLOOR_PCT,
            "drift_feature": DRIFT_FEATURE,
            "scenarios": list(SCENARIOS),
        },
    )
