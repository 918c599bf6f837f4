"""Seeded chaos campaigns against DynaGuard.

Each seed builds a fresh customized fleet, puts it under a closed-loop
balanced workload, and arms one of four seeded failure scenarios:

* ``crash``   — probabilistic SIGKILLs of instance trees mid-window;
* ``wedge``   — probe hangs that walk instances HEALTHY → SUSPECT →
  DOWN without the process dying;
* ``corrupt`` — a crash whose committed image is then unreadable at
  recovery, forcing the pristine-respawn fallback;
* ``quarantine`` — a crash whose restores fail permanently until the
  instance is quarantined.

Crashes are injected *between* heartbeats (x.5 s against ticks on whole
seconds), so the balancer serves from a stale view for half a virtual
second and connection failover is actually exercised.  A campaign seed
is **clean** when the fleet settles with every instance HEALTHY or
cleanly QUARANTINED, every request is accounted (served, failed over,
or logged as failed), and the injection log matches the armed plan.

This is the ``supervisor`` record: each seed runs under its own
telemetry hub, the committed report (``results/supervisor_chaos.json``)
carries summaries and per-scenario digests only, and the full per-seed
event streams land in the uncommitted ``<output>.jsonl`` sidecar.
"""

from __future__ import annotations

from argparse import Namespace
from functools import partial
from random import Random

from ..faults import FaultPlan
from ..fleet import (
    FleetController,
    FleetPolicy,
    FleetSupervisor,
    HealthState,
    RolloutExecutor,
    inject_chaos,
)
from ..kernel import Kernel
from ..telemetry import TelemetryHub
from ..workloads import (
    SECOND_NS,
    TimelineEvent,
    TimelineResult,
    run_request_timeline,
)
from . import Pass, recorded

SCENARIOS = ("crash", "wedge", "corrupt", "quarantine")
#: bounded post-workload settling: heartbeats until the fleet is quiet
SETTLE_TICKS = 12
SEEDS = range(100, 120)
APP = "lighttpd"
SIZE = 4
DURATION_S = 12


def _arm_scenario(plan: FaultPlan, scenario: str, rng: Random) -> None:
    if scenario == "crash":
        plan.arm(
            "fleet.instance_crash", "transient",
            probability=0.25, times=rng.randint(1, 2),
        )
    elif scenario == "corrupt":
        plan.arm(
            "fleet.instance_crash", "transient",
            on_call=rng.randint(1, 4), times=1,
        )
        plan.arm("fleet.restore_image_corrupt", "permanent", on_call=1)
    elif scenario == "quarantine":
        plan.arm(
            "fleet.instance_crash", "transient",
            on_call=rng.randint(1, 4), times=1,
        )
        plan.arm("restore.memory", "permanent", probability=1.0, times=0)


def serve_then_settle(
    supervisor: FleetSupervisor,
    plan: FaultPlan,
    duration_s: int,
    events: list[TimelineEvent],
) -> TimelineResult:
    """Wanted frontend traffic for ``duration_s`` under ``plan``, then
    at most :data:`SETTLE_TICKS` heartbeats until the fleet settles."""
    controller = supervisor.controller
    kernel, app, pool = controller.kernel, controller.app, controller.pool
    assert pool is not None
    with plan:
        timeline = run_request_timeline(
            kernel,
            lambda: app.wanted_request(kernel, controller.frontend_port),
            duration_ns=duration_s * SECOND_NS,
            events=events,
            failover_meter=lambda: pool.total_failovers,
        )
        # bounded settling: give in-flight recoveries their heartbeats
        for __ in range(SETTLE_TICKS):
            if supervisor.settled:
                break
            kernel.clock_ns += controller.policy.heartbeat_interval_ns
            supervisor.tick()
    return timeline


def run_seed(seed: int, hub: TelemetryHub) -> dict:
    rng = Random(seed)
    scenario = rng.choice(SCENARIOS)
    policy = FleetPolicy(
        features=("dav-write",),
        strategy="rolling",
        max_unavailable=SIZE,
        probe_requests=2,
    )
    controller = FleetController(Kernel(), APP, policy, size=SIZE)
    hub.bind_clock(lambda: controller.kernel.clock_ns)
    controller.spawn_fleet()
    RolloutExecutor(controller).run()      # customize offline, then guard
    supervisor = FleetSupervisor(controller)

    plan = FaultPlan(seed=seed)
    if scenario == "wedge":
        # every probe hangs for `suspect_threshold` consecutive ticks:
        # the whole fleet walks to DOWN and must recover, processes alive
        plan.arm(
            "fleet.probe_hang", "transient", probability=1.0,
            times=SIZE * policy.suspect_threshold,
        )
    else:
        _arm_scenario(plan, scenario, rng)

    events = [
        TimelineEvent(
            at_ns=second * SECOND_NS, label=f"tick-{second}",
            action=supervisor.tick,
        )
        for second in range(1, DURATION_S)
    ] + [
        TimelineEvent(
            at_ns=int((offset + 0.5) * SECOND_NS), label=f"chaos-{offset}",
            action=lambda: inject_chaos(controller),
        )
        for offset in range(2, DURATION_S - 3, 3)
    ]
    timeline = serve_then_settle(supervisor, plan, DURATION_S, events)
    states = {
        name: record.state.value
        for name, record in supervisor.records.items()
    }
    quarantined = [
        name for name, record in supervisor.records.items()
        if record.state is HealthState.QUARANTINED
    ]
    ok = supervisor.settled and timeline.accounted and plan.consistent_with_plan()
    # digest, not the full stream: per-kind counts (the complete event
    # sequence lives in the telemetry JSONL sidecar)
    event_digest: dict[str, int] = {}
    for event in supervisor.events:
        event_digest[event.kind] = event_digest.get(event.kind, 0) + 1
    registry = hub.registry
    return {
        "seed": seed,
        "scenario": scenario,
        "ok": ok,
        "settled": supervisor.settled,
        "accounted": timeline.accounted,
        "states": states,
        "quarantined": quarantined,
        "recoveries": [
            {"instance": o.instance, "succeeded": o.succeeded, "source": o.source}
            for o in supervisor.recoveries
        ],
        "faults_fired": len(plan.log),
        "events": dict(sorted(event_digest.items())),
        "breakers": supervisor.breaker_status(),
        "workload": {
            "total_requests": registry.counter_value("workload_requests_total"),
            "served": timeline.served,
            "failed_requests": registry.counter_value("workload_failed_total"),
            "failed_over_requests": registry.counter_value(
                "workload_failed_over_total"
            ),
            "errors": len(timeline.errors),
        },
    }


def describe(campaign: dict) -> str:
    workload = campaign["workload"]
    return (
        f"seed {campaign['seed']} [{campaign['scenario']:<10}] "
        f"{'ok' if campaign['ok'] else 'VIOLATED'}: "
        f"{len(campaign['recoveries'])} recoveries, "
        f"{len(campaign['quarantined'])} quarantined, "
        f"{workload['total_requests']} reqs "
        f"({workload['failed_over_requests']} failed over, "
        f"{workload['failed_requests']} failed)"
    )


def run(args: Namespace) -> Pass:
    return recorded(
        args.output,
        [(f"supervisor-{seed}", partial(run_seed, seed)) for seed in SEEDS],
        describe,
        header={"app": APP, "size": SIZE, "duration_s": DURATION_S},
    )
