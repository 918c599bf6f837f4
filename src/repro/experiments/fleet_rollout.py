"""DynaFleet: canary/rolling customization of a fleet under live traffic.

The single-process experiments (Figure 8) show one server surviving a
rewrite; this scenario scales the claim to an 8-instance fleet behind
the balancer.  A closed-loop client hammers the frontend port for the
whole run while the rollout executor drains, customizes, health-gates
and rejoins instances between timeline buckets
(:func:`rollout_under_traffic`).  Two records run it:

* ``fleet-rollout`` (:func:`run`) records the canary rollout under its
  own telemetry hub: ``results/fleet_rollout.json`` and its sidecars;
* ``fleet-rollout-bench`` (:func:`run_bench`) checks the claims in
  ``results/fleet_rollout_bench.json``.  **canary** and **rolling**
  rollouts must complete with *zero* failed balanced requests — drains
  show up as throughput dips, never errors — and a seeded permanent
  fault injected into the canary's restore must abort the whole
  rollout with every instance rolled back to pristine and still
  serving.
"""

from __future__ import annotations

import json
from argparse import Namespace

from ..faults import FaultPlan
from ..fleet import FleetController, FleetPolicy, RolloutExecutor
from ..kernel import Kernel
from ..telemetry import TelemetryHub
from ..workloads import (
    SECOND_NS,
    TimelineEvent,
    TimelineResult,
    run_request_timeline,
)
from . import Pass, claims, recorded

FLEET_SIZE = 8
MAX_UNAVAILABLE = 2
PROBE_REQUESTS = 4
DURATION_S = 40
FIRST_STEP_S = 2
STEP_EVERY_S = 3


def spawn(
    strategy: str,
    size: int = FLEET_SIZE,
    max_unavailable: int = MAX_UNAVAILABLE,
    probe_requests: int = PROBE_REQUESTS,
) -> FleetController:
    """A spawned lighttpd fleet whose policy removes ``dav-write``."""
    policy = FleetPolicy(
        features=("dav-write",),
        strategy=strategy,
        max_unavailable=max_unavailable,
        probe_requests=probe_requests,
    )
    controller = FleetController(Kernel(), "lighttpd", policy, size=size)
    controller.spawn_fleet()
    return controller


def rollout_under_traffic(
    controller: FleetController,
    plan: FaultPlan | None = None,
    duration_s: int = DURATION_S,
) -> tuple[RolloutExecutor, TimelineResult]:
    """Drive the rollout from inside a continuous balanced workload,
    one batch per step; ``plan`` is armed for the canary batch."""
    executor = RolloutExecutor(controller)
    kernel, app = controller.kernel, controller.app

    def step() -> None:
        if executor.done:
            return
        if plan is not None and executor.report.state == "pending":
            with plan:                  # fault armed for the canary batch
                executor.step()
        else:
            executor.step()

    events = [
        TimelineEvent(
            at_ns=(FIRST_STEP_S + STEP_EVERY_S * i) * SECOND_NS,
            label=f"rollout-step-{i}", action=step,
        )
        for i in range(len(controller.instances) + 2)
    ]
    timeline = run_request_timeline(
        kernel,
        lambda: app.wanted_request(kernel, controller.frontend_port),
        duration_ns=duration_s * SECOND_NS,
        events=events,
    )
    return executor, timeline


def canary_record(
    hub: TelemetryHub,
    size: int = FLEET_SIZE,
    max_unavailable: int = MAX_UNAVAILABLE,
    probe_requests: int = PROBE_REQUESTS,
    duration_s: int = DURATION_S,
) -> dict:
    """The ``fleet-rollout`` run: a canary rollout under traffic, ok
    when it completed without a failed request."""
    controller = spawn("canary", size, max_unavailable, probe_requests)
    hub.bind_clock(lambda: controller.kernel.clock_ns)
    executor, timeline = rollout_under_traffic(controller, duration_s=duration_s)
    report = executor.report
    return {
        "ok": (
            report.completed
            and timeline.failed_requests == 0
            and not timeline.errors
            and all(i.customized for i in controller.instances)
        ),
        "rollout": report.to_dict(),
        "workload": {
            "total_requests": timeline.total_requests,
            "failed_requests": timeline.failed_requests,
            "errors": len(timeline.errors),
            "throughput": timeline.throughput_series(SECOND_NS),
        },
        "fleet": controller.status(),
    }


def describe(record: dict) -> str:
    rollout, workload = record["rollout"], record["workload"]
    return (
        f"{record['fleet']['app']} x{record['fleet']['size']} "
        f"{rollout['strategy']}: {rollout['state']}"
        f" ({len(rollout['customized'])} customized,"
        f" {len(rollout['rolled_back'])} rolled back,"
        f" max drained {rollout['max_drained_seen']});"
        f" workload {workload['total_requests']} reqs,"
        f" {workload['failed_requests']} failed"
    )


def run(args: Namespace) -> Pass:
    return recorded(args.output, [("fleet-rollout", canary_record)], describe)


def _bench_row(strategy: str, plan: FaultPlan | None = None) -> dict:
    controller = spawn(strategy)
    executor, timeline = rollout_under_traffic(controller, plan)
    assert executor.done, "rollout must finish within the workload window"
    kernel, app = controller.kernel, controller.app
    all_serving = all(
        controller.alive(i) and app.wanted_request(kernel, i.port)
        for i in controller.instances
    )
    return {
        "strategy": controller.policy.strategy,
        "rollout": executor.report.to_dict(),
        "pristine": not any(i.customized for i in controller.instances),
        "all_serving": all_serving,
        "in_service": controller.pool.in_service(),
        "workload": {
            "total_requests": timeline.total_requests,
            "failed_requests": timeline.failed_requests,
            "errors": len(timeline.errors),
            "min_bucket": timeline.min_bucket(),
            "max_bucket": timeline.max_bucket(),
            "throughput": timeline.throughput_series(SECOND_NS),
        },
    }


def run_bench(args: Namespace) -> Pass:
    results = {
        "canary": _bench_row("canary"),
        "rolling": _bench_row("rolling"),
        "canary-fault": _bench_row(
            "canary",
            plan=FaultPlan(seed=1234).arm(
                "restore.memory", "permanent", on_call=1, times=10
            ),
        ),
    }

    def shape() -> None:
        for name in ("canary", "rolling"):
            row = results[name]
            # the whole fleet got customized without a single failed request
            assert row["rollout"]["state"] == "completed"
            assert len(row["rollout"]["customized"]) == FLEET_SIZE
            assert not row["pristine"]
            assert row["workload"]["failed_requests"] == 0
            assert row["workload"]["errors"] == 0
            # a batch costs virtual time (dips, possibly empty buckets) but
            # throughput is fully recovered by the end of the window
            assert row["workload"]["throughput"][-1][1] > 0
            assert len(row["in_service"]) == FLEET_SIZE
            # the drain budget held: never more than max_unavailable out
            assert row["rollout"]["max_drained_seen"] <= MAX_UNAVAILABLE

        fault = results["canary-fault"]
        # the injected canary fault aborted everything back to pristine...
        assert fault["rollout"]["state"] == "aborted"
        assert fault["rollout"]["customized"] == []
        assert fault["pristine"]
        # ...with the whole fleet alive, serving, and back in rotation
        assert fault["all_serving"]
        assert len(fault["in_service"]) == FLEET_SIZE
        assert fault["workload"]["failed_requests"] == 0

    return Pass({args.output: json.dumps(results, indent=2) + "\n"},
                failed=claims(shape))
