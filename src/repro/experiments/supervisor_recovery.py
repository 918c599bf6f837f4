"""DynaGuard: an 8-instance fleet healing itself under live traffic.

The rollout record shows the fleet *changing* without dropping
requests; this one shows it *breaking* without dropping them.  A
closed-loop client hammers the frontend for the whole window while
seeded chaos kills two instances mid-run (between heartbeats, so the
balancer serves from a stale view and must fail connections over), and
a trap storm hammers one instance's removed feature:

* both crashed instances recover **from their committed rewritten
  checkpoints** — alive, back in rotation, removal set intact — within
  the supervisor's backoff budget;
* every request is accounted: served, failed over, or logged as a
  failure (``total == served + failed``, no silent losses);
* the storm demotes **exactly one** instance (features re-enabled
  locally, marked degraded) while every other instance keeps its
  customization — no fleet-wide re-enable.
"""

from __future__ import annotations

import json
from argparse import Namespace

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
from ..workloads import SECOND_NS, TimelineEvent, run_request_timeline
from . import Pass, claims

FLEET_SIZE = 8
DURATION_S = 24
#: heartbeats every 2 virtual seconds: probing 8 instances costs real
#: virtual time, and the balanced workload needs the rest of the window
TICK_EVERY_S = 2
#: chaos events sit between heartbeats: up to 1.5 virtual seconds of
#: stale balancer view per crash, which failover must absorb.  Three
#: visits of 8 instances each -> the armed on_call=3 fires at the first
#: event (instance 2) and on_call=20 at the third (instance 3).
CHAOS_AT_S = (2.5, 5.5, 8.5)
STORM_S = 15.5
STORM_REQUESTS = 6
STORM_VICTIM = 5


def _spawn() -> tuple[FleetController, FleetSupervisor]:
    policy = FleetPolicy(
        features=("dav-write",),
        strategy="rolling",
        max_unavailable=2,
        probe_requests=2,
        trap_storm_threshold=4,
    )
    controller = FleetController(Kernel(), "lighttpd", policy, size=FLEET_SIZE)
    controller.spawn_fleet()
    report = RolloutExecutor(controller).run()
    assert report.state == "completed"
    return controller, FleetSupervisor(controller)


def _run_supervised() -> dict:
    controller, supervisor = _spawn()
    kernel, app, pool = controller.kernel, controller.app, controller.pool
    victim = controller.instance(STORM_VICTIM)

    plan = (
        FaultPlan(seed=42)
        .arm("fleet.instance_crash", "transient", on_call=3, times=1)
        .arm("fleet.instance_crash", "transient", on_call=20, times=1)
    )
    crashed: list[str] = []

    def chaos() -> None:
        crashed.extend(inject_chaos(controller))

    def storm() -> None:
        for __ in range(STORM_REQUESTS):
            app.feature_request(kernel, victim.port, "dav-write")

    events = (
        [
            TimelineEvent(at_ns=second * SECOND_NS, label=f"tick-{second}",
                          action=supervisor.tick)
            for second in range(TICK_EVERY_S, DURATION_S, TICK_EVERY_S)
        ]
        + [
            TimelineEvent(at_ns=int(offset * SECOND_NS),
                          label=f"chaos-{offset}", action=chaos)
            for offset in CHAOS_AT_S
        ]
        + [
            TimelineEvent(at_ns=int(STORM_S * SECOND_NS), label="trap-storm",
                          action=storm),
        ]
    )
    with plan:
        timeline = run_request_timeline(
            kernel,
            lambda: app.wanted_request(kernel, controller.frontend_port),
            duration_ns=DURATION_S * SECOND_NS,
            events=events,
            failover_meter=lambda: pool.total_failovers,
        )
    served = sum(point.completed for point in timeline.points)
    return {
        "crashed": crashed,
        "recoveries": [
            {"instance": o.instance, "succeeded": o.succeeded, "source": o.source}
            for o in supervisor.recoveries
        ],
        "demotions": [
            e.to_dict() for e in supervisor.events if e.kind == "demoted"
        ],
        "states": {
            name: record.state.value
            for name, record in supervisor.records.items()
        },
        "settled": supervisor.settled,
        "workload": {
            "total_requests": timeline.total_requests,
            "served": served,
            "failed_requests": timeline.failed_requests,
            "failed_over_requests": timeline.failed_over_requests,
            "failover_events": timeline.failover_events,
            "errors": len(timeline.errors),
            "throughput": timeline.throughput_series(SECOND_NS),
        },
        "instances": {
            instance.name: {
                "alive": controller.alive(instance),
                "degraded": instance.degraded,
                "customized": instance.customized_features,
                "in_service": instance.port in pool.in_service(),
            }
            for instance in controller.instances
        },
    }


def run(args: Namespace) -> Pass:
    results = _run_supervised()

    def shape() -> None:
        # exactly the two planned instances crashed, and both recovered
        # from their committed checkpoints — removal set intact
        assert sorted(results["crashed"]) == ["lighttpd-2", "lighttpd-3"]
        assert len(results["recoveries"]) == 2
        for recovery in results["recoveries"]:
            assert recovery["succeeded"]
            assert recovery["source"] == "checkpoint"
        for name in ("lighttpd-2", "lighttpd-3"):
            entry = results["instances"][name]
            assert entry["alive"] and entry["in_service"]
            assert entry["customized"] == ["dav-write"]
            assert not entry["degraded"]

        # zero unaccounted request losses: every request was served,
        # failed over (and served), or logged as failed
        workload = results["workload"]
        assert workload["total_requests"] == (
            workload["served"] + workload["failed_requests"]
        )
        # the stale-view windows after each crash really exercised failover
        assert workload["failed_over_requests"] >= 1
        # traffic kept flowing to the end of the window
        assert workload["throughput"][-1][1] > 0

        # the trap storm demoted exactly one instance, locally
        assert len(results["demotions"]) == 1
        assert results["demotions"][0]["instance"] == f"lighttpd-{STORM_VICTIM}"
        victim = results["instances"][f"lighttpd-{STORM_VICTIM}"]
        assert victim["degraded"] and victim["customized"] == []
        assert victim["in_service"]
        for name, entry in results["instances"].items():
            if name != f"lighttpd-{STORM_VICTIM}":
                assert entry["customized"] == ["dav-write"], name

        # the fleet settled: nothing stuck outside HEALTHY/QUARANTINED
        assert results["settled"]
        assert set(results["states"].values()) == {HealthState.HEALTHY.value}

    return Pass({args.output: json.dumps(results, indent=2) + "\n"},
                failed=claims(shape))
