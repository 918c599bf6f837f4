"""``fleet`` CLI — drive a DynaFleet rollout and emit the evidence.

``rollout`` spawns N instances of a guest server behind the balancer,
then runs the policy's rollout (canary-gated or rolling) **while a
closed-loop workload keeps hammering the frontend port**: one rollout
batch executes between timeline buckets, so the emitted throughput
series shows the drains as dips, never as failures.  With ``--fault``
a seeded fault is armed during the canary's customization, and the
expected outcome flips: the rollout must abort and every instance must
end pristine.

``drift`` customizes the fleet, then shifts the workload onto the
removed feature; the drift detector attributes the resulting traps to
the active removal set and re-enables the feature fleet-wide.  The
run reports how much virtual time passed between first drifted trap
and fleet-wide re-enable.

They are the ``fleet-rollout`` and ``fleet-drift`` campaigns of
:mod:`repro.tools.campaign`, one recorded run each.  The rollout
report goes to ``results/fleet_rollout.json`` and the drift report to
``results/fleet_drift.json`` (or ``--output``).

Usage (``python -m repro.tools.fleet_cli rollout|drift`` is an alias)::

    python -m repro.tools.campaign fleet-rollout [--app lighttpd] [--size 8]
        [--strategy canary|rolling] [--max-unavailable N]
        [--fault SITE:KIND] [--seed S] [--output FILE]
    python -m repro.tools.campaign fleet-drift [--app lighttpd] [--size 4]
        [--output FILE]
"""

from __future__ import annotations

import argparse
import sys

from ..faults import KNOWN_SITES, FaultPlan
from ..fleet import (
    DriftDetector,
    FleetController,
    FleetPolicy,
    RolloutExecutor,
    get_app,
)
from ..kernel import Kernel
from ..telemetry import TelemetryHub
from ..workloads import SECOND_NS, TimelineEvent, run_request_timeline


def _build_fleet(args, strategy: str) -> FleetController:
    app = get_app(args.app)
    policy = FleetPolicy(
        features=tuple(args.feature or app.features),
        strategy=strategy,
        max_unavailable=args.max_unavailable,
        probe_requests=args.probe_requests,
    )
    controller = FleetController(Kernel(), app, policy, size=args.size)
    controller.spawn_fleet()
    return controller


def _frontend_request(controller: FleetController):
    app, kernel, port = controller.app, controller.kernel, controller.frontend_port
    return lambda: app.wanted_request(kernel, port)


def _pristine(controller: FleetController) -> bool:
    return not any(instance.customized for instance in controller.instances)


def run_rollout(args, hub: TelemetryHub) -> dict:
    controller = _build_fleet(args, args.strategy)
    hub.bind_clock(lambda: controller.kernel.clock_ns)
    executor = RolloutExecutor(controller)

    plan = None
    if args.fault:
        site, __, kind = args.fault.partition(":")
        if site not in KNOWN_SITES:
            raise SystemExit(
                f"unknown fault site {site!r}; known: {', '.join(sorted(KNOWN_SITES))}"
            )
        plan = FaultPlan(seed=args.seed).arm(
            site, kind or "permanent", on_call=1, times=args.fault_times
        )

    def step_rollout() -> None:
        if not executor.done:
            if plan is not None and executor.report.state == "pending":
                with plan:
                    executor.step()
            else:
                executor.step()

    events = [
        TimelineEvent(at_ns=(2 + 3 * i) * SECOND_NS, label=f"rollout-step-{i}",
                      action=step_rollout)
        for i in range(len(controller.instances) + 2)
    ]
    timeline = run_request_timeline(
        controller.kernel,
        _frontend_request(controller),
        duration_ns=args.duration * SECOND_NS,
        events=events,
    )
    while not executor.done and executor.step():
        pass

    report = executor.report
    if args.fault:
        ok = report.aborted and _pristine(controller)
    else:
        ok = (
            report.completed
            and timeline.failed_requests == 0
            and not timeline.errors
            and all(i.customized for i in controller.instances)
        )
    return {
        "mode": "rollout",
        "ok": ok,
        "fault": args.fault or None,
        "rollout": report.to_dict(),
        "workload": {
            "total_requests": timeline.total_requests,
            "failed_requests": timeline.failed_requests,
            "errors": len(timeline.errors),
            "throughput": timeline.throughput_series(SECOND_NS),
        },
        "fleet": controller.status(),
    }


def run_drift(args, hub: TelemetryHub) -> dict:
    controller = _build_fleet(args, "rolling")
    hub.bind_clock(lambda: controller.kernel.clock_ns)
    RolloutExecutor(controller).run()
    detector = DriftDetector(controller)
    app, kernel = controller.app, controller.kernel
    feature = controller.policy.features[0]

    def drifted_request() -> bool:
        # wanted traffic plus the formerly-cold feature: the drift
        app.wanted_request(kernel, controller.frontend_port)
        return app.feature_request(kernel, controller.frontend_port, feature)

    events = [
        TimelineEvent(at_ns=i * SECOND_NS, label=f"drift-check-{i}",
                      action=detector.check)
        for i in range(1, args.duration)
    ]
    timeline = run_request_timeline(
        kernel, drifted_request,
        duration_ns=args.duration * SECOND_NS, events=events,
    )
    detector.check()
    status = detector.status
    served_again = app.feature_request(kernel, controller.frontend_port, feature)
    latency = (
        status.triggered_ns - status.first_drift_ns
        if status.triggered and status.first_drift_ns is not None else None
    )
    return {
        "mode": "drift",
        "ok": status.triggered and _pristine(controller) and served_again,
        "feature": feature,
        "drift": status.to_dict(),
        "reenable_latency_ns": latency,
        "feature_served_after_reenable": served_again,
        "workload": {
            "total_requests": timeline.total_requests,
            "failed_requests": timeline.failed_requests,
        },
        "fleet": controller.status(),
    }


def _common_flags(
    parser: argparse.ArgumentParser, size: int, duration: int
) -> None:
    parser.add_argument("--app", default="lighttpd",
                        choices=("lighttpd", "nginx", "redis"))
    parser.add_argument("--size", type=int, default=size)
    parser.add_argument("--feature", action="append",
                        help="feature(s) to remove; default: all the app has")
    parser.add_argument("--max-unavailable", type=int, default=2)
    parser.add_argument("--probe-requests", type=int, default=4)
    parser.add_argument("--duration", type=int, default=duration,
                        help="workload duration in virtual seconds")


def rollout_flags(parser: argparse.ArgumentParser) -> None:
    _common_flags(parser, size=8, duration=40)
    parser.add_argument("--strategy", default="canary",
                        choices=("canary", "rolling"))
    parser.add_argument("--fault", metavar="SITE[:KIND]",
                        help="arm a seeded fault during the canary; the "
                             "rollout is then expected to abort pristine")
    parser.add_argument("--fault-times", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1234)


def drift_flags(parser: argparse.ArgumentParser) -> None:
    _common_flags(parser, size=4, duration=12)


def describe_rollout(record: dict) -> str:
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


def describe_drift(record: dict) -> str:
    drift = record["drift"]
    return (
        f"{record['fleet']['app']} x{record['fleet']['size']} drift:"
        f" triggered={drift['triggered']} after {drift['checks']} checks,"
        f" reenabled={len(drift['reenabled'])} instances,"
        f" latency={record['reenable_latency_ns']}ns"
    )


def main(argv: list[str] | None = None) -> int:
    """``fleet_cli rollout|drift FLAGS``: the ``fleet-*`` campaigns."""
    from .campaign import alias

    argv = sys.argv[1:] if argv is None else argv
    return alias(f"fleet-{argv[0]}" if argv else "fleet", argv[1:])


if __name__ == "__main__":
    sys.exit(main())
