"""The reference observability scenario, recorded and replayed.

An 8-instance lighttpd fleet under a closed-loop balanced workload,
customized by a rolling rollout *while serving*, then hit by seeded
chaos crashes with the DynaGuard supervisor recovering from committed
images, plus a trickle of removed-feature traffic so the verifier trap
path and the drift detector light up.  The run records into one
:class:`~repro.telemetry.TelemetryHub`; afterwards it reconstructs
every reported aggregate **from the event stream alone**
(:func:`~repro.telemetry.summarize_events`) and verifies it against
the live controller/supervisor numbers — the acceptance contract of
the observability layer.

This is the ``telemetry`` record: it writes the committed summary to
``results/telemetry_rollout.json`` with the uncommitted ``.jsonl``
event stream and ``.prom`` snapshot next to it, and :func:`charts`
draws the SVG timelines (throughput, per-instance traps, rewrite
costs).  ``python -m repro.tools.telemetry_cli report|check`` rebuild
the aggregates from a ``.jsonl`` stream and strictly parse a ``.prom``
snapshot.
"""

from __future__ import annotations

import pathlib
from argparse import Namespace

from ..faults import FaultPlan
from ..fleet import (
    DriftDetector,
    FleetController,
    FleetPolicy,
    FleetSupervisor,
    RolloutExecutor,
    get_app,
    inject_chaos,
)
from ..kernel import Kernel
from ..telemetry import (
    TelemetryHub,
    parse_prometheus,
    prometheus_snapshot,
    summarize_events,
)
from ..tools.svgplot import BarChart, LineChart
from ..workloads import SECOND_NS, TimelineEvent
from . import Pass, Results, recorded
from .supervisor_chaos import serve_then_settle

APP = "lighttpd"
SIZE = 8
SEED = 42
#: the scenario schedules chaos and drift events up to t=22s
DURATION_S = 24


def run_scenario(hub: TelemetryHub) -> dict:
    """One recorded rollout-under-chaos run, checked against its events."""
    app = get_app(APP)
    policy = FleetPolicy(
        features=app.features,
        trap_policy="verify",
        strategy="rolling",
        max_unavailable=2,
        probe_requests=2,
        # probing 8 instances costs ~1 virtual second; a 1 s heartbeat
        # would starve the workload entirely
        heartbeat_interval_ns=3 * SECOND_NS,
        drift_action="ignore",    # observe drift, don't mutate the fleet
    )
    kernel = Kernel()
    hub.bind_clock(lambda: kernel.clock_ns)
    controller = FleetController(kernel, app, policy, size=SIZE)
    controller.spawn_fleet()
    pool = controller.pool
    assert pool is not None
    executor = RolloutExecutor(controller)
    supervisor = FleetSupervisor(controller)
    detector = DriftDetector(controller)

    feature = policy.features[0]

    def feature_traffic() -> None:
        try:
            app.feature_request(kernel, controller.frontend_port, feature)
        except Exception:  # noqa: BLE001 — a refused request still traps
            pass

    events = [
        # rolling rollout, one batch per step, while traffic flows
        TimelineEvent(
            at_ns=(1 + 2 * i) * SECOND_NS, label=f"rollout-step-{i}",
            action=lambda: executor.step() if not executor.done else None,
        )
        for i in range(SIZE // 2 + 1)
    ] + [
        # supervisor heartbeat every 3 virtual seconds
        TimelineEvent(
            at_ns=second * SECOND_NS, label=f"tick-{second}",
            action=supervisor.tick,
        )
        for second in range(3, DURATION_S, 3)
    ] + [
        # chaos right AFTER a heartbeat: the balancer serves from a
        # stale view for ~2.5 virtual seconds, so connection
        # failover is actually exercised before the next tick
        # detects the crash and recovers from the committed image
        TimelineEvent(
            at_ns=int((offset + 0.5) * SECOND_NS), label=f"chaos-{offset}",
            action=lambda: inject_chaos(controller),
        )
        for offset in (9, 15)
    ] + [
        # removed-feature traffic between a tick and a drift check,
        # so the drift detector (not the trap-storm scan) is the
        # first to attribute the fresh verifier traps
        TimelineEvent(
            at_ns=int((offset + 0.5) * SECOND_NS), label=f"drift-{offset}",
            action=feature_traffic,
        )
        for offset in (12, 18, 21)
    ] + [
        TimelineEvent(
            at_ns=second * SECOND_NS, label=f"drift-check-{second}",
            action=detector.check,
        )
        for second in (13, 19, 22)
    ]

    # deterministic crashes: the Nth visit to the injection site
    # (inject_chaos walks live instances in order, 8 per call)
    plan = FaultPlan(seed=SEED)
    plan.arm("fleet.instance_crash", "transient", on_call=3, times=1)
    plan.arm("fleet.instance_crash", "transient", on_call=13, times=1)
    timeline = serve_then_settle(supervisor, plan, DURATION_S, events)

    live = {
        "rollout_state": executor.report.state,
        "settled": supervisor.settled,
        "traps": {
            instance.name: instance.traps_seen
            for instance in controller.instances
        },
        "failover_total": pool.total_failovers,
        "dispatch_by_port": {
            str(port): count
            for port, count in sorted(pool.dispatched.items())
            if count
        },
        "rewrites": {
            instance.name: {
                "committed": len(instance.engine.history),
                "total_ns": sum(
                    report.total_ns for report in instance.engine.history
                ),
            }
            for instance in controller.instances
        },
        "workload": {
            "total_requests": timeline.total_requests,
            "failed_requests": timeline.failed_requests,
            "failed_over_requests": timeline.failed_over_requests,
        },
        "drift": {
            "triggered": detector.status.triggered,
            "checks": detector.status.checks,
            "attributed_traps": sum(
                event.hits for event in detector.status.events
            ),
        },
        "supervision": supervisor.supervision_status(),
    }
    recon = summarize_events(hub.events)
    matches = _verify_reconstruction(live, recon)
    try:
        snapshot_ok = bool(parse_prometheus(prometheus_snapshot(hub.registry)))
    except ValueError:
        snapshot_ok = False
    registry_snapshot = hub.registry.snapshot()
    return {
        "ok": (
            live["rollout_state"] == "completed"
            and live["settled"]
            and all(matches.values())
            and snapshot_ok
        ),
        "live": live,
        "reconstructed": {
            "events": recon["events"],
            "kinds": recon["kinds"],
            "traps": recon["traps"],
            "failovers": recon["failovers"],
            "dispatch": recon["dispatch"],
            "rewrites": recon["rewrites"],
            "drift": recon["drift"],
            "spans": recon["spans"],
        },
        "matches": matches,
        "snapshot_parses": snapshot_ok,
        "registry": {
            "counters": registry_snapshot["counters"],
            "histograms": registry_snapshot["histograms"],
        },
    }


def _verify_reconstruction(live: dict, recon: dict) -> dict:
    """Event-stream aggregates vs the live objects' numbers."""
    rewrites_match = all(
        recon["rewrites"].get(name, {}).get("committed") == expected["committed"]
        and recon["rewrites"].get(name, {}).get("rolled_back") == 0
        and recon["rewrites"].get(name, {}).get("total_ns") == expected["total_ns"]
        for name, expected in live["rewrites"].items()
    )
    return {
        "traps": recon["traps"] == live["traps"],
        "failover_total": recon["failovers"]["total"] == live["failover_total"],
        "dispatch_by_port": (
            recon["dispatch"]["by_port"] == live["dispatch_by_port"]
        ),
        "rewrites": rewrites_match,
        "drift_traps": (
            recon["drift"]["attributed_traps"]
            == live["drift"]["attributed_traps"]
        ),
    }


def charts(results: Results, output: pathlib.Path) -> dict[pathlib.Path, str]:
    """Throughput / traps / rewrite-cost figures, beside ``output``."""
    (hub,) = results.hubs.values()
    throughput = LineChart(
        "Balanced fleet throughput under rollout + chaos",
        "virtual time (s)", "requests/s",
    )
    for series in hub.registry.series_matching("throughput_rps"):
        throughput.add_series("frontend", series.points(1 / SECOND_NS))

    traps = LineChart(
        "Per-instance verifier traps (high-water)",
        "virtual time (s)", "traps logged",
    )
    for series in hub.registry.series_matching("traps_seen"):
        label = dict(series.labels).get("instance", "?")
        traps.add_series(label, series.points(1 / SECOND_NS))

    costs = BarChart(
        "Rewrite cost per instance (committed transactions)",
        "instance", "total cost (ms)",
    )
    rewrites = results.payload["campaigns"][0]["reconstructed"]["rewrites"]
    for name, summary in sorted(rewrites.items()):
        costs.add_bar(name or "?", summary["total_ns"] / 1_000_000)
    return {
        output.with_name("telemetry_rollout_timeline.svg"): throughput.to_svg(),
        output.with_name("telemetry_rollout_traps.svg"): traps.to_svg(),
        output.with_name("telemetry_rollout_costs.svg"): costs.to_svg(),
    }


def describe(record: dict) -> str:
    recon = record["reconstructed"]
    matches = record["matches"]
    return (
        f"{recon['events']} events, "
        f"{recon['failovers']['total']} failovers, "
        f"traps={sum(recon['traps'].values())}, "
        f"matches={'all' if all(matches.values()) else matches}"
    )


def run(args: Namespace) -> Pass:
    return recorded(
        args.output, [("telemetry", run_scenario)], describe,
        header={
            "mode": "telemetry-rollout",
            "app": APP,
            "size": SIZE,
            "seed": SEED,
            "duration_s": DURATION_S,
        },
        figures=charts,
    )
