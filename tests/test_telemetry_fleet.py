"""End-to-end telemetry over the fleet stack.

The acceptance contract of the observability layer: aggregates
reconstructed from the recorded event stream alone must equal the live
controller/pool/supervisor numbers for the same run, and two runs with
the same FaultPlan seed must produce byte-identical exports.
"""

from __future__ import annotations

import json

from repro.faults import FaultPlan
from repro.fleet import (
    FleetController,
    FleetPolicy,
    FleetSupervisor,
    RolloutExecutor,
    get_app,
    inject_chaos,
)
from repro.kernel import Kernel
from repro.telemetry import (
    TelemetryHub,
    prometheus_snapshot,
    read_jsonl,
    recording,
    summarize_events,
    to_jsonl,
)
from repro.tools import telemetry_cli
from repro.workloads import SECOND_NS, TimelineEvent, run_request_timeline

SIZE = 2
DURATION = 8


def _run_fleet(seed: int):
    """A small customized fleet under chaos, fully recorded."""
    app = get_app("lighttpd")
    policy = FleetPolicy(
        features=(app.feature,),
        trap_policy="verify",
        strategy="rolling",
        max_unavailable=SIZE,
        probe_requests=2,
        heartbeat_interval_ns=2 * SECOND_NS,
    )
    kernel = Kernel()
    hub = TelemetryHub(lambda: kernel.clock_ns)
    with recording(hub):
        controller = FleetController(kernel, app, policy, size=SIZE)
        controller.spawn_fleet()
        RolloutExecutor(controller).run()
        supervisor = FleetSupervisor(controller)
        assert controller.pool is not None

        events = [
            TimelineEvent(
                at_ns=second * SECOND_NS, label=f"tick-{second}",
                action=supervisor.tick,
            )
            for second in range(2, DURATION, 2)
        ] + [
            TimelineEvent(
                at_ns=int(2.5 * SECOND_NS), label="chaos",
                action=lambda: inject_chaos(controller),
            )
        ]
        plan = FaultPlan(seed=seed).arm(
            "fleet.instance_crash", "transient", on_call=2, times=1
        )
        with plan:
            run_request_timeline(
                kernel,
                lambda: app.wanted_request(kernel, controller.frontend_port),
                duration_ns=DURATION * SECOND_NS,
                events=events,
                failover_meter=lambda: controller.pool.total_failovers,
            )
            for __ in range(8):
                if supervisor.settled:
                    break
                kernel.clock_ns += policy.heartbeat_interval_ns
                supervisor.tick()
    return hub, controller, supervisor


class TestFleetReconstruction:
    def setup_method(self):
        self.hub, self.controller, self.supervisor = _run_fleet(seed=7)
        self.summary = summarize_events(self.hub.events)

    def test_crash_and_recovery_happened(self):
        # the scenario is only meaningful if chaos actually fired
        assert self.summary["kinds"].get("health", 0) > 0
        assert any(o.succeeded for o in self.supervisor.recoveries)

    def test_traps_match_live_counters(self):
        live = {
            instance.name: instance.traps_seen
            for instance in self.controller.instances
        }
        assert self.summary["traps"] == live

    def test_failover_total_matches_pool(self):
        assert self.controller.pool is not None
        assert (
            self.summary["failovers"]["total"]
            == self.controller.pool.total_failovers
        )

    def test_dispatch_by_port_matches_pool(self):
        assert self.controller.pool is not None
        live = {
            str(port): count
            for port, count in sorted(self.controller.pool.dispatched.items())
            if count
        }
        assert self.summary["dispatch"]["by_port"] == live

    def test_rewrite_sessions_match_engine_history(self):
        for instance in self.controller.instances:
            recon = self.summary["rewrites"][instance.name]
            assert recon["committed"] == len(instance.engine.history)
            assert recon["total_ns"] == sum(
                report.total_ns for report in instance.engine.history
            )

    def test_status_reads_from_registry_and_matches_pool(self):
        with recording(self.hub):
            status = self.controller.status()
        assert self.controller.pool is not None
        assert status["pool"]["dispatched"] == dict(
            self.controller.pool.dispatched
        )
        # on one kernel the registry counts the same connects the pool does
        assert self.hub.registry.counters_by_label(
            "dispatch_total", "port"
        ) == {
            str(port): count
            for port, count in self.controller.pool.dispatched.items()
            if count
        }

    def test_status_includes_supervision_when_attached(self):
        status = self.controller.status()
        assert status["supervision"]["settled"] is True
        assert set(status["supervision"]["health"]) == {
            instance.name for instance in self.controller.instances
        }

    def test_prometheus_snapshot_round_trips(self):
        from repro.telemetry import parse_prometheus

        values = parse_prometheus(prometheus_snapshot(self.hub.registry))
        total = sum(
            value for key, value in values.items()
            if key.startswith("dynacut_dispatch_total")
        )
        assert self.controller.pool is not None
        assert total == sum(self.controller.pool.dispatched.values())

    def test_span_tree_covers_customize_stages(self):
        spans = self.summary["spans"]
        assert spans["customize"]["count"] == SIZE
        assert spans["customize.rewrite"]["count"] == SIZE
        assert spans["customize.checkpoint"]["errors"] == 0


class TestSeededDeterminism:
    def test_same_seed_byte_identical_exports(self):
        hub1, __, __ = _run_fleet(seed=11)
        hub2, __, __ = _run_fleet(seed=11)
        assert to_jsonl(hub1.events) == to_jsonl(hub2.events)
        assert prometheus_snapshot(hub1.registry) == (
            prometheus_snapshot(hub2.registry)
        )


class TestTelemetryCli:
    def _events_file(self, tmp_path):
        hub = TelemetryHub(lambda: 0)
        hub.emit("dispatch", "balanced", labels={"port": 9000})
        hub.emit("traps", "sync", labels={"instance": "a"}, total=2)
        path = tmp_path / "events.jsonl"
        path.write_text(to_jsonl(hub))
        return path

    def test_report_mode_rebuilds_from_jsonl(self, tmp_path, capsys):
        path = self._events_file(tmp_path)
        assert telemetry_cli.main(["report", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["traps"] == {"a": 2}
        assert summary["dispatch"]["total"] == 1

    def test_report_round_trip_equals_summarize(self, tmp_path, capsys):
        path = self._events_file(tmp_path)
        telemetry_cli.main(["report", str(path)])
        printed = json.loads(capsys.readouterr().out)
        direct = summarize_events(read_jsonl(path.read_text()))
        assert printed == direct

    def test_check_mode_accepts_valid_snapshot(self, tmp_path, capsys):
        hub = TelemetryHub(lambda: 0)
        hub.count("requests_total", port=1)
        path = tmp_path / "snap.prom"
        path.write_text(prometheus_snapshot(hub.registry))
        assert telemetry_cli.main(["check", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_mode_rejects_malformed_snapshot(self, tmp_path, capsys):
        path = tmp_path / "bad.prom"
        path.write_text("no_type_header 1\n")
        assert telemetry_cli.main(["check", str(path)]) == 1
        assert "MALFORMED" in capsys.readouterr().out

    def test_check_mode_rejects_empty_snapshot(self, tmp_path):
        path = tmp_path / "empty.prom"
        path.write_text("")
        assert telemetry_cli.main(["check", str(path)]) == 1
