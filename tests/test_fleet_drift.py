"""Tests for coverage-drift detection and adaptive re-enable."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.core import RollbackFailed
from repro.faults import FaultPlan
from repro.fleet import (
    DriftDetector,
    FleetController,
    FleetPolicy,
    FleetSupervisor,
    HealthState,
    RolloutExecutor,
    get_app,
)
from repro.kernel import Kernel
from repro.telemetry import TelemetryHub
from repro.workloads import (
    HttpClient,
    SECOND_NS,
    TimelineEvent,
    run_request_timeline,
)

from .helpers import committed_transaction, event_keys, rotation_calls


def customized_fleet(size=2, **policy_kwargs):
    policy_kwargs.setdefault("features", (get_app("lighttpd").feature,))
    policy_kwargs.setdefault("strategy", "rolling")
    policy_kwargs.setdefault("max_unavailable", 1)
    policy_kwargs.setdefault("probe_requests", 2)
    controller = FleetController(
        Kernel(), "lighttpd", FleetPolicy(**policy_kwargs), size=size
    )
    controller.spawn_fleet()
    report = RolloutExecutor(controller).run()
    assert report.completed
    return controller


class TestDriftDetection:
    def test_no_drift_without_feature_traffic(self):
        controller = customized_fleet()
        detector = DriftDetector(controller)
        for __ in range(3):
            controller.app.wanted_request(
                controller.kernel, controller.frontend_port
            )
            assert not detector.check()
        assert detector.status.events == []
        assert all(i.customized for i in controller.instances)

    def test_probe_traps_are_not_drift(self):
        # the rollout's own health probes deliberately hit the removal
        # set; the detector must not count that history
        controller = customized_fleet()
        detector = DriftDetector(controller)
        assert not detector.check()
        assert detector.status.events == []

    def test_feature_traffic_triggers_fleet_wide_reenable(self):
        controller = customized_fleet(size=2, drift_trap_threshold=2)
        detector = DriftDetector(controller)
        for __ in range(4):           # balanced over both instances
            controller.app.feature_request(
                controller.kernel, controller.frontend_port
            )
        assert detector.check()
        status = detector.status
        assert status.triggered
        assert {event.feature for event in status.events} == {"dav-write"}
        assert sorted(status.reenabled) == ["lighttpd-0", "lighttpd-1"]
        # the fleet is pristine again and the feature serves everywhere
        for instance in controller.instances:
            assert not instance.customized
            assert controller.app.feature_request(
                controller.kernel, instance.port
            )

    def test_failed_reenable_surfaces_the_rollback_failure(self):
        controller = customized_fleet(size=2)
        detector = DriftDetector(controller)
        controller.app.feature_request(
            controller.kernel, controller.frontend_port
        )
        # the first instance's re-enable fails to restore, and so does
        # its pristine rollback: its tree is gone
        plan = FaultPlan(seed=9).arm(
            "restore.memory", "permanent", probability=1.0, times=0
        )
        with plan, pytest.raises(RollbackFailed):
            detector.check()
        first = controller.instance(0)
        assert not controller.alive(first)
        assert first.port not in controller.pool.in_service()

    def test_failed_reenable_still_reenables_the_rest_of_the_fleet(self):
        controller = customized_fleet(size=2)
        detector = DriftDetector(controller)
        controller.app.feature_request(
            controller.kernel, controller.frontend_port
        )
        # only the first instance's re-enable fails: its restore and its
        # pristine rollback are the first two restore visits
        plan = FaultPlan(seed=9).arm(
            "restore.memory", "permanent", probability=1.0, times=2
        )
        with plan, pytest.raises(RollbackFailed):
            detector.check()
        first, second = controller.instances
        assert not controller.alive(first)
        # the failure strands nobody else: the second instance serves
        # the feature again, in rotation, and is listed
        assert detector.status.reenabled == [second.name]
        assert not second.customized
        assert second.port in controller.pool.in_service()
        assert controller.app.feature_request(controller.kernel, second.port)

    def test_ignore_action_logs_but_keeps_customization(self):
        controller = customized_fleet(drift_action="ignore")
        detector = DriftDetector(controller)
        controller.app.feature_request(
            controller.kernel, controller.frontend_port
        )
        assert detector.check()
        assert detector.status.triggered
        assert detector.status.reenabled == []
        assert all(i.customized for i in controller.instances)

    def test_sliding_window_expires_old_traps(self):
        controller = customized_fleet(
            drift_trap_threshold=2, drift_window_ns=2 * SECOND_NS
        )
        detector = DriftDetector(controller)
        controller.app.feature_request(
            controller.kernel, controller.frontend_port
        )
        assert not detector.check()       # 1 trap < threshold
        controller.kernel.clock_ns += 3 * SECOND_NS
        controller.app.feature_request(
            controller.kernel, controller.frontend_port
        )
        # the first trap has aged out of the window: still below threshold
        assert not detector.check()
        assert not detector.status.triggered

    def test_status_serializes(self):
        controller = customized_fleet()
        detector = DriftDetector(controller)
        controller.app.feature_request(
            controller.kernel, controller.frontend_port
        )
        detector.check()
        payload = detector.status.to_dict()
        assert payload["triggered"] is True
        assert payload["events"][0]["feature"] == "dav-write"


class TestDriftEndToEnd:
    def test_workload_shift_reenables_within_drift_window(self):
        """The acceptance scenario: a live workload drifts onto a removed
        feature and the fleet adapts — automatic re-enable within the
        policy's drift window of the first drifted trap."""
        policy_window = 6 * SECOND_NS
        controller = customized_fleet(
            size=3, drift_window_ns=policy_window, drift_trap_threshold=2
        )
        detector = DriftDetector(controller)
        app, kernel = controller.app, controller.kernel
        shift_at = 3 * SECOND_NS
        start = kernel.clock_ns

        def request_once() -> bool:
            if kernel.clock_ns - start < shift_at:
                return app.wanted_request(kernel, controller.frontend_port)
            # drifted mix: wanted traffic now includes the removed feature
            app.wanted_request(kernel, controller.frontend_port)
            app.feature_request(kernel, controller.frontend_port)
            return True

        events = [
            TimelineEvent(at_ns=i * SECOND_NS, label=f"drift-check-{i}",
                          action=detector.check)
            for i in range(1, 10)
        ]
        timeline = run_request_timeline(
            kernel, request_once,
            duration_ns=10 * SECOND_NS, events=events,
        )
        status = detector.status
        assert timeline.failed_requests == 0
        assert status.triggered
        assert status.first_drift_ns is not None
        assert status.triggered_ns - status.first_drift_ns <= policy_window
        assert len(status.reenabled) == 3
        assert all(not i.customized for i in controller.instances)
        assert app.feature_request(kernel, controller.frontend_port)


# ----------------------------------------------------------------------
# DynaShelve: drift_action="shelve" / "recustomize"


def _put(kernel, port, serial) -> bool:
    """One PUT — only the write half of dav-write, the DELETE half
    stays cold (the adapter's feature_request would exercise both)."""
    client = HttpClient(kernel, port)
    return client.put(f"/drift-{serial:04d}.txt", "x").status == 201


def _verify_fleet(**policy_kwargs):
    policy_kwargs.setdefault("trap_policy", "verify")
    policy_kwargs.setdefault("block_mode", "all")
    policy_kwargs.setdefault("drift_trap_threshold", 2)
    return customized_fleet(**policy_kwargs)


def _removed(instance) -> list[int]:
    return [
        block.offset
        for block in instance.engine.disabled_blocks(
            instance.root_pid, "dav-write"
        )
    ]


class TestShelveDrift:
    def test_burst_shelves_only_the_trapping_blocks(self):
        controller = _verify_fleet(
            size=2, drift_action="shelve", shelve_max_live_blocks=64
        )
        detector = DriftDetector(controller)
        target, other = controller.instances
        baseline = len(_removed(target))
        assert _put(controller.kernel, target.port, 1)
        assert detector.check()
        status = detector.status
        assert status.shelve_rounds == 1
        assert status.shelved_blocks > 0
        shelf = target.engine.shelved_offsets(target.root_pid, "dav-write")
        assert len(shelf) == status.shelved_blocks
        # the cold half of the removal set stays patched...
        assert 0 < len(_removed(target)) < baseline
        assert len(_removed(target)) + len(shelf) == baseline
        # ...the instance stays customized, in service, not degraded
        assert target.customized and not target.degraded
        # and the other instance is untouched
        assert other.engine.shelved_offsets(other.root_pid, "dav-write") == []
        assert len(_removed(other)) == baseline
        # the shelved path now serves without trapping again
        assert _put(controller.kernel, target.port, 2)
        assert not detector.check()
        assert detector.status.shelved_blocks == status.shelved_blocks

    def test_shelving_surfaces_in_controller_status(self):
        controller = _verify_fleet(
            size=2, drift_action="shelve", shelve_max_live_blocks=64
        )
        detector = DriftDetector(controller)
        target = controller.instances[0]
        assert _put(controller.kernel, target.port, 1)
        assert detector.check()
        status = controller.status()
        entry = next(
            i for i in status["instances"] if i["name"] == target.name
        )
        assert entry["shelved_blocks"]["dav-write"] > 0
        assert status["drift"]["shelve_rounds"] == 1
        assert status["drift"]["shelved_blocks"] > 0

    def test_cold_shelf_decays_back(self):
        controller = _verify_fleet(
            size=2, drift_action="shelve", shelve_max_live_blocks=64,
            shelve_decay_ns=2 * SECOND_NS,
        )
        detector = DriftDetector(controller)
        target = controller.instances[0]
        baseline = len(_removed(target))
        assert _put(controller.kernel, target.port, 1)
        assert detector.check()
        shelved = detector.status.shelved_blocks
        # cold for longer than the decay window: the sweep re-removes
        controller.kernel.clock_ns += 3 * SECOND_NS
        detector.check()
        assert detector.status.decayed_blocks == shelved
        assert target.engine.shelved_offsets(target.root_pid, "dav-write") == []
        assert len(_removed(target)) == baseline
        # the disabling session's handler tables survived: a decayed
        # block heals (and re-shelves) when the traffic returns
        assert _put(controller.kernel, target.port, 2)
        assert detector.check()
        assert detector.status.shelve_rounds == 2

    def test_hot_shelf_does_not_decay(self):
        controller = _verify_fleet(
            size=2, drift_action="shelve", shelve_max_live_blocks=64,
            shelve_decay_ns=60 * SECOND_NS,
        )
        detector = DriftDetector(controller)
        target = controller.instances[0]
        assert _put(controller.kernel, target.port, 1)
        assert detector.check()
        controller.kernel.clock_ns += 3 * SECOND_NS
        detector.check()
        assert detector.status.decayed_blocks == 0
        assert target.engine.shelved_offsets(target.root_pid, "dav-write")

    def test_shelf_overflow_escalates_to_local_reenable(self, monkeypatch):
        # the PUT path is wider than the shelf cap: block-granular
        # patching is not worth the churn, fall back to a full local
        # re-enable and mark the instance degraded
        controller = _verify_fleet(
            size=2, drift_action="shelve", shelve_max_live_blocks=4
        )
        detector = DriftDetector(controller)
        target, other = controller.instances
        assert _put(controller.kernel, target.port, 1)
        calls = rotation_calls(monkeypatch, controller.pool)
        hub = TelemetryHub()
        with telemetry.recording(hub):
            assert detector.check()
        # the escalation takes only the target out of rotation, once
        assert calls == [("drain", target.port), ("rejoin", target.port)]
        # its re-enable transaction runs under no instance label; the
        # trap-log resync and the escalation event name the target
        assert event_keys(hub) == [
            ("traps", "scan", {"instance": target.name}),
            ("drift", "traps", {"feature": "dav-write", "instance": target.name}),
            ("traps", "scan", {"instance": other.name}),
            ("drift", "triggered", {}),
            *committed_transaction(),
            ("traps", "sync", {"instance": target.name}),
            ("drift", "escalated", {"instance": target.name}),
        ]
        status = detector.status
        assert status.escalated == [target.name]
        assert target.degraded and not target.customized
        assert target.engine.shelved_offsets(target.root_pid, "dav-write") == []
        # blast radius is one instance: the rest of the fleet keeps
        # its full removal set
        assert other.customized and not other.degraded


class TestRecustomizeDrift:
    def test_first_round_narrows_only_the_drifted_instance(self):
        controller = _verify_fleet(size=2, drift_action="recustomize")
        detector = DriftDetector(controller)
        target, other = controller.instances
        baseline = len(_removed(target))
        assert _put(controller.kernel, target.port, 1)
        assert detector.check()
        rounds = detector.status.recustomize_rounds
        assert len(rounds) == 1
        entry = rounds[0]
        assert entry["scope"] == "instance"
        assert entry["instances"] == [target.name]
        assert 0 < entry["narrowed_blocks"] < baseline
        assert entry["dead_restores"] == 0
        # the drifted instance runs the narrowed set, the other still
        # runs the full one
        assert len(_removed(target)) == entry["narrowed_blocks"]
        assert len(_removed(other)) == baseline
        # the narrowed instance serves the drifted path trap-free
        seen = target.traps_seen
        assert _put(controller.kernel, target.port, 2)
        assert not detector.check()
        assert target.traps_seen == seen

    def test_second_round_rolls_out_fleet_wide(self):
        controller = _verify_fleet(size=2, drift_action="recustomize")
        detector = DriftDetector(controller)
        target, other = controller.instances
        baseline = len(_removed(target))
        assert _put(controller.kernel, target.port, 1)
        assert detector.check()
        # the same drifted mix hits an instance still running the full
        # set: the narrowed set "still storms", round 2 goes fleet-wide
        assert _put(controller.kernel, other.port, 2)
        assert detector.check()
        rounds = detector.status.recustomize_rounds
        assert [r["scope"] for r in rounds] == ["instance", "fleet"]
        narrowed = rounds[1]["narrowed_blocks"]
        assert 0 < narrowed < baseline
        assert rounds[1]["dead_restores"] == 0
        # the narrowed set is now the fleet's removal set, everywhere
        assert len(controller.feature.blocks) == narrowed
        for instance in controller.instances:
            assert len(_removed(instance)) == narrowed
            assert instance.customized


class TestHealthSegregation:
    def test_quarantined_instance_traps_are_not_drift(self):
        # regression: a recovery replaying committed state re-executes
        # removed code; with drift_trap_threshold=1 that single trap
        # used to re-enable the feature fleet-wide
        controller = _verify_fleet(size=2, drift_trap_threshold=1)
        supervisor = FleetSupervisor(controller)
        detector = DriftDetector(controller)
        target = controller.instances[0]
        supervisor.records[target.name].state = HealthState.QUARANTINED
        assert _put(controller.kernel, target.port, 1)
        assert not detector.check()
        assert detector.status.events == []
        assert detector.status.segregated_traps > 0
        assert not detector.status.triggered
        assert all(i.customized for i in controller.instances)

    def test_healthy_instance_traps_still_count(self):
        controller = _verify_fleet(size=2, drift_trap_threshold=1)
        FleetSupervisor(controller)
        detector = DriftDetector(controller)
        target = controller.instances[0]
        assert _put(controller.kernel, target.port, 1)
        assert detector.check()
        assert detector.status.triggered
        assert detector.status.segregated_traps == 0
