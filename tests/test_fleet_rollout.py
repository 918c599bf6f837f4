"""Tests for the rollout state machine (canary and rolling)."""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.fleet import (
    FleetController,
    FleetPolicy,
    InstanceState,
    RolloutExecutor,
    get_app,
)
from repro.kernel import Kernel


def make_fleet(size, **policy_kwargs):
    policy_kwargs.setdefault("features", (get_app("lighttpd").feature,))
    policy_kwargs.setdefault("probe_requests", 2)
    controller = FleetController(
        Kernel(), "lighttpd", FleetPolicy(**policy_kwargs), size=size
    )
    controller.spawn_fleet()
    return controller


def all_pristine(controller: FleetController) -> bool:
    return not any(instance.customized for instance in controller.instances)


class TestCanaryRollout:
    def test_canary_first_then_rest(self):
        controller = make_fleet(3, strategy="canary", max_unavailable=2)
        executor = RolloutExecutor(controller)
        assert executor.step()                      # canary batch
        assert executor.report.state == "rolling"
        assert executor.report.customized == ["lighttpd-0"]
        executor.run()
        assert executor.report.completed
        assert len(executor.report.customized) == 3
        assert all(i.customized for i in controller.instances)
        assert controller.pool.in_service() == [9000, 9001, 9002]

    def test_canary_actions_recorded_in_order(self):
        controller = make_fleet(2, strategy="canary")
        report = RolloutExecutor(controller).run()
        canary_steps = [
            step.action for step in report.steps
            if step.instance == "lighttpd-0"
        ]
        assert canary_steps == [
            "drain", "canary-customize", "probe", "rejoin"
        ]

    def test_gate_failure_halts_and_rolls_back(self, monkeypatch):
        controller = make_fleet(3, strategy="canary", max_unavailable=2)
        executor = RolloutExecutor(controller)
        executor.step()                             # canary succeeds
        real_probe = FleetController.probe

        def failing_probe(self, instance):
            probe = real_probe(self, instance)
            probe.succeeded = 0                     # health collapses
            return probe

        monkeypatch.setattr(FleetController, "probe", failing_probe)
        assert not executor.step()
        report = executor.report
        assert report.aborted
        assert "health gate failed" in report.aborted_reason
        # the already-customized canary was rolled back too
        assert "lighttpd-0" in report.rolled_back
        assert all_pristine(controller)
        assert controller.pool.in_service() == [9000, 9001, 9002]

    def test_canary_fault_aborts_everything_pristine(self):
        controller = make_fleet(3, strategy="canary")
        executor = RolloutExecutor(controller)
        plan = FaultPlan(seed=7).arm(
            "restore.memory", "permanent", on_call=1, times=10
        )
        with plan:
            executor.step()
        assert plan.fired >= 1
        report = executor.report
        assert report.aborted
        assert "transaction rolled back" in report.aborted_reason
        assert report.customized == []
        assert all_pristine(controller)
        # every instance — including the failed canary — still serves
        for instance in controller.instances:
            assert controller.alive(instance)
            assert controller.app.wanted_request(
                controller.kernel, instance.port
            )
        assert controller.instance(0).state is InstanceState.FAILED


class TestRollingRollout:
    def test_rolling_respects_max_unavailable(self):
        controller = make_fleet(5, strategy="rolling", max_unavailable=2)
        executor = RolloutExecutor(controller)
        assert executor.batches_remaining == 3      # 2 + 2 + 1
        report = executor.run()
        assert report.completed
        assert report.max_drained_seen == 2
        assert len(report.customized) == 5

    def test_mid_rolling_abort_rolls_back_earlier_batches(self, monkeypatch):
        controller = make_fleet(4, strategy="rolling", max_unavailable=1)
        executor = RolloutExecutor(controller)
        assert executor.step() and executor.step()  # two instances done
        assert len(executor.report.customized) == 2

        plan = FaultPlan(seed=11).arm(
            "restore.memory", "permanent", on_call=1, times=10
        )
        with plan:
            executor.step()                         # third instance fails
        report = executor.report
        assert report.aborted
        assert sorted(report.rolled_back) == ["lighttpd-0", "lighttpd-1"]
        assert all_pristine(controller)
        assert controller.pool.in_service() == [9000, 9001, 9002, 9003]

    def test_done_executor_refuses_more_steps(self):
        controller = make_fleet(2, strategy="rolling", max_unavailable=2)
        executor = RolloutExecutor(controller)
        executor.run()
        assert executor.done
        assert not executor.step()

    def test_report_serializes(self):
        controller = make_fleet(2, strategy="rolling", max_unavailable=2)
        report = RolloutExecutor(controller).run()
        payload = report.to_dict()
        assert payload["state"] == "completed"
        assert len(payload["steps"]) == len(report.steps)
        assert payload["probes"][0]["instance"] == "lighttpd-0"


class TestPlanning:
    def test_empty_fleet_rejected(self):
        controller = FleetController(
            Kernel(), "lighttpd",
            FleetPolicy(features=("dav-write",)), size=2,
        )
        with pytest.raises(ValueError):
            RolloutExecutor(controller)
