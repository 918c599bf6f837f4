"""Tests for DynaGuard: health machine, recovery, and circuit breaking."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.core.transaction import PHASE_RETRYING
from repro.faults import FaultPlan
from repro.fleet import (
    FleetController,
    FleetError,
    FleetPolicy,
    FleetSupervisor,
    HealthError,
    HealthRecord,
    HealthState,
    InstanceState,
    RolloutExecutor,
    inject_chaos,
)
from repro.fleet.supervisor import QUARANTINE_LIMIT, TRAP_STORM_THRESHOLD
from repro.kernel import Kernel
from repro.telemetry import TelemetryHub
from repro.workloads import HttpClient

from .helpers import committed_transaction, event_keys, rotation_calls


def make_supervised(size=2, customize=True, **policy_kwargs):
    policy_kwargs.setdefault("features", ("dav-write",))
    policy_kwargs.setdefault("probe_requests", 2)
    policy_kwargs.setdefault("strategy", "rolling")
    controller = FleetController(
        Kernel(), "lighttpd", FleetPolicy(**policy_kwargs), size=size
    )
    controller.spawn_fleet()
    if customize:
        report = RolloutExecutor(controller).run()
        assert report.state == "completed"
    return controller, FleetSupervisor(controller)


# ----------------------------------------------------------------------
# the health state machine (no kernel needed)


class TestHealthMachine:
    def test_probe_failures_walk_to_down(self):
        record = HealthRecord("i")
        record.observe_failure(1, suspect_threshold=2)
        assert record.state is HealthState.SUSPECT
        record.observe_failure(2, suspect_threshold=2)
        assert record.state is HealthState.DOWN

    def test_success_clears_suspicion(self):
        record = HealthRecord("i")
        record.observe_failure(1, suspect_threshold=3)
        record.observe_ok(2)
        assert record.state is HealthState.HEALTHY
        assert record.consecutive_probe_failures == 0

    def test_crash_skips_the_suspect_phase(self):
        record = HealthRecord("i")
        record.observe_crash(1)
        assert record.state is HealthState.DOWN

    def test_recovery_round_trip_resets_counters(self):
        record = HealthRecord("i")
        record.observe_crash(1)
        record.begin_restore(2)
        assert record.state is HealthState.RESTORING
        record.restore_succeeded(3)
        assert record.state is HealthState.HEALTHY
        assert record.recovery_failures == 0

    def test_failed_restores_reach_quarantine(self):
        record = HealthRecord("i")
        record.observe_crash(1)
        record.begin_restore(2)
        record.restore_failed(3, quarantine_limit=2)
        assert record.state is HealthState.DOWN
        record.begin_restore(4)
        record.restore_failed(5, quarantine_limit=2)
        assert record.state is HealthState.QUARANTINED

    def test_quarantine_absorbs_observations(self):
        record = HealthRecord("i")
        record.observe_crash(1)
        record.begin_restore(2)
        record.restore_failed(3, quarantine_limit=1)
        record.observe_ok(4)
        record.observe_failure(5, suspect_threshold=1)
        record.observe_crash(6)
        assert record.state is HealthState.QUARANTINED
        with pytest.raises(HealthError):
            record.begin_restore(7)

    def test_reinstate_returns_to_down_not_healthy(self):
        record = HealthRecord("i")
        record.observe_crash(1)
        record.begin_restore(2)
        record.restore_failed(3, quarantine_limit=1)
        record.reinstate(4)
        assert record.state is HealthState.DOWN
        assert record.recovery_failures == 0

    def test_reinstate_outside_quarantine_rejected(self):
        record = HealthRecord("i")
        with pytest.raises(HealthError, match="reinstate"):
            record.reinstate(1)

    def test_illegal_transitions_rejected(self):
        record = HealthRecord("i")
        with pytest.raises(HealthError):        # HEALTHY -> RESTORING
            record.begin_restore(1)
        record.observe_crash(2)
        with pytest.raises(HealthError):        # DOWN -> HEALTHY directly
            record.restore_succeeded(3)


_OPS = st.sampled_from(
    ["ok", "fail", "crash", "begin", "succeed", "fail_restore", "reinstate"]
)


def _apply(record: HealthRecord, op: str, clock: int, threshold: int, limit: int):
    try:
        if op == "ok":
            record.observe_ok(clock)
        elif op == "fail":
            record.observe_failure(clock, threshold)
        elif op == "crash":
            record.observe_crash(clock)
        elif op == "begin":
            record.begin_restore(clock)
        elif op == "succeed":
            record.restore_succeeded(clock)
        elif op == "fail_restore":
            record.restore_failed(clock, limit)
        elif op == "reinstate":
            record.reinstate(clock)
    except HealthError:
        pass                                    # illegal op: state unchanged


class TestHealthProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(_OPS, max_size=40),
        threshold=st.integers(min_value=1, max_value=3),
        limit=st.integers(min_value=1, max_value=3),
    )
    def test_down_never_becomes_healthy_without_restoring(
        self, ops, threshold, limit
    ):
        record = HealthRecord("i")
        for clock, op in enumerate(ops, start=1):
            _apply(record, op, clock, threshold, limit)
        states = [HealthState.HEALTHY] + [state for __, state in record.history]
        for prev, cur in zip(states, states[1:]):
            assert not (
                prev is HealthState.DOWN and cur is HealthState.HEALTHY
            ), "DOWN -> HEALTHY must pass through RESTORING"

    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(_OPS.filter(lambda op: op != "reinstate"), max_size=40),
        threshold=st.integers(min_value=1, max_value=3),
        limit=st.integers(min_value=1, max_value=3),
    )
    def test_quarantine_absorbing_without_reinstate(self, ops, threshold, limit):
        record = HealthRecord("i")
        for clock, op in enumerate(ops, start=1):
            _apply(record, op, clock, threshold, limit)
        states = [state for __, state in record.history]
        if HealthState.QUARANTINED in states:
            first = states.index(HealthState.QUARANTINED)
            assert all(
                state is HealthState.QUARANTINED for state in states[first:]
            )
            assert record.state is HealthState.QUARANTINED


# ----------------------------------------------------------------------
# supervised recovery on a real fleet


class TestSupervisorRecovery:
    def test_crash_recovered_from_committed_checkpoint(self):
        controller, sup = make_supervised()
        target = controller.instance(1)
        controller.kernel.crash_process(target.root_pid)
        assert not controller.alive(target)
        events = sup.tick(force=True)
        assert [e.kind for e in events] == ["crash-detected", "recovered"]
        assert sup.recoveries[-1].source == "checkpoint"
        assert controller.alive(target)
        # the removal set survived the crash: restored from the
        # committed rewritten image, not a pristine one
        assert target.customized_features == ["dav-write"]
        assert not controller.app.feature_request(
            controller.kernel, target.port
        )
        assert not target.degraded
        assert target.port in controller.pool.in_service()
        assert sup.record(1).state is HealthState.HEALTHY
        assert sup.settled

    def test_corrupt_image_falls_back_to_pristine_respawn(self):
        controller, sup = make_supervised()
        target = controller.instance(0)
        controller.kernel.crash_process(target.root_pid)
        plan = FaultPlan(seed=5).arm(
            "fleet.restore_image_corrupt", "permanent", on_call=1
        )
        with plan:
            sup.tick(force=True)
        assert sup.recoveries[-1].source == "respawn"
        assert sup.recoveries[-1].succeeded
        assert controller.alive(target)
        assert target.degraded
        # pristine respawn serves the feature again (no removal set)
        assert controller.app.feature_request(controller.kernel, target.port)
        assert sup.record(0).state is HealthState.HEALTHY

    def test_uncustomized_instance_respawns_pristine(self):
        # no committed image exists before the first customize(): the
        # fallback path is the only recovery available
        controller, sup = make_supervised(customize=False)
        target = controller.instance(1)
        controller.kernel.crash_process(target.root_pid)
        sup.tick(force=True)
        assert sup.recoveries[-1].source == "respawn"
        assert controller.alive(target)

    def test_wedged_instance_detected_by_probe_and_recovered(self):
        # size 1 so both hang fires hit the same instance's probe
        controller, sup = make_supervised(size=1)
        plan = FaultPlan(seed=3).arm(
            "fleet.probe_hang", "transient", probability=1.0, times=2
        )
        with plan:
            sup.tick(force=True)
            assert sup.record(0).state is HealthState.SUSPECT
            sup.tick(force=True)
        # SUSPECT after the first hang, DOWN at the threshold on the
        # second, then recovery in the same supervision pass
        assert sup.record(0).state is HealthState.HEALTHY
        assert sup.recoveries[-1].source == "checkpoint"
        assert any(e.kind == "down" for e in sup.events)
        assert controller.app.wanted_request(
            controller.kernel, controller.instance(0).port
        )

    def test_quarantine_then_operator_reinstate(self):
        controller, sup = make_supervised()
        target = controller.instance(1)
        controller.kernel.crash_process(target.root_pid)
        plan = FaultPlan(seed=9).arm(
            "restore.memory", "permanent", probability=1.0, times=0
        )
        with plan:
            for failures in range(1, QUARANTINE_LIMIT):
                sup.tick(force=True)
                assert sup.record(1).state is HealthState.DOWN
                assert sup.record(1).recovery_failures == failures
            sup.tick(force=True)
        assert sup.record(1).state is HealthState.QUARANTINED
        assert target.state is InstanceState.QUARANTINED
        assert target.port not in controller.pool.in_service()
        assert sup.settled            # quarantine is a *clean* end state
        # quarantined instances are skipped by later ticks
        ticks_before = sup.ticks
        sup.tick(force=True)
        assert sup.ticks == ticks_before + 1
        assert sup.record(1).state is HealthState.QUARANTINED
        # operator override: recover for real this time
        events = sup.reinstate(1)
        assert [e.kind for e in events] == ["recovered"]
        assert sup.record(1).state is HealthState.HEALTHY
        assert controller.alive(target)
        assert target.state is InstanceState.IN_SERVICE

    def test_heartbeat_interval_gates_ticks(self):
        controller, sup = make_supervised(size=1)
        assert sup.tick() != [] or sup.ticks == 1       # first tick runs
        assert sup.tick() == [] and sup.ticks == 1      # too early: no-op
        controller.kernel.clock_ns += controller.policy.heartbeat_interval_ns
        sup.tick()
        assert sup.ticks == 2


class TestTrapStorm:
    def test_storm_demotes_only_the_trapping_instance(self):
        controller, sup = make_supervised(size=3)
        victim = controller.instance(2)
        others = [controller.instance(0), controller.instance(1)]
        # hammer the removed feature on the victim's own port: every
        # request traps on the removal set and gets the app's error arm
        for __ in range(6):
            controller.app.feature_request(controller.kernel, victim.port)
        sup.tick(force=True)
        demotions = [e for e in sup.events if e.kind == "demoted"]
        assert [e.instance for e in demotions] == [victim.name]
        assert victim.degraded and not victim.customized
        # demoted locally: the feature serves again on the victim...
        assert controller.app.feature_request(controller.kernel, victim.port)
        # ...and stays removed everywhere else (no fleet-wide re-enable)
        for other in others:
            assert other.customized_features == ["dav-write"]
            assert not other.degraded
            assert not controller.app.feature_request(
                controller.kernel, other.port
            )
        assert victim.port in controller.pool.in_service()

    def test_failed_demotion_surfaces_the_rollback_failure(self):
        controller, sup = make_supervised(size=2)
        victim = controller.instance(1)
        for __ in range(6):
            controller.app.feature_request(controller.kernel, victim.port)
        # the re-enable's restore fails, and so does its pristine
        # rollback: the victim's tree is gone
        plan = FaultPlan(seed=9).arm(
            "restore.memory", "permanent", probability=1.0, times=0
        )
        with plan:
            events = sup.tick(force=True)
        # the same pass marks the victim down, naming the failure, and
        # makes the first recovery attempt, which fails too
        assert [e.kind for e in events] == ["down", "recovery-failed"]
        assert "RollbackFailed" in events[0].detail
        assert sup.breaker_trips == {victim.name: 1}
        assert sup.record(1).state is HealthState.DOWN
        assert not controller.alive(victim)
        assert victim.port not in controller.pool.in_service()

    def test_failed_demotion_recovers_the_victim_in_the_same_tick(self):
        controller, sup = make_supervised(size=2)
        victim = controller.instance(1)
        for __ in range(6):
            controller.app.feature_request(controller.kernel, victim.port)
        # only the demotion's restore and its pristine rollback fail
        plan = FaultPlan(seed=9).arm(
            "restore.memory", "permanent", probability=1.0, times=2
        )
        with plan:
            events = sup.tick(force=True)
        assert [e.kind for e in events] == ["down", "recovered"]
        assert "RollbackFailed" in events[0].detail
        assert sup.breaker_trips == {victim.name: 1}
        assert sup.record(1).state is HealthState.HEALTHY
        assert controller.alive(victim)
        assert victim.port in controller.pool.in_service()
        # recovered from its pre-demotion image: the feature stays
        # removed, as the victim's record says
        assert victim.customized_features == [controller.app.feature]
        assert not victim.degraded
        assert not controller.app.feature_request(controller.kernel, victim.port)

    def test_sparse_traps_below_threshold_do_not_demote(self):
        controller, sup = make_supervised(size=2)
        victim = controller.instance(1)
        # each request traps once on the removal set
        for __ in range(TRAP_STORM_THRESHOLD - 1):
            controller.app.feature_request(controller.kernel, victim.port)
        sup.tick(force=True)
        assert not any(e.kind == "demoted" for e in sup.events)
        assert victim.customized and not victim.degraded


# ----------------------------------------------------------------------
# controller hardening (satellites)


class TestControllerHardening:
    def test_rejoin_refuses_dead_instance(self):
        controller, __ = make_supervised(customize=False)
        target = controller.instance(0)
        controller.drain(target)
        controller.kernel.crash_process(target.root_pid)
        with pytest.raises(FleetError, match="not alive"):
            controller.rejoin(target)
        assert target.port not in controller.pool.in_service()

    def test_double_drain_is_idempotent(self):
        controller, __ = make_supervised(customize=False)
        target = controller.instance(0)
        controller.drain(target)
        controller.drain(target)
        assert target.state is InstanceState.DRAINED
        assert controller.pool.in_service() == [controller.instance(1).port]
        controller.rejoin(target)
        assert target.state is InstanceState.IN_SERVICE

    def test_drain_of_quarantined_instance_keeps_quarantine(self):
        controller, __ = make_supervised(customize=False)
        target = controller.instance(1)
        target.state = InstanceState.QUARANTINED
        controller.drain(target)
        assert target.state is InstanceState.QUARANTINED
        # rejoin puts the port back but never promotes the state: only
        # the supervisor's recovery path clears a quarantine
        controller.rejoin(target)
        assert target.state is InstanceState.QUARANTINED

    def test_rollback_on_instance_dead_mid_customize(self):
        controller, __ = make_supervised()
        target = controller.instance(0)
        # simulate death mid-transaction: the journal's last word is
        # "retrying" when the crash takes the tree down
        assert target.engine.last_journal is not None
        target.engine.last_journal.record(
            PHASE_RETRYING, 2, controller.kernel.clock_ns
        )
        controller.kernel.crash_process(target.root_pid)
        with pytest.raises(FleetError, match="retrying"):
            controller.rollback(target)


class TestInjectChaos:
    def test_seeded_crash_hits_the_planned_instance(self):
        controller, __ = make_supervised(size=3, customize=False)
        plan = FaultPlan(seed=1).arm(
            "fleet.instance_crash", "transient", on_call=2, times=1
        )
        with plan:
            crashed = inject_chaos(controller)
        assert crashed == ["lighttpd-1"]
        assert not controller.alive(controller.instance(1))
        assert controller.alive(controller.instance(0))
        assert controller.alive(controller.instance(2))
        # idempotent on dead instances: the site is only visited for
        # live ones
        with plan:
            assert inject_chaos(controller) == []


# ----------------------------------------------------------------------
# the breaker's shelve arm (drift_action="shelve")


class TestStormShelving:
    def _storm_fleet(self, **policy_kwargs):
        policy_kwargs.setdefault("trap_policy", "verify")
        policy_kwargs.setdefault("block_mode", "all")
        policy_kwargs.setdefault("drift_action", "shelve")
        return make_supervised(size=2, **policy_kwargs)

    def _storm_put(self, controller, instance) -> bool:
        # one PUT on a verify-mode ALL removal heals (and logs) every
        # block of the PUT path at once: an instant storm
        client = HttpClient(controller.kernel, instance.port)
        return client.put("/storm.txt", "x").status == 201

    def test_storm_shelves_instead_of_demoting(self, monkeypatch):
        controller, sup = self._storm_fleet(shelve_max_live_blocks=64)
        victim, other = controller.instance(0), controller.instance(1)
        assert self._storm_put(controller, victim)
        calls = rotation_calls(monkeypatch, controller.pool)
        hub = TelemetryHub()
        with telemetry.recording(hub):
            sup.tick(force=True)
        # the shelve takes only the victim out of rotation, once
        assert calls == [("drain", victim.port), ("rejoin", victim.port)]
        # its shelve transaction and the trap-log resync run under the
        # victim's label; the quiet instance is only scanned
        assert event_keys(hub) == [
            ("traps", "breaker-scan", {"instance": victim.name}),
            *committed_transaction(instance=victim.name),
            ("shelve", "shelved", {"instance": victim.name}),
            ("traps", "sync", {"instance": victim.name}),
            ("supervisor", "shelved", {"instance": victim.name}),
            ("traps", "breaker-scan", {"instance": other.name}),
        ]
        shelvings = [e for e in sup.events if e.kind == "shelved"]
        assert [e.instance for e in shelvings] == [victim.name]
        assert not any(e.kind == "demoted" for e in sup.events)
        # the victim keeps its customization minus the storming blocks
        assert victim.customized and not victim.degraded
        shelf = victim.engine.shelved_offsets(victim.root_pid, "dav-write")
        assert shelf
        assert victim.engine.disabled_blocks(victim.root_pid, "dav-write")
        assert victim.port in controller.pool.in_service()
        # blast radius: the quiet instance is untouched
        assert other.engine.shelved_offsets(other.root_pid, "dav-write") == []

    def test_storm_wider_than_the_shelf_cap_still_demotes(self, monkeypatch):
        controller, sup = self._storm_fleet(shelve_max_live_blocks=4)
        victim, other = controller.instance(0), controller.instance(1)
        assert self._storm_put(controller, victim)
        calls = rotation_calls(monkeypatch, controller.pool)
        hub = TelemetryHub()
        with telemetry.recording(hub):
            sup.tick(force=True)
        # the demotion takes only the victim out of rotation, once
        assert calls == [("drain", victim.port), ("rejoin", victim.port)]
        # its re-enable transaction runs under the victim's label
        assert event_keys(hub) == [
            ("traps", "breaker-scan", {"instance": victim.name}),
            *committed_transaction(instance=victim.name),
            ("supervisor", "demoted", {"instance": victim.name}),
            ("traps", "breaker-scan", {"instance": other.name}),
        ]
        assert any(e.kind == "demoted" for e in sup.events)
        assert not any(e.kind == "shelved" for e in sup.events)
        assert victim.degraded and not victim.customized
        assert victim.engine.shelved_offsets(victim.root_pid, "dav-write") == []

    def test_reenable_policy_still_demotes(self):
        # the pre-shelving breaker behaviour is the default, unchanged
        controller, sup = self._storm_fleet(drift_action="reenable",
                                            shelve_max_live_blocks=64)
        victim = controller.instance(0)
        assert self._storm_put(controller, victim)
        sup.tick(force=True)
        assert any(e.kind == "demoted" for e in sup.events)
        assert not any(e.kind == "shelved" for e in sup.events)
        assert victim.degraded and not victim.customized
