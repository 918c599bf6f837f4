"""Tests for FleetPolicy validation and ProbeResult gating."""

from __future__ import annotations

import pytest

from repro.core import BlockMode, TrapPolicy
from repro.fleet import FleetPolicy, PolicyError, ProbeResult


class TestFleetPolicy:
    def test_defaults_are_valid(self):
        policy = FleetPolicy(features=("dav-write",))
        assert policy.strategy == "canary"
        assert policy.trap_policy_enum is TrapPolicy.REDIRECT
        assert policy.block_mode_enum is BlockMode.ENTRY

    def test_single_feature_string_coerced(self):
        policy = FleetPolicy(features="dav-write")
        assert policy.features == ("dav-write",)

    def test_no_features_rejected(self):
        with pytest.raises(PolicyError):
            FleetPolicy(features=())

    def test_two_features_rejected(self):
        # a fleet removes its app's one feature
        with pytest.raises(PolicyError, match="exactly one feature"):
            FleetPolicy(features=("dav-write", "SET"))

    def test_terminate_policy_rejected(self):
        # killing an in-service instance on a stray trap is never a
        # fleet-safe policy
        with pytest.raises(PolicyError, match="terminate"):
            FleetPolicy(features=("f",), trap_policy="terminate")

    # every bounded integer field at its first invalid value and at a
    # negative one
    @pytest.mark.parametrize("kwargs", [
        {"strategy": "big-bang"},
        {"max_unavailable": 0},
        {"max_unavailable": -1},
        {"probe_requests": 0},
        {"probe_requests": -1},
        {"drift_window_ns": 0},
        {"drift_window_ns": -1},
        {"drift_trap_threshold": 0},
        {"drift_trap_threshold": -1},
        {"drift_action": "panic"},
        {"shelve_decay_ns": 0},
        {"shelve_decay_ns": -1},
        {"shelve_max_live_blocks": 0},
        {"shelve_max_live_blocks": -1},
        {"block_mode": "everything"},
        {"heartbeat_interval_ns": 0},
        {"heartbeat_interval_ns": -1},
        {"shards": 0},
        {"shards": -2},
        {"ring_replicas": 0},
        {"ring_replicas": -1},
        {"host_failover_budget": -1},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(PolicyError):
            FleetPolicy(features=("f",), **kwargs)

    def test_dict_roundtrip(self):
        policy = FleetPolicy(
            features=("a",), strategy="rolling", max_unavailable=3,
            trap_policy="verify", block_mode="all", probe_requests=9,
        )
        assert FleetPolicy(**policy.to_dict()) == policy

    def test_supervisor_knobs_roundtrip(self):
        policy = FleetPolicy(features=("f",), heartbeat_interval_ns=2_000_000_000)
        payload = policy.to_dict()
        assert payload["heartbeat_interval_ns"] == 2_000_000_000
        assert FleetPolicy(**payload) == policy
        # the supervisor's thresholds are constants, not policy keys
        assert not {
            "suspect_threshold", "quarantine_limit",
            "trap_storm_window_ns", "trap_storm_threshold",
        } & set(payload)

    def test_shelve_knobs_roundtrip(self):
        policy = FleetPolicy(
            features=("f",), drift_action="shelve",
            shelve_decay_ns=3_000_000_000, shelve_max_live_blocks=16,
        )
        payload = policy.to_dict()
        assert payload["drift_action"] == "shelve"
        assert payload["shelve_decay_ns"] == 3_000_000_000
        assert payload["shelve_max_live_blocks"] == 16
        assert FleetPolicy(**payload) == policy

    def test_adaptive_drift_actions_accepted(self):
        for action in ("shelve", "recustomize"):
            policy = FleetPolicy(features=("f",), drift_action=action)
            assert policy.drift_action == action

    def test_mesh_knobs_roundtrip(self):
        policy = FleetPolicy(
            features=("f",), shards=4, ring_replicas=32,
            host_failover_budget=2,
        )
        payload = policy.to_dict()
        assert payload["shards"] == 4
        assert payload["ring_replicas"] == 32
        assert payload["host_failover_budget"] == 2
        assert FleetPolicy(**payload) == policy

    def test_mesh_defaults_are_single_kernel(self):
        # a default policy is the classic one-host fleet
        policy = FleetPolicy(features=("f",))
        assert policy.shards == 1
        assert policy.ring_replicas >= 1
        assert policy.host_failover_budget >= 0


class TestProbeResult:
    def _policy(self, **kwargs):
        return FleetPolicy(features=("f",), **kwargs)

    def test_passes_when_healthy_and_blocked(self):
        probe = ProbeResult(
            instance="i", sent=4, succeeded=4, features_blocked={"f": True}
        )
        assert probe.success_rate == 1.0
        assert probe.passed(self._policy())

    def test_fails_below_min_success(self):
        probe = ProbeResult(
            instance="i", sent=4, succeeded=3, features_blocked={"f": True}
        )
        assert not probe.passed(self._policy())

    def test_fails_when_feature_still_served(self):
        probe = ProbeResult(
            instance="i", sent=4, succeeded=4, features_blocked={"f": False}
        )
        assert not probe.passed(self._policy())

    def test_blocked_check_skipped_for_verify_policy(self):
        # under VERIFY the first feature request heals the block, so
        # "still served" is the expected outcome, not a gate failure
        probe = ProbeResult(
            instance="i", sent=4, succeeded=4, features_blocked={"f": False}
        )
        assert probe.passed(self._policy(trap_policy="verify"))
