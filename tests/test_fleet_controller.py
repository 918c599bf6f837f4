"""Tests for the FleetController lifecycle verbs."""

from __future__ import annotations

import pytest

from repro.fleet import (
    FleetAppError,
    FleetController,
    FleetError,
    FleetPolicy,
    InstanceState,
    apps,
    get_app,
)
from repro.kernel import Kernel
from repro.workloads import HttpClient


def make_fleet(size=2, app="lighttpd", **policy_kwargs):
    policy_kwargs.setdefault("features", (get_app(app).feature,))
    policy_kwargs.setdefault("probe_requests", 2)
    controller = FleetController(
        Kernel(), app, FleetPolicy(**policy_kwargs), size=size
    )
    controller.spawn_fleet()
    return controller


@pytest.fixture()
def fleet():
    return make_fleet(size=2)


class TestSpawn:
    def test_instances_on_distinct_ports_all_serving(self, fleet):
        ports = [instance.port for instance in fleet.instances]
        assert len(set(ports)) == 2
        for instance in fleet.instances:
            assert fleet.alive(instance)
            assert fleet.app.wanted_request(fleet.kernel, instance.port)

    def test_frontend_balances_over_instances(self, fleet):
        for __ in range(4):
            assert HttpClient(fleet.kernel, fleet.frontend_port).get("/").ok
        assert all(count == 2 for count in fleet.pool.dispatched.values())

    def test_engines_are_isolated(self, fleet):
        a, b = fleet.instances
        assert a.engine is not b.engine
        assert a.engine.image_dir != b.engine.image_dir

    def test_double_spawn_rejected(self, fleet):
        with pytest.raises(FleetError):
            fleet.spawn_fleet()

    def test_unknown_app_rejected(self):
        with pytest.raises(FleetAppError):
            FleetController(
                Kernel(), "apache", FleetPolicy(features=("f",)), size=1
            )

    def test_feature_other_than_the_apps_rejected(self, monkeypatch):
        # refused on construction: nothing is profiled or staged
        monkeypatch.setattr(apps, "_PROFILE_CACHE", {})
        kernel = Kernel()
        with pytest.raises(FleetAppError, match="removes 'dav-write'"):
            FleetController(
                kernel, "lighttpd", FleetPolicy(features=("SET",)), size=2
            )
        assert apps._PROFILE_CACHE == {}
        assert kernel.processes == {}

    def test_instance_lookup_by_index_and_name(self, fleet):
        assert fleet.instance(0) is fleet.instances[0]
        assert fleet.instance("lighttpd-1") is fleet.instances[1]
        with pytest.raises(FleetError):
            fleet.instance("lighttpd-9")


class TestRotation:
    def test_drain_takes_instance_out_of_rotation(self, fleet):
        target = fleet.instances[0]
        fleet.drain(target)
        assert target.state is InstanceState.DRAINED
        for __ in range(3):
            HttpClient(fleet.kernel, fleet.frontend_port).get("/")
        assert fleet.pool.dispatched[target.port] == 0
        assert fleet.pool.dispatched[fleet.instances[1].port] == 3

    def test_rejoin_restores_rotation(self, fleet):
        target = fleet.instances[0]
        fleet.drain(target)
        fleet.rejoin(target)
        assert target.state is InstanceState.IN_SERVICE
        assert target.port in fleet.pool.in_service()


class TestCustomizeAndProbe:
    def test_customize_blocks_feature_on_one_instance_only(self, fleet):
        target, other = fleet.instances
        fleet.drain(target)
        report = fleet.customize(target)
        assert report.stats.blocks_patched > 0
        assert target.customized_features == ["dav-write"]
        # feature is blocked on the customized instance...
        assert not fleet.app.feature_request(fleet.kernel, target.port)
        # ...and untouched on the other
        assert fleet.app.feature_request(fleet.kernel, other.port)

    def test_probe_passes_on_customized_instance(self, fleet):
        target = fleet.instances[0]
        fleet.drain(target)
        fleet.customize(target)
        probe = fleet.probe(target)
        assert probe.success_rate == 1.0
        assert probe.features_blocked == {"dav-write": True}
        assert probe.passed(fleet.policy)

    def test_probe_fails_on_pristine_instance(self, fleet):
        # a pristine instance still serves the feature, so the
        # blocked-gate must fail — the probe really measures the rewrite
        probe = fleet.probe(fleet.instances[0])
        assert probe.features_blocked == {"dav-write": False}
        assert not probe.passed(fleet.policy)

    def test_rollback_restores_the_feature(self, fleet):
        target = fleet.instances[0]
        fleet.drain(target)
        fleet.customize(target)
        assert fleet.rollback(target)
        assert not target.customized
        assert fleet.app.feature_request(fleet.kernel, target.port)


class TestStatus:
    def test_status_reports_fleet_shape(self, fleet):
        status = fleet.status()
        assert status["app"] == "lighttpd"
        assert status["size"] == 2
        assert len(status["instances"]) == 2
        assert status["pool"]["backends"] == [9000, 9001]
        entry = status["instances"][0]
        assert entry["alive"] and entry["state"] == "in-service"

    def test_module_base_resolves_app_binary(self, fleet):
        proc = fleet.process(fleet.instances[0])
        expected = next(
            m.load_base for m in proc.modules if m.name == fleet.app.binary
        )
        assert fleet.module_base(fleet.instances[0]) == expected


class TestRedisFleet:
    def test_redis_fleet_spawn_and_customize(self):
        controller = make_fleet(size=2, app="redis")
        target = controller.instances[0]
        controller.drain(target)
        controller.customize(target)
        assert not controller.app.feature_request(
            controller.kernel, target.port
        )
        assert controller.app.wanted_request(controller.kernel, target.port)
