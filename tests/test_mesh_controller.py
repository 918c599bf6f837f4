"""Full-stack mesh tests: real kernels, real kvstore fleets.

Everything here boots actual :class:`Host` shards (own kernel, own
fleet, own supervisor) — the routing-logic edge cases live in
``test_mesh_frontend.py`` on stub hosts.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.faults import FaultPlan
from repro.fleet import FleetPolicy
from repro.mesh import controller as controller_module
from repro.mesh import (
    MeshClock,
    MeshController,
    MeshError,
    MeshRollout,
    inject_host_chaos,
)
from repro.telemetry import TelemetryHub

SECOND_NS = 1_000_000_000


def make_mesh(tmp_path, shards=2, size=1, **policy_kwargs) -> MeshController:
    policy = FleetPolicy(features=("SET",), shards=shards, **policy_kwargs)
    mesh = MeshController(
        "redis", policy, size_per_shard=size, image_root=str(tmp_path / "mesh")
    )
    mesh.spawn_mesh()
    return mesh


class TestSpawnAndStatus:
    def test_hosts_are_isolated_kernels(self, tmp_path):
        mesh = make_mesh(tmp_path, shards=2, size=2)
        kernels = {id(host.kernel) for host in mesh.hosts}
        assert len(kernels) == 2
        # same ports on every host: separate networks, no collisions
        for host in mesh.hosts:
            assert host.frontend_port == mesh.hosts[0].frontend_port
            assert host.routable()

    def test_non_kvstore_app_is_refused_before_any_host(
        self, tmp_path, monkeypatch
    ):
        def no_host(*args, **kwargs):
            raise AssertionError("a host was built for a refused app")

        monkeypatch.setattr(controller_module, "Host", no_host)
        policy = FleetPolicy(features=("dav-write",), shards=2)
        with pytest.raises(MeshError, match="redis kvstore only"):
            MeshController(
                "lighttpd", policy, size_per_shard=1,
                image_root=str(tmp_path / "mesh"),
            )

    def test_status_aggregates_all_shards(self, tmp_path):
        mesh = make_mesh(tmp_path, shards=2)
        status = mesh.status()
        assert status["shards"] == 2
        assert set(status["hosts"]) == {"host-0", "host-1"}
        assert status["frontend"]["accounted"]
        assert status["settled"]
        for name, shard in status["hosts"].items():
            assert shard["host"] == name
            assert shard["routable"]

    def test_unknown_host_ref_rejected(self, tmp_path):
        mesh = make_mesh(tmp_path)
        with pytest.raises(MeshError, match="no mesh host"):
            mesh.host("host-9")


class TestShardLabelledTelemetry:
    def test_every_shard_metric_carries_its_label(self, tmp_path):
        hub = TelemetryHub()
        with telemetry.recording(hub):
            mesh = make_mesh(tmp_path, shards=2)
            for index in range(6):
                mesh.wanted_request(key=f"key-{index}")
            mesh.crash_host(0)
            for index in range(6):
                mesh.wanted_request(key=f"key-{index}")
            mesh.clock.clock_ns = mesh.clock.clock_ns + SECOND_NS
            mesh.tick(force=True)
        dispatched = hub.registry.counters_by_label("mesh_dispatch_total", "shard")
        assert set(dispatched) <= {"host-0", "host-1"}
        assert sum(dispatched.values()) == 12
        # the intra-host balancer's dispatch events ran under the
        # shard's label scope (shard= merged into the nested emission)
        balanced = [e for e in hub.events if e.kind == "dispatch"]
        assert balanced
        assert all(e.label("shard") in ("host-0", "host-1") for e in balanced)
        # supervisor events from the crashed shard carry its label too
        supervisor = [e for e in hub.events if e.kind == "supervisor"]
        assert supervisor
        assert all(e.label("shard") == "host-0" for e in supervisor)

    def test_host_status_reports_its_own_pool(self, tmp_path):
        # every host listens on the same ports, so one hub's registry
        # sums all shards' dispatches per port; status must not
        hub = TelemetryHub()
        with telemetry.recording(hub):
            mesh = make_mesh(tmp_path, shards=2, size=2)
            for index in range(20):
                mesh.wanted_request(key=f"key-{index}")
            status = mesh.status()
        for host in mesh.hosts:
            pool = host.controller.pool
            assert pool is not None
            shard = status["hosts"][host.name]["pool"]
            assert shard["dispatched"] == pool.dispatched
            assert shard["failovers"] == pool.failovers


class TestMeshClock:
    def test_reads_max_and_broadcast_never_rewinds(self, tmp_path):
        mesh = make_mesh(tmp_path, shards=2)
        a, b = (host.kernel for host in mesh.hosts)
        a.clock_ns += 5 * SECOND_NS
        assert mesh.clock.clock_ns == a.clock_ns
        before_a = a.clock_ns
        mesh.clock.clock_ns = before_a  # broadcast: raises only b
        assert a.clock_ns == before_a
        assert b.clock_ns == before_a

    def test_data_path_is_parallel(self, tmp_path):
        # requests to shard A must not advance shard B's clock: the
        # mesh's scale-out entirely depends on this
        mesh = make_mesh(tmp_path, shards=2)
        mesh.clock.clock_ns = mesh.clock.clock_ns  # align epoch
        clocks = [host.kernel.clock_ns for host in mesh.hosts]
        for index in range(12):
            mesh.wanted_request(key=f"key-{index}")
        deltas = [
            host.kernel.clock_ns - start
            for host, start in zip(mesh.hosts, clocks)
        ]
        assert all(delta > 0 for delta in deltas)
        # mesh wall time is the max, strictly less than serialized time
        assert mesh.clock.clock_ns - max(clocks) < sum(deltas)

    def test_standalone_clock_needs_a_kernel(self):
        with pytest.raises(MeshError):
            MeshClock([])


class TestCrashAndRecovery:
    def test_crash_host_orphans_listeners_until_dispatch_bounces(self, tmp_path):
        mesh = make_mesh(tmp_path, shards=2, size=2)
        crashed = mesh.crash_host(0)
        assert len(crashed) == 2
        # the frontend has not noticed yet — a real machine loss
        assert mesh.frontend.down_hosts == []
        assert not mesh.host(0).routable()
        for index in range(12):
            assert mesh.wanted_request(key=f"key-{index}")
        stats = mesh.frontend.stats()
        assert stats["down_hosts"] == [0]
        assert stats["failed_over"] >= 1
        assert stats["shed"] == 0
        assert stats["accounted"]

    def test_tick_recovers_and_rejoins_the_host(self, tmp_path):
        mesh = make_mesh(tmp_path, shards=2, size=1)
        mesh.crash_host(0)
        for index in range(6):
            mesh.wanted_request(key=f"key-{index}")
        assert mesh.frontend.down_hosts == [0]
        for __ in range(4):
            mesh.clock.clock_ns = mesh.clock.clock_ns + SECOND_NS
            mesh.tick(force=True)
            if mesh.settled:
                break
        assert mesh.settled
        assert mesh.frontend.down_hosts == []
        assert mesh.host(0).routable()

    def test_seeded_host_chaos_fires_in_index_order(self, tmp_path):
        mesh = make_mesh(tmp_path, shards=3, size=1)
        plan = FaultPlan(seed=11).arm(
            "mesh.host_crash", "permanent", on_call=2, times=1
        )
        with plan:
            crashed = inject_host_chaos(mesh)
        assert crashed == ["host-1"]
        assert [record.detail for record in plan.log] == ["host-1"]
        assert not mesh.host(1).routable()
        assert mesh.host(0).routable() and mesh.host(2).routable()


class TestMeshRollout:
    def test_rollout_completes_shard_by_shard(self, tmp_path):
        mesh = make_mesh(tmp_path, shards=2, size=2)
        rollout = MeshRollout(mesh)
        order = []
        while not rollout.done:
            order.append(rollout.current_shard)
            rollout.step()
        report = rollout.report()
        assert report["state"] == "completed"
        assert report["completed_shards"] == ["host-0", "host-1"]
        # strictly sequential: host-1 never starts before host-0 ends
        assert order == sorted(order)
        for host in mesh.hosts:
            for instance in host.controller.instances:
                assert instance.customized

    def test_host_crash_aborts_only_the_affected_shard(self, tmp_path):
        mesh = make_mesh(tmp_path, shards=3, size=2)
        rollout = MeshRollout(mesh)
        # let shard 0 finish, then lose host-1 mid-sequence
        while rollout.current_shard == "host-0":
            rollout.step()
        mesh.crash_host(1)
        while not rollout.done:
            rollout.step()
        report = rollout.report()
        assert report["state"] == "partial"
        assert sorted(report["completed_shards"]) == ["host-0", "host-2"]
        assert list(report["aborted_shards"]) == ["host-1"]
        assert "not routable" in report["aborted_shards"]["host-1"]
        # blast radius: the other shards kept their customizations
        for index in (0, 2):
            for instance in mesh.host(index).controller.instances:
                assert instance.customized

    def test_rollout_requires_spawned_mesh(self, tmp_path):
        policy = FleetPolicy(features=("SET",), shards=1)
        mesh = MeshController(
            "redis", policy, 1, image_root=str(tmp_path / "m")
        )
        with pytest.raises(MeshError, match="spawn_mesh"):
            MeshRollout(mesh)


class TestSingleShardParity:
    def test_one_shard_mesh_is_the_classic_fleet(self, tmp_path):
        # N=1 keeps the single-kernel semantics: same controller, same
        # rollout machine, hash routing degenerates to "always shard 0"
        mesh = make_mesh(tmp_path, shards=1, size=2)
        for index in range(8):
            assert mesh.wanted_request(key=f"key-{index}")
        stats = mesh.frontend.stats()
        assert stats["dispatched"] == {"host-0": 8}
        assert stats["failed_over"] == 0
        report = MeshRollout(mesh).run()
        assert report["state"] == "completed"
