"""Frontend-tier routing and the no-lost-requests accounting identity.

The frontend is deliberately testable without booting kernels: it only
needs hosts with an ``index``, a ``name``, and a clock, plus the
``request(host)`` callback.  Stub hosts keep these tests fast and make
the failure injection exact; the full-stack path (real kernels, real
kvstore fleets) is covered in ``test_mesh_controller.py``.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.kernel.balancer import NoBackendAvailable
from repro.mesh import Frontend, HashRing, MeshError
from repro.telemetry import TelemetryHub, recording


class StubClock:
    clock_ns = 0

    @property
    def config(self):  # pragma: no cover — driver compat only
        return None


class StubHost:
    """Just enough host for the frontend: an index, a name, a clock."""

    def __init__(self, index):
        self.index = index
        self.name = f"host-{index}"
        self.kernel = StubClock()
        self.serving = True

    def serve(self, _host=None):
        if not self.serving:
            raise NoBackendAvailable(
                f"connection refused: no backend in service behind {self.name}"
            )
        return True


def make_frontend(n=2, budget=1, replicas=8):
    hosts = [StubHost(index) for index in range(n)]
    return hosts, Frontend(
        hosts, ring_replicas=replicas, host_failover_budget=budget
    )


def key(index):
    """Keys ``key-0`` … ``key-5`` fall to shards 0, 1, 0, 1, 1, 1 of the
    default 2-shard ring."""
    return f"key-{index}"


class TestConstruction:
    def test_no_hosts_rejected(self):
        with pytest.raises(MeshError, match="at least one host"):
            Frontend([])

    def test_hash_dispatch_requires_key(self):
        __, frontend = make_frontend()
        with pytest.raises(MeshError, match="key"):
            frontend.dispatch(lambda host: True)


class TestSpreadRouting:
    """Keys spread over both shards: failover, shedding and rejoin when
    one shard dies."""

    def test_dead_host_fails_over_and_is_marked_down(self):
        hosts, frontend = make_frontend(n=2)
        hosts[0].serving = False
        results = [
            frontend.dispatch(lambda host: host.serve(), key=key(index))
            for index in range(6)
        ]
        assert all(results)
        stats = frontend.stats()
        assert stats["down_hosts"] == [0]
        # at least the bounce-discovering request is a failover; the
        # rest route cleanly to the survivor
        assert stats["failed_over"] >= 1
        assert stats["served"] + stats["failed_over"] == 6
        assert stats["shed"] == 0
        assert stats["accounted"]

    def test_all_hosts_down_sheds_with_accounting(self):
        hosts, frontend = make_frontend(n=2, budget=3)
        for host in hosts:
            host.serving = False
        for index in range(4):
            with pytest.raises(NoBackendAvailable, match="mesh failover budget"):
                frontend.dispatch(lambda host: host.serve(), key=key(index))
        stats = frontend.stats()
        assert stats["shed"] == 4
        assert stats["served"] == stats["failed_over"] == 0
        assert stats["accounted"]

    def test_recovered_host_rejoins_after_mark_up(self):
        hosts, frontend = make_frontend(n=2)
        hosts[0].serving = False
        for index in range(4):
            frontend.dispatch(lambda host: host.serve(), key=key(index))
        assert frontend.down_hosts == [0]
        hosts[0].serving = True
        frontend.mark_host_up(0)
        for index in range(4):
            frontend.dispatch(lambda host: host.serve(), key=key(index))
        assert frontend.down_hosts == []
        assert frontend.stats()["dispatched"]["host-0"] >= 1

    def test_zero_budget_sheds_on_first_bounce(self):
        hosts, frontend = make_frontend(n=2, budget=0)
        hosts[0].serving = False
        shed_before = 0
        outcomes = []
        for index in range(4):
            try:
                frontend.dispatch(lambda host: host.serve(), key=key(index))
                outcomes.append("served")
            except NoBackendAvailable:
                outcomes.append("shed")
        # exactly one request pays for discovering the dead host
        assert outcomes.count("shed") == 1
        assert frontend.stats()["accounted"]
        assert shed_before == 0


class TestApplicationErrors:
    def test_app_error_is_accounted_as_delivered(self):
        # an exception out of the request itself (not routing) must not
        # leak an unaccounted request
        hosts, frontend = make_frontend(n=2)

        def broken(host):
            raise ValueError("app-level explosion")

        with pytest.raises(ValueError):
            frontend.dispatch(broken, key=key(0))
        stats = frontend.stats()
        assert stats["issued"] == stats["served"] == 1
        assert stats["accounted"]


class TestHashRouting:
    def test_keyed_requests_land_on_owning_shard(self):
        hosts, frontend = make_frontend(n=4, replicas=16)
        ring = HashRing(16, shards=[0, 1, 2, 3])
        for index in range(24):
            key = f"key-{index}"
            landed = []
            frontend.dispatch(lambda host: landed.append(host.index), key=key)
            assert landed == [ring.shard_for(key)]

    def test_down_host_arc_fails_over_to_ring_successor(self):
        hosts, frontend = make_frontend(n=3, replicas=16)
        hosts[1].serving = False
        ring = HashRing(16, shards=[0, 1, 2])
        owned_by_1 = [f"k{i}" for i in range(60) if ring.shard_for(f"k{i}") == 1]
        assert owned_by_1, "sample keyspace never hit shard 1?"
        for key in owned_by_1:
            landed = []

            def request(host, _landed=landed):
                host.serve()
                _landed.append(host.index)
                return True

            assert frontend.dispatch(request, key=key)
            # the arc moves exactly where a topology change would put it
            assert landed[-1] == ring.shard_for(key, down={1})
        # keys not owned by the dead shard never moved
        for index in range(60):
            key = f"k{index}"
            if ring.shard_for(key) == 1:
                continue
            landed = []
            frontend.dispatch(
                lambda host, _landed=landed: _landed.append(host.index) or True,
                key=key,
            )
            assert landed == [ring.shard_for(key)]
        assert frontend.stats()["accounted"]


class TestShedAttribution:
    def test_shed_counter_carries_primary_shard_label(self):
        # shed requests keep their per-shard identity: the counter is
        # attributed to the shard that would have served the key
        hosts, frontend = make_frontend(n=2, budget=0, replicas=8)
        ring = HashRing(8, shards=[0, 1])
        key = next(f"k{i}" for i in range(20) if ring.shard_for(f"k{i}") == 0)
        hosts[0].serving = False
        hosts[1].serving = False
        hub = TelemetryHub()
        with recording(hub):
            with pytest.raises(NoBackendAvailable, match="mesh failover budget"):
                frontend.dispatch(lambda host: host.serve(), key=key)
        assert hub.registry.counters_by_label("mesh_shed_total", "shard") == {
            "host-0": 1
        }

    def test_shed_before_any_candidate_is_labeled_none(self):
        # every host already marked down: no candidate was ever picked,
        # so there is no primary shard to attribute the shed to
        hosts, frontend = make_frontend(n=2)
        frontend.mark_host_down(0)
        frontend.mark_host_down(1)
        hub = TelemetryHub()
        with recording(hub):
            with pytest.raises(NoBackendAvailable):
                frontend.dispatch(lambda host: host.serve(), key=key(0))
        assert hub.registry.counters_by_label("mesh_shed_total", "shard") == {
            "none": 1
        }


class TestUnreachableFaultSite:
    def test_dropped_hop_retries_without_marking_down(self):
        hosts, frontend = make_frontend(n=2, budget=1)
        plan = FaultPlan(seed=3).arm(
            "mesh.host_unreachable", "transient", on_call=1, times=1
        )
        with plan:
            for index in range(4):
                assert frontend.dispatch(
                    lambda host: host.serve(), key=key(index)
                )
        assert plan.fired == 1
        stats = frontend.stats()
        # the dropped hop failed over but the host was never marked down
        assert stats["failed_over"] == 1
        assert stats["down_hosts"] == []
        assert stats["accounted"]
