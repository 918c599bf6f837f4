"""Tests for the NetworkStack frontend/backend balancing layer."""

from __future__ import annotations

import pytest

from repro.kernel.network import (
    BackendPool,
    NetworkError,
    NetworkStack,
    NoBackendAvailable,
    SocketDescriptor,
)


def _listen(net: NetworkStack, port: int) -> SocketDescriptor:
    sock = SocketDescriptor()
    assert net.bind(sock, port)
    assert net.listen(sock)
    return sock


@pytest.fixture()
def balanced():
    """A stack with frontend 8000 balancing over live listeners 8001-8003."""
    net = NetworkStack()
    for port in (8001, 8002, 8003):
        _listen(net, port)
    pool = net.register_frontend(8000)
    for port in (8001, 8002, 8003):
        pool.add(port)
    return net, pool


class TestBackendPool:
    def test_add_remove_and_in_service(self):
        pool = BackendPool(frontend_port=8000)
        pool.add(8001)
        pool.add(8002)
        pool.add(8001)                      # idempotent
        assert pool.backends == [8001, 8002]
        pool.drain(8001)
        assert pool.in_service() == [8002]
        pool.rejoin(8001)
        assert pool.in_service() == [8001, 8002]
        pool.remove(8002)
        assert pool.backends == [8001]

    def test_backend_cannot_be_frontend(self):
        pool = BackendPool(frontend_port=8000)
        with pytest.raises(NetworkError):
            pool.add(8000)

    def test_drain_unknown_backend_rejected(self):
        pool = BackendPool(frontend_port=8000)
        with pytest.raises(NetworkError):
            pool.drain(9999)
        with pytest.raises(NetworkError):
            pool.rejoin(9999)


class TestFrontendRegistration:
    def test_register_reserves_port_from_bind(self, balanced):
        net, __ = balanced
        sock = SocketDescriptor()
        assert not net.bind(sock, 8000)     # frontend port is reserved

    def test_double_register_rejected(self, balanced):
        net, __ = balanced
        with pytest.raises(NetworkError):
            net.register_frontend(8000)

    def test_register_over_live_listener_rejected(self):
        net = NetworkStack()
        _listen(net, 8000)
        with pytest.raises(NetworkError):
            net.register_frontend(8000)

    def test_release_frees_the_port(self, balanced):
        net, __ = balanced
        net.release_frontend(8000)
        sock = SocketDescriptor()
        assert net.bind(sock, 8000)


class TestBalancedConnect:
    def test_round_robin_over_backends(self, balanced):
        net, pool = balanced
        for __ in range(6):
            net.connect(8000)
        assert pool.dispatched == {8001: 2, 8002: 2, 8003: 2}

    def test_drained_backend_skipped(self, balanced):
        net, pool = balanced
        pool.drain(8002)
        for __ in range(4):
            net.connect(8000)
        assert pool.dispatched[8002] == 0
        assert pool.dispatched[8001] == 2
        assert pool.dispatched[8003] == 2

    def test_dead_listener_skipped(self, balanced):
        net, pool = balanced
        net.release_port(8001)              # e.g. process frozen mid-rewrite
        for __ in range(4):
            net.connect(8000)
        assert pool.dispatched[8001] == 0
        assert pool.dispatched[8002] + pool.dispatched[8003] == 4

    def test_all_drained_refuses_connection(self, balanced):
        net, pool = balanced
        for port in (8001, 8002, 8003):
            pool.drain(port)
        with pytest.raises(NetworkError, match="no backend in service"):
            net.connect(8000)

    def test_connection_reaches_backend_listener(self, balanced):
        net, __ = balanced
        endpoint = net.connect(8000)
        # exactly one backend listener got the pending connection
        pending = [
            listener for listener in net.ports.values() if listener.has_pending
        ]
        assert len(pending) == 1
        conn = pending[0].backlog[0]
        assert conn.a is endpoint

    def test_direct_backend_connect_still_works(self, balanced):
        net, pool = balanced
        net.connect(8001)                   # bypass the balancer
        assert pool.dispatched[8001] == 0


class TestAllDead:
    def test_all_dead_raises_no_backend_available(self, balanced):
        net, __ = balanced
        for port in (8001, 8002, 8003):
            net.release_port(port)
        with pytest.raises(NoBackendAvailable, match="no backend in service"):
            net.connect(8000)

    def test_no_backend_available_is_a_network_error(self):
        # existing callers catching NetworkError keep working
        assert issubclass(NoBackendAvailable, NetworkError)

    def test_last_one_dies_mid_scan(self, balanced):
        # the only live backend dies between the in-service snapshot
        # and its listener check: the scan must end in a clean error,
        # not pick a dead port or loop
        net, __ = balanced
        net.release_port(8001)
        net.release_port(8002)
        real = net._backend_listener
        died = {"done": False}

        def dying(port):
            if port == 8003 and not died["done"]:
                died["done"] = True
                net.release_port(8003)
            return real(port)

        net._backend_listener = dying
        with pytest.raises(NoBackendAvailable, match="no backend in service"):
            net.connect(8000)


class TestFailover:
    def test_orphaned_backend_fails_over(self, balanced):
        # a crashed process leaves its listener orphaned: the balancer
        # only notices at dispatch, marks it down, and retries the
        # connect on the next live backend
        net, pool = balanced
        net.ports[8001].orphaned = True
        for __ in range(4):
            net.connect(8000)
        assert 8001 in pool.down
        assert pool.failovers == {8001: 1}
        assert pool.total_failovers == 1
        assert pool.dispatched[8001] == 0
        assert pool.dispatched[8002] + pool.dispatched[8003] == 4

    def test_budget_exhausted_raises(self, balanced):
        net, pool = balanced
        assert pool.failover_budget == 1
        for port in (8001, 8002, 8003):
            net.ports[port].orphaned = True
        with pytest.raises(NoBackendAvailable, match="failover budget"):
            net.connect(8000)
        # both picks within the budget were marked down and recorded
        assert len(pool.down) == 2
        assert pool.total_failovers == 2

    def test_zero_budget_fails_immediately(self, balanced):
        net, pool = balanced
        pool.failover_budget = 0
        net.ports[8001].orphaned = True
        net.ports[8002].orphaned = True
        net.ports[8003].orphaned = True
        with pytest.raises(NoBackendAvailable):
            net.connect(8000)
        assert len(pool.down) == 1          # only the single pick

    def test_marked_down_excluded_until_rejoin(self, balanced):
        net, pool = balanced
        pool.mark_down(8002)
        assert pool.in_service() == [8001, 8003]
        for __ in range(4):
            net.connect(8000)
        assert pool.dispatched[8002] == 0
        pool.rejoin(8002)
        assert 8002 in pool.in_service()
        pool.mark_down(8002)
        pool.mark_up(8002)
        assert 8002 in pool.in_service()

    def test_direct_connect_to_orphan_refused(self, balanced):
        net, __ = balanced
        net.ports[8001].orphaned = True
        with pytest.raises(NetworkError, match="no accepting process"):
            net.connect(8001)
