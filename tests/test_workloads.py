"""Tests for the host-side clients and the throughput-timeline driver."""

from __future__ import annotations

import pytest

from repro.apps import REDIS_PORT, stage_redis
from repro.workloads import (
    HttpError,
    RedisClient,
    RedisError,
    SECOND_NS,
    TimelineEvent,
    run_request_timeline,
)


class TestHttpClient:
    def test_parses_status_and_headers(self, lighttpd_server):
        __, __, client = lighttpd_server
        response = client.get("/")
        assert response.status == 200
        assert response.reason == "OK"
        assert response.ok
        assert "Content-Length" in response.headers

    def test_error_statuses_not_ok(self, lighttpd_server):
        __, __, client = lighttpd_server
        assert not client.get("/missing").ok

    def test_raw_request_passthrough(self, lighttpd_server):
        __, __, client = lighttpd_server
        raw = client.raw_request("HEAD / HTTP/1.0\r\n\r\n")
        assert raw.startswith(b"HTTP/1.0 200")

    def test_empty_reply_raises(self):
        with pytest.raises(HttpError):
            from repro.workloads.http_client import HttpClient

            HttpClient._parse(b"")


class TestRedisClientEdges:
    def test_reconnects_after_peer_close(self, redis_server):
        kernel, proc, client = redis_server
        client.ping()
        client._sock.close()
        client._sock = None
        assert client.ping()

    def test_error_reply_raises_typed(self, redis_server):
        __, __, client = redis_server
        with pytest.raises(RedisError):
            client.incr("k") if client.set("k", "x") and False else None
            client._int(client.command("GET missing"))

    def test_dead_server_raises(self, redis_server):
        from repro.kernel import NetworkError

        kernel, proc, client = redis_server
        client.command("SHUTDOWN")
        kernel.run_until(lambda: not proc.alive)
        # the old connection reads EOF / reconnect is refused
        with pytest.raises((RedisError, ConnectionError, NetworkError)):
            client.ping()
            client.ping()


class TestTimelineDriver:
    def test_buckets_cover_duration(self, redis_server):
        kernel, proc, client = redis_server
        client.set("hot", "1")

        def one_request() -> bool:
            return client.get("hot") == "1"

        result = run_request_timeline(
            kernel, one_request, duration_ns=3 * SECOND_NS,
            bucket_ns=SECOND_NS,
        )
        assert len(result.points) == 3
        assert result.total_requests == sum(p.completed for p in result.points)
        assert result.failed_requests == 0
        assert all(p.completed > 0 for p in result.points)

    def test_events_fire_in_order(self, redis_server):
        kernel, proc, client = redis_server
        client.set("hot", "1")
        fired = []
        events = [
            TimelineEvent(1 * SECOND_NS, "first", lambda: fired.append("a")),
            TimelineEvent(2 * SECOND_NS, "second", lambda: fired.append("b")),
        ]
        result = run_request_timeline(
            kernel, lambda: client.get("hot") == "1",
            duration_ns=3 * SECOND_NS, events=events,
        )
        assert fired == ["a", "b"]
        assert [label for __, label in result.events_fired] == ["first", "second"]

    def test_throughput_series_scaling(self, redis_server):
        kernel, proc, client = redis_server
        client.set("hot", "1")
        result = run_request_timeline(
            kernel, lambda: client.get("hot") == "1",
            duration_ns=2 * SECOND_NS, bucket_ns=SECOND_NS // 2,
        )
        series = result.throughput_series(SECOND_NS // 2)
        assert len(series) == 4
        # requests/second = bucket count * 2 for half-second buckets
        assert series[0][1] == result.points[0].completed * 2


class TestTimelineErrorPaths:
    """The driver against a backend that is mid-customization: drained
    from its balancer pool or with its listener gone entirely."""

    def test_connection_refused_is_tolerated_and_logged(self, redis_server):
        kernel, proc, client = redis_server
        client.set("hot", "1")

        def fail_listener() -> None:
            kernel.net.release_port(REDIS_PORT)   # listener vanishes
            client.close()                        # force a reconnect

        result = run_request_timeline(
            kernel, lambda: client.get("hot") == "1",
            duration_ns=3 * SECOND_NS,
            events=[TimelineEvent(1 * SECOND_NS, "down", fail_listener)],
            max_requests=2000,
        )
        # the run finished: refused connects became failed requests,
        # not an exception out of the driver, and not an infinite loop
        assert result.failed_requests > 0
        assert result.errors
        assert result.failed_requests == len(result.errors)
        assert result.total_requests == (
            sum(p.completed for p in result.points) + result.failed_requests
        )
        offset, text = result.errors[0]
        assert offset >= 1 * SECOND_NS
        assert "refused" in text

    def test_served_and_accounted_equal_the_explicit_sums(self, redis_server):
        kernel, proc, client = redis_server
        client.set("hot", "1")

        def fail_listener() -> None:
            kernel.net.release_port(REDIS_PORT)
            client.close()

        result = run_request_timeline(
            kernel, lambda: client.get("hot") == "1",
            duration_ns=3 * SECOND_NS,
            events=[TimelineEvent(1 * SECOND_NS, "down", fail_listener)],
            max_requests=2000,
        )
        assert result.failed_requests > 0
        served = sum(p.completed for p in result.points)
        assert result.served == served
        assert result.accounted
        assert result.accounted == (
            result.total_requests == served + result.failed_requests
        )
        # a request neither served nor failed breaks the identity
        result.total_requests += 1
        assert not result.accounted

    def test_drained_balancer_pool_shows_dip_not_crash(self, redis_server):
        kernel, proc, client = redis_server
        client.set("hot", "1")
        pool = kernel.net.register_frontend(6378, backends=[REDIS_PORT])
        from repro.workloads import RedisClient

        balanced = RedisClient(kernel, 6378)

        def drain() -> None:
            balanced.close()                      # no connection reuse
            pool.drain(REDIS_PORT)

        def rejoin() -> None:
            pool.rejoin(REDIS_PORT)

        # a refused connect only advances the clock by one syscall cost,
        # so keep the outage window short enough to cross on errors alone
        outage_ns = 100 * kernel.config.syscall_cost_ns
        result = run_request_timeline(
            kernel, lambda: balanced.get("hot") == "1",
            duration_ns=3 * SECOND_NS,
            events=[
                TimelineEvent(1 * SECOND_NS, "drain", drain),
                TimelineEvent(1 * SECOND_NS + outage_ns, "rejoin", rejoin),
            ],
            max_requests=5000,
        )
        assert result.failed_requests > 0
        assert any("no backend in service" in text for __, text in result.errors)
        # service recovered after the rejoin: the final bucket completed work
        assert result.points[-1].completed > 0

    def test_tolerate_errors_false_reraises(self, redis_server):
        kernel, proc, client = redis_server
        kernel.net.release_port(REDIS_PORT)
        client.close()
        with pytest.raises(Exception):
            run_request_timeline(
                kernel, lambda: client.get("hot") == "1",
                duration_ns=1 * SECOND_NS, tolerate_errors=False,
            )
