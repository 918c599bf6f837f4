"""Loopback TCP: listening sockets, connections, and TCP repair.

The network stack models exactly what DynaCut needs from Linux TCP:

* guest servers ``socket``/``bind``/``listen``/``accept`` and exchange
  bytes with host-side clients (the evaluation's ``redis-benchmark``
  and HTTP clients live on the host side);
* established connections survive checkpoint/restore: the stack keeps
  a registry of live :class:`Connection` objects keyed by id, and a
  restored process re-attaches to its old connection with the buffered
  byte streams reinstated — the ``TCP_REPAIR`` behaviour the paper
  relies on to rewrite servers without dropping clients.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .. import telemetry
from ..telemetry import trace
from .balancer import MemberPool, NetworkError, NoBackendAvailable
from .process import Descriptor

__all__ = [
    "BackendPool",
    "Connection",
    "Endpoint",
    "ListeningSocket",
    "MemberPool",
    "NetworkError",
    "NetworkStack",
    "NoBackendAvailable",
    "SocketDescriptor",
]


@dataclass
class Endpoint:
    """One side of a TCP connection."""

    conn_id: int
    side: str                      # "a" (connecting side) or "b" (accepting)
    recv_buffer: bytearray = field(default_factory=bytearray)
    closed: bool = False
    peer: "Endpoint | None" = None
    #: total bytes ever queued to this endpoint (TCP sequence analogue)
    seq_in: int = 0

    def send(self, data: bytes) -> int:
        if self.closed or self.peer is None or self.peer.closed:
            return -1
        self.peer.recv_buffer += data
        self.peer.seq_in += len(data)
        return len(data)

    def recv(self, size: int) -> bytes:
        chunk = bytes(self.recv_buffer[:size])
        del self.recv_buffer[:len(chunk)]
        return chunk

    @property
    def readable(self) -> bool:
        """Data available, or EOF observable."""
        return bool(self.recv_buffer) or self.closed or (
            self.peer is None or self.peer.closed
        )

    def close(self) -> None:
        self.closed = True


@dataclass
class Connection:
    """A full-duplex TCP connection between two endpoints."""

    conn_id: int
    a: Endpoint
    b: Endpoint

    def endpoint(self, side: str) -> Endpoint:
        if side == "a":
            return self.a
        if side == "b":
            return self.b
        raise NetworkError(f"bad connection side {side!r}")

    @property
    def alive(self) -> bool:
        return not (self.a.closed and self.b.closed)


@dataclass
class ListeningSocket:
    """A bound, listening server socket."""

    port: int
    backlog: deque[Connection] = field(default_factory=deque)
    closed: bool = False
    #: the owning process died abruptly (SIGKILL): the port is still in
    #: the table — the balancer's stale view — but no process will ever
    #: accept, so new connects are refused rather than queued
    orphaned: bool = False

    @property
    def has_pending(self) -> bool:
        return bool(self.backlog)


class SocketDescriptor(Descriptor):
    """A guest socket fd: unbound, listening, or connected."""

    def __init__(self) -> None:
        self.listener: ListeningSocket | None = None
        self.endpoint: Endpoint | None = None
        self.bound_port: int | None = None


class BackendPool(MemberPool):
    """Round-robin balancing across backend ports behind one frontend.

    The pool is the substrate DynaFleet's load balancer is built on: a
    *frontend port* that real listeners never bind, whose inbound
    connections are spread over the registered backend ports.  Members
    can be **drained** (kept registered, taken out of rotation — the
    step before customizing an instance) and **rejoined**.  Backends
    whose listener is currently gone (e.g. a process tree mid-
    checkpoint) are skipped automatically, so one frozen instance never
    turns into connection errors for balanced clients.

    The state machine itself lives in :class:`MemberPool` (DynaMesh
    reuses it one level up, over hosts); this subclass adds the
    port-specific validation and the per-port telemetry.
    """

    def __init__(self, frontend_port: int):
        self.frontend_port = frontend_port
        super().__init__(label=f"frontend {frontend_port}")

    def add(self, port: int) -> None:
        if port == self.frontend_port:
            raise NetworkError("a backend cannot be its own frontend")
        super().add(port)

    def note_dispatch(self, port: int) -> None:
        super().note_dispatch(port)
        telemetry.count("dispatch_total", port=port)
        telemetry.emit(
            "dispatch", "balanced",
            labels={"port": port}, frontend=self.frontend_port,
        )

    def note_failover(self, port: int) -> None:
        super().note_failover(port)
        telemetry.count("failover_total", port=port)
        telemetry.emit(
            "failover", "routed-around",
            labels={"port": port}, frontend=self.frontend_port,
        )


class NetworkStack:
    """The loopback network shared by the kernel and host clients."""

    def __init__(self) -> None:
        self.ports: dict[int, ListeningSocket] = {}
        self.connections: dict[int, Connection] = {}
        self.frontends: dict[int, BackendPool] = {}
        self._next_conn_id = 1
        #: virtual-clock reader bound by the owning kernel; lets route
        #: resolution stamp request-trace spans on the right clock
        self.clock: Callable[[], int] | None = None

    # ------------------------------------------------------------------
    # guest-side operations (invoked by syscalls)

    def bind(self, sock: SocketDescriptor, port: int) -> bool:
        if port in self.ports and not self.ports[port].closed:
            return False
        if port in self.frontends:
            return False          # virtual balancer ports are reserved
        sock.bound_port = port
        return True

    def listen(self, sock: SocketDescriptor) -> bool:
        if sock.bound_port is None:
            return False
        listener = ListeningSocket(sock.bound_port)
        self.ports[sock.bound_port] = listener
        sock.listener = listener
        return True

    def accept(self, sock: SocketDescriptor) -> Endpoint | None:
        if sock.listener is None or not sock.listener.backlog:
            return None
        conn = sock.listener.backlog.popleft()
        return conn.b

    def release_port(self, port: int) -> None:
        listener = self.ports.pop(port, None)
        if listener is not None:
            listener.closed = True

    def rebind_listener(self, port: int, backlog: list[int]) -> ListeningSocket:
        """Recreate a listening socket at restore time.

        ``backlog`` holds connection ids that were pending at checkpoint.
        """
        listener = ListeningSocket(port)
        for conn_id in backlog:
            conn = self.connections.get(conn_id)
            if conn is not None and conn.alive:
                listener.backlog.append(conn)
        self.ports[port] = listener
        return listener

    # ------------------------------------------------------------------
    # multi-backend balancing (frontend ports)

    def register_frontend(self, frontend_port: int) -> BackendPool:
        """Reserve ``frontend_port`` as a balanced virtual port; backends
        join it through :meth:`BackendPool.add`."""
        if frontend_port in self.frontends:
            raise NetworkError(f"frontend port {frontend_port} already registered")
        listener = self.ports.get(frontend_port)
        if listener is not None and not listener.closed:
            raise NetworkError(
                f"port {frontend_port} has a live listener; cannot balance over it"
            )
        pool = BackendPool(frontend_port)
        self.frontends[frontend_port] = pool
        return pool

    def release_frontend(self, frontend_port: int) -> None:
        self.frontends.pop(frontend_port, None)

    def _backend_listener(self, port: int) -> ListeningSocket | None:
        listener = self.ports.get(port)
        if listener is None or listener.closed:
            return None
        return listener

    def _healthy_backend(self, port: int) -> bool:
        listener = self._backend_listener(port)
        return listener is not None and not listener.orphaned

    def _route(self, pool: BackendPool) -> int:
        """Resolve a frontend connect to a live backend, with failover.

        A pick that lands on an orphaned listener (owner crashed, port
        still in the balancer's view) marks that backend down and retries
        on the next live one, bounded by the pool's failover budget.
        """
        return pool.route(
            live=lambda port: self._backend_listener(port) is not None,
            healthy=self._healthy_backend,
        )

    # ------------------------------------------------------------------
    # connection lifecycle

    def connect(self, port: int) -> Endpoint:
        """Open a connection to ``port``; returns the client endpoint.

        A frontend port resolves through its :class:`BackendPool` to a
        live backend listener first (the load-balancer hop).
        """
        pool = self.frontends.get(port)
        if pool is not None:
            with trace.aux_span(
                "route", "route", clock=self.clock, frontend=port
            ) as span:
                port = self._route(pool)
                if span is not None:
                    span.attrs["backend"] = port
        listener = self.ports.get(port)
        if listener is None or listener.closed:
            raise NetworkError(f"connection refused: port {port}")
        if listener.orphaned:
            raise NetworkError(
                f"connection refused: port {port} (no accepting process)"
            )
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        a = Endpoint(conn_id, "a")
        b = Endpoint(conn_id, "b")
        a.peer, b.peer = b, a
        conn = Connection(conn_id, a, b)
        self.connections[conn_id] = conn
        listener.backlog.append(conn)
        return a

    def repair_endpoint(self, conn_id: int, side: str, buffered: bytes) -> Endpoint:
        """TCP_REPAIR: re-attach ``side`` of connection ``conn_id``.

        The checkpointed receive buffer is reinstated; bytes the peer
        queued *while the process was frozen* are appended after it, so
        no data is lost or reordered.
        """
        conn = self.connections.get(conn_id)
        if conn is None:
            raise NetworkError(f"cannot repair: connection {conn_id} is gone")
        endpoint = conn.endpoint(side)
        arrived_while_frozen = bytes(endpoint.recv_buffer)
        endpoint.recv_buffer = bytearray(buffered) + bytearray(arrived_while_frozen)
        endpoint.closed = False
        return endpoint

    def gc(self) -> None:
        """Drop fully closed connections."""
        dead = [cid for cid, conn in self.connections.items() if not conn.alive]
        for cid in dead:
            del self.connections[cid]
