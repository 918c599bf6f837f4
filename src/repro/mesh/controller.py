"""DynaMesh control plane: N kernels, one fleet, one clock discipline.

:class:`MeshController` shards a fleet over ``policy.shards``
:class:`~repro.mesh.host.Host` objects — each a whole
:class:`~repro.kernel.kernel.Kernel` with its own virtual clock — and
fronts them with a :class:`~repro.mesh.frontend.Frontend`.

**The clock model is the whole point.**  Hosts are parallel machines:
a request served on host-0 must not advance host-1's clock, or the
mesh would be a time-sliced single machine and adding shards could
never raise throughput.  :class:`MeshClock` therefore duck-types the
one-kernel clock interface the workload driver uses:

* reading ``clock_ns`` returns the **max** over member kernels (mesh
  wall time = the furthest-ahead machine);
* writing it raises every *lagging* kernel to the written value (used
  by the driver's error nudge; never rewinds a kernel);
* the control plane (:meth:`tick`, :meth:`crash_host`, rollout steps)
  first **syncs the target kernel up to mesh time** — supervision and
  rollouts happen "now", not in the shard's past — while the data path
  never syncs anything.

So the scale-out benchmark falls out of the model: N shards serve a
fixed request count in ~1/N the mesh wall time, because each kernel
only accrues the cost of its own shard's requests.
"""

from __future__ import annotations

from .. import faults, telemetry
from ..fleet.apps import FleetApp, get_app
from ..fleet.drift import DriftDetector
from ..fleet.policy import FleetPolicy
from ..kernel.balancer import NetworkError, NoBackendAvailable
from ..kernel.kernel import Kernel, KernelConfig
from ..workloads import RedisClient
from .frontend import Frontend
from .host import Host, MeshError

__all__ = ["MeshClock", "MeshController", "inject_host_chaos"]


class MeshClock:
    """The mesh-wide clock facade over N independent kernel clocks.

    Implements exactly the surface
    :func:`~repro.workloads.run_request_timeline` needs from a
    ``Kernel`` (``clock_ns`` read/write and ``config``), so the same
    driver measures a mesh without modification.
    """

    def __init__(self, kernels: list[Kernel]):
        if not kernels:
            raise MeshError("a mesh clock needs at least one kernel")
        self.kernels = list(kernels)
        self.config: KernelConfig = self.kernels[0].config

    @property
    def clock_ns(self) -> int:
        return max(kernel.clock_ns for kernel in self.kernels)

    @clock_ns.setter
    def clock_ns(self, value: int) -> None:
        for kernel in self.kernels:
            if kernel.clock_ns < value:
                kernel.clock_ns = value

    def sync(self, kernel: Kernel) -> int:
        """Raise one member kernel to mesh time (control-plane actions)."""
        now = self.clock_ns
        if kernel.clock_ns < now:
            kernel.clock_ns = now
        return kernel.clock_ns


class MeshController:
    """Spawn, route, supervise, and customize a sharded fleet."""

    def __init__(
        self,
        app: str | FleetApp,
        policy: FleetPolicy,
        size_per_shard: int,
        image_root: str = "/tmp/criu/mesh",
        routing: str | None = None,
    ):
        self.app = get_app(app) if isinstance(app, str) else app
        self.policy = policy
        self.size_per_shard = size_per_shard
        #: kvstore traffic is keyed, so it defaults to the hash ring;
        #: stateless httpds default to plain L7 spread
        self.routing = routing or (
            "hash" if self.app.name == "redis" else "spread"
        )
        self.hosts = [
            Host(index, self.app, policy, size_per_shard, image_root)
            for index in range(policy.shards)
        ]
        self.clock = MeshClock([host.kernel for host in self.hosts])
        self.frontend: Frontend | None = None
        self.drift: dict[str, DriftDetector] = {}
        #: persistent kvstore connections, one per (host, port).  The
        #: guest reaps closed client slots lazily (one poll round per
        #: EOF, and only while something drives its kernel), so a
        #: fresh-connection-per-request pattern slowly fills its client
        #: table with unreaped EOF slots until accepts bounce.  Reusing
        #: one long-lived connection per target sidesteps that and
        #: matches the client's design: it survives rewrite cycles via
        #: TCP repair and reconnects by itself when a crash severs it.
        self._clients: dict[tuple[int, int], RedisClient] = {}

    # ------------------------------------------------------------------
    # lifecycle

    def spawn_mesh(self) -> Frontend:
        """Boot every shard, align clocks, and open the frontend tier."""
        if self.frontend is not None:
            raise MeshError("mesh already spawned")
        for host in self.hosts:
            host.spawn()
        # staging costs differ per host; start the serving epoch aligned
        self.clock.clock_ns = self.clock.clock_ns
        self.frontend = Frontend(
            self.hosts,
            mode=self.routing,
            ring_replicas=self.policy.ring_replicas,
            host_failover_budget=self.policy.host_failover_budget,
        )
        self.drift = {
            host.name: DriftDetector(host.controller) for host in self.hosts
        }
        return self.frontend

    def host(self, ref: int | str) -> Host:
        for host in self.hosts:
            if host.index == ref or host.name == ref:
                return host
        raise MeshError(f"no mesh host {ref!r}")

    # ------------------------------------------------------------------
    # chaos

    def crash_host(self, ref: int | str) -> list[str]:
        """Whole-host failure at mesh time; returns crashed instances.

        The frontend is *not* told: like a real machine loss, the mesh
        finds out when a dispatch bounces (cross-host failover) or when
        the next :meth:`tick` heartbeats the shard.
        """
        host = self.host(ref)
        self.clock.sync(host.kernel)
        return host.crash()

    # ------------------------------------------------------------------
    # supervision

    def tick(self, force: bool = False) -> dict[str, int]:
        """One mesh-wide supervision pass; events generated per shard.

        Each shard is synced up to mesh time and heartbeat; afterwards
        any host the frontend marked down is re-checked — the shard
        supervisor recovers instances from their committed images, and
        once a live listener is back the host rejoins the frontend
        tier.
        """
        events: dict[str, int] = {}
        for host in self.hosts:
            self.clock.sync(host.kernel)
            events[host.name] = len(host.tick(force=force))
        assert self.frontend is not None
        for index in list(self.frontend.down_hosts):
            if self.hosts[index].routable():
                self.frontend.mark_host_up(index)
        return events

    @property
    def settled(self) -> bool:
        """Every shard's supervisor is settled and routable."""
        return all(
            host.supervisor is not None
            and host.supervisor.settled
            and host.routable()
            for host in self.hosts
        )

    # ------------------------------------------------------------------
    # data path

    def _client(self, host: Host, port: int) -> RedisClient:
        """The persistent connection to ``port`` on ``host``."""
        client = self._clients.get((host.index, port))
        if client is None:
            client = RedisClient(host.kernel, port)
            self._clients[(host.index, port)] = client
        return client

    def wanted_request(self, key: str | None = None) -> bool:
        """One unit of service through the frontend tier.

        Under hash routing the request is a keyed kvstore round-trip
        (GET against the owning shard's intra-host frontend — a miss is
        still *service*); under spread it is the app adapter's wanted
        request.  Never syncs clocks: the data path is parallel.
        """
        assert self.frontend is not None
        if self.routing == "hash":
            if key is None:
                raise MeshError("hash routing needs a key= per request")

            def request(host: Host) -> bool:
                self._client(host, host.frontend_port).get(key)
                return True

            return self.frontend.dispatch(request, key=key)
        return self.frontend.dispatch(
            lambda host: self.app.wanted_request(host.kernel, host.frontend_port)
        )

    def store(self, key: str, value: str) -> bool:
        """Write ``key`` to every live replica on its owning shard.

        Within a shard the kvstore instances form a leaderless replica
        set: writes fan out to all live instances (so any in-rotation
        replica can serve the shard's arc), reads go through the
        intra-host balancer to any one of them.  Used to seed data
        before a rollout removes the write path (``SET`` is exactly the
        feature the canonical mesh policy disables).
        """
        assert self.frontend is not None
        if self.routing != "hash":
            raise MeshError("store() is only meaningful under hash routing")

        def request(host: Host) -> bool:
            wrote = False
            for instance in host.controller.instances:
                if not host.controller.alive(instance):
                    continue
                wrote = self._client(host, instance.port).set(key, value) or wrote
            if not wrote:
                raise NoBackendAvailable(
                    f"connection refused: no live replica on {host.name} "
                    f"accepted key {key!r}"
                )
            return True

        return self.frontend.dispatch(request, key=key)

    def probe_replicas(self, command: str = "SET __probe__ 1") -> int:
        """Issue ``command`` once to every live replica, on every shard.

        Bypasses the frontend tier entirely — no ``issued`` accounting —
        so control-plane sweeps (e.g. a trace campaign's heal sweep,
        which drives one SET into each replica to heal every shelved
        block at a known clock offset) do not perturb the request-count
        identity the data path is measured under.  Returns the number of
        replicas probed.
        """
        probed = 0
        for host in self.hosts:
            for instance in host.controller.instances:
                if not host.controller.alive(instance):
                    continue
                try:
                    self._client(host, instance.port).command(command)
                except NetworkError:
                    continue  # a dying replica is the supervisor's job
                probed += 1
        return probed

    def fetch(self, key: str) -> str | None:
        """Read ``key`` from its owning shard (data-locality checks)."""
        assert self.frontend is not None
        if self.routing != "hash":
            raise MeshError("fetch() is only meaningful under hash routing")
        box: list[str | None] = [None]

        def request(host: Host) -> bool:
            box[0] = self._client(host, host.frontend_port).get(key)
            return True

        self.frontend.dispatch(request, key=key)
        return box[0]

    # ------------------------------------------------------------------
    # status

    def status(self) -> dict:
        """Mesh-wide operator overview: frontend + every shard."""
        assert self.frontend is not None
        shards = {}
        for host in self.hosts:
            with telemetry.label_scope(shard=host.name):
                shards[host.name] = host.status()
        return {
            "app": self.app.name,
            "routing": self.routing,
            "shards": self.policy.shards,
            "size_per_shard": self.size_per_shard,
            "clock_ns": self.clock.clock_ns,
            "settled": self.settled,
            "frontend": self.frontend.stats(),
            "hosts": shards,
        }


# ----------------------------------------------------------------------
# seeded chaos entry point


def inject_host_chaos(mesh: MeshController) -> list[str]:
    """Visit ``mesh.host_crash`` once per routable host, in index order.

    The mesh analogue of :func:`repro.fleet.inject_chaos`: call it from
    timeline events *between* mesh ticks, so the frontend's view is
    stale until a dispatch bounces — the window cross-host failover
    exists for.  Returns the names of hosts crashed.
    """
    crashed: list[str] = []
    for host in mesh.hosts:
        if not host.routable():
            continue
        fault = faults.check("mesh.host_crash", detail=host.name)
        if fault is not None:
            mesh.clock.sync(host.kernel)
            host.crash()
            crashed.append(host.name)
    return crashed
