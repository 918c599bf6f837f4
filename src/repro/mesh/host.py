"""One mesh host: a kernel, its fleet, and its supervisor.

A :class:`Host` is the mesh's unit of failure and of scale: one
:class:`~repro.kernel.kernel.Kernel` (own virtual clock, own loopback
network, own process table) running one shard of the fleet behind that
kernel's intra-host balancer, self-healed by its own
:class:`~repro.fleet.FleetSupervisor`.  Everything the host does is
wrapped in ``telemetry.label_scope(shard=<name>)`` so every metric,
event, and span the shard emits carries its shard label — the mesh
controller's aggregated telemetry separates cleanly per host.

Whole-host failure (:meth:`crash`) kills every instance tree on the
kernel at once.  The listeners stay *orphaned* in the port table — the
intra-host balancer's stale view — so from the frontend tier the host
looks exactly like a dead machine whose NIC still answers ARP: picks
route to it until a dispatch bounces, which is the window the
cross-host failover exists for.
"""

from __future__ import annotations

from .. import telemetry
from ..fleet.controller import FleetController
from ..fleet.policy import FleetPolicy
from ..fleet.supervisor import FleetSupervisor, SupervisorEvent
from ..kernel.kernel import Kernel
from .ring import stable_hash


class MeshError(RuntimeError):
    """Misuse of the mesh API (bad host, wrong lifecycle order)."""


class Host:
    """One kernel-sized shard of the mesh."""

    def __init__(
        self,
        index: int,
        app,
        policy: FleetPolicy,
        size: int,
        image_root: str = "/tmp/criu/mesh",
    ):
        self.index = index
        self.name = f"host-{index}"
        self.kernel = Kernel()
        # skew each host's boot clock by a few microseconds so no two
        # kernels are bit-identical at spawn (deterministically, per
        # host name — never wall clock)
        self.kernel.clock_ns += stable_hash(self.name) % 10_000
        self.controller = FleetController(
            self.kernel,
            app,
            policy,
            size,
            image_root=f"{image_root.rstrip('/')}/{self.name}",
        )
        self.supervisor: FleetSupervisor | None = None

    # ------------------------------------------------------------------
    # lifecycle

    def spawn(self) -> None:
        """Boot this shard's fleet and attach its supervisor."""
        with telemetry.label_scope(shard=self.name):
            self.controller.spawn_fleet()
            self.supervisor = FleetSupervisor(self.controller)

    @property
    def frontend_port(self) -> int:
        return self.controller.frontend_port

    def crash(self) -> list[str]:
        """Whole-host failure: every instance tree dies at once.

        Listeners are left orphaned (stale balancer view), exactly like
        :meth:`Kernel.crash_process` does for a single instance.
        """
        crashed: list[str] = []
        with telemetry.label_scope(shard=self.name):
            for instance in self.controller.instances:
                if self.controller.alive(instance):
                    self.kernel.crash_process(instance.root_pid)
                    crashed.append(instance.name)
            telemetry.emit(
                "mesh", "host-crash",
                clock_ns=self.kernel.clock_ns,
                instances=list(crashed),
            )
            telemetry.count("mesh_host_crashes_total")
        return crashed

    # ------------------------------------------------------------------
    # health

    def routable(self) -> bool:
        """Can a frontend dispatch land on a live listener here?

        True when at least one in-rotation backend port has a bound,
        non-orphaned listener.  This is the *frontend's* notion of
        health — the host supervisor may well recover instances later,
        but until then dispatches must fail over to another shard.
        """
        if self.controller.pool is None:
            return False
        net = self.kernel.net
        return any(
            net._healthy_backend(port)
            for port in self.controller.pool.in_service()
        )

    def tick(self, force: bool = False) -> list[SupervisorEvent]:
        """One supervision pass, under this shard's telemetry scope."""
        if self.supervisor is None:
            raise MeshError(f"{self.name}: spawn() before tick()")
        with telemetry.label_scope(shard=self.name):
            return self.supervisor.tick(force=force)

    # ------------------------------------------------------------------
    # status

    def status(self) -> dict:
        status = self.controller.status()
        status["host"] = self.name
        status["clock_ns"] = self.kernel.clock_ns
        status["routable"] = self.routable()
        return status
