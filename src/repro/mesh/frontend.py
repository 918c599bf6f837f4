"""The mesh frontend tier: cross-host routing with strict accounting.

One :class:`Frontend` stands in front of N :class:`~repro.mesh.host.Host`
shards the way a host's intra-kernel balancer stands in front of its
instances — and it is literally the same state machine: a
:class:`~repro.kernel.balancer.MemberPool` over *shard indices* instead
of backend ports.  Routing is consistent-hash keyspace routing
(:class:`HashRing`), because the mesh shards a kvstore fleet: the data
for a key lives on the shard that owns its arc.  A down host's arc
fails over to its ring successors, so only that arc remaps.

Every dispatch is accounted into exactly one bucket, and the identity

    ``issued == served + failed_over + shed``

is the mesh's no-lost-requests invariant: ``served`` reached a shard
first try, ``failed_over`` reached one after >= 1 cross-host hop,
``shed`` exhausted the host-failover budget and surfaced as an error
to the caller.  A request is never silently dropped between tiers —
chaos campaigns assert ``accounted`` after crashing a whole host.

Cross-host hops consult the seeded ``mesh.host_unreachable`` fault
site, so a campaign can also drop individual hops deterministically.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from .. import faults, telemetry
from ..kernel.balancer import MemberPool, NoBackendAvailable
from ..telemetry import trace
from .host import Host, MeshError
from .ring import HashRing


class Frontend:
    """Routes keyed requests across mesh hosts; never loses one silently."""

    def __init__(
        self,
        hosts: list[Host],
        ring_replicas: int = 8,
        host_failover_budget: int = 1,
    ):
        if not hosts:
            raise MeshError("a mesh frontend needs at least one host")
        self.hosts = {host.index: host for host in hosts}
        self.pool = MemberPool(
            label="mesh frontend",
            backends=sorted(self.hosts),
            failover_budget=host_failover_budget,
        )
        self.ring = HashRing(ring_replicas, shards=sorted(self.hosts))
        #: the accounting identity: issued == served + failed_over + shed
        self.issued = 0
        self.served = 0
        self.failed_over = 0
        self.shed = 0

    # ------------------------------------------------------------------
    # host state

    def mark_host_down(self, index: int) -> None:
        if index not in self.pool.down:
            self.pool.mark_down(index)
            host = self.hosts[index]
            telemetry.emit(
                "mesh", "host-down",
                clock_ns=host.kernel.clock_ns, labels={"shard": host.name},
            )

    def mark_host_up(self, index: int) -> None:
        if index in self.pool.down:
            self.pool.mark_up(index)
            host = self.hosts[index]
            telemetry.emit(
                "mesh", "host-up",
                clock_ns=host.kernel.clock_ns, labels={"shard": host.name},
            )

    @property
    def down_hosts(self) -> list[int]:
        return sorted(self.pool.down)

    # ------------------------------------------------------------------
    # candidate ordering

    def _candidates(self, key: str) -> Iterator[Host]:
        """Shards to try, in ring order from ``key``'s owner, skipping
        known-down hosts."""
        for index in self.ring.successors(key):
            if index not in self.pool.down:
                yield self.hosts[index]

    def shard_for(self, key: str) -> Host:
        """The live shard owning ``key``."""
        return self.hosts[self.ring.shard_for(key, down=self.pool.down)]

    # ------------------------------------------------------------------
    # dispatch

    def dispatch(self, request: Callable[[Host], bool], key: str | None = None) -> bool:
        """Route one request to a shard; returns the request's result.

        ``request(host)`` runs against the chosen shard (normally a
        connect to its intra-host frontend port).  A hop that raises
        :class:`NoBackendAvailable` — the whole shard has nothing
        serving — marks the host down and fails over to the next
        candidate, bounded by the host-failover budget; exhausting the
        budget **sheds** the request (re-raised to the caller, counted).
        The seeded ``mesh.host_unreachable`` site can drop any single
        hop without marking the host down (a transient partition, not a
        dead machine).
        """
        if key is None:
            raise MeshError("hash routing needs a key= on every dispatch")
        self.issued += 1
        hops = 0
        candidates = self._candidates(key)
        last_error: Exception | None = None
        primary: str | None = None
        while hops <= self.pool.failover_budget:
            try:
                host = next(candidates)
            except (StopIteration, NoBackendAvailable) as exc:
                last_error = exc
                break
            if primary is None:
                primary = host.name
            try:
                # each leg is timed on the *serving host's* kernel clock
                # (the only clock its guest work advances); a leg that
                # fails with a routing error is attributed as a paid hop
                with trace.leg_span(
                    "mesh.hop",
                    clock=(lambda kernel=host.kernel: kernel.clock_ns),
                    shard=host.name,
                    hop=hops,
                ):
                    faults.trip("mesh.host_unreachable", detail=host.name)
                    # the intra-host leg (balancer dispatch, app service)
                    # emits under the shard's label
                    with telemetry.label_scope(shard=host.name):
                        result = request(host)
            except NoBackendAvailable as exc:
                # nothing serving on that whole shard: dead machine
                self.mark_host_down(host.index)
                self.pool.note_failover(host.index)
                telemetry.count("mesh_failover_total", shard=host.name)
                telemetry.emit(
                    "mesh", "failover",
                    clock_ns=host.kernel.clock_ns,
                    labels={"shard": host.name}, detail=str(exc),
                )
                last_error = exc
                hops += 1
                continue
            except faults.InjectedFault as fault:
                # one dropped hop, not a dead host: retry elsewhere but
                # leave the host's frontend state alone
                self.pool.note_failover(host.index)
                telemetry.count("mesh_failover_total", shard=host.name)
                last_error = fault
                hops += 1
                continue
            except Exception:
                # the request *reached* the shard and failed at the
                # application layer — delivery succeeded as far as the
                # mesh is concerned, so account it before re-raising
                self._account_delivery(host, hops)
                raise
            self._account_delivery(host, hops)
            return result
        self.shed += 1
        # shed requests keep their per-shard identity: attribute them to
        # the primary candidate (the shard that *would* have served) so
        # they do not vanish from per-shard breakdowns
        telemetry.count("mesh_shed_total", shard=primary or "none")
        trace.tag_outcome("shed")
        raise NoBackendAvailable(
            f"connection refused: mesh failover budget "
            f"({self.pool.failover_budget}) exhausted "
            f"(last error: {last_error!r})"
        )

    # ------------------------------------------------------------------
    # accounting

    def _account_delivery(self, host: Host, hops: int) -> None:
        self.pool.note_dispatch(host.index)
        telemetry.count("mesh_dispatch_total", shard=host.name)
        if hops == 0:
            self.served += 1
            trace.tag_outcome("served")
        else:
            self.failed_over += 1
            trace.tag_outcome("failed_over")

    @property
    def accounted(self) -> bool:
        """Every issued request landed in exactly one bucket."""
        return self.issued == self.served + self.failed_over + self.shed

    def stats(self) -> dict:
        return {
            "mode": "hash",
            "issued": self.issued,
            "served": self.served,
            "failed_over": self.failed_over,
            "shed": self.shed,
            "accounted": self.accounted,
            "down_hosts": self.down_hosts,
            "dispatched": {
                self.hosts[index].name: total
                for index, total in sorted(self.pool.dispatched.items())
            },
            "failovers": {
                self.hosts[index].name: total
                for index, total in sorted(self.pool.failovers.items())
            },
            "ring": self.ring.to_dict(),
        }
