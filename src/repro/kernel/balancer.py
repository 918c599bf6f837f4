"""Generic member-pool balancing, shared by intra- and cross-host tiers.

The round-robin/drain/down/failover machinery originally grew inside
:class:`~repro.kernel.network.NetworkStack` for one kernel's backend
ports.  DynaMesh needs the *same* state machine one level up — spreading
whole requests over hosts (kernels) instead of ports — so the substrate
lives here, parameterized over two predicates the owner supplies:

* ``live(member)`` — the member could plausibly take a connection
  (a bound listener exists; a host has an in-service fleet).  Dead-at-
  pick members are *skipped silently*: a tree mid-checkpoint must not
  burn failover budget.
* ``healthy(member)`` — discovered truth at dispatch time (the
  listener is not orphaned; the host actually accepted).  A pick that
  fails this check is **marked down**, recorded as a failover, and
  retried within :attr:`MemberPool.failover_budget`.

Members are plain ints (backend ports intra-host, shard indices in the
mesh frontend).  :class:`~repro.kernel.network.BackendPool` subclasses
this with the port-specific validation and telemetry labels; the mesh
:class:`~repro.mesh.frontend.Frontend` instantiates it directly over
shard indices.
"""

from __future__ import annotations

from typing import Callable

from ..telemetry import trace


class NetworkError(Exception):
    """Host-level misuse of the network API."""


class NoBackendAvailable(NetworkError):
    """Every backend behind a frontend is drained, down, or dead.

    Distinct from a generic :class:`NetworkError` so balanced clients
    (and the workload driver) can tell "the whole pool is gone" apart
    from a single refused port.
    """


class MemberPool:
    """Round-robin selection with drain/down state and bounded failover.

    Picking (:meth:`pick`) consults only the pool's *view* (in-service
    members that pass ``live``), while routing (:meth:`route`)
    additionally verifies ``healthy`` and converts a stale pick into a
    recorded, budget-bounded failover.
    """

    def __init__(
        self,
        label: str,
        backends: list[int] | None = None,
        failover_budget: int = 1,
    ):
        #: human-readable identity used in refusal messages
        self.label = label
        self.backends: list[int] = []
        self.drained: set[int] = set()
        #: members marked unhealthy (discovered at dispatch, or by a
        #: supervisor taking one DOWN)
        self.down: set[int] = set()
        #: how many extra members one dispatch may try after landing on
        #: a dead one (0 = fail immediately)
        self.failover_budget = failover_budget
        #: dispatches per member (observability)
        self.dispatched: dict[int, int] = {}
        #: dispatches re-routed away from each dead member
        self.failovers: dict[int, int] = {}
        self._rr = 0
        for member in backends or []:
            self.add(member)

    # ------------------------------------------------------------------
    # membership

    def add(self, member: int) -> None:
        if member not in self.backends:
            self.backends.append(member)
            self.dispatched.setdefault(member, 0)

    def remove(self, member: int) -> None:
        if member in self.backends:
            self.backends.remove(member)
        self.drained.discard(member)
        self.down.discard(member)

    def _known(self, member: int) -> None:
        if member not in self.backends:
            raise NetworkError(
                f"port {member} is not a backend of this pool"
            )

    def drain(self, member: int) -> None:
        self._known(member)
        self.drained.add(member)

    def rejoin(self, member: int) -> None:
        self._known(member)
        self.drained.discard(member)
        self.down.discard(member)

    def mark_down(self, member: int) -> None:
        self._known(member)
        self.down.add(member)

    def mark_up(self, member: int) -> None:
        self._known(member)
        self.down.discard(member)

    def in_service(self) -> list[int]:
        """Members currently eligible for new dispatches."""
        return [
            member
            for member in self.backends
            if member not in self.drained and member not in self.down
        ]

    # ------------------------------------------------------------------
    # accounting hooks (subclasses add telemetry)

    def note_dispatch(self, member: int) -> None:
        self.dispatched[member] = self.dispatched.get(member, 0) + 1

    def note_failover(self, member: int) -> None:
        self.failovers[member] = self.failovers.get(member, 0) + 1

    @property
    def total_failovers(self) -> int:
        return sum(self.failovers.values())

    # ------------------------------------------------------------------
    # selection and routing

    def pick(self, live: Callable[[int], bool]) -> int:
        """Next in-service member passing ``live``, round robin.

        Selection only — no dispatch accounting.  Members failing
        ``live`` are skipped (a tree mid-checkpoint); *stale* members —
        live-looking but actually dead — are **not** filtered here,
        because the view is stale until a dispatch bounces; that
        discovery and the failover retry happen in :meth:`route`.
        """
        candidates = self.in_service()
        if candidates:
            for step in range(len(candidates)):
                member = candidates[(self._rr + step) % len(candidates)]
                if live(member):
                    self._rr = (self._rr + step + 1) % len(candidates)
                    return member
        raise NoBackendAvailable(
            f"connection refused: no backend in service behind {self.label}"
        )

    def route(
        self,
        live: Callable[[int], bool],
        healthy: Callable[[int], bool],
    ) -> int:
        """Resolve one dispatch to a healthy member, with failover.

        A pick that fails ``healthy`` (owner crashed, view still stale)
        marks that member down and retries on the next live one,
        bounded by :attr:`failover_budget`.
        """
        for _attempt in range(self.failover_budget + 1):
            member = self.pick(live)
            if healthy(member):
                self.note_dispatch(member)
                return member
            self.mark_down(member)
            self.note_failover(member)
            trace.note_member_failover()
        raise NoBackendAvailable(
            f"connection refused: failover budget ({self.failover_budget}) "
            f"exhausted behind {self.label}"
        )
