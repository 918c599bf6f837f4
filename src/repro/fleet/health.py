"""Per-instance health: the supervisor's heartbeat state machine.

Every fleet instance carries a :class:`HealthRecord` — a small, strictly
validated state machine the :class:`~repro.fleet.supervisor.FleetSupervisor`
drives from heartbeat observations::

    HEALTHY ──probe fail──▶ SUSPECT ──threshold──▶ DOWN
       ▲  ▲                    │                    │
       │  └────probe ok────────┘                    │ begin recovery
       │                                            ▼
       └──────restore ok────────────────────── RESTORING
                                                    │ restore fail × N
                                                    ▼
                                              QUARANTINED ──reinstate()──▶ DOWN

Two properties are load-bearing (and property-tested):

* a DOWN instance can only become HEALTHY *through* RESTORING — there
  is no transition that skips the recovery step, so "it looks fine
  again" never silently cancels a pending restore;
* QUARANTINED is **absorbing**: no observation moves a quarantined
  instance; only an explicit operator :meth:`~HealthRecord.reinstate`
  does (back to DOWN, so it still has to pass through a recovery).

The machine is event-driven and owns no clock; callers pass
``kernel.clock_ns`` so the transition history is replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .. import telemetry


class HealthError(RuntimeError):
    """An illegal health-state transition was attempted."""


class HealthState(Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DOWN = "down"
    RESTORING = "restoring"
    QUARANTINED = "quarantined"


#: the complete transition relation; anything else raises HealthError.
#: DOWN -> HEALTHY is deliberately absent (recovery must pass through
#: RESTORING) and nothing leaves QUARANTINED except reinstate().
_ALLOWED: frozenset[tuple[HealthState, HealthState]] = frozenset(
    {
        (HealthState.HEALTHY, HealthState.SUSPECT),
        (HealthState.HEALTHY, HealthState.DOWN),
        (HealthState.SUSPECT, HealthState.HEALTHY),
        (HealthState.SUSPECT, HealthState.DOWN),
        (HealthState.DOWN, HealthState.RESTORING),
        (HealthState.RESTORING, HealthState.HEALTHY),
        (HealthState.RESTORING, HealthState.DOWN),
        (HealthState.RESTORING, HealthState.QUARANTINED),
        (HealthState.QUARANTINED, HealthState.DOWN),
    }
)

#: numeric level per state, for plottable per-instance health timelines
#: (0 = serving normally, higher = further from service)
_STATE_LEVEL: dict[HealthState, int] = {
    HealthState.HEALTHY: 0,
    HealthState.SUSPECT: 1,
    HealthState.DOWN: 2,
    HealthState.RESTORING: 3,
    HealthState.QUARANTINED: 4,
}


@dataclass
class HealthRecord:
    """Health of one instance, as observed by the supervisor."""

    instance: str
    state: HealthState = HealthState.HEALTHY
    #: probe failures since the last successful probe
    consecutive_probe_failures: int = 0
    #: failed recovery attempts since the instance went DOWN
    recovery_failures: int = 0
    #: every transition, as (clock_ns, new state)
    history: list[tuple[int, HealthState]] = field(default_factory=list)

    # ------------------------------------------------------------------

    def _transition(self, clock_ns: int, new: HealthState) -> None:
        if (self.state, new) not in _ALLOWED:
            raise HealthError(
                f"{self.instance}: illegal health transition "
                f"{self.state.value} -> {new.value}"
            )
        previous = self.state
        self.state = new
        self.history.append((clock_ns, new))
        telemetry.emit(
            "health", new.value,
            clock_ns=clock_ns,
            labels={"instance": self.instance},
            previous=previous.value,
        )
        telemetry.count(
            "health_transitions_total", state=new.value, instance=self.instance
        )
        telemetry.sample(
            "health_state", clock_ns, _STATE_LEVEL[new],
            instance=self.instance,
        )

    # ------------------------------------------------------------------
    # heartbeat observations

    def observe_ok(self, clock_ns: int) -> None:
        """A probe succeeded; a SUSPECT instance is healthy again."""
        if self.state is HealthState.QUARANTINED:
            return
        self.consecutive_probe_failures = 0
        if self.state is HealthState.SUSPECT:
            self._transition(clock_ns, HealthState.HEALTHY)

    def observe_failure(self, clock_ns: int, suspect_threshold: int) -> None:
        """A probe failed; enough consecutive failures take it DOWN."""
        if self.state is HealthState.QUARANTINED:
            return
        self.consecutive_probe_failures += 1
        if self.state is HealthState.HEALTHY:
            self._transition(clock_ns, HealthState.SUSPECT)
        if (
            self.state is HealthState.SUSPECT
            and self.consecutive_probe_failures >= suspect_threshold
        ):
            self._transition(clock_ns, HealthState.DOWN)

    def observe_crash(self, clock_ns: int) -> None:
        """The process is gone — no suspicion phase, straight to DOWN."""
        if self.state in (HealthState.HEALTHY, HealthState.SUSPECT):
            self._transition(clock_ns, HealthState.DOWN)

    # ------------------------------------------------------------------
    # recovery

    def begin_restore(self, clock_ns: int) -> None:
        self._transition(clock_ns, HealthState.RESTORING)

    def restore_succeeded(self, clock_ns: int) -> None:
        self._transition(clock_ns, HealthState.HEALTHY)
        self.consecutive_probe_failures = 0
        self.recovery_failures = 0

    def restore_failed(self, clock_ns: int, quarantine_limit: int) -> None:
        """Back to DOWN — or QUARANTINED at the consecutive-failure cap."""
        self.recovery_failures += 1
        if self.recovery_failures >= quarantine_limit:
            self._transition(clock_ns, HealthState.QUARANTINED)
        else:
            self._transition(clock_ns, HealthState.DOWN)

    def reinstate(self, clock_ns: int) -> None:
        """Operator override: the only way out of QUARANTINED.

        Returns the instance to DOWN — it still has to pass through a
        full recovery before serving again.
        """
        if self.state is not HealthState.QUARANTINED:
            raise HealthError(
                f"{self.instance}: reinstate() applies to QUARANTINED "
                f"instances, not {self.state.value}"
            )
        self.recovery_failures = 0
        self.consecutive_probe_failures = 0
        self._transition(clock_ns, HealthState.DOWN)
