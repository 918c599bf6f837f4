"""Coverage-drift detection: the paper's verifier mode as fleet policy.

A feature removed while it was cold can become hot again — the paper's
§3.2.3 answer is the verifier trap handler, which heals and logs per
process.  DynaFleet promotes that signal to a fleet-wide control loop:

1. every customized instance carries the injected trap handler (both
   the ``verify`` and ``redirect`` policies log each trap address into
   the in-library ring buffer before acting);
2. the :class:`DriftDetector` periodically scans each instance's log
   (:meth:`FleetController.scan_traps
   <repro.fleet.controller.FleetController.scan_traps>`), which
   attributes new entries to the **active removal set** — the blocks
   the instance's engine actually patched
   (:meth:`DynaCut.disabled_blocks`);
3. attributed traps enter a sliding window of ``drift_window_ns``; when
   the windowed count reaches ``drift_trap_threshold``, the policy's
   ``drift_action`` fires.

Four actions, from bluntest to most adaptive:

* ``reenable`` — roll the feature back across the whole fleet (wanted
  traffic stops trapping everywhere, not just on the instance that
  happened to see it).  One instance whose re-enable fails does not
  strand the rest.  One-shot: the detector latches.
* ``ignore`` — log only.  Also one-shot.
* ``shelve`` — restore **only the trapping blocks** on the trapping
  instances (arXiv 2501.04963's lazy block-granular reinstatement);
  the rest of the removal set stays patched.  Every check also runs
  the decay sweep, re-removing shelved blocks that stayed cold for
  ``shelve_decay_ns``.  When the live shelf on one instance would
  exceed the policy's cap, shelving escalates to a full local re-enable
  (the instance is marked degraded) — the decision the storm breaker's
  shelve arm shares
  (:meth:`~repro.fleet.controller.FleetController.shelve_or_fall_back`).
  Repeating: every new windowed burst shelves again.
* ``recustomize`` — re-profile against the drifted trap mix and roll
  out a **narrower** removal set (the adaptive loop of arXiv
  2109.02775): blocks live traffic demonstrably reached are dropped
  from the set, everything still cold stays removed.  The first round
  is per-instance (only the drifted instances swap sets); if the
  narrowed set still storms, later rounds narrow again fleet-wide
  through a :class:`~repro.fleet.rollout.RolloutExecutor`.

Traps from instances in ``RESTORING``/``QUARANTINED`` health states are
consumed but **segregated** — a recovery replaying its checkpoint can
re-execute removed code without that being workload drift.

Checks are driven from the workload loop (timeline events), so drift
latency is bounded by the check cadence plus one re-enable rollout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import telemetry
from ..core import FeatureBlocks, RollbackFailed
from .controller import FleetController, FleetInstance
from .health import HealthState

#: health states whose traps are recovery noise, not workload drift
_SEGREGATED_STATES = (HealthState.RESTORING, HealthState.QUARANTINED)


@dataclass(frozen=True)
class DriftEvent:
    """New traps on the active removal set, seen at one check."""

    clock_ns: int
    instance: str
    feature: str
    hits: int
    offsets: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "clock_ns": self.clock_ns,
            "instance": self.instance,
            "feature": self.feature,
            "hits": self.hits,
            "offsets": list(self.offsets),
        }


@dataclass
class DriftStatus:
    """Accumulated drift observations and the trigger outcome."""

    events: list[DriftEvent] = field(default_factory=list)
    checks: int = 0
    first_drift_ns: int | None = None
    triggered: bool = False
    triggered_ns: int | None = None
    action: str = ""
    reenabled: list[str] = field(default_factory=list)
    #: shelve rounds fired (each restores one windowed burst's blocks)
    shelve_rounds: int = 0
    #: blocks shelved / re-removed by decay, cumulative over the run
    shelved_blocks: int = 0
    decayed_blocks: int = 0
    #: instances whose shelf overflowed into a full local re-enable
    escalated: list[str] = field(default_factory=list)
    #: traps consumed from RESTORING/QUARANTINED instances (not drift)
    segregated_traps: int = 0
    #: one entry per adaptive narrowing round (drift_action=recustomize)
    recustomize_rounds: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "checks": self.checks,
            "events": [event.to_dict() for event in self.events],
            "first_drift_ns": self.first_drift_ns,
            "triggered": self.triggered,
            "triggered_ns": self.triggered_ns,
            "action": self.action,
            "reenabled": list(self.reenabled),
            "shelve_rounds": self.shelve_rounds,
            "shelved_blocks": self.shelved_blocks,
            "decayed_blocks": self.decayed_blocks,
            "escalated": list(self.escalated),
            "segregated_traps": self.segregated_traps,
            "recustomize_rounds": [
                dict(round_) for round_ in self.recustomize_rounds
            ],
        }


class DriftDetector:
    """Watches per-instance trap logs and reacts to workload drift."""

    def __init__(self, controller: FleetController):
        self.controller = controller
        self.policy = controller.policy
        self.status = DriftStatus()
        #: (clock_ns, hits) observations inside the sliding window
        self._window: list[tuple[int, int]] = []
        #: un-acted-on trapped offsets per instance name
        self._pending: dict[str, set[int]] = {}
        #: cumulative trapped offsets — the drifted trap mix the
        #: recustomize action re-profiles against
        self._trapped_offsets: set[int] = set()
        #: narrowing rounds completed
        self._rounds = 0
        # the controller folds our shelving view into status()
        controller.drift = self
        # traps logged before the detector existed are history, not drift
        for instance in controller.instances:
            if instance.customized:
                controller.sync_traps(instance)

    # ------------------------------------------------------------------

    def _health_state(self, instance: FleetInstance) -> HealthState | None:
        supervisor = self.controller.supervisor
        if supervisor is None:
            return None
        record = supervisor.records.get(instance.name)
        return record.state if record is not None else None

    def _scan_instance(self, instance: FleetInstance) -> DriftEvent | None:
        """New trap-log entries attributed to the active removal set.

        The scan consumes the entries unconditionally, but attributes
        none for instances in ``RESTORING``/``QUARANTINED``: a recovery
        replaying committed state can re-execute removed code, and
        counting that as workload drift would re-enable the feature on the
        back of the supervisor's own repair traffic.  Segregated traps
        are tallied in the status instead.
        """
        controller = self.controller
        if not controller.alive(instance) or not instance.customized:
            return None
        fresh, hits = controller.scan_traps(instance, "scan")
        now = controller.kernel.clock_ns
        if fresh and self._health_state(instance) in _SEGREGATED_STATES:
            self.status.segregated_traps += len(fresh)
            telemetry.count("drift_traps_segregated_total", len(fresh))
            telemetry.emit(
                "drift", "segregated",
                clock_ns=now,
                labels={"instance": instance.name},
                hits=len(fresh),
            )
            return None
        if not hits:
            return None
        return DriftEvent(
            clock_ns=now,
            instance=instance.name,
            feature=controller.app.feature,
            hits=len(hits),
            offsets=hits,
        )

    # ------------------------------------------------------------------

    def check(self) -> bool:
        """Poll every instance once; True when drift action triggered."""
        self.status.checks += 1
        now = self.controller.kernel.clock_ns
        new_hits = 0
        for instance in self.controller.instances:
            event = self._scan_instance(instance)
            if event is None:
                continue
            self.status.events.append(event)
            new_hits += event.hits
            self._pending.setdefault(event.instance, set()).update(
                event.offsets
            )
            if self.status.first_drift_ns is None:
                self.status.first_drift_ns = event.clock_ns
            telemetry.emit(
                "drift", "traps",
                clock_ns=event.clock_ns,
                labels={"instance": event.instance, "feature": event.feature},
                hits=event.hits,
            )
            telemetry.count(
                "drift_traps_total", event.hits, feature=event.feature
            )
        if new_hits:
            self._window.append((now, new_hits))
        horizon = now - self.policy.drift_window_ns
        self._window = [(t, h) for t, h in self._window if t >= horizon]
        windowed = sum(h for __, h in self._window)
        repeating = self.policy.drift_action in ("shelve", "recustomize")
        fired = False
        if windowed >= self.policy.drift_trap_threshold and (
            repeating or not self.status.triggered
        ):
            if not self.status.triggered:
                self.status.triggered = True
                self.status.triggered_ns = now
                self.status.action = self.policy.drift_action
            telemetry.emit(
                "drift", "triggered",
                clock_ns=now,
                action=self.policy.drift_action,
                windowed_hits=windowed,
            )
            telemetry.count(
                "drift_triggered_total", action=self.policy.drift_action
            )
            if self.policy.drift_action == "reenable":
                self._reenable_fleet()
            elif self.policy.drift_action == "shelve":
                self._shelve_round()
            elif self.policy.drift_action == "recustomize":
                self._recustomize_round()
            fired = True
        if self.policy.drift_action == "shelve":
            self._decay_sweep()
        return fired

    def _reenable_fleet(self) -> None:
        """Restore the feature on every live customized instance.

        An instance whose re-enable kills it (:class:`RollbackFailed`)
        strands nobody else: every other instance is still re-enabled
        and listed, and the first failure is raised afterwards.
        """
        controller = self.controller
        failure: RollbackFailed | None = None
        for instance in controller.instances:
            if not controller.alive(instance) or not instance.customized:
                continue
            try:
                with controller.out_of_rotation(instance):
                    controller.rollback(instance)
            except RollbackFailed as exc:
                failure = failure or exc
                continue
            self.status.reenabled.append(instance.name)
        if failure is not None:
            raise failure

    # ------------------------------------------------------------------
    # drift_action="shelve"

    def _shelve_round(self) -> None:
        """Shelve every pending trapped block on its trapping instance.

        Escalations follow :meth:`_reenable_fleet`'s rule: one that
        fails does not stop the round, and the first failure is raised
        once the round is counted.
        """
        controller = self.controller
        failure: RollbackFailed | None = None
        for instance_name, offsets in sorted(self._pending.items()):
            instance = controller.instance(instance_name)
            if not controller.alive(instance):
                continue
            try:
                shelved = controller.shelve_or_fall_back(
                    instance, offsets, self._escalate
                )
            except RollbackFailed as exc:
                failure = failure or exc
                continue
            self.status.shelved_blocks += len(shelved or ())
        self.status.shelve_rounds += 1
        self._pending.clear()
        self._window.clear()
        if failure is not None:
            raise failure

    def _escalate(self, instance: FleetInstance) -> None:
        """The shelf overflowed: fall back to a full local re-enable.

        Mirrors the trap-storm breaker's demotion — too much of the
        removal set is hot for block-granular patching to be worth the
        transaction churn, so the instance serves the whole feature
        again and is marked degraded.
        """
        controller = self.controller
        with controller.out_of_rotation(instance):
            controller.rollback(instance)
        controller.sync_traps(instance)
        instance.degraded = True
        if instance.name not in self.status.escalated:
            self.status.escalated.append(instance.name)
        telemetry.count("shelve_escalations_total")
        telemetry.emit(
            "drift", "escalated",
            clock_ns=controller.kernel.clock_ns,
            labels={"instance": instance.name},
            feature=controller.app.feature,
        )

    def _decay_sweep(self) -> None:
        """Re-remove cold shelved blocks on every instance."""
        controller = self.controller
        for instance in controller.instances:
            if controller.alive(instance):
                cold = controller.decay_shelved(instance)
                self.status.decayed_blocks += len(cold)

    # ------------------------------------------------------------------
    # drift_action="recustomize"

    def _recustomize_round(self) -> None:
        """Narrow the removal set against the drifted trap mix.

        Blocks the drifted workload demonstrably reached are dropped
        from the removal set (they are wanted now); blocks that stayed
        cold stay removed.  Round 1 swaps sets only on the instances
        that drifted; if the narrowed set still storms, the next round
        narrows again and rolls out fleet-wide.
        """
        from .rollout import RolloutExecutor

        controller = self.controller
        drifted = sorted(self._pending)
        for offsets in self._pending.values():
            self._trapped_offsets.update(offsets)
        self._pending.clear()
        self._window.clear()
        feature = controller.feature
        trapped = self._trapped_offsets
        round_number = self._rounds + 1
        narrowed_blocks = tuple(
            block for block in feature.blocks if block.offset not in trapped
        )
        if not narrowed_blocks:
            # the whole set is hot: narrowing degenerates to the blunt
            # instrument
            self._reenable_fleet()
            self.status.recustomize_rounds.append({
                "feature": feature.name,
                "round": round_number,
                "scope": "reenable",
                "narrowed_blocks": 0,
                "kept_hot_blocks": len(trapped),
                "dead_restores": 0,
                "clock_ns": controller.kernel.clock_ns,
            })
            self._rounds = round_number
            return
        narrowed = FeatureBlocks(feature.name, feature.module, narrowed_blocks)
        # soundness cross-check: a block the verifier restored was
        # reached by live traffic, so the static classifier must not
        # have proven it dead — any intersection is a bug in one of the
        # two analyses
        engine = controller.instances[0].engine
        classification = engine.refine_feature(feature)
        dead_offsets = {block.offset for block in classification.provably_dead}
        dead_restores = len(trapped & dead_offsets)
        self._rounds = round_number
        if round_number == 1:
            scope = "instance"
            targets = []
            for name in drifted:
                instance = controller.instance(name)
                if controller.alive(instance):
                    controller.recustomize_feature(instance, narrowed)
                    targets.append(name)
        else:
            # the per-instance narrowing was not enough — the narrowed
            # set still stormed.  Adopt it as the fleet's removal set
            # and roll it out everywhere.
            scope = "fleet"
            controller.feature = narrowed
            RolloutExecutor(controller).run()
            targets = [
                instance.name for instance in controller.instances
                if controller.alive(instance)
            ]
        telemetry.count("recustomize_rounds_total", feature=feature.name)
        telemetry.emit(
            "drift", "recustomized",
            clock_ns=controller.kernel.clock_ns,
            feature=feature.name,
            scope=scope,
            narrowed_blocks=len(narrowed_blocks),
            kept_hot_blocks=len(trapped),
        )
        self.status.recustomize_rounds.append({
            "feature": feature.name,
            "round": round_number,
            "scope": scope,
            "instances": targets,
            "narrowed_blocks": len(narrowed_blocks),
            "kept_hot_blocks": len(trapped),
            "dead_restores": dead_restores,
            "clock_ns": controller.kernel.clock_ns,
        })
