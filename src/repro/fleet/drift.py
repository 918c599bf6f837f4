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

* ``reenable`` — roll the drifted features back across the whole fleet
  (wanted traffic stops trapping everywhere, not just on the instance
  that happened to see it).  One-shot: the detector latches.
* ``ignore`` — log only.  Also one-shot.
* ``shelve`` — restore **only the trapping blocks** on the trapping
  instances (arXiv 2501.04963's lazy block-granular reinstatement);
  the rest of the removal set stays patched.  Every check also runs
  the decay sweep, re-removing shelved blocks that stayed cold for
  ``shelve_decay_ns``.  When a feature's live shelf on one instance
  would exceed ``shelve_max_live_blocks``, shelving escalates to a
  full local re-enable (the instance is marked degraded).  Repeating:
  every new windowed burst shelves again.
* ``recustomize`` — re-profile against the drifted trap mix and roll
  out a **narrower** removal set (the adaptive loop of arXiv
  2109.02775): blocks live traffic demonstrably reached are dropped
  from the set, everything still cold stays removed.  The first round
  for a feature is per-instance (only the drifted instances swap
  sets); if the narrowed set still storms, later rounds narrow again
  fleet-wide through a :class:`~repro.fleet.rollout.RolloutExecutor`.

Traps from instances in ``RESTORING``/``QUARANTINED`` health states are
consumed but **segregated** — a recovery replaying its checkpoint can
re-execute removed code without that being workload drift.

Checks are driven from the workload loop (timeline events), so drift
latency is bounded by the check cadence plus one re-enable rollout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import telemetry
from ..core import FeatureBlocks
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
        #: un-acted-on trapped offsets per (instance name, feature)
        self._pending: dict[tuple[str, str], set[int]] = {}
        #: cumulative trapped offsets per feature — the drifted trap mix
        #: the recustomize action re-profiles against
        self._trapped_offsets: dict[str, set[int]] = {}
        #: narrowing rounds completed per feature
        self._rounds: dict[str, int] = {}
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

    def _scan_instance(self, instance: FleetInstance) -> list[DriftEvent]:
        """New trap-log entries attributed to the active removal set.

        The scan consumes the entries unconditionally, but attributes
        none for instances in ``RESTORING``/``QUARANTINED``: a recovery
        replaying committed state can re-execute removed code, and
        counting that as workload drift would re-enable features on the
        back of the supervisor's own repair traffic.  Segregated traps
        are tallied in the status instead.
        """
        controller = self.controller
        if not controller.alive(instance) or not instance.customized:
            return []
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
            return []
        return [
            DriftEvent(
                clock_ns=now,
                instance=instance.name,
                feature=feature_name,
                hits=len(offsets),
                offsets=offsets,
            )
            for feature_name, offsets in hits.items()
        ]

    # ------------------------------------------------------------------

    def check(self) -> bool:
        """Poll every instance once; True when drift action triggered."""
        self.status.checks += 1
        now = self.controller.kernel.clock_ns
        new_hits = 0
        for instance in self.controller.instances:
            for event in self._scan_instance(instance):
                self.status.events.append(event)
                new_hits += event.hits
                self._pending.setdefault(
                    (event.instance, event.feature), set()
                ).update(event.offsets)
                if self.status.first_drift_ns is None:
                    self.status.first_drift_ns = event.clock_ns
                telemetry.emit(
                    "drift", "traps",
                    clock_ns=event.clock_ns,
                    labels={
                        "instance": event.instance,
                        "feature": event.feature,
                    },
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
        """Restore the drifted features on every customized instance."""
        drifted = {event.feature for event in self.status.events}
        controller = self.controller
        for instance in controller.instances:
            if not controller.alive(instance):
                continue
            restored = [
                name for name in drifted
                if name in instance.customized_features
            ]
            if not restored:
                continue
            with controller.out_of_rotation(instance):
                for feature_name in restored:
                    controller.rollback_feature(instance, feature_name)
            self.status.reenabled.append(instance.name)

    # ------------------------------------------------------------------
    # drift_action="shelve"

    def _shelve_round(self) -> None:
        """Shelve every pending trapped block on its trapping instance."""
        controller = self.controller
        for (instance_name, feature_name), offsets in sorted(
            self._pending.items()
        ):
            if not offsets:
                continue
            instance = controller.instance(instance_name)
            if not controller.alive(instance):
                continue
            engine = instance.engine
            already = set(
                engine.shelved_offsets(instance.root_pid, feature_name)
            )
            prospective = already | offsets
            if len(prospective) > self.policy.shelve_max_live_blocks:
                self._escalate(instance, feature_name)
                continue
            report = controller.shelve_blocks(
                instance, feature_name, sorted(offsets)
            )
            if report is not None:
                shelved = len(offsets - already)
                self.status.shelved_blocks += shelved
        self.status.shelve_rounds += 1
        self._pending.clear()
        self._window.clear()

    def _escalate(self, instance: FleetInstance, feature_name: str) -> None:
        """The shelf overflowed: fall back to a full local re-enable.

        Mirrors the trap-storm breaker's demotion — too much of the
        removal set is hot for block-granular patching to be worth the
        transaction churn, so the instance serves the whole feature
        again and is marked degraded.
        """
        controller = self.controller
        with controller.out_of_rotation(instance):
            controller.rollback_feature(instance, feature_name)
        controller.sync_traps(instance)
        instance.degraded = True
        if instance.name not in self.status.escalated:
            self.status.escalated.append(instance.name)
        telemetry.count("shelve_escalations_total")
        telemetry.emit(
            "drift", "escalated",
            clock_ns=controller.kernel.clock_ns,
            labels={"instance": instance.name},
            feature=feature_name,
        )

    def _decay_sweep(self) -> None:
        """Re-remove cold shelved blocks on every instance."""
        controller = self.controller
        for instance in controller.instances:
            if not controller.alive(instance):
                continue
            for feature_name in self.policy.features:
                cold = controller.decay_shelved(instance, feature_name)
                self.status.decayed_blocks += len(cold)

    # ------------------------------------------------------------------
    # drift_action="recustomize"

    def _recustomize_round(self) -> None:
        """Narrow the removal set against the drifted trap mix.

        Blocks the drifted workload demonstrably reached are dropped
        from the feature's removal set (they are wanted now); blocks
        that stayed cold stay removed.  Round 1 swaps sets only on the
        instances that drifted; if the narrowed set still storms, the
        next round narrows again and rolls out fleet-wide.
        """
        from .rollout import RolloutExecutor

        controller = self.controller
        drifted_features = sorted({
            feature
            for (__, feature), offsets in self._pending.items()
            if offsets
        })
        drifted_instances = {
            feature: sorted(
                name for (name, f), offsets in self._pending.items()
                if f == feature and offsets
            )
            for feature in drifted_features
        }
        for (__, feature_name), offsets in self._pending.items():
            self._trapped_offsets.setdefault(feature_name, set()).update(
                offsets
            )
        self._pending.clear()
        self._window.clear()
        for feature_name in drifted_features:
            feature = controller.features[feature_name]
            trapped = self._trapped_offsets.get(feature_name, set())
            narrowed_blocks = tuple(
                block for block in feature.blocks
                if block.offset not in trapped
            )
            if not narrowed_blocks:
                # the whole set is hot: narrowing degenerates to the
                # blunt instrument
                self._reenable_fleet()
                self.status.recustomize_rounds.append({
                    "feature": feature_name,
                    "round": self._rounds.get(feature_name, 0) + 1,
                    "scope": "reenable",
                    "narrowed_blocks": 0,
                    "kept_hot_blocks": len(trapped),
                    "dead_restores": 0,
                    "clock_ns": controller.kernel.clock_ns,
                })
                self._rounds[feature_name] = (
                    self._rounds.get(feature_name, 0) + 1
                )
                continue
            narrowed = FeatureBlocks(
                feature.name, feature.module, narrowed_blocks
            )
            # soundness cross-check: a block the verifier restored was
            # reached by live traffic, so the static classifier must
            # not have proven it dead — any intersection is a bug in
            # one of the two analyses
            engine = controller.instances[0].engine
            classification = engine.refine_feature(feature)
            dead_offsets = {
                block.offset for block in classification.provably_dead
            }
            dead_restores = len(trapped & dead_offsets)
            round_number = self._rounds.get(feature_name, 0) + 1
            self._rounds[feature_name] = round_number
            if round_number == 1:
                scope = "instance"
                targets = []
                for name in drifted_instances[feature_name]:
                    instance = controller.instance(name)
                    if not controller.alive(instance):
                        continue
                    controller.recustomize_feature(
                        instance, feature_name, narrowed
                    )
                    targets.append(name)
            else:
                # the per-instance narrowing was not enough — the
                # narrowed set still stormed.  Adopt it as the fleet's
                # removal set and roll it out everywhere.
                scope = "fleet"
                controller.features[feature_name] = narrowed
                rollout = RolloutExecutor(controller)
                rollout.run()
                targets = [
                    instance.name for instance in controller.instances
                    if controller.alive(instance)
                ]
            telemetry.count("recustomize_rounds_total", feature=feature_name)
            telemetry.emit(
                "drift", "recustomized",
                clock_ns=controller.kernel.clock_ns,
                feature=feature_name,
                scope=scope,
                narrowed_blocks=len(narrowed_blocks),
                kept_hot_blocks=len(trapped),
            )
            self.status.recustomize_rounds.append({
                "feature": feature_name,
                "round": round_number,
                "scope": scope,
                "instances": targets,
                "narrowed_blocks": len(narrowed_blocks),
                "kept_hot_blocks": len(trapped),
                "dead_restores": dead_restores,
                "clock_ns": controller.kernel.clock_ns,
            })
