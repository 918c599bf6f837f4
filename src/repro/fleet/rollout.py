"""Rollout strategies: canary-gated and rolling fleet customization.

A rollout is a small state machine over the controller's lifecycle
verbs, designed to be **stepped from inside a live workload** (one
:meth:`RolloutExecutor.step` per timeline event) so traffic keeps
flowing between batches:

::

    PENDING ──▶ CANARY ──gate ok──▶ ROLLING ──▶ COMPLETED
                  │ gate fail /                │ abort /
                  ▼ CustomizationAborted       ▼ gate fail
                ABORTED ◀──── roll back every customized instance

* **canary** — customize one instance first; a health-gate failure or
  a :class:`~repro.core.CustomizationAborted` from the transaction
  layer halts everything and rolls back.
* **rolling** — customize the (remaining) fleet in batches of
  ``max_unavailable``: the whole batch is drained together (never more
  than the budget out of rotation), each instance is customized, health
  probed, and rejoined before the next batch drains.

Any failure anywhere triggers fleet-wide rollback: instances whose
transactions committed get the feature re-enabled (restoring the
recorded original bytes); the failing instance itself was already
restored to its pristine image by the transaction layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import telemetry
from ..core import CustomizationAborted
from .controller import FleetController, FleetInstance, InstanceState
from .policy import ProbeResult


@dataclass
class RolloutStep:
    """One recorded action of the rollout state machine."""

    clock_ns: int
    instance: str
    action: str          # drain/customize/probe/rejoin/rollback
    outcome: str         # ok/failed/aborted/rolled-back
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "clock_ns": self.clock_ns,
            "instance": self.instance,
            "action": self.action,
            "outcome": self.outcome,
            "detail": self.detail,
        }


@dataclass
class RolloutReport:
    """Outcome of one fleet rollout."""

    strategy: str
    state: str = "pending"    # pending/canary/rolling/completed/aborted
    steps: list[RolloutStep] = field(default_factory=list)
    probes: list[ProbeResult] = field(default_factory=list)
    customized: list[str] = field(default_factory=list)
    rolled_back: list[str] = field(default_factory=list)
    aborted_reason: str = ""
    started_ns: int = 0
    finished_ns: int = 0
    #: highest number of instances simultaneously out of rotation
    max_drained_seen: int = 0

    @property
    def completed(self) -> bool:
        return self.state == "completed"

    @property
    def aborted(self) -> bool:
        return self.state == "aborted"

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "state": self.state,
            "customized": list(self.customized),
            "rolled_back": list(self.rolled_back),
            "aborted_reason": self.aborted_reason,
            "started_ns": self.started_ns,
            "finished_ns": self.finished_ns,
            "max_drained_seen": self.max_drained_seen,
            "probes": [probe.to_dict() for probe in self.probes],
            "steps": [step.to_dict() for step in self.steps],
        }


class RolloutExecutor:
    """Drives one policy rollout across a spawned fleet."""

    def __init__(self, controller: FleetController):
        self.controller = controller
        self.policy = controller.policy
        self.report = RolloutReport(strategy=self.policy.strategy)
        self._batches = self._plan()
        self._cursor = 0

    # ------------------------------------------------------------------
    # planning

    def _plan(self) -> list[list[FleetInstance]]:
        instances = list(self.controller.instances)
        if not instances:
            raise ValueError("spawn the fleet before planning a rollout")
        batches: list[list[FleetInstance]] = []
        rest = instances
        if self.policy.strategy == "canary":
            batches.append(instances[:1])
            rest = instances[1:]
        width = self.policy.max_unavailable
        batches.extend(
            rest[index:index + width] for index in range(0, len(rest), width)
        )
        return batches

    @property
    def batches_remaining(self) -> int:
        return len(self._batches) - self._cursor

    @property
    def done(self) -> bool:
        return self.report.state in ("completed", "aborted")

    # ------------------------------------------------------------------
    # execution

    def step(self) -> bool:
        """Run the next batch; returns True while more work remains.

        Call between workload requests (e.g. from a
        :class:`~repro.workloads.TimelineEvent`) so the fleet serves
        continuously around each batch.
        """
        if self.done:
            return False
        if self.report.state == "pending":
            self.report.started_ns = self.controller.kernel.clock_ns
            self.report.state = (
                "canary" if self.policy.strategy == "canary" else "rolling"
            )
        batch = self._batches[self._cursor]
        is_canary = self.policy.strategy == "canary" and self._cursor == 0
        try:
            self._run_batch(batch, is_canary)
        except _Halt as halt:
            self._abort(str(halt))
            return False
        self._cursor += 1
        if self._cursor >= len(self._batches):
            self.report.state = "completed"
            self.report.finished_ns = self.controller.kernel.clock_ns
            return False
        if is_canary:
            self.report.state = "rolling"
        return True

    def run(self) -> RolloutReport:
        """Step to completion (no interleaved workload)."""
        while self.step():
            pass
        return self.report

    def abort(self, reason: str) -> None:
        """Halt this rollout from outside the state machine.

        DynaMesh uses this to bound blast radius: a whole-host crash
        aborts the *affected shard's* rollout (dead instances are
        skipped by the rollback pass, recovered later by its
        supervisor) while the other shards keep rolling.  Idempotent
        once the rollout is done.
        """
        if not self.done:
            if self.report.state == "pending":
                self.report.started_ns = self.controller.kernel.clock_ns
            self._abort(reason)

    # ------------------------------------------------------------------
    # internals

    def _record(self, instance: str, action: str, outcome: str, detail: str = ""):
        now = self.controller.kernel.clock_ns
        self.report.steps.append(
            RolloutStep(now, instance, action, outcome, detail)
        )
        telemetry.emit(
            "rollout", action,
            clock_ns=now,
            labels={"instance": instance},
            outcome=outcome,
            detail=detail,
        )
        telemetry.count("rollout_steps_total", action=action, outcome=outcome)

    def _note_drained(self) -> None:
        assert self.controller.pool is not None
        drained = len(self.controller.pool.drained)
        self.report.max_drained_seen = max(self.report.max_drained_seen, drained)

    def _run_batch(self, batch: list[FleetInstance], is_canary: bool) -> None:
        controller = self.controller
        label = "canary-customize" if is_canary else "customize"
        for instance in batch:
            controller.drain(instance)
            self._record(instance.name, "drain", "ok")
        self._note_drained()
        for instance in batch:
            try:
                controller.customize(instance)
            except CustomizationAborted as exc:
                instance.state = InstanceState.FAILED
                self._record(instance.name, label, "aborted", str(exc))
                controller.rejoin(instance)   # pristine tree still serves
                raise _Halt(
                    f"{instance.name}: customization aborted "
                    f"(transaction rolled back): {exc}"
                ) from exc
            self._record(instance.name, label, "ok")
            probe = controller.probe(instance)
            self.report.probes.append(probe)
            if not probe.passed(self.policy):
                self._record(
                    instance.name, "probe", "failed",
                    f"success_rate={probe.success_rate:.2f} "
                    f"blocked={probe.features_blocked}",
                )
                raise _Halt(
                    f"{instance.name}: health gate failed "
                    f"(success_rate={probe.success_rate:.2f}, "
                    f"features_blocked={probe.features_blocked})"
                )
            self._record(instance.name, "probe", "ok")
            controller.sync_traps(instance)   # probe traps aren't drift
            self.report.customized.append(instance.name)
            controller.rejoin(instance)
            self._record(instance.name, "rejoin", "ok")

    def _abort(self, reason: str) -> None:
        """Halt the rollout and roll every customized instance back."""
        controller = self.controller
        for instance in controller.instances:
            if not controller.alive(instance):
                # a dead instance cannot be rolled back (or rejoined) —
                # that is the supervisor's job, from the committed image
                self._record(
                    instance.name, "rollback", "skipped", "instance dead"
                )
                continue
            if instance.customized:
                with telemetry.label_scope(instance=instance.name):
                    controller.rollback(instance)
                self.report.rolled_back.append(instance.name)
                self._record(instance.name, "rollback", "rolled-back")
            if instance.state is not InstanceState.FAILED:
                if instance.port in (controller.pool.drained if controller.pool else ()):
                    controller.rejoin(instance)
        self.report.state = "aborted"
        self.report.aborted_reason = reason
        self.report.finished_ns = controller.kernel.clock_ns


class _Halt(RuntimeError):
    """Internal: a gate failure or aborted transaction stops the rollout."""
