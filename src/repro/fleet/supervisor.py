"""DynaGuard: checkpoint-based self-healing for the fleet.

The transactional engine leaves every customized instance with a
*committed*, lint-checked CRIU image on disk — the supervisor turns
that artifact into an availability mechanism:

1. a **heartbeat** (:meth:`FleetSupervisor.tick`, gated by the policy's
   ``heartbeat_interval_ns``) checks each instance: a dead process tree
   goes straight to DOWN, a live one is probed with one wanted request
   and walks HEALTHY → SUSPECT → DOWN after ``suspect_threshold``
   consecutive failures (the *wedged* case);
2. a DOWN instance is **recovered** by restoring its last committed
   checkpoint image — the customized tree comes back with its removal
   set intact, TCP listeners rebound, and the balancer re-enabled.  An
   image that is unreadable or fails :func:`analysis.lint
   <repro.analysis.lint.lint_checkpoint>` falls back to a **pristine
   respawn** (freshly staged instance, features *not* removed — marked
   degraded for a later re-customization).  Transient restore faults
   retry with the engine's capped backoff; ``quarantine_limit``
   consecutive failed recoveries quarantine the instance until an
   operator :meth:`~FleetSupervisor.reinstate`;
3. a per-instance **trap-storm circuit breaker** watches the verifier
   trap log through the same
   :meth:`~repro.fleet.controller.FleetController.scan_traps` as the
   fleet-wide :class:`~repro.fleet.drift.DriftDetector`, but reacts
   locally:
   a windowed burst of traps on the removal set demotes *that instance
   only* — drain, re-enable the features, rejoin degraded — instead of
   giving the feature back fleet-wide.

Chaos campaigns drive all of this through the seeded
``fleet.instance_crash`` / ``fleet.restore_image_corrupt`` /
``fleet.probe_hang`` injection sites (see :mod:`repro.faults` and
:func:`inject_chaos`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import faults, telemetry
from ..analysis.lint import lint_checkpoint
from ..criu.images import CheckpointImage
from ..criu.restore import restore_tree
from ..faults import TransientFault
from .controller import FleetController, FleetInstance, InstanceState
from .health import HealthRecord, HealthState


@dataclass(frozen=True)
class SupervisorEvent:
    """One noteworthy supervisor action (for reports and assertions)."""

    clock_ns: int
    instance: str
    kind: str          # crash-detected | probe-failed | down | recovered |
                       # recovery-failed | quarantined | demoted | reinstated
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "clock_ns": self.clock_ns,
            "instance": self.instance,
            "kind": self.kind,
            "detail": self.detail,
        }


@dataclass
class RecoveryOutcome:
    """How one recovery attempt of one instance ended."""

    instance: str
    succeeded: bool
    #: "checkpoint" (committed image restored) or "respawn" (pristine)
    source: str = ""
    note: str = ""


class FleetSupervisor:
    """Heartbeat, recovery, and circuit breaking for one fleet."""

    def __init__(self, controller: FleetController):
        self.controller = controller
        self.policy = controller.policy
        self.records: dict[str, HealthRecord] = {
            instance.name: HealthRecord(instance.name)
            for instance in controller.instances
        }
        self.events: list[SupervisorEvent] = []
        self.recoveries: list[RecoveryOutcome] = []
        self.ticks = 0
        self._last_tick_ns: int | None = None
        #: per-instance (clock_ns, hits) observations for the trap storm
        self._trap_window: dict[str, list[tuple[int, int]]] = {}
        #: per-instance trapped offsets per feature, accumulated by the
        #: breaker scans and consumed by a shelve (drift_action=shelve)
        self._storm_pending: dict[str, dict[str, set[int]]] = {}
        #: per-instance breaker trips (demotions) for breaker_status()
        self.breaker_trips: dict[str, int] = {}
        # the controller folds our health/breaker view into status()
        controller.supervisor = self
        # traps logged before the supervisor existed are history
        for instance in controller.instances:
            if instance.customized:
                controller.sync_traps(instance)

    # ------------------------------------------------------------------
    # introspection

    def record(self, ref: int | str) -> HealthRecord:
        return self.records[self.controller.instance(ref).name]

    @property
    def settled(self) -> bool:
        """Every instance is HEALTHY or cleanly QUARANTINED."""
        return all(
            r.state in (HealthState.HEALTHY, HealthState.QUARANTINED)
            for r in self.records.values()
        )

    def _event(self, instance: FleetInstance, kind: str, detail: str = "") -> None:
        now = self.controller.kernel.clock_ns
        self.events.append(SupervisorEvent(now, instance.name, kind, detail))
        telemetry.emit(
            "supervisor", kind,
            clock_ns=now, labels={"instance": instance.name}, detail=detail,
        )
        telemetry.count("supervisor_events_total", kind=kind)

    def supervision_status(self) -> dict:
        """Health + breaker view, for :meth:`FleetController.status`."""
        return {
            "ticks": self.ticks,
            "settled": self.settled,
            "health": {
                name: record.state.value
                for name, record in sorted(self.records.items())
            },
            "breakers": self.breaker_status(),
            "recoveries": {
                "attempts": len(self.recoveries),
                "succeeded": sum(1 for o in self.recoveries if o.succeeded),
            },
        }

    def breaker_status(self) -> dict:
        """Per-instance trap-storm breaker state."""
        out: dict[str, dict] = {}
        for instance in self.controller.instances:
            window = self._trap_window.get(instance.name, [])
            out[instance.name] = {
                "trips": self.breaker_trips.get(instance.name, 0),
                "window_hits": sum(h for __, h in window),
                "threshold": self.policy.trap_storm_threshold,
                "degraded": instance.degraded,
            }
        return out

    # ------------------------------------------------------------------
    # heartbeat

    def tick(self, force: bool = False) -> list[SupervisorEvent]:
        """One supervision pass; returns the events it generated.

        Gated by the policy's heartbeat interval: calls arriving early
        are no-ops (``force=True`` overrides), so the driver can call
        this from every timeline event without oversampling.
        """
        now = self.controller.kernel.clock_ns
        if (
            not force
            and self._last_tick_ns is not None
            and now - self._last_tick_ns < self.policy.heartbeat_interval_ns
        ):
            return []
        self._last_tick_ns = now
        self.ticks += 1
        before = len(self.events)
        for instance in self.controller.instances:
            record = self.records[instance.name]
            if record.state is HealthState.QUARANTINED:
                continue
            if record.state in (HealthState.HEALTHY, HealthState.SUSPECT):
                self._heartbeat(instance, record)
            if record.state is HealthState.DOWN:
                self._recover(instance, record)
        return self.events[before:]

    def _heartbeat(self, instance: FleetInstance, record: HealthRecord) -> None:
        kernel = self.controller.kernel
        assert self.controller.pool is not None
        if not self.controller.alive(instance):
            record.observe_crash(kernel.clock_ns)
            self.controller.pool.mark_down(instance.port)
            self._event(instance, "crash-detected")
            return
        if self._probe_ok(instance):
            record.observe_ok(kernel.clock_ns)
            self._check_trap_storm(instance)
            return
        record.observe_failure(kernel.clock_ns, self.policy.suspect_threshold)
        self._event(
            instance,
            "probe-failed",
            f"consecutive={record.consecutive_probe_failures}",
        )
        if record.state is HealthState.DOWN:
            self.controller.pool.mark_down(instance.port)
            self._event(instance, "down", "suspect threshold reached")

    def _probe_ok(self, instance: FleetInstance) -> bool:
        """One wanted request against the instance's own port."""
        fault = faults.check("fleet.probe_hang", detail=instance.name)
        if fault is not None:
            return False       # the probe timed out; the instance may be wedged
        try:
            return self.controller.app.wanted_request(
                self.controller.kernel, instance.port
            )
        except Exception:  # noqa: BLE001 — a failed probe, not a bug
            return False

    # ------------------------------------------------------------------
    # recovery

    def _recover(self, instance: FleetInstance, record: HealthRecord) -> None:
        """One recovery attempt: committed image first, pristine second."""
        controller = self.controller
        kernel = controller.kernel
        if record.recovery_failures:
            # capped exponential backoff between consecutive attempts
            kernel.clock_ns += instance.engine.cost_model.retry_backoff(
                record.recovery_failures
            )
        if controller.alive(instance):
            # wedged, not dead: take the tree down so its pids free up
            kernel.crash_process(instance.root_pid)
        record.begin_restore(kernel.clock_ns)
        outcome = self._restore_from_checkpoint(instance)
        if not outcome.succeeded and outcome.source != "checkpoint-error":
            # unusable image (missing, corrupt, or lint-rejected):
            # fall back to a pristine respawn without the removal set
            respawn = self._respawn_pristine(instance, note=outcome.note)
            outcome = respawn
        self.recoveries.append(outcome)
        telemetry.count(
            "recoveries_total",
            outcome="succeeded" if outcome.succeeded else "failed",
            source=outcome.source,
        )
        if outcome.succeeded:
            controller.sync_traps(instance)
            assert controller.pool is not None
            controller.pool.mark_up(instance.port)
            instance.state = InstanceState.DRAINED
            controller.rejoin(instance)
            record.restore_succeeded(kernel.clock_ns)
            self._event(instance, "recovered", f"source={outcome.source}")
            return
        record.restore_failed(kernel.clock_ns, self.policy.quarantine_limit)
        if record.state is HealthState.QUARANTINED:
            instance.state = InstanceState.QUARANTINED
            self._event(instance, "quarantined", outcome.note)
        else:
            self._event(
                instance,
                "recovery-failed",
                f"attempt={record.recovery_failures}: {outcome.note}",
            )

    def _restore_from_checkpoint(self, instance: FleetInstance) -> RecoveryOutcome:
        """Restore the last *committed* transactional image, linted."""
        kernel = self.controller.kernel
        engine = instance.engine
        try:
            faults.trip("fleet.restore_image_corrupt", detail=instance.name)
            checkpoint = CheckpointImage.load(kernel.fs, engine.image_dir)
        except Exception as exc:  # noqa: BLE001 — unusable image, not fatal
            return RecoveryOutcome(
                instance.name, False, "no-image", f"image unreadable: {exc!r}"
            )
        lint = lint_checkpoint(kernel, checkpoint)
        if not lint.ok:
            return RecoveryOutcome(
                instance.name, False, "lint-reject",
                f"committed image failed lint: {lint.summary()}",
            )
        kernel.net.release_port(instance.port)
        failures = 0
        while True:
            try:
                restore_tree(kernel, checkpoint, engine.cost_model)
                break
            except TransientFault as fault:
                failures += 1
                if failures >= engine.max_attempts:
                    return RecoveryOutcome(
                        instance.name, False, "checkpoint-error",
                        f"restore retry budget exhausted: {fault!r}",
                    )
                kernel.clock_ns += engine.cost_model.retry_backoff(failures)
            except Exception as exc:  # noqa: BLE001 — permanent restore failure
                return RecoveryOutcome(
                    instance.name, False, "checkpoint-error",
                    f"restore failed: {exc!r}",
                )
        instance.root_pid = checkpoint.root().pid
        return RecoveryOutcome(instance.name, True, "checkpoint")

    def _respawn_pristine(
        self, instance: FleetInstance, note: str
    ) -> RecoveryOutcome:
        """Stage a fresh instance: available again, but uncustomized."""
        kernel = self.controller.kernel
        kernel.net.release_port(instance.port)
        try:
            proc = self.controller.app.stage(kernel, instance.port)
        except Exception as exc:  # noqa: BLE001
            return RecoveryOutcome(
                instance.name, False, "respawn-error",
                f"{note}; respawn failed: {exc!r}",
            )
        instance.root_pid = proc.pid
        instance.degraded = True
        return RecoveryOutcome(instance.name, True, "respawn", note)

    def reinstate(self, ref: int | str) -> list[SupervisorEvent]:
        """Operator override: pull ``ref`` out of quarantine and recover it."""
        instance = self.controller.instance(ref)
        record = self.records[instance.name]
        record.reinstate(self.controller.kernel.clock_ns)
        instance.state = InstanceState.DRAINED
        self._event(instance, "reinstated")
        before = len(self.events)
        self._recover(instance, record)
        return self.events[before:]

    # ------------------------------------------------------------------
    # trap-storm circuit breaker

    def _check_trap_storm(self, instance: FleetInstance) -> None:
        """Demote *this* instance when its removal set traps too hot."""
        if not instance.customized:
            return
        __, hits = self.controller.scan_traps(instance, "breaker-scan")
        now = self.controller.kernel.clock_ns
        window = self._trap_window.setdefault(instance.name, [])
        if hits:
            pending = self._storm_pending.setdefault(instance.name, {})
            for feature_name, offsets in hits.items():
                pending.setdefault(feature_name, set()).update(offsets)
            window.append((now, sum(map(len, hits.values()))))
        horizon = now - self.policy.trap_storm_window_ns
        window[:] = [(t, h) for t, h in window if t >= horizon]
        if sum(h for __, h in window) < self.policy.trap_storm_threshold:
            return
        if self.policy.drift_action == "shelve":
            self._shelve_storm(instance)
        else:
            self._demote(instance)
        window.clear()

    def _shelve_storm(self, instance: FleetInstance) -> None:
        """Shelve the storming blocks instead of demoting the instance.

        The graceful breaker arm (``drift_action="shelve"``): only the
        blocks that actually trapped come back into service; the rest
        of the removal set keeps the instance debloated.  Overflowing
        the policy's ``shelve_max_live_blocks`` budget still falls back
        to a full demotion — at that point most of the feature is hot
        and block-granular churn stops paying for itself.
        """
        pending = self._storm_pending.pop(instance.name, {})
        for feature_name, offsets in sorted(pending.items()):
            already = set(
                instance.engine.shelved_offsets(
                    instance.root_pid, feature_name
                )
            )
            if len(already | offsets) > self.policy.shelve_max_live_blocks:
                self._demote(instance)
                return
        shelved = 0
        for feature_name, offsets in sorted(pending.items()):
            report = self.controller.shelve_blocks(
                instance, feature_name, sorted(offsets)
            )
            if report is not None:
                shelved += len(offsets)
        telemetry.count("breaker_shelves_total", instance=instance.name)
        self._event(instance, "shelved", f"blocks={shelved}")

    def _demote(self, instance: FleetInstance) -> None:
        """Re-enable the features on this instance only; mark degraded."""
        controller = self.controller
        controller.drain(instance)
        try:
            restored = controller.rollback(instance)
        finally:
            controller.rejoin(instance)
        instance.degraded = True
        self._storm_pending.pop(instance.name, None)
        self.breaker_trips[instance.name] = (
            self.breaker_trips.get(instance.name, 0) + 1
        )
        telemetry.count("breaker_trips_total", instance=instance.name)
        self._event(
            instance, "demoted", f"reenabled={','.join(restored) or 'none'}"
        )

    # ------------------------------------------------------------------
    # reporting

    def report(self) -> dict:
        return {
            "ticks": self.ticks,
            "settled": self.settled,
            "health": {
                name: record.to_dict() for name, record in self.records.items()
            },
            "events": [event.to_dict() for event in self.events],
            "recoveries": [
                {
                    "instance": o.instance,
                    "succeeded": o.succeeded,
                    "source": o.source,
                    "note": o.note,
                }
                for o in self.recoveries
            ],
        }


# ----------------------------------------------------------------------
# seeded chaos entry point


def inject_chaos(controller: FleetController) -> list[str]:
    """Visit ``fleet.instance_crash`` once per live instance.

    Call this from timeline events *between* heartbeats: a crash the
    supervisor has not noticed yet leaves the orphaned listener in the
    balancer's stale view, which is exactly the window connection-level
    failover exists for.  Returns the names of instances crashed.
    """
    crashed: list[str] = []
    for instance in controller.instances:
        if not controller.alive(instance):
            continue
        fault = faults.check("fleet.instance_crash", detail=instance.name)
        if fault is not None:
            controller.kernel.crash_process(instance.root_pid)
            crashed.append(instance.name)
    return crashed
