"""The fleet controller: instance lifecycle behind a load balancer.

A :class:`FleetController` owns N instances of one guest application on
a shared kernel, each listening on its own port, all registered behind
one virtual frontend port (:class:`~repro.kernel.network.BackendPool`).
Per instance it keeps a dedicated transactional
:class:`~repro.core.DynaCut` engine (separate image directories, so a
rollback of instance *i* can never clobber instance *j*'s pristine
images) and exposes the lifecycle verbs the rollout strategies compose:

``drain`` → take the instance out of rotation (new balanced connections
route around it) · ``customize`` → run the policy's feature removals
through the instance's engine · ``probe`` → closed-loop workload health
check against the instance's own port · ``rejoin`` → back into rotation
· ``rollback`` → restore every removed feature's original bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .. import telemetry
from ..core import (
    CustomizationAborted,
    DynaCut,
    FeatureBlocks,
    RewriteReport,
    read_verifier_log,
)
from ..kernel.kernel import Kernel
from ..kernel.network import BackendPool
from ..kernel.process import Process
from .apps import FleetApp, get_app, profile_feature
from .policy import FleetPolicy, ProbeResult


class FleetError(RuntimeError):
    """Misuse of the fleet API (bad instance, wrong state)."""


class InstanceState(Enum):
    IN_SERVICE = "in-service"
    DRAINED = "drained"
    CUSTOMIZING = "customizing"
    FAILED = "failed"
    QUARANTINED = "quarantined"


@dataclass
class FleetInstance:
    """One managed server instance."""

    index: int
    name: str
    port: int
    root_pid: int
    engine: DynaCut
    state: InstanceState = InstanceState.IN_SERVICE
    #: trap-log entries already consumed by a trap-log scan
    #: (:meth:`FleetController.scan_traps`)
    traps_seen: int = 0
    #: serving without (all of) its customizations: the supervisor
    #: respawned it pristine, or the trap-storm breaker demoted it
    degraded: bool = False

    @property
    def customized_features(self) -> list[str]:
        return self.engine.disabled_features(self.root_pid)

    @property
    def customized(self) -> bool:
        return bool(self.customized_features)


class FleetController:
    """Spawn, balance, and customize a fleet of app instances."""

    def __init__(
        self,
        kernel: Kernel,
        app: str | FleetApp,
        policy: FleetPolicy,
        size: int,
        base_port: int | None = None,
        frontend_port: int | None = None,
        image_root: str = "/tmp/criu/fleet",
    ):
        if size < 1:
            raise FleetError("a fleet needs at least one instance")
        self.kernel = kernel
        self.app = get_app(app) if isinstance(app, str) else app
        self.policy = policy
        self.size = size
        self.base_port = base_port if base_port is not None else self.app.default_port
        self.frontend_port = (
            frontend_port if frontend_port is not None else self.base_port - 1
        )
        self.image_root = image_root.rstrip("/")
        self.instances: list[FleetInstance] = []
        self.pool: BackendPool | None = None
        #: feature name -> profiled removal set (shared: same binary)
        self.features: dict[str, FeatureBlocks] = {}
        #: set by FleetSupervisor.__init__ when one attaches; status()
        #: folds its health/breaker view in when present
        self.supervisor = None
        #: set by DriftDetector.__init__ when one attaches; status()
        #: folds its shelving/recustomization view in when present
        self.drift = None

    # ------------------------------------------------------------------
    # lifecycle

    def spawn_fleet(self) -> list[FleetInstance]:
        """Profile the policy's features, boot N instances, register LB."""
        if self.instances:
            raise FleetError("fleet already spawned")
        for feature in self.policy.features:
            self.features[feature] = profile_feature(self.app, feature)
        self.pool = self.kernel.net.register_frontend(self.frontend_port)
        self.pool.failover_budget = self.policy.failover_budget
        for index in range(self.size):
            port = self.base_port + index
            proc = self.app.stage(self.kernel, port)
            engine = DynaCut(
                self.kernel,
                image_dir=f"{self.image_root}/{self.app.name}-{index}",
            )
            instance = FleetInstance(
                index=index,
                name=f"{self.app.name}-{index}",
                port=port,
                root_pid=proc.pid,
                engine=engine,
            )
            self.instances.append(instance)
            self.pool.add(port)
        return self.instances

    def instance(self, ref: int | str) -> FleetInstance:
        for instance in self.instances:
            if instance.index == ref or instance.name == ref:
                return instance
        raise FleetError(f"no fleet instance {ref!r}")

    def process(self, instance: FleetInstance) -> Process:
        proc = self.kernel.processes.get(instance.root_pid)
        if proc is None:
            raise FleetError(f"{instance.name}: pid {instance.root_pid} unknown")
        return proc

    def alive(self, instance: FleetInstance) -> bool:
        proc = self.kernel.processes.get(instance.root_pid)
        return proc is not None and proc.alive

    # ------------------------------------------------------------------
    # rotation

    def drain(self, instance: FleetInstance) -> None:
        """Stop routing new balanced connections to ``instance``.

        The closed-loop workload model means there are no in-flight
        requests between driver iterations; any connection established
        earlier survives checkpoint/restore via TCP repair regardless.
        """
        assert self.pool is not None
        self.pool.drain(instance.port)
        if instance.state is InstanceState.IN_SERVICE:
            instance.state = InstanceState.DRAINED

    def rejoin(self, instance: FleetInstance) -> None:
        assert self.pool is not None
        if not self.alive(instance):
            raise FleetError(
                f"{instance.name}: refusing to rejoin — pid "
                f"{instance.root_pid} is not alive; recover it first "
                f"(a dead listener in the pool turns into refused "
                f"connections for balanced clients)"
            )
        self.pool.rejoin(instance.port)
        if instance.state not in (
            InstanceState.FAILED, InstanceState.QUARANTINED
        ):
            instance.state = InstanceState.IN_SERVICE

    # ------------------------------------------------------------------
    # customization

    def customize(self, instance: FleetInstance) -> list[RewriteReport]:
        """Apply every policy feature removal to ``instance``.

        Raises :class:`~repro.core.CustomizationAborted` (after the
        engine has already rolled the instance back to its pristine
        image) when any transaction fails permanently; features removed
        by *earlier* transactions of this call are re-enabled first, so
        the instance is never left half-customized across features.
        """
        reports: list[RewriteReport] = []
        instance.state = InstanceState.CUSTOMIZING
        applied: list[str] = []
        with telemetry.label_scope(instance=instance.name):
            try:
                for feature_name in self.policy.features:
                    feature = self.features[feature_name]
                    # re-customizing an already-customized instance (a
                    # narrowed removal set rolling out after drift)
                    # restores the old set first so the engine's record
                    # tracks exactly the new one
                    if feature_name in instance.customized_features:
                        self.rollback_feature(instance, feature_name)
                    reports.append(self._disable(instance, feature))
                    applied.append(feature_name)
            except CustomizationAborted:
                for feature_name in reversed(applied):
                    self.rollback_feature(instance, feature_name)
                instance.state = InstanceState.DRAINED
                raise
        instance.state = InstanceState.DRAINED
        return reports

    def _disable(
        self, instance: FleetInstance, feature: FeatureBlocks
    ) -> RewriteReport:
        """Remove ``feature`` from ``instance`` as the policy says."""
        redirect = self.policy.trap_policy == "redirect"
        return instance.engine.disable_feature(
            instance.root_pid,
            feature,
            policy=self.policy.trap_policy_enum,
            mode=self.policy.block_mode_enum,
            redirect_symbol=self.app.redirect_symbol if redirect else None,
        )

    def rollback_feature(self, instance: FleetInstance, feature_name: str) -> None:
        if feature_name in instance.customized_features:
            instance.engine.enable_feature(
                instance.root_pid, self.features[feature_name]
            )

    def rollback(self, instance: FleetInstance) -> list[str]:
        """Restore every feature this controller removed from ``instance``."""
        if not self.alive(instance):
            journal = instance.engine.last_journal
            phase = journal.phase if journal is not None else "none"
            raise FleetError(
                f"{instance.name}: cannot roll back a dead instance (pid "
                f"{instance.root_pid}, last journal phase {phase!r}); "
                f"recover it from its committed image first"
            )
        restored = []
        with telemetry.label_scope(instance=instance.name):
            for feature_name in reversed(self.policy.features):
                if feature_name in instance.customized_features:
                    self.rollback_feature(instance, feature_name)
                    restored.append(feature_name)
        return restored

    # ------------------------------------------------------------------
    # health probing

    def probe(self, instance: FleetInstance) -> ProbeResult:
        """Closed-loop workload probe against the instance's own port."""
        result = ProbeResult(instance=instance.name)
        for __ in range(self.policy.probe_requests):
            result.sent += 1
            try:
                if self.app.wanted_request(self.kernel, instance.port):
                    result.succeeded += 1
            except Exception as exc:  # noqa: BLE001 — a failed probe, not a bug
                result.errors.append(repr(exc))
        # Exercising the removed features is only meaningful under the
        # redirect policy (the gate checks they really serve the error
        # arm).  Under the verifier it would be actively harmful: every
        # probe trap *heals* its block in live memory, so one health
        # probe would silently restore the whole removal set and leave
        # nothing debloated — the probe must not undo the customization.
        if self.policy.trap_policy == "verify":
            return result
        for feature_name in self.policy.features:
            try:
                served = self.app.feature_request(
                    self.kernel, instance.port, feature_name
                )
            except Exception as exc:  # noqa: BLE001
                result.errors.append(repr(exc))
                served = False
            result.features_blocked[feature_name] = not served
        return result

    def scan_traps(
        self, instance: FleetInstance, event: str
    ) -> tuple[tuple[int, ...], dict[str, tuple[int, ...]]]:
        """Consume the instance's new verifier trap-log entries.

        The one read of the trap log behind :meth:`sync_traps`, the
        drift scan and the trap-storm breaker: advances ``traps_seen``
        past the log and records a ``traps`` event named ``event``
        (``sync``, ``scan`` or ``breaker-scan``) with the ``traps_seen``
        gauge and series.  Returns the fresh trap addresses and, per
        feature, the module-relative offsets of those that hit the
        instance's active removal set (in log order, repeats kept).  A
        dead instance has no log to read.
        """
        if not self.alive(instance):
            return (), {}
        report = read_verifier_log(self.kernel, self.process(instance))
        fresh = report.trapped_addresses[instance.traps_seen:]
        instance.traps_seen = len(report.trapped_addresses)
        now = self.kernel.clock_ns
        telemetry.emit(
            "traps", event,
            clock_ns=now,
            labels={"instance": instance.name},
            total=instance.traps_seen,
        )
        telemetry.gauge_set(
            "traps_seen", instance.traps_seen, instance=instance.name
        )
        telemetry.sample(
            "traps_seen", now, instance.traps_seen, instance=instance.name
        )
        hits: dict[str, tuple[int, ...]] = {}
        if fresh and instance.customized:
            base = self.module_base(instance)
            for feature_name in self.policy.features:
                active = {
                    block.offset
                    for block in instance.engine.disabled_blocks(
                        instance.root_pid, feature_name
                    )
                }
                offsets = tuple(
                    address - base for address in fresh
                    if address - base in active
                )
                if offsets:
                    hits[feature_name] = offsets
        return fresh, hits

    def sync_traps(self, instance: FleetInstance) -> int:
        """Snapshot the instance's trap log high-water mark.

        Traps logged before the snapshot (notably the health probe's own
        feature requests, which *deliberately* hit the removal set) are
        excluded from later drift attribution.
        """
        self.scan_traps(instance, "sync")
        return instance.traps_seen

    # ------------------------------------------------------------------
    # DynaShelve verbs

    def shelve_blocks(
        self,
        instance: FleetInstance,
        feature_name: str,
        offsets: list[int],
    ) -> RewriteReport | None:
        """Shelve the trapping blocks of one feature on one instance.

        Drains the instance around the journaled partial re-enable,
        resets the verifier trap log (the shelved traps are consumed),
        and re-syncs the drift high-water mark.  Returns ``None`` when
        every offset was already shelved (no transaction).
        """
        feature = self.features[feature_name]
        try:
            self.drain(instance)
            with telemetry.label_scope(instance=instance.name):
                report = instance.engine.reenable_blocks(
                    instance.root_pid, feature, offsets, reset_log=True
                )
        finally:
            if self.alive(instance):
                self.rejoin(instance)
        self.sync_traps(instance)
        return report

    def decay_shelved(
        self,
        instance: FleetInstance,
        feature_name: str,
        decay_ns: int | None = None,
    ):
        """Re-remove one feature's cold shelved blocks on one instance.

        Peeks at the shelf first and opens no transaction (and does not
        drain) when nothing has been cold for ``decay_ns`` (default:
        the policy's ``shelve_decay_ns``).  Returns the re-removed
        blocks.
        """
        decay = self.policy.shelve_decay_ns if decay_ns is None else decay_ns
        engine = instance.engine
        shelf = engine.shelved_blocks(instance.root_pid, feature_name)
        if not any(
            self.kernel.clock_ns - shelved.shelved_ns >= decay
            for shelved in shelf
        ):
            return []
        feature = self.features[feature_name]
        try:
            self.drain(instance)
            with telemetry.label_scope(instance=instance.name):
                cold = engine.decay_shelved(instance.root_pid, feature, decay)
        finally:
            if self.alive(instance):
                self.rejoin(instance)
        return cold

    def recustomize_feature(
        self,
        instance: FleetInstance,
        feature_name: str,
        narrowed: FeatureBlocks,
    ) -> RewriteReport:
        """Swap one instance's removal set for a narrower one.

        The adaptive-loop primitive (arXiv 2109.02775): restore the old
        set, then disable the ``narrowed`` feature through the same
        policy — all under a drain.  The fresh handler install resets
        the trap log, so the drift mark is re-synced afterwards.
        """
        try:
            self.drain(instance)
            with telemetry.label_scope(instance=instance.name):
                self.rollback_feature(instance, feature_name)
                report = self._disable(instance, narrowed)
        finally:
            if self.alive(instance):
                self.rejoin(instance)
        self.sync_traps(instance)
        return report

    # ------------------------------------------------------------------
    # status

    def module_base(self, instance: FleetInstance) -> int:
        proc = self.process(instance)
        for module in proc.modules:
            if module.name == self.app.binary:
                return module.load_base
        raise FleetError(
            f"{instance.name}: module {self.app.binary!r} not mapped"
        )

    def status(self) -> dict:
        """Fleet-wide operator overview."""
        assert self.pool is not None
        status = {
            "app": self.app.name,
            "frontend_port": self.frontend_port,
            "size": self.size,
            "policy": self.policy.to_dict(),
            "pool": {
                "backends": list(self.pool.backends),
                "in_service": self.pool.in_service(),
                "drained": sorted(self.pool.drained),
                "down": sorted(self.pool.down),
                "dispatched": dict(self.pool.dispatched),
                "failovers": dict(self.pool.failovers),
            },
            "instances": [
                {
                    "name": instance.name,
                    "port": instance.port,
                    "pid": instance.root_pid,
                    "alive": self.alive(instance),
                    "state": instance.state.value,
                    "degraded": instance.degraded,
                    "customized_features": instance.customized_features,
                    "rewrites": len(instance.engine.history),
                    "traps_seen": instance.traps_seen,
                    "shelved_blocks": {
                        feature: len(
                            instance.engine.shelved_offsets(
                                instance.root_pid, feature
                            )
                        )
                        for feature in self.policy.features
                        if instance.engine.shelved_offsets(
                            instance.root_pid, feature
                        )
                    },
                }
                for instance in self.instances
            ],
        }
        if self.supervisor is not None:
            status["supervision"] = self.supervisor.supervision_status()
        if self.drift is not None:
            status["drift"] = self.drift.status.to_dict()
        return status
