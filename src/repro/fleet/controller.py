"""The fleet controller: instance lifecycle behind a load balancer.

A :class:`FleetController` owns N instances of one guest application on
a shared kernel, each listening on its own port, all registered behind
one virtual frontend port (:class:`~repro.kernel.network.BackendPool`).
Per instance it keeps a dedicated transactional
:class:`~repro.core.DynaCut` engine (separate image directories, so a
rollback of instance *i* can never clobber instance *j*'s pristine
images) and exposes the lifecycle verbs the rollout strategies compose:

``drain`` → take the instance out of rotation (new balanced connections
route around it) · ``customize`` → remove the app's feature through the
instance's engine · ``probe`` → closed-loop workload health check
against the instance's own port · ``rejoin`` → back into rotation ·
``rollback`` → restore the feature's original bytes.  The reactions to
verifier traps (shelving, decay, recustomization, drift re-enables and
the breaker's demotion) each run their rewrite inside
:meth:`FleetController.out_of_rotation`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
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
        #: the feature's profiled removal set, shared by every instance
        #: (same binary); a fleet-scope recustomize round narrows it.
        #: A policy naming another feature is refused before anything is
        #: profiled or staged.
        self.feature = profile_feature(self.app, policy.features[0])
        self.policy = policy
        self.size = size
        self.base_port = base_port if base_port is not None else self.app.default_port
        self.frontend_port = (
            frontend_port if frontend_port is not None else self.base_port - 1
        )
        self.image_root = image_root.rstrip("/")
        self.instances: list[FleetInstance] = []
        self.pool: BackendPool | None = None
        #: set by FleetSupervisor.__init__ when one attaches; status()
        #: folds its health/breaker view in when present
        self.supervisor = None
        #: set by DriftDetector.__init__ when one attaches; status()
        #: folds its shelving/recustomization view in when present
        self.drift = None

    # ------------------------------------------------------------------
    # lifecycle

    def spawn_fleet(self) -> list[FleetInstance]:
        """Boot N instances and register them behind the frontend."""
        if self.instances:
            raise FleetError("fleet already spawned")
        self.pool = self.kernel.net.register_frontend(self.frontend_port)
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

    @contextmanager
    def out_of_rotation(self, instance: FleetInstance) -> Iterator[None]:
        """Drain ``instance`` around the caller's action, then rejoin it.

        The instance rejoins only if its process tree is still alive: an
        action that killed it (a restore whose pristine rollback failed
        too) raises as itself and leaves the dead instance out of
        rotation for the supervisor to recover.  Opens no telemetry
        label scope; the caller chooses its own.
        """
        self.drain(instance)
        try:
            yield
        finally:
            if self.alive(instance):
                self.rejoin(instance)

    # ------------------------------------------------------------------
    # customization

    def customize(self, instance: FleetInstance) -> RewriteReport:
        """Remove the feature from ``instance``.

        Raises :class:`~repro.core.CustomizationAborted` (after the
        engine has already rolled the instance back to its pristine
        image) when the transaction fails permanently.
        """
        instance.state = InstanceState.CUSTOMIZING
        with telemetry.label_scope(instance=instance.name):
            try:
                # re-customizing an already-customized instance (a
                # narrowed removal set rolling out after drift) restores
                # the old set first so the engine's record tracks
                # exactly the new one
                if instance.customized:
                    self.rollback(instance)
                report = self._disable(instance, self.feature)
            except CustomizationAborted:
                instance.state = InstanceState.DRAINED
                raise
        instance.state = InstanceState.DRAINED
        return report

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

    def rollback(self, instance: FleetInstance) -> bool:
        """Restore the feature's original bytes on ``instance``.

        Returns whether the feature was removed there.  Opens no
        telemetry label scope; the caller chooses its own.
        """
        if not self.alive(instance):
            journal = instance.engine.last_journal
            phase = journal.phase if journal is not None else "none"
            raise FleetError(
                f"{instance.name}: cannot roll back a dead instance (pid "
                f"{instance.root_pid}, last journal phase {phase!r}); "
                f"recover it from its committed image first"
            )
        if not instance.customized:
            return False
        instance.engine.enable_feature(instance.root_pid, self.feature)
        return True

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
        # Exercising the removed feature is only meaningful under the
        # redirect policy (the gate checks it really serves the error
        # arm).  Under the verifier it would be actively harmful: every
        # probe trap *heals* its block in live memory, so one health
        # probe would silently restore the whole removal set and leave
        # nothing debloated — the probe must not undo the customization.
        if self.policy.trap_policy == "verify":
            return result
        try:
            served = self.app.feature_request(self.kernel, instance.port)
        except Exception as exc:  # noqa: BLE001
            result.errors.append(repr(exc))
            served = False
        result.features_blocked[self.app.feature] = not served
        return result

    def scan_traps(
        self, instance: FleetInstance, event: str
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Consume the instance's new verifier trap-log entries.

        The one read of the trap log behind :meth:`sync_traps`, the
        drift scan and the trap-storm breaker: advances ``traps_seen``
        past the log and records a ``traps`` event named ``event``
        (``sync``, ``scan`` or ``breaker-scan``) with the ``traps_seen``
        gauge and series.  Returns the fresh trap addresses and the
        module-relative offsets of those that hit the instance's active
        removal set (in log order, repeats kept).  A dead instance has no
        log to read.
        """
        if not self.alive(instance):
            return (), ()
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
        if not fresh or not instance.customized:
            return fresh, ()
        base = self.module_base(instance)
        active = {
            block.offset
            for block in instance.engine.disabled_blocks(
                instance.root_pid, self.app.feature
            )
        }
        return fresh, tuple(
            address - base for address in fresh if address - base in active
        )

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
        self, instance: FleetInstance, offsets: list[int]
    ) -> RewriteReport | None:
        """Shelve the trapping blocks on one instance.

        Drains the instance around the journaled partial re-enable,
        resets the verifier trap log (the shelved traps are consumed),
        and re-syncs the drift high-water mark.  Returns ``None`` when
        every offset was already shelved (no transaction).
        """
        with self.out_of_rotation(instance), telemetry.label_scope(
            instance=instance.name
        ):
            report = instance.engine.reenable_blocks(
                instance.root_pid, self.feature, offsets, reset_log=True
            )
        self.sync_traps(instance)
        return report

    def shelve_or_fall_back(
        self,
        instance: FleetInstance,
        offsets: set[int],
        fall_back: Callable[[FleetInstance], None],
    ) -> set[int] | None:
        """Shelve trapped ``offsets`` on ``instance``, or fall back.

        The one decision of the drift detector's shelve round and the
        storm breaker's shelve arm: when ``offsets`` and the instance's
        shelf together exceed the policy's shelf cap, too much of the
        removal set is hot for block-granular patching to pay, so
        ``fall_back(instance)`` (the caller's local re-enable) runs
        instead and the result is ``None``.  Otherwise
        :meth:`shelve_blocks` runs and the offsets it newly shelved are
        returned.
        """
        shelf = set(
            instance.engine.shelved_offsets(instance.root_pid, self.app.feature)
        )
        if len(shelf | offsets) > self.policy.shelve_max_live_blocks:
            fall_back(instance)
            return None
        self.shelve_blocks(instance, sorted(offsets))
        return offsets - shelf

    def decay_shelved(self, instance: FleetInstance):
        """Re-remove the cold shelved blocks on one instance.

        Peeks at the shelf first and opens no transaction (and does not
        drain) when nothing has been cold for the policy's
        ``shelve_decay_ns``.  Returns the re-removed blocks.
        """
        decay = self.policy.shelve_decay_ns
        engine = instance.engine
        shelf = engine.shelved_blocks(instance.root_pid, self.app.feature)
        if not any(
            self.kernel.clock_ns - shelved.shelved_ns >= decay
            for shelved in shelf
        ):
            return []
        with self.out_of_rotation(instance), telemetry.label_scope(
            instance=instance.name
        ):
            return engine.decay_shelved(instance.root_pid, self.feature, decay)

    def recustomize_feature(
        self, instance: FleetInstance, narrowed: FeatureBlocks
    ) -> RewriteReport:
        """Swap one instance's removal set for a narrower one.

        The adaptive-loop primitive (arXiv 2109.02775): restore the old
        set, then disable the ``narrowed`` feature through the same
        policy — all under a drain.  The fresh handler install resets
        the trap log, so the drift mark is re-synced afterwards.
        """
        with self.out_of_rotation(instance), telemetry.label_scope(
            instance=instance.name
        ):
            self.rollback(instance)
            report = self._disable(instance, narrowed)
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
                self._instance_status(instance) for instance in self.instances
            ],
        }
        if self.supervisor is not None:
            status["supervision"] = self.supervisor.supervision_status()
        if self.drift is not None:
            status["drift"] = self.drift.status.to_dict()
        return status

    def _instance_status(self, instance: FleetInstance) -> dict:
        shelf = instance.engine.shelved_offsets(
            instance.root_pid, self.app.feature
        )
        return {
            "name": instance.name,
            "port": instance.port,
            "pid": instance.root_pid,
            "alive": self.alive(instance),
            "state": instance.state.value,
            "degraded": instance.degraded,
            "customized_features": instance.customized_features,
            "rewrites": len(instance.engine.history),
            "traps_seen": instance.traps_seen,
            "shelved_blocks": {self.app.feature: len(shelf)} if shelf else {},
        }
