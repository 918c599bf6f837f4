"""Seeded fault-injection plans for the rewrite pipeline.

A :class:`FaultPlan` arms *named injection sites* — fixed points in the
checkpoint/rewrite/restore pipeline that consult the active plan and
raise a typed fault when a spec triggers.  Everything is driven by one
``random.Random(seed)``: no wall-clock, no global entropy, so a
campaign replays bit-exactly from its seed.

Fault taxonomy:

* :class:`TransientFault` — the operation would succeed if retried
  (an EINTR-style hiccup, a torn write that a re-write repairs).  The
  transactional engine retries these with capped deterministic backoff.
* :class:`PermanentFault` — retrying cannot help (medium failure,
  resource exhaustion).  The engine rolls back and aborts.

Triggers are either *per-call probability* (each visit to the site
draws from the plan's RNG) or *fire-on-Nth-call* (deterministic
positional triggers); both are bounded by ``times`` so a fault cannot
re-fire forever and wedge recovery.  Every fire is appended to the
plan's :attr:`~FaultPlan.log` for post-hoc assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

#: every injection site wired into the pipeline (see docs/transactions.md)
KNOWN_SITES = frozenset(
    {
        "checkpoint.dump_pages",   # per-process page dump (criu/checkpoint.py)
        "image.save",              # whole-checkpoint image save (criu/images.py)
        "rewriter.write_code",     # per-patch code write (core/rewriter.py)
        "rewriter.inject_library", # handler-library insertion (core/rewriter.py)
        "lint.strict_reject",      # post-lint strict gate (core/dynacut.py)
        "restore.memory",          # per-process address-space rebuild (criu/restore.py)
        "restore.fds",             # per-process fd-table rebuild (criu/restore.py)
        "fs.write_file",           # torn/truncated file writes (kernel/filesystem.py)
    }
)

#: fleet-supervision sites (see docs/fleet.md).  Kept separate from
#: KNOWN_SITES because they are visited by the fleet control plane, not
#: by a single customize() transaction — the chaos matrix over
#: KNOWN_SITES requires every site to be reachable from disable_feature
KNOWN_FLEET_SITES = frozenset(
    {
        "fleet.instance_crash",         # abrupt SIGKILL of one instance's tree
        "fleet.restore_image_corrupt",  # committed image unreadable at recovery
        "fleet.probe_hang",             # heartbeat probe times out (wedged)
    }
)

#: mesh-tier sites (see docs/fleet.md#mesh-layer-8).  Visited by the
#: cross-host control plane: whole-host failure and cross-host dispatch
#: are chaos-testable without touching the single-kernel matrix above
KNOWN_MESH_SITES = frozenset(
    {
        "mesh.host_crash",        # every instance on one kernel dies at once
        "mesh.host_unreachable",  # one cross-host dispatch hop is dropped
    }
)

#: everything arm() accepts
ALL_SITES = KNOWN_SITES | KNOWN_FLEET_SITES | KNOWN_MESH_SITES

KINDS = ("transient", "permanent")


class FaultError(RuntimeError):
    """Misuse of the fault-injection API itself (bad site, bad trigger)."""


class InjectedFault(RuntimeError):
    """Base of every injected failure; carries where and when it fired."""

    kind = "injected"

    def __init__(self, site: str, call_index: int, detail: str = ""):
        self.site = site
        self.call_index = call_index
        self.detail = detail
        #: for torn writes: fraction of the payload persisted before the
        #: failure (None = the write did not start)
        self.fraction: float | None = None
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"injected {self.kind} fault at {site}, call #{call_index}{suffix}"
        )

    def keep_bytes(self, size: int) -> int:
        """How much of a ``size``-byte payload survives a torn write."""
        if self.fraction is None:
            return 0
        return int(size * self.fraction)


class TransientFault(InjectedFault):
    """Retryable: the same operation can succeed on a later attempt."""

    kind = "transient"


class PermanentFault(InjectedFault):
    """Not retryable: the engine must roll back and abort."""

    kind = "permanent"


_FAULT_CLASSES = {"transient": TransientFault, "permanent": PermanentFault}


@dataclass
class FaultSpec:
    """One armed fault: a site, a kind, and a trigger."""

    site: str
    kind: str
    probability: float = 0.0     # per-call fire chance (when on_call is None)
    on_call: int | None = None   # fire exactly on the Nth visit (1-based)
    times: int = 1               # maximum fires (0 = unlimited)
    torn: bool = False           # persist a truncated prefix before raising
    fired: int = 0

    @property
    def exhausted(self) -> bool:
        return self.times > 0 and self.fired >= self.times


@dataclass(frozen=True)
class InjectionRecord:
    """One fault that actually fired (the plan's assertion log)."""

    site: str
    call_index: int
    kind: str
    detail: str = ""


class FaultPlan:
    """A deterministic schedule of faults over the pipeline's sites.

    Use as a context manager to make the plan ambient for the sites::

        plan = FaultPlan(seed=7).arm("restore.memory", "transient", on_call=1)
        with plan:
            dynacut.customize(pid, actions)
        assert [r.site for r in plan.log] == ["restore.memory"]
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = Random(seed)
        self.specs: list[FaultSpec] = []
        self.calls: dict[str, int] = {}
        self.log: list[InjectionRecord] = []

    # ------------------------------------------------------------------
    # arming

    def arm(
        self,
        site: str,
        kind: str = "transient",
        *,
        probability: float | None = None,
        on_call: int | None = None,
        times: int = 1,
        torn: bool = False,
    ) -> "FaultPlan":
        """Arm one fault spec; returns ``self`` for chaining."""
        if site not in ALL_SITES:
            raise FaultError(
                f"unknown injection site {site!r}; known sites: "
                + ", ".join(sorted(ALL_SITES))
            )
        if kind not in KINDS:
            raise FaultError(f"unknown fault kind {kind!r}; use transient/permanent")
        if (probability is None) == (on_call is None):
            raise FaultError("arm one trigger: either probability= or on_call=")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise FaultError(f"probability {probability} outside [0, 1]")
        if on_call is not None and on_call < 1:
            raise FaultError("on_call is 1-based; the first visit is on_call=1")
        if torn and site != "fs.write_file":
            raise FaultError("torn= only applies to the fs.write_file site")
        self.specs.append(
            FaultSpec(site, kind, probability or 0.0, on_call, times, torn)
        )
        return self

    # ------------------------------------------------------------------
    # firing

    def check(self, site: str, detail: str = "") -> InjectedFault | None:
        """Visit ``site``; returns a fault to raise, or None.

        Separated from :meth:`trip` so sites that do *partial* work
        before failing (torn writes) can inspect the fault first.
        """
        count = self.calls.get(site, 0) + 1
        self.calls[site] = count
        for spec in self.specs:
            if spec.site != site or spec.exhausted:
                continue
            if spec.on_call is not None:
                fire = count == spec.on_call
            else:
                fire = self.rng.random() < spec.probability
            if not fire:
                continue
            spec.fired += 1
            fault = _FAULT_CLASSES[spec.kind](site, count, detail)
            if spec.torn:
                fault.fraction = self.rng.uniform(0.1, 0.9)
            self.log.append(InjectionRecord(site, count, spec.kind, detail))
            return fault
        return None

    def trip(self, site: str, detail: str = "") -> None:
        """Visit ``site``; raise immediately when a spec triggers."""
        fault = self.check(site, detail)
        if fault is not None:
            raise fault

    # ------------------------------------------------------------------
    # bookkeeping

    @property
    def fired(self) -> int:
        return len(self.log)

    def fired_at(self, site: str) -> list[InjectionRecord]:
        return [record for record in self.log if record.site == site]

    def consistent_with_plan(self) -> bool:
        """Every log record maps to an armed spec within its fire budget."""
        for record in self.log:
            if not any(
                spec.site == record.site and spec.kind == record.kind
                for spec in self.specs
            ):
                return False
        for spec in self.specs:
            if spec.times > 0 and spec.fired > spec.times:
                return False
        return True

    # ------------------------------------------------------------------
    # activation (ambient plan; see repro.faults.__init__)

    def __enter__(self) -> "FaultPlan":
        from . import _activate

        _activate(self)
        return self

    def __exit__(self, *exc_info) -> None:
        from . import _deactivate

        _deactivate(self)
