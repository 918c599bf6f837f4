"""Declarative fleet customization policy.

A :class:`FleetPolicy` is the operator-facing contract for a rollout:
*what* to remove (feature names resolved by the app adapter's profiling
recipe), *how* blocked code should behave (trap policy and block mode),
*how* the change spreads over the fleet (strategy, canary size,
``max_unavailable`` budget, health-gate thresholds), and *when* the
fleet must adapt again (coverage-drift window and threshold).

Policies are plain data: they validate on construction and round-trip
through :meth:`to_dict` / :meth:`from_dict`, so they can live in config
files and CLI flags.  The paper's one-process verifier mode is promoted
here to fleet policy — drift handling is a field, not an ad-hoc script.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from ..core import BlockMode, TrapPolicy

SECOND_NS = 1_000_000_000

STRATEGIES = ("canary", "rolling")
#: TERMINATE is deliberately absent: a terminate trap kills a serving
#: instance, which violates the fleet's availability contract
TRAP_POLICIES = ("redirect", "verify")
BLOCK_MODES = tuple(mode.value for mode in BlockMode)
DRIFT_ACTIONS = ("reenable", "ignore", "shelve", "recustomize")


class PolicyError(ValueError):
    """An invalid or inconsistent FleetPolicy specification."""


@dataclass(frozen=True)
class FleetPolicy:
    """What to remove, how to roll it out, and when to adapt."""

    #: feature names to remove, resolved by the app adapter's profiler
    features: tuple[str, ...]
    #: behaviour of blocked code: "redirect" (app error arm) or "verify"
    trap_policy: str = "redirect"
    #: how much of each feature to patch: "entry", "all", or "wipe"
    block_mode: str = "entry"
    #: rollout strategy: "canary" (gate on one, then roll) or "rolling"
    strategy: str = "canary"
    #: instances allowed out of rotation at once during the roll phase
    max_unavailable: int = 1
    #: wanted requests the health probe sends per customized instance
    probe_requests: int = 6
    #: fraction of probe requests that must succeed to pass the gate
    probe_min_success: float = 1.0
    #: with "redirect", the gate also requires removed features to be
    #: actually blocked on the customized instance
    probe_check_blocked: bool = True
    #: drift: traps on the active removal set within the window...
    drift_window_ns: int = 10 * SECOND_NS
    #: ...needed to declare coverage drift and trigger the action
    drift_trap_threshold: int = 1
    #: "reenable" (restore the feature fleet-wide), "ignore" (log only),
    #: "shelve" (restore only the trapping blocks, with decay), or
    #: "recustomize" (re-profile against the drifted trap mix and roll
    #: out a narrower removal set)
    drift_action: str = "reenable"
    #: shelve: virtual time a shelved block must stay cold before the
    #: decay sweep re-removes it
    shelve_decay_ns: int = 8 * SECOND_NS
    #: shelve: max blocks of one feature live on the shelf per instance
    #: before shelving escalates to a full local re-enable (demote)
    shelve_max_live_blocks: int = 8
    #: supervision: minimum virtual time between supervisor heartbeats
    heartbeat_interval_ns: int = SECOND_NS
    #: consecutive failed probes before SUSPECT becomes DOWN
    suspect_threshold: int = 2
    #: consecutive failed recoveries before an instance is quarantined
    quarantine_limit: int = 3
    #: extra backends one balanced connect may try after a dead pick
    failover_budget: int = 1
    #: trap-storm circuit breaker: removal-set traps within this window...
    trap_storm_window_ns: int = 5 * SECOND_NS
    #: ...needed to demote the trapping instance (re-enable locally)
    trap_storm_threshold: int = 4
    #: mesh: number of hosts (kernels) the fleet is sharded over; 1 is
    #: the classic single-kernel fleet
    shards: int = 1
    #: mesh: virtual nodes per shard on the consistent-hash ring (more
    #: replicas = smoother keyspace balance, smaller remapped arcs)
    ring_replicas: int = 8
    #: mesh: extra hosts one frontend dispatch may try after landing on
    #: a down host (0 = shed immediately; the cross-host analogue of
    #: ``failover_budget``)
    host_failover_budget: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.features, str):
            object.__setattr__(self, "features", (self.features,))
        else:
            object.__setattr__(self, "features", tuple(self.features))
        if not self.features:
            raise PolicyError("a fleet policy must name at least one feature")
        if self.strategy not in STRATEGIES:
            raise PolicyError(
                f"unknown strategy {self.strategy!r}; use one of {STRATEGIES}"
            )
        if self.trap_policy not in TRAP_POLICIES:
            raise PolicyError(
                f"unknown trap policy {self.trap_policy!r}; a fleet rollout "
                f"allows {TRAP_POLICIES} (terminate would kill serving "
                "instances)"
            )
        if self.block_mode not in BLOCK_MODES:
            raise PolicyError(
                f"unknown block mode {self.block_mode!r}; use one of {BLOCK_MODES}"
            )
        if self.max_unavailable < 1:
            raise PolicyError("max_unavailable must be >= 1")
        if self.probe_requests < 1:
            raise PolicyError("probe_requests must be >= 1")
        if not 0.0 < self.probe_min_success <= 1.0:
            raise PolicyError("probe_min_success must be in (0, 1]")
        if self.drift_window_ns <= 0:
            raise PolicyError("drift_window_ns must be positive")
        if self.drift_trap_threshold < 1:
            raise PolicyError("drift_trap_threshold must be >= 1")
        if self.drift_action not in DRIFT_ACTIONS:
            raise PolicyError(
                f"unknown drift action {self.drift_action!r}; use one of "
                f"{DRIFT_ACTIONS}"
            )
        if self.shelve_decay_ns <= 0:
            raise PolicyError("shelve_decay_ns must be positive")
        if self.shelve_max_live_blocks < 1:
            raise PolicyError("shelve_max_live_blocks must be >= 1")
        if self.heartbeat_interval_ns <= 0:
            raise PolicyError("heartbeat_interval_ns must be positive")
        if self.suspect_threshold < 1:
            raise PolicyError("suspect_threshold must be >= 1")
        if self.quarantine_limit < 1:
            raise PolicyError("quarantine_limit must be >= 1")
        if self.failover_budget < 0:
            raise PolicyError("failover_budget must be >= 0")
        if self.trap_storm_window_ns <= 0:
            raise PolicyError("trap_storm_window_ns must be positive")
        if self.trap_storm_threshold < 1:
            raise PolicyError("trap_storm_threshold must be >= 1")
        if self.shards < 1:
            raise PolicyError(
                f"shards must be >= 1 (a mesh needs at least one host; "
                f"got {self.shards})"
            )
        if self.ring_replicas < 1:
            raise PolicyError(
                f"ring_replicas must be >= 1 (each shard needs at least "
                f"one point on the hash ring; got {self.ring_replicas})"
            )
        if self.host_failover_budget < 0:
            raise PolicyError("host_failover_budget must be >= 0")

    # ------------------------------------------------------------------
    # enum bridges into the single-process engine

    @property
    def trap_policy_enum(self) -> TrapPolicy:
        return TrapPolicy(self.trap_policy)

    @property
    def block_mode_enum(self) -> BlockMode:
        return BlockMode(self.block_mode)

    # ------------------------------------------------------------------
    # declarative round-trip

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["features"] = list(self.features)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetPolicy":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise PolicyError(
                f"unknown policy keys: {', '.join(sorted(unknown))}"
            )
        if "features" not in payload:
            raise PolicyError("policy needs a 'features' list")
        return cls(**payload)


@dataclass
class ProbeResult:
    """Outcome of one closed-loop health probe against one instance."""

    instance: str
    sent: int = 0
    succeeded: int = 0
    #: feature name -> True when the removed feature is really blocked
    features_blocked: dict[str, bool] = field(default_factory=dict)
    #: errors raised while probing (connection refused etc.)
    errors: list[str] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.sent if self.sent else 0.0

    def passed(self, policy: FleetPolicy) -> bool:
        if self.success_rate < policy.probe_min_success:
            return False
        if policy.probe_check_blocked and policy.trap_policy == "redirect":
            if not all(self.features_blocked.get(f, False) for f in policy.features):
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "sent": self.sent,
            "succeeded": self.succeeded,
            "success_rate": self.success_rate,
            "features_blocked": dict(self.features_blocked),
            "errors": list(self.errors),
        }
