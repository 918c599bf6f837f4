"""Whole-host chaos against a sharded rollout.

Each seed builds a fresh mesh (:data:`SHARDS` kernels, each running its
own kvstore shard behind the consistent-hash frontend), seeds a
keyspace while SET still exists, then rolls the SET-removal policy
shard-by-shard under a closed-loop keyed GET workload — and kills one
whole host mid-its-own-rollout through the seeded ``mesh.host_crash``
site.  A campaign seed is **clean** when:

* the frontend accounting identity holds with nothing shed:
  ``issued == served + failed_over`` and zero driver errors — losing a
  whole machine cost retries, never requests;
* the rollout **aborted on the crashed shard only** and completed on
  every other shard (blast radius = one shard);
* the mesh settled: the crashed host's supervisor recovered its
  instances from their committed images and the host rejoined the
  frontend tier;
* the injection log matches the armed plan exactly.

Timing is what makes the scenario honest: rollout steps run at
``x.25`` offsets, supervision heartbeats fire as forced timeline
events on the 3 s marks, and the crash lands at ``2k+0.5`` — right
after shard *k*'s canary batch commits, and strictly before any
heartbeat can recover the host.  The frontend therefore serves from a stale view
(cross-host failover territory) until the shard's own abort gate sees
the dead host.  A crash needs a surviving shard, and :data:`SIZE` is at
least 2 so that it lands between a shard's canary batch and its
rolling batch.

This is the ``mesh`` record, which writes ``results/mesh_rollout.json``.
:class:`HostCrash` is the scenario itself; the ``trace`` record
(:mod:`.trace_attribution`) runs the same one with per-request
tracing, SET traffic and a heal sweep on top.
"""

from __future__ import annotations

from argparse import Namespace
from collections.abc import Callable, Iterable
from functools import partial
from random import Random

from ..faults import FaultPlan
from ..fleet import FleetPolicy
from ..mesh import MeshController, MeshRollout, inject_host_chaos
from ..telemetry import RequestTracer, TelemetryHub
from ..workloads import (
    SECOND_NS,
    TimelineEvent,
    TimelineResult,
    run_request_timeline,
)
from . import Pass, recorded

SEEDS = range(700, 703)
SHARDS = 4
#: instances per shard
SIZE = 2
HEADER = {"shards": SHARDS, "size_per_shard": SIZE, "routing": "hash"}
#: bounded post-workload settling: mesh ticks until every shard is quiet
SETTLE_TICKS = 8
#: keys seeded before the rollout removes the write path
KEYSPACE = 32


def safe_targets(shards: int) -> list[int]:
    """Shards whose crash window fits between two heartbeats.

    Heartbeats are forced timeline events on offsets ``3m`` (the gated
    interval check would drift with per-request timing).  Shard *k*
    rolls at ``2k+0.25`` / ``2k+1.25`` and the crash lands at
    ``2k+0.5``; the only whole second inside the crash-to-gate window
    is ``2k+1``, which hosts a heartbeat iff ``2k+1 ≡ 0 (mod 3)`` —
    i.e. ``k % 3 == 1`` — and would recover the host before the abort
    gate sees it down.  Every other shard is a valid target.
    """
    return [k for k in range(shards) if k % 3 != 1]


class HostCrash:
    """One seed of the host-crash scenario: a canary SET-removal mesh.

    Construction spawns the mesh, seeds the keyspace while SET still
    exists, plans the shard-by-shard rollout and arms the crash of one
    seeded safe target; :meth:`run` drives the traffic.  The ``trace``
    record runs it under the ``verify`` trap policy.
    """

    def __init__(
        self,
        seed: int,
        hub: TelemetryHub,
        shards: int = SHARDS,
        trap_policy: str = "redirect",
    ):
        self.target = Random(seed).choice(safe_targets(shards))
        self.crashed = f"host-{self.target}"
        self.policy = FleetPolicy(
            features=("SET",),
            strategy="canary",
            probe_requests=2,
            heartbeat_interval_ns=3 * SECOND_NS,
            shards=shards,
            ring_replicas=32,
            host_failover_budget=2,
            trap_policy=trap_policy,
        )
        self.mesh = MeshController(
            "redis", self.policy, size_per_shard=SIZE
        )
        hub.bind_clock(lambda: self.mesh.clock.clock_ns)
        self.mesh.spawn_mesh()
        frontend = self.mesh.frontend
        assert frontend is not None
        self.frontend = frontend
        self.keys = [f"key-{index}" for index in range(KEYSPACE)]
        for key in self.keys:
            self.mesh.store(key, f"value-of-{key}")
        self.rollout = MeshRollout(self.mesh)
        self.plan = FaultPlan(seed=seed).arm(
            "mesh.host_crash", "permanent", on_call=self.target + 1, times=1
        )

    def events(self, duration_s: float) -> list[TimelineEvent]:
        """Rollout steps, forced heartbeats and the host crash."""
        return [
            TimelineEvent(
                at_ns=int((2 * step + 0.25) * SECOND_NS),
                label=f"rollout-step-{step}",
                action=self.rollout.step,
            )
            for step in range(self.policy.shards)
        ] + [
            TimelineEvent(
                at_ns=int((2 * step + 1.25) * SECOND_NS),
                label=f"rollout-step-{step}b",
                action=self.rollout.step,
            )
            for step in range(self.policy.shards)
        ] + [
            # heartbeats are driven *forced* on the 3 s marks: the gated
            # interval check drifts (every effective heartbeat overshoots
            # its nominal second by its own probe cost), which would make
            # "which tick recovers the crashed host" depend on millisecond
            # request timing instead of the safe_targets arithmetic
            TimelineEvent(
                at_ns=second * SECOND_NS, label=f"tick-{second}",
                action=lambda: self.mesh.tick(force=True),
            )
            for second in range(3, int(duration_s), 3)
        ] + [
            TimelineEvent(
                at_ns=int((2 * self.target + 0.5) * SECOND_NS),
                label="host-chaos",
                action=lambda: inject_host_chaos(self.mesh),
            )
        ]

    def run(
        self,
        request_once: Callable[[], bool],
        duration_s: float,
        extra_events: Iterable[TimelineEvent] = (),
        tracer: RequestTracer | None = None,
    ) -> TimelineResult:
        """Drive ``request_once`` through the rollout and the crash.

        Afterwards the rollout is stepped to completion and the mesh
        gets up to :data:`SETTLE_TICKS` heartbeats to settle.
        """
        mesh = self.mesh
        # baseline heartbeat at workload start: every instance probed once
        # before traffic, and the serving epoch starts clock-aligned
        mesh.tick(force=True)
        with self.plan:
            timeline = run_request_timeline(
                mesh.clock,
                request_once,
                duration_ns=int(duration_s * SECOND_NS),
                events=self.events(duration_s) + list(extra_events),
                failover_meter=lambda: self.frontend.pool.total_failovers,
                tracer=tracer,
            )
            while not self.rollout.done:
                self.rollout.step()
            for __ in range(SETTLE_TICKS):
                if mesh.settled:
                    break
                mesh.clock.clock_ns = (
                    mesh.clock.clock_ns + self.policy.heartbeat_interval_ns
                )
                mesh.tick()
        return timeline


def workload_record(timeline: TimelineResult) -> dict:
    """The committed digest of one campaign's request timeline."""
    return {
        "total_requests": timeline.total_requests,
        "served": timeline.served,
        "failed_requests": timeline.failed_requests,
        "failed_over_requests": timeline.failed_over_requests,
        "errors": len(timeline.errors),
    }


def run_seed(seed: int, hub: TelemetryHub) -> dict:
    scenario = HostCrash(seed, hub)
    mesh, frontend, keys = scenario.mesh, scenario.frontend, scenario.keys
    seeded = frontend.issued
    request_index = 0

    def request_once() -> bool:
        nonlocal request_index
        request_index += 1
        return mesh.wanted_request(key=keys[request_index % len(keys)])

    timeline = scenario.run(request_once, 2 * SHARDS + 4)
    plan = scenario.plan
    stats = frontend.stats()
    report = scenario.rollout.report()
    crashed = scenario.crashed
    expected_completed = sorted(
        host.name for host in mesh.hosts if host.name != crashed
    )
    blast_radius_ok = (
        report["state"] == "partial"
        and sorted(report["completed_shards"]) == expected_completed
        and list(report["aborted_shards"]) == [crashed]
    )
    ok = (
        stats["accounted"]
        and stats["shed"] == 0
        and not timeline.errors
        and stats["issued"] == seeded + timeline.total_requests
        and blast_radius_ok
        and mesh.settled
        and plan.fired == 1
        and plan.consistent_with_plan()
    )
    return {
        "seed": seed,
        "crashed_shard": crashed,
        "ok": ok,
        "accounted": stats["accounted"],
        "blast_radius_ok": blast_radius_ok,
        "settled": mesh.settled,
        "faults_fired": plan.fired,
        "frontend": stats,
        "rollout": {
            "state": report["state"],
            "completed_shards": report["completed_shards"],
            "aborted_shards": report["aborted_shards"],
        },
        "workload": workload_record(timeline),
        "clocks": {
            "mesh_ns": mesh.clock.clock_ns,
            "hosts_ns": {
                host.name: host.kernel.clock_ns for host in mesh.hosts
            },
        },
    }


def describe(campaign: dict) -> str:
    workload = campaign["workload"]
    return (
        f"seed {campaign['seed']} [crash {campaign['crashed_shard']}] "
        f"{'ok' if campaign['ok'] else 'VIOLATED'}: "
        f"rollout {campaign['rollout']['state']}, "
        f"{workload['total_requests']} reqs "
        f"({workload['failed_over_requests']} failed over, "
        f"{workload['errors']} errors), "
        f"frontend shed {campaign['frontend']['shed']}"
    )


def run(args: Namespace) -> Pass:
    return recorded(
        args.output,
        [(f"mesh-{seed}", partial(run_seed, seed)) for seed in SEEDS],
        describe,
        HEADER,
    )
