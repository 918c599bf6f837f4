"""The DynaBench workloads, driven only through the simulator's public API.

Each workload is a closed loop with one client: the next request goes
out when the previous reply is in.  Its inputs (keyspace, values and
the request sequence) come from the seed alone.  A workload object is
used in three steps, each timed by the caller:

* :meth:`setup` -- guest compile, boot, profiling (``BlockTracer`` +
  ``TraceDiff``), analysis-cache warm-up and keyspace seeding;
* :meth:`run` -- the measured phase, one ``run_request_timeline`` call;
* :meth:`outcome` -- the virtual-time record and the correctness checks.

Every reply is checked against a model of the keyspace kept on the
host.  A wrong reply, a raised request or a rolled-back transaction is
a failed operation.
"""

from __future__ import annotations

import json
import pathlib
import random
import string
from contextlib import nullcontext

from repro import telemetry
from repro.analysis.cfg import cached_cfg
from repro.analysis.dataflow import analyze_image_flow
from repro.apps import REDIS_PORT, stage_redis
from repro.core import BlockMode, CustomizationAborted, DynaCut, TrapPolicy
from repro.core.verifier import read_verifier_log
from repro.fleet import FleetPolicy, get_app
from repro.fleet.apps import profile_feature
from repro.kernel import Kernel
from repro.mesh import MeshController, MeshRollout
from repro.telemetry import TelemetryHub
from repro.workloads import (
    SECOND_NS,
    RedisClient,
    TimelineEvent,
    run_request_timeline,
)

from perfbench.hostclock import HostClock

CONFIG = json.loads((pathlib.Path(__file__).parent / "config.json").read_text())
NAMES = tuple(CONFIG["workloads"])


class BenchError(RuntimeError):
    """The workload could not be set up as configured."""


def make_inputs(cfg: dict, seed: int) -> tuple[dict[str, str], random.Random]:
    """The seeded keyspace (key -> value) and the request-sequence RNG."""
    rng = random.Random(seed)
    keyspace: dict[str, str] = {}
    while len(keyspace) < cfg["keys"]:
        keyspace[_word(rng, cfg["key_chars"])] = _word(rng, cfg["value_chars"])
    return keyspace, rng


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for __ in range(length))


def warm_analysis(kernel: Kernel) -> None:
    """Fill the CFG and dataflow caches for every binary on ``kernel``.

    A cold first ``disable_feature(refine, prove)`` costs several times
    a warm one; warming here moves that into set-up, so every measured
    transaction costs the same.
    """
    for binary in kernel.binaries.values():
        cached_cfg(binary)
        analyze_image_flow(binary)


def create(name: str, seed: int, scale: float, clock: HostClock, steps,
           tracer=None):
    """The workload ``name`` at ``scale`` times its configured size.

    ``clock`` times every request in CPU seconds; ``steps`` reads the
    guest steps executed so far.  Both are read at each request start
    (:attr:`marks`).
    """
    if name not in CONFIG["workloads"]:
        raise BenchError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    cls = MeshWorkload if name == "mesh-rollout" else ServerWorkload
    return cls(name, seed, scale, clock, tracer, steps)


class _Workload:
    def __init__(self, name: str, seed: int, scale: float, clock: HostClock,
                 tracer, steps):
        self.name = name
        self.seed = seed
        self.scale = scale
        self.cfg = CONFIG["workloads"][name]
        self.keyspace, self.rng = make_inputs(self.cfg, seed)
        self.keys = sorted(self.keyspace)
        self.span = tracer.span if tracer is not None else _no_span
        self.clock = clock
        self.steps = steps
        #: host CPU seconds of each request call alone
        self.request_s: list[float] = []
        #: (CPU time, guest steps, calibration CPU so far) at each
        #: request start
        self.marks: list[tuple[float, int, float]] = []
        #: request indices whose expected reply is deliberately wrong
        #: (the smoke test's check that wrong replies count as failed)
        self.tamper: set[int] = set()
        self.timeline = None

    def recording(self):
        return nullcontext()

    def _expect(self, index: int, expected):
        return ("tampered", expected) if index in self.tamper else expected

    def _timed(self, call):
        start = self.clock.reading()
        self.marks.append((start[0], self.steps(), start[1]))
        try:
            return call()
        finally:
            self.request_s.append(self.clock.since(start))


def _no_span(name: str):
    return nullcontext()


class ServerWorkload(_Workload):
    """``serve-steady`` and ``rewrite-churn``: one miniredis, one client."""

    def setup(self) -> None:
        self.feature = profile_feature(get_app("redis"), "SET")
        self.kernel = Kernel()
        self.proc = stage_redis(self.kernel)
        self.dynacut = DynaCut(self.kernel)
        warm_analysis(self.kernel)
        self.dynacut.refine_feature(self.feature, prove=True)
        self.client = RedisClient(self.kernel, REDIS_PORT)
        self.model = dict(self.keyspace)
        for key in self.keys:
            if not self.client.set(key, self.model[key]):
                raise BenchError(f"seeding SET {key} was refused")
        self.set_share = self.cfg["mix"]["SET"] / sum(self.cfg["mix"].values())
        self.cycle_s: list[float] = []
        self.traps = 0

    # ------------------------------------------------------------------

    def request_once(self) -> bool:
        with self.span("bench.request"):
            index = len(self.request_s)
            key = self.rng.choice(self.keys)
            if self.rng.random() < self.set_share:
                value = _word(self.rng, self.cfg["value_chars"])
                got = self._timed(lambda: self.client.set(key, value))
                self.model[key] = value
                expected = True
            else:
                got = self._timed(lambda: self.client.get(key))
                expected = self.model[key]
            return got == self._expect(index, expected)

    def _disable(self) -> None:
        start = self.clock.now()
        try:
            self.dynacut.disable_feature(
                self.proc.pid, self.feature, policy=TrapPolicy.VERIFY,
                mode=BlockMode.ENTRY, refine=True, prove=True,
            )
        except CustomizationAborted:
            pass  # rolled back; the engine's history records it as failed
        self.pending_s = self.clock.now() - start

    def _enable(self) -> None:
        with self.span("bench.trap-log"):
            live = self.dynacut.restored_process(self.proc.pid)
            self.traps += len(read_verifier_log(self.kernel, live).trapped_addresses)
        start = self.clock.now()
        try:
            self.dynacut.enable_feature(self.proc.pid, self.feature)
        except CustomizationAborted:
            pass
        self.cycle_s.append(self.pending_s + self.clock.now() - start)

    def _events(self) -> tuple[list[TimelineEvent], int]:
        cfg = self.cfg
        if cfg["customize"] is None:
            return [], int(cfg["virtual_s"] * self.scale * SECOND_NS)
        cycles = max(1, round(cfg["cycles"] * self.scale))
        period = cfg["cycle_virtual_s"] * SECOND_NS
        events = []
        for cycle in range(cycles):
            events.append(TimelineEvent(
                int((cycle + cfg["disable_at"]) * period),
                f"disable-{cycle}", self._disable,
            ))
            events.append(TimelineEvent(
                int((cycle + cfg["enable_at"]) * period),
                f"enable-{cycle}", self._enable,
            ))
        return events, int(cycles * period)

    def run(self) -> None:
        self.events, duration = self._events()
        self.timeline = run_request_timeline(
            self.kernel, self.request_once, duration_ns=duration,
            events=self.events,
        )

    def outcome(self, steps_by_cpu: dict[int, int]) -> dict:
        timeline = self.timeline
        history = self.dynacut.history
        record = {
            "clock_ns": self.kernel.clock_ns,
            **_timeline_record(timeline),
            "customize": [[r.outcome, r.attempts, r.total_ns] for r in history],
            "traps": self.traps,
        }
        problems = _event_problems(self.events, timeline)
        rolled_back = sum(r.outcome != "committed" for r in history)
        return {
            "record": record,
            "problems": problems,
            "attempted": timeline.total_requests + len(history),
            "failed": timeline.failed_requests + rolled_back,
            "cycle_s": self.cycle_s,
            "facts": {},
        }


class MeshWorkload(_Workload):
    """``mesh-rollout``: 2 shards x 2 miniredis behind the hash frontend."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hub = TelemetryHub()

    def recording(self):
        return telemetry.recording(self.hub)

    def setup(self) -> None:
        cfg = self.cfg
        policy = FleetPolicy(
            features=("SET",),
            strategy="canary",
            probe_requests=2,
            heartbeat_interval_ns=3 * SECOND_NS,
            shards=cfg["shards"],
            ring_replicas=32,
            host_failover_budget=2,
        )
        self.mesh = MeshController(
            "redis", policy, size_per_shard=cfg["instances_per_shard"]
        )
        self.hub.bind_clock(lambda: self.mesh.clock.clock_ns)
        self.frontend = self.mesh.spawn_mesh()
        warm_analysis(self.mesh.hosts[0].kernel)
        for key in self.keys:
            if not self.mesh.store(key, self.keyspace[key]):
                raise BenchError(f"seeding store {key} was refused")
        self.seeded = self.frontend.issued
        self.clients: dict[int, RedisClient] = {}
        self.served_by = [0] * len(self.mesh.hosts)

    def _client(self, host) -> RedisClient:
        client = self.clients.get(host.index)
        if client is None:
            client = RedisClient(host.kernel, host.frontend_port)
            self.clients[host.index] = client
        return client

    def request_once(self) -> bool:
        with self.span("bench.request"):
            index = len(self.request_s)
            key = self.rng.choice(self.keys)
            served: list = []

            def request(host) -> bool:
                served[:] = [host.index, self._client(host).get(key)]
                return True

            self._timed(lambda: self.frontend.dispatch(request, key=key))
            host, got = served
            self.served_by[host] += 1
            # keys live on their owning shard only: a GET failed over to
            # another shard is served as a miss
            owner = self.frontend.ring.shard_for(key)
            expected = self.keyspace[key] if host == owner else None
            return got == self._expect(index, expected)

    def _events(self) -> tuple[list[TimelineEvent], int]:
        rollout = self.cfg["rollout"]
        duration_s = max(
            self.cfg["virtual_s"] * self.scale, self.cfg["min_virtual_s"]
        )
        events = [
            TimelineEvent(int(at * SECOND_NS), f"rollout-step-{index}",
                          self.rollout.step)
            for index, at in enumerate(rollout["steps_at_s"])
        ]
        events.append(TimelineEvent(
            int(rollout["crash_at_s"] * SECOND_NS), "crash-host",
            lambda: self.mesh.crash_host(rollout["crash_host"]),
        ))
        every = rollout["forced_tick_every_s"]
        events += [
            TimelineEvent(second * SECOND_NS, f"tick-{second}",
                          lambda: self.mesh.tick(force=True))
            for second in range(every, int(duration_s), every)
        ]
        return events, int(duration_s * SECOND_NS)

    def run(self) -> None:
        self.rollout = MeshRollout(self.mesh)
        self.events, duration = self._events()
        # baseline heartbeat: every instance probed once before traffic
        self.mesh.tick(force=True)
        self.timeline = run_request_timeline(
            self.mesh.clock, self.request_once, duration_ns=duration,
            events=self.events,
            failover_meter=lambda: self.frontend.pool.total_failovers,
        )

    def outcome(self, steps_by_cpu: dict[int, int]) -> dict:
        timeline = self.timeline
        mesh = self.mesh
        stats = self.frontend.stats()
        report = self.rollout.report()
        histories = [
            [host.name, instance.name, r.outcome, r.attempts, r.total_ns]
            for host in mesh.hosts
            for instance in host.controller.instances
            for r in instance.engine.history
        ]
        recoveries = sum(len(host.supervisor.recoveries) for host in mesh.hosts)
        frontend = {k: stats[k] for k in ("issued", "served", "failed_over", "shed")}
        record = {
            "clock_ns": mesh.clock.clock_ns,
            "host_clock_ns": [host.kernel.clock_ns for host in mesh.hosts],
            **_timeline_record(timeline),
            "failed_over_requests": timeline.failed_over_requests,
            "customize": histories,
            "recoveries": recoveries,
            "rollout": {
                "state": report["state"],
                "completed": sorted(report["completed_shards"]),
                "aborted": sorted(report["aborted_shards"]),
            },
            "frontend": frontend,
        }
        problems = _event_problems(self.events, timeline)
        crashed = mesh.hosts[self.cfg["rollout"]["crash_host"]].name
        if not stats["accounted"]:
            problems.append(f"frontend identity broken: {frontend}")
        if stats["shed"]:
            problems.append(f"{stats['shed']} requests shed")
        if stats["issued"] != self.seeded + timeline.total_requests:
            problems.append("frontend issued count disagrees with the timeline")
        if record["rollout"]["aborted"] != [crashed] or record["rollout"][
            "completed"
        ] != sorted(h.name for h in mesh.hosts if h.name != crashed):
            problems.append(f"blast radius not one shard: {record['rollout']}")
        if not mesh.settled:
            problems.append("mesh did not settle: crashed host not recovered")
        facts = {"fleet.recoveries": recoveries, "mesh.failovers": stats["failed_over"]}
        for host in mesh.hosts:
            steps = steps_by_cpu.get(id(host.kernel.cpu), 0)
            gets = self.served_by[host.index]
            facts[f"mesh.{host.name}.keys"] = sum(
                self.frontend.ring.shard_for(key) == host.index for key in self.keys
            )
            facts[f"mesh.{host.name}.steps_per_get"] = steps / gets if gets else 0
        rolled_back = sum(entry[2] != "committed" for entry in histories)
        return {
            "record": record,
            "problems": problems,
            "attempted": timeline.total_requests + len(histories),
            "failed": timeline.failed_requests + rolled_back,
            "cycle_s": [],
            "facts": facts,
        }


def _timeline_record(timeline) -> dict:
    return {
        "requests": timeline.total_requests,
        "served": sum(point.completed for point in timeline.points),
        "failed": timeline.failed_requests,
        "buckets": [point.completed for point in timeline.points],
        "events": [[offset, label] for offset, label in timeline.events_fired],
    }


def _event_problems(events: list, timeline) -> list[str]:
    if len(timeline.events_fired) != len(events):
        return [
            f"only {len(timeline.events_fired)} of {len(events)} timeline "
            f"events fired"
        ]
    return []
