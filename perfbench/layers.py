"""Wrap-and-time tracing of the simulator's layers, from outside it.

The traced run patches public callables of the program where their
callers look them up: a class attribute such as
``AddressSpace.read``, or every module binding of a function such as
``checkpoint_tree`` (``repro.core.dynacut`` imported its own
reference).  The kinds of wrapper:

* ``span``: coarse boundaries (a syscall, a checkpoint, one request).
  Each call appends ``[name, start_ns, end_ns, parent, leaf_ns]`` to an
  in-memory list; nothing is written until the run ends.
* ``leaf``: per-instruction callables (guest loads and stores, socket
  buffer copies).  A span per call would cost more than the call, so
  they keep per-name call counts and times instead, and add their time
  to the enclosing span's ``leaf_ns``.  ``epoch`` leaves also count the
  ``code_epoch`` bumps of the address space they touch.
* ``count``: ``CPU.step`` calls are counted, not timed: inside a
  quantum each is a decode-cache miss.
* ``tally``: ``telemetry.count`` calls naming the analysis cache
  counters are tallied, hub or no hub.

A layer's self time is its spans' durations minus the part covered by
their child spans and leaf calls (:func:`self_times`), plus its leaves'
times.  The benchmark's own code runs under ``bench.*`` spans; their
self time is the run's unattributed share.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

_now = time.perf_counter_ns
_MISSING = object()


@dataclass(frozen=True)
class Wrap:
    """One patched callable: ``module:attr`` or ``module:Class.method``."""

    target: str
    layer: str
    kind: str = "span"

    @property
    def name(self) -> str:
        return self.target.split(":", 1)[1]


WRAPS: tuple[Wrap, ...] = (
    # kernel.cpu: a quantum is a span; decode misses are counted
    Wrap("repro.kernel.cpu:CPU.run_quantum", "cpu"),
    Wrap("repro.kernel.cpu:CPU.step", "cpu", "count"),
    # kernel.memory: per-instruction loads, stores and fetches
    Wrap("repro.kernel.memory:AddressSpace.read", "memory", "leaf"),
    Wrap("repro.kernel.memory:AddressSpace.fetch", "memory", "leaf"),
    Wrap("repro.kernel.memory:AddressSpace.read_raw", "memory", "leaf"),
    Wrap("repro.kernel.memory:AddressSpace.write", "memory", "epoch"),
    Wrap("repro.kernel.memory:AddressSpace.write_raw", "memory", "epoch"),
    Wrap("repro.kernel.memory:AddressSpace.mmap", "memory", "epoch"),
    Wrap("repro.kernel.memory:AddressSpace.munmap", "memory", "epoch"),
    Wrap("repro.kernel.memory:AddressSpace.mprotect", "memory", "epoch"),
    # kernel.syscalls, kernel.network, and the scheduler loop
    Wrap("repro.kernel.syscalls:SyscallTable.dispatch", "syscalls"),
    Wrap("repro.kernel.network:NetworkStack.connect", "net"),
    Wrap("repro.kernel.network:NetworkStack.accept", "net", "leaf"),
    Wrap("repro.kernel.network:Endpoint.send", "net", "leaf"),
    Wrap("repro.kernel.network:Endpoint.recv", "net", "leaf"),
    Wrap("repro.kernel.kernel:Kernel.run", "sched"),
    Wrap("repro.kernel.kernel:Kernel.run_until_quiescent", "sched"),
    # repro.criu
    Wrap("repro.criu.checkpoint:checkpoint_tree", "criu"),
    Wrap("repro.criu.restore:restore_tree", "criu"),
    Wrap("repro.criu.images:CheckpointImage.save", "criu"),
    # repro.core
    Wrap("repro.core.dynacut:DynaCut.disable_feature", "core"),
    Wrap("repro.core.dynacut:DynaCut.enable_feature", "core"),
    Wrap("repro.core.dynacut:DynaCut.customize", "core"),
    Wrap("repro.core.rewriter:ImageRewriter.block_entry_int3", "core"),
    Wrap("repro.core.rewriter:ImageRewriter.wipe_blocks", "core"),
    Wrap("repro.core.rewriter:ImageRewriter.restore_blocks", "core"),
    Wrap("repro.core.rewriter:ImageRewriter.install_trap_handler", "core"),
    Wrap("repro.core.tracediff:TraceDiff.feature_blocks", "tracediff"),
    # repro.analysis
    Wrap("repro.analysis.lint:lint_checkpoint", "analysis"),
    Wrap("repro.analysis.reachability:refine_removal_set", "analysis"),
    Wrap("repro.analysis.dataflow.valueset:analyze_image_flow", "analysis"),
    Wrap("repro.analysis.cfg:cached_cfg", "analysis"),
    Wrap("repro.telemetry:count", "analysis", "tally"),
    # guest toolchain and profiling
    Wrap("repro.apps.libc:build_libc", "toolchain"),
    Wrap("repro.apps.kvstore:build_miniredis", "toolchain"),
    Wrap("repro.tracing.tracer:BlockTracer.on_block", "tracing", "leaf"),
    Wrap("repro.tracing.tracer:BlockTracer.nudge_dump", "tracing"),
    Wrap("repro.tracing.tracer:BlockTracer.finish", "tracing"),
    # repro.workloads
    Wrap("repro.workloads.driver:run_request_timeline", "driver"),
    Wrap("repro.workloads.redis_client:RedisClient.get", "client"),
    Wrap("repro.workloads.redis_client:RedisClient.set", "client"),
    Wrap("repro.workloads.redis_client:RedisClient.command", "client"),
    # repro.fleet and repro.mesh control planes
    Wrap("repro.fleet.controller:FleetController.customize", "fleet"),
    Wrap("repro.fleet.controller:FleetController.probe", "fleet"),
    Wrap("repro.fleet.supervisor:FleetSupervisor.tick", "fleet"),
    Wrap("repro.fleet.rollout:RolloutExecutor.step", "fleet"),
    Wrap("repro.fleet.rollout:RolloutExecutor.abort", "fleet"),
    Wrap("repro.mesh.frontend:Frontend.dispatch", "mesh"),
    Wrap("repro.mesh.controller:MeshController.tick", "mesh"),
    Wrap("repro.mesh.controller:MeshController.crash_host", "mesh"),
    Wrap("repro.mesh.rollout:MeshRollout.step", "mesh"),
    # repro.telemetry recording (only active under a TelemetryHub)
    Wrap("repro.telemetry.hub:TelemetryHub.emit", "telemetry"),
    Wrap("repro.telemetry.hub:TelemetryHub.count", "telemetry"),
    Wrap("repro.telemetry.hub:TelemetryHub.gauge_set", "telemetry"),
    Wrap("repro.telemetry.hub:TelemetryHub.observe", "telemetry"),
    Wrap("repro.telemetry.hub:TelemetryHub.sample", "telemetry"),
    Wrap("repro.telemetry.hub:TelemetryHub._span_finished", "telemetry"),
)

#: counters the analysis caches already emit (read without a hub)
CACHE_COUNTERS = frozenset({
    "cfg_cache_hits", "cfg_cache_misses",
    "dynaflow_cache_hits", "dynaflow_cache_misses",
})

#: span results that carry a count worth keeping
_RESULT_COUNTS: dict[str, tuple[str, Callable]] = {
    "CPU.run_quantum": ("cpu.steps", lambda result: result),
    "checkpoint_tree": ("criu.pages_dumped", lambda result: result.total_pages()),
    "DynaCut.customize": ("core.attempts", lambda result: result.attempts),
}


class Patcher:
    """Replaces callables by wrappers and puts the originals back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        module_name, attr = target.split(":", 1)
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".", 1)
            cls = getattr(module, class_name)
            original = getattr(cls, method)
            self._undo.append((cls, method, cls.__dict__.get(method, _MISSING)))
            setattr(cls, method, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        # every module that imported its own reference gets the wrapper
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._undo.append((loaded, name, original))
                    setattr(loaded, name, wrapper)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._undo.clear()


class StepCounter:
    """Counts guest steps per CPU; cheap enough for untraced runs.

    ``CPU.run_quantum`` returns the steps it took, so the count is exact
    without timing anything.
    """

    def __init__(self) -> None:
        self.by_cpu: dict[int, int] = defaultdict(int)
        self._patcher = Patcher()

    def install(self) -> "StepCounter":
        by_cpu = self.by_cpu

        def make(original: Callable) -> Callable:
            def run_quantum(cpu, proc, budget):
                steps = original(cpu, proc, budget)
                by_cpu[id(cpu)] += steps
                return steps
            return run_quantum

        self._patcher.patch("repro.kernel.cpu:CPU.run_quantum", make)
        return self

    def uninstall(self) -> None:
        self._patcher.restore()

    @property
    def total(self) -> int:
        return sum(self.by_cpu.values())


def import_all_program_modules() -> None:
    """Import every ``repro`` module so later imports cannot miss a patch."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


class LayerTracer:
    """Installs :data:`WRAPS` and collects spans, leaf times and counts."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index, leaf ns]
        self.spans: list[list] = []
        self.current = -1
        #: leaf name -> [calls, ns]
        self.leaves: dict[str, list[int]] = {}
        self.counts: dict[str, int] = defaultdict(int)
        #: phase name -> leaf name -> ns spent in that phase
        self.phase_leaf_ns: dict[str, dict[str, int]] = {}
        self._patcher = Patcher()

    # ------------------------------------------------------------------
    # installation

    def install(self) -> "LayerTracer":
        import_all_program_modules()
        for wrap in WRAPS:
            make = getattr(self, f"_make_{wrap.kind}")
            self._patcher.patch(wrap.target, make(wrap.name))
        return self

    def uninstall(self) -> None:
        self._patcher.restore()

    def span(self, name: str):
        """A span around the benchmark's own code (``bench.request``)."""
        return _BenchSpan(self, name)

    def phase(self, name: str):
        """A root span (``bench.setup``, ``bench.run``) whose leaf time
        is also kept apart, so shares can be given per phase."""
        return _BenchSpan(self, name, phase=True)

    # ------------------------------------------------------------------
    # wrapper factories

    def _make_span(self, name: str) -> Callable[[Callable], Callable]:
        tracer = self
        spans = self.spans
        counts = self.counts
        result_count = _RESULT_COUNTS.get(name)

        def make(original: Callable) -> Callable:
            def wrapped(*args, **kwargs):
                parent = tracer.current
                record = [name, 0, 0, parent, 0]
                tracer.current = len(spans)
                spans.append(record)
                record[1] = _now()
                try:
                    result = original(*args, **kwargs)
                finally:
                    record[2] = _now()
                    tracer.current = parent
                if result_count is not None:
                    counts[result_count[0]] += result_count[1](result)
                return result
            return wrapped
        return make

    def _make_leaf(self, name: str) -> Callable[[Callable], Callable]:
        tracer = self
        spans = self.spans
        stat = self.leaves.setdefault(name, [0, 0])
        counts = self.counts
        count_bytes = name == "Endpoint.send"

        def make(original: Callable) -> Callable:
            def wrapped(*args, **kwargs):
                start = _now()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = _now() - start
                    stat[0] += 1
                    stat[1] += elapsed
                    if tracer.current >= 0:
                        spans[tracer.current][4] += elapsed
                if count_bytes and result > 0:
                    counts["net.bytes"] += result
                return result
            return wrapped
        return make

    def _make_epoch(self, name: str) -> Callable[[Callable], Callable]:
        """A leaf that also counts ``code_epoch`` bumps of its space."""
        tracer = self
        spans = self.spans
        stat = self.leaves.setdefault(name, [0, 0])
        counts = self.counts

        def make(original: Callable) -> Callable:
            def wrapped(space, *args, **kwargs):
                epoch = space.code_epoch
                start = _now()
                try:
                    return original(space, *args, **kwargs)
                finally:
                    elapsed = _now() - start
                    stat[0] += 1
                    stat[1] += elapsed
                    if tracer.current >= 0:
                        spans[tracer.current][4] += elapsed
                    counts["memory.epoch_bumps"] += space.code_epoch - epoch
            return wrapped
        return make

    def _make_count(self, name: str) -> Callable[[Callable], Callable]:
        """``CPU.step``: inside a quantum it is a decode miss; elsewhere
        (a profiler's quiesce loop) it is a directly stepped instruction."""
        tracer = self
        spans = self.spans
        counts = self.counts

        def make(original: Callable) -> Callable:
            def wrapped(*args, **kwargs):
                current = tracer.current
                if current >= 0 and spans[current][0] == "CPU.run_quantum":
                    counts["cpu.decode_misses"] += 1
                else:
                    counts["cpu.direct_steps"] += 1
                return original(*args, **kwargs)
            return wrapped
        return make

    def _make_tally(self, name: str) -> Callable[[Callable], Callable]:
        """``telemetry.count``: tally the analysis cache counters."""
        counts = self.counts

        def make(original: Callable) -> Callable:
            def wrapped(metric, n=1, **labels):
                if metric in CACHE_COUNTERS:
                    counts[metric] += n
                return original(metric, n, **labels)
            return wrapped
        return make

    # ------------------------------------------------------------------
    # results

    def summary(self) -> dict:
        """Per-name totals and per-layer self times (ns), per phase."""
        layer_of = {wrap.name: wrap.layer for wrap in WRAPS}
        selfs = self_times(self.spans)
        phase = _phases(self.spans)
        by_name: dict[str, dict[str, int]] = defaultdict(
            lambda: {"calls": 0, "total_ns": 0, "self_ns": 0}
        )
        phase_self: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        for index, (name, start, end, __, __) in enumerate(self.spans):
            entry = by_name[name]
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += selfs[index]
            phase_self[phase[index]][layer_of.get(name, "bench")] += selfs[index]
        for phase_name, leaf_ns in self.phase_leaf_ns.items():
            for name, ns in leaf_ns.items():
                phase_self[phase_name][layer_of[name]] += ns
        layer_self: dict[str, int] = defaultdict(int)
        for layers in phase_self.values():
            for layer, ns in layers.items():
                layer_self[layer] += ns
        return {
            "by_name": dict(by_name),
            "leaves": {name: list(stat) for name, stat in self.leaves.items()},
            "counts": dict(self.counts),
            "layer_self_ns": dict(layer_self),
            "phase_self_ns": {k: dict(v) for k, v in phase_self.items()},
        }


def _phases(spans: list[list]) -> list[str]:
    """The name of each span's outermost ancestor (its phase)."""
    phase: list[str] = []
    for name, __, __, parent, __ in spans:
        phase.append(phase[parent] if parent >= 0 else name)
    return phase


class _BenchSpan:
    def __init__(self, tracer: LayerTracer, name: str, phase: bool = False):
        self.tracer = tracer
        self.name = name
        self.is_phase = phase

    def __enter__(self) -> None:
        tracer = self.tracer
        if self.is_phase:
            self.leaf_ns = {name: stat[1] for name, stat in tracer.leaves.items()}
        self.parent = tracer.current
        self.record = [self.name, 0, 0, self.parent, 0]
        tracer.current = len(tracer.spans)
        tracer.spans.append(self.record)
        self.record[1] = _now()

    def __exit__(self, *exc) -> None:
        self.record[2] = _now()
        tracer = self.tracer
        tracer.current = self.parent
        if self.is_phase:
            tracer.phase_leaf_ns[self.name] = {
                name: stat[1] - self.leaf_ns.get(name, 0)
                for name, stat in tracer.leaves.items()
            }


def self_times(spans: list[list]) -> list[int]:
    """Self time of each span: its duration minus what its children cover.

    Children are the spans naming it as parent, clipped to its interval
    and merged where they overlap or touch, plus the span's own leaf
    time (``record[4]``).  Never negative.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, __ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, __, leaf_ns) in enumerate(spans):
        covered = _union_length(children.get(index, ()), start, end)
        result.append(max(0, end - start - covered - leaf_ns))
    return result


def _union_length(intervals, low: int, high: int) -> int:
    total = 0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total
