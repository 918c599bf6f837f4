"""One measured process of a DynaBench run (started by ``run.py``).

``python3 -m perfbench.worker --workload W --seed N --seconds S
[--traced]`` runs in a fresh interpreter, so the toolchain
``lru_cache`` and the profile, CFG and dataflow caches start empty and
their fills land in set-up.  It times set-up and the measured phase,
counts guest steps per CPU (exact: ``CPU.run_quantum`` returns them)
and reports the virtual-time record and its digest.  ``--traced``
also installs :class:`perfbench.layers.LayerTracer` and writes its
spans to ``.perfbench/`` when the run ends.  The last stdout line is
one JSON object with the raw measurements; ``run.py`` turns them into
metrics.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time
from contextlib import nullcontext

from perfbench import hostclock, layers, stats, workloads

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / ".perfbench"
#: slices of the measured phase behind the median rates
WINDOWS = 10


def measure(name: str, seed: int, seconds: float, traced: bool = False,
            tamper: frozenset[int] = frozenset()) -> dict:
    """Set up and run one workload in this process; return raw results.

    Host times are in reference seconds (:mod:`perfbench.hostclock`);
    ``run_wall_s`` and ``slowness`` are kept alongside for reading.
    """
    scale = seconds / workloads.CONFIG["default_seconds"]
    clock = hostclock.HostClock()
    counter = layers.StepCounter().install()
    tracer = layers.LayerTracer().install() if traced else None
    phase = tracer.phase if tracer is not None else _no_phase
    try:
        workload = workloads.create(
            name, seed, scale, clock, lambda: counter.total, tracer
        )
        workload.tamper = set(tamper)
        with clock, workload.recording():
            setup_start = clock.reading()
            with phase("bench.setup"):
                workload.setup()
            setup_cpu = clock.since(setup_start)
            setup_samples = (setup_start[0], clock.now())
            before = dict(counter.by_cpu)
            wall = time.perf_counter()
            workload.marks.append((clock.now(), counter.total, clock.spent))
            with phase("bench.run"):
                workload.run()
            workload.marks.append((clock.now(), counter.total, clock.spent))
            run_wall_s = time.perf_counter() - wall
        steps_by_cpu = {
            cpu: steps - before.get(cpu, 0) for cpu, steps in counter.by_cpu.items()
        }
        result = workload.outcome(steps_by_cpu)
    finally:
        if tracer is not None:
            tracer.uninstall()
        counter.uninstall()
    slices, request_s = windows(workload.marks, workload.request_s, clock)
    run_start, run_end = workload.marks[0][0], workload.marks[-1][0]
    slowness = clock.slowness(run_start, run_end)
    result.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        setup_s=clock.reference(setup_cpu, clock.slowness(*setup_samples)),
        run_s=sum(window[0] for window in slices),
        run_wall_s=run_wall_s,
        slowness=slowness,
        request_s=request_s,
        cycle_s=[clock.reference(cycle, slowness) for cycle in result["cycle_s"]],
        windows=slices,
        steps=sum(steps_by_cpu.values()),
        digest=stats.digest(result["record"]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["spans_file"] = str(_write_spans(tracer, name, seed))
    return result


def windows(marks: list[tuple[float, int, float]], request_s: list[float],
            clock: hostclock.HostClock, count: int = WINDOWS):
    """Cut the measured phase into ``count`` slices at request starts.

    ``marks`` holds the phase start, each request start and the phase
    end as ``(CPU time, guest steps, calibration CPU)``.  Returns each
    slice as ``[reference seconds, guest steps, requests, slowness]``,
    scaled by the slowness measured in that slice, and every request's
    time in reference seconds, scaled by the slowness around its start.
    Rates taken per slice and then their median stay steady when the
    host slows down for part of a run.
    """
    requests = len(marks) - 2
    cuts = sorted({0, requests + 1} | {
        round(i * requests / count) + 1 for i in range(1, count)
    })
    slices = []
    for a, b in zip(cuts, cuts[1:]):
        slowness = clock.slowness(marks[a][0], marks[b][0])
        cpu = (marks[b][0] - marks[a][0]) - (marks[b][2] - marks[a][2])
        steps = marks[b][1] - marks[a][1]
        served = min(b - 1, requests) - max(a - 1, 0)
        slices.append([clock.reference(cpu, slowness), steps, served, slowness])
    scaled = [
        clock.reference(cpu, clock.local_slowness(mark[0]))
        for cpu, mark in zip(request_s, marks[1:])
    ]
    return slices, scaled


def _no_phase(name: str):
    return nullcontext()


def _write_spans(tracer: layers.LayerTracer, name: str, seed: int) -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-{seed}.jsonl"
    with open(path, "w") as handle:
        for record in tracer.spans:
            handle.write(json.dumps(record) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
