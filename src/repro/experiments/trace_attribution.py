"""Tail-latency attribution for a rollout under chaos.

Runs the mesh host-crash scenario (:class:`.mesh_rollout.HostCrash`:
shard-by-shard SET-removal rollout, one whole-host crash
mid-its-own-rollout) with **per-request tracing** on and the
``verify`` trap policy, so post-rollout SET traffic traps into the
verifier and the traps land inside specific requests' span trees.
The committed report decomposes every request's wall time into the
phase vocabulary of :mod:`repro.telemetry.trace` and pins the
identities the observability layer promises:

* **per-request accounting** — for every trace, the structurally
  recomputed phase decomposition equals the live accounting and sums
  exactly to ``wall_ns`` (:func:`~repro.telemetry.attribute_traces`);
* **count identity** — traced requests == the frontend's ``issued``
  delta over the workload, and the traced outcome tags reproduce the
  ``served / failed_over / shed`` split exactly;
* **causality windows** — ``rewrite-stall`` time appears only in
  traces that actually carried a rollout step, ``trap`` time appears
  only between the first rollout step and the end-of-run heal sweep
  (which SETs through every replica so every shelved block heals at a
  known offset), and both are non-zero somewhere inside their windows;
* **tail latency** — p50/p95/p99 are exact nearest-rank percentiles
  over per-request ``wall_ns`` values, not bucket interpolations.

This is the ``trace`` record, whose replay requires the committed
report *and the full span stream* to be byte-identical.
"""

from __future__ import annotations

import pathlib
from argparse import Namespace
from functools import partial

from ..telemetry import (
    PHASES,
    RequestTracer,
    TelemetryHub,
    attribute_traces,
    percentile,
    to_trace_jsonl,
)
from ..tools.svgplot import LineChart, StackedBarChart
from ..workloads import SECOND_NS, TimelineEvent
from . import Pass, Results, recorded
from .mesh_rollout import HEADER, SHARDS, HostCrash, workload_record

SEEDS = range(900, 902)
#: every Nth workload request is a SET (the post-rollout trap driver)
SET_EVERY = 8


def campaign_schedule(shards: int, target: int) -> dict[str, float]:
    """The virtual-time plan (seconds) for one traced campaign.

    :class:`~.mesh_rollout.HostCrash` fixes the rollout steps at
    ``2k+0.25`` / ``2k+1.25``, supervision ticks forced on the 3 s marks
    and the crash at ``2·target+0.5``; this plan appends a **heal
    sweep** strictly after both the last rollout step and the first
    tick that can recover the crashed host, so every trap (including
    re-heal traps against the recovered host's committed images) lands
    before the sweep.
    """
    last_step = 2 * (shards - 1) + 1.25
    crash = 2 * target + 0.5
    recovery_tick = (int(crash) // 3 + 1) * 3
    heal = max(last_step, float(recovery_tick)) + 1
    return {
        "last_step_s": last_step,
        "crash_s": crash,
        "recovery_tick_s": float(recovery_tick),
        "heal_s": heal,
        "duration_s": heal + 3,
    }


def window_checks(records: list[dict], spans_by_trace: dict[int, list]) -> dict:
    """Causality windows over the trace list, by trace index.

    Requests are traced in issue order, so "before the first rollout
    step" and "after the heal sweep" are index ranges: the stall spans
    carrying the rollout-step / heal-sweep labels pin the boundaries.
    """
    def stall_labels(trace_id: int) -> list[str]:
        return [
            str(span.attrs.get("label", ""))
            for span in spans_by_trace.get(trace_id, [])
            if span.name == "stall"
        ]

    step_indices = [
        index for index, record in enumerate(records)
        if any(
            label.startswith("rollout-step")
            for label in stall_labels(record["trace_id"])
        )
    ]
    heal_indices = [
        index for index, record in enumerate(records)
        if "heal-sweep" in stall_labels(record["trace_id"])
    ]
    if not step_indices or len(heal_indices) != 1:
        return {
            "ok": False,
            "reason": "rollout-step or heal-sweep stalls missing from traces",
        }
    first_step, last_step = step_indices[0], step_indices[-1]
    heal = heal_indices[0]

    def phase(record: dict, name: str) -> int:
        return int(record["phases"].get(name, 0))

    trap_before = sum(phase(r, "trap") for r in records[:first_step])
    trap_after = sum(phase(r, "trap") for r in records[heal + 1:])
    trap_inside = sum(phase(r, "trap") for r in records[first_step:heal + 1])
    stall_outside = sum(
        phase(r, "rewrite-stall")
        for i, r in enumerate(records)
        if not first_step <= i <= last_step
    )
    stall_inside = sum(
        phase(r, "rewrite-stall") for r in records[first_step:last_step + 1]
    )
    return {
        "ok": (
            trap_before == 0 and trap_after == 0 and trap_inside > 0
            and stall_outside == 0 and stall_inside > 0
        ),
        "first_step_index": first_step,
        "last_step_index": last_step,
        "heal_index": heal,
        "trap_ns": {
            "before_window": trap_before,
            "inside_window": trap_inside,
            "after_heal": trap_after,
        },
        "rewrite_stall_ns": {
            "inside_window": stall_inside,
            "outside_window": stall_outside,
        },
    }


def run_seed(seed: int, hub: TelemetryHub, shards: int = SHARDS) -> dict:
    scenario = HostCrash(seed, hub, shards, trap_policy="verify")
    schedule = campaign_schedule(shards, scenario.target)
    mesh, frontend, keys = scenario.mesh, scenario.frontend, scenario.keys
    # one SET into every live replica, bypassing the frontend: every
    # still-shelved block heals here, so traps cannot outlive this
    # event (and issued-count accounting is untouched)
    heal_sweep = TimelineEvent(
        at_ns=int(schedule["heal_s"] * SECOND_NS), label="heal-sweep",
        action=lambda: mesh.probe_replicas("SET __heal__ 1"),
    )

    request_index = 0

    def request_once() -> bool:
        nonlocal request_index
        request_index += 1
        key = keys[request_index % len(keys)]
        if request_index % SET_EVERY == 0:
            # a write against the (eventually removed) SET path: after
            # the owning shard's rollout this traps into the verifier
            return mesh.store(key, f"update-{request_index}")
        return mesh.wanted_request(key=key)

    # snapshot the accounting counters: the workload's traced requests
    # are exactly the issued delta from here
    issued_before = frontend.issued
    counters_before = {
        "served": frontend.served,
        "failed_over": frontend.failed_over,
        "shed": frontend.shed,
    }

    tracer = RequestTracer()
    timeline = scenario.run(
        request_once, schedule["duration_s"], [heal_sweep], tracer
    )
    plan = scenario.plan

    stats = frontend.stats()
    attribution = attribute_traces(tracer)
    records = attribution["requests"]
    summary = attribution["summary"]

    # count identity: every issued request was traced, with the same
    # outcome split the frontend accounted
    issued_delta = stats["issued"] - issued_before
    outcome_deltas = {
        outcome: stats[outcome] - counters_before[outcome]
        for outcome in ("served", "failed_over", "shed")
    }
    traced_outcomes = {
        outcome: summary["outcomes"].get(outcome, 0)
        for outcome in ("served", "failed_over", "shed")
    }
    count_identity_ok = (
        len(records) == issued_delta == timeline.total_requests
        and traced_outcomes == outcome_deltas
    )

    spans_by_trace: dict[int, list] = {}
    for span in tracer.spans():
        spans_by_trace.setdefault(span.trace_id, []).append(span)
    windows = window_checks(records, spans_by_trace)

    walls = tracer.request_walls()
    ok = (
        stats["accounted"]
        and not timeline.errors
        and summary["identity_violations"] == 0
        and count_identity_ok
        and windows["ok"]
        and summary["latency_ns"] is not None
        and summary["latency_ns"]["p99"] > 0
        and all(not ctx.unmatched_traps for ctx in tracer.traces)
        and mesh.settled
        and plan.fired == 1
        and plan.consistent_with_plan()
    )
    return {
        "seed": seed,
        "crashed_shard": scenario.crashed,
        "schedule_s": schedule,
        "ok": ok,
        "accounted": stats["accounted"],
        "count_identity_ok": count_identity_ok,
        "identity_violations": summary["identity_violations"],
        "windows": windows,
        "settled": mesh.settled,
        "faults_fired": plan.fired,
        "traced": {
            "requests": len(records),
            "issued_delta": issued_delta,
            "outcomes": traced_outcomes,
            "frontend_outcome_deltas": outcome_deltas,
            "traps": sum(record["traps"] for record in records),
            "hops": sum(record["hops"] for record in records),
        },
        "latency_ns": summary["latency_ns"],
        "p99_timeline": p99_timeline(records, walls),
        "phase_totals_ns": summary["phase_totals_ns"],
        "frontend": stats,
        "workload": workload_record(timeline),
        "_records": records,
        "_spans": to_trace_jsonl(tracer),
    }


def p99_timeline(records: list[dict], walls: list[int]) -> list[dict]:
    """Rolling per-second p99 over per-request walls (plot substrate)."""
    by_second: dict[int, list[int]] = {}
    for record, wall in zip(records, walls):
        by_second.setdefault(record["start_ns"] // SECOND_NS, []).append(wall)
    return [
        {
            "second": second,
            "requests": len(values),
            "p99_ns": percentile(values, 0.99),
        }
        for second, values in sorted(by_second.items())
    ]


def figures(results: Results, output: pathlib.Path) -> dict[pathlib.Path, str]:
    """The first seed's latency waterfall and p99 timeline, beside ``output``."""
    campaign = results.payload["campaigns"][0]
    waterfall = StackedBarChart(
        title=(
            f"Slowest requests by phase (seed {campaign['seed']}, "
            f"crash {campaign['crashed_shard']})"
        ),
        x_label="trace id",
        y_label="wall time (ms)",
        categories=list(PHASES),
    )
    slowest = sorted(
        campaign["_records"], key=lambda r: r["wall_ns"], reverse=True
    )[:12]
    for record in sorted(slowest, key=lambda r: r["trace_id"]):
        waterfall.add_bar(
            str(record["trace_id"]),
            {
                phase: ns / 1e6
                for phase, ns in record["phases"].items()
            },
        )

    timeline = LineChart(
        title=f"Per-second p99 request wall time (seed {campaign['seed']})",
        x_label="virtual time (s)",
        y_label="p99 wall (ms)",
    )
    timeline.add_series(
        "p99",
        [
            (point["second"], point["p99_ns"] / 1e6)
            for point in campaign["p99_timeline"]
        ],
    )
    return {
        output.with_name("trace_latency_waterfall.svg"): waterfall.to_svg(),
        output.with_name("trace_p99_timeline.svg"): timeline.to_svg(),
    }


def describe(campaign: dict) -> str:
    return (
        f"seed {campaign['seed']} [crash {campaign['crashed_shard']}] "
        f"{'ok' if campaign['ok'] else 'VIOLATED'}: "
        f"{campaign['traced']['requests']} traced "
        f"({campaign['traced']['traps']} traps, "
        f"{campaign['traced']['hops']} hops), "
        f"{campaign['identity_violations']} identity violations, "
        f"p99 {campaign['latency_ns']['p99'] / 1e6:.2f} ms"
    )


def run(args: Namespace) -> Pass:
    return recorded(
        args.output,
        [(f"trace-{seed}", partial(run_seed, seed)) for seed in SEEDS],
        describe,
        {**HEADER, "trap_policy": "verify"},
        figures,
    )
