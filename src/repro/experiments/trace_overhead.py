"""Per-request tracing on the Figure 8 timeline, in virtual time.

The single-kernel Figure 8 scenario (closed-loop GETs with a SET
trickle while DynaCut disables and re-enables SET under the verifier)
runs under a :class:`~repro.telemetry.RequestTracer`, and the traces
must be **honest**: every request satisfies the phase-sum accounting
identity, the rewrite events show up as ``rewrite-stall`` time, and
the post-disable SET shows up as a ``trap``.

What tracing costs in host time is measured by
``benchmarks/test_trace_overhead.py``, which runs this timeline traced
and untraced and writes the uncommitted
``results/trace_overhead_host.json``.
"""

from __future__ import annotations

import json
from argparse import Namespace
from collections.abc import Callable

from ..apps import REDIS_PORT
from ..core import BlockMode, DynaCut, TrapPolicy
from ..telemetry import RequestTracer, attribute_traces
from ..workloads import (
    SECOND_NS,
    RedisClient,
    TimelineEvent,
    TimelineResult,
    run_request_timeline,
)
from ..workloads.corpus import CORPORA, profile
from . import Pass, claims

DURATION_S = 12
DISABLE_AT_S = 3
ENABLE_AT_S = 8
SET_EVERY = 8


def timeline(
    tracer: RequestTracer | None,
) -> Callable[[], tuple[TimelineResult, int]]:
    """Boot and profile the world; returns the timeline, not yet run,
    which returns its result and the final virtual clock."""
    profiled = profile(CORPORA["figures-redis-set"])
    feature = profiled.feature
    kernel = profiled.kernel
    client = RedisClient(kernel, REDIS_PORT)
    client.set("hot", "value")
    state = {"proc": profiled.root, "requests": 0}
    dynacut = DynaCut(kernel)

    def disable():
        dynacut.disable_feature(
            state["proc"].pid, feature, policy=TrapPolicy.VERIFY,
            mode=BlockMode.ENTRY,
        )
        state["proc"] = dynacut.restored_process(state["proc"].pid)

    def enable():
        dynacut.enable_feature(state["proc"].pid, feature)
        state["proc"] = dynacut.restored_process(state["proc"].pid)

    events = [
        TimelineEvent(DISABLE_AT_S * SECOND_NS, "disable SET", disable),
        TimelineEvent(ENABLE_AT_S * SECOND_NS, "re-enable SET", enable),
    ]

    def request_once() -> bool:
        state["requests"] += 1
        if state["requests"] % SET_EVERY == 0:
            # post-disable, this traps into the verifier (which heals
            # the entry block) — the trap lands inside this request
            return client.set("hot", "value")
        return client.get("hot") == "value"

    def run() -> tuple[TimelineResult, int]:
        result = run_request_timeline(
            kernel, request_once, duration_ns=DURATION_S * SECOND_NS,
            bucket_ns=SECOND_NS, events=events,
            max_requests=100_000, tracer=tracer,
        )
        return result, kernel.clock_ns

    return run


def run(args: Namespace) -> Pass:
    tracer = RequestTracer()
    traced, __ = timeline(tracer)()
    summary = attribute_traces(tracer)["summary"]
    totals = summary["phase_totals_ns"]

    def shape() -> None:
        assert summary["requests"] == traced.total_requests
        assert summary["identity_violations"] == 0
        # the disable/enable rewrites were paid by specific requests...
        assert totals["rewrite-stall"] > 0
        # ...and the first post-disable SET trapped into the verifier
        assert totals["trap"] > 0
        assert summary["latency_ns"]["p99"] > 0

    results = {
        "requests": summary["requests"],
        "identity_violations": summary["identity_violations"],
        "phase_totals_ns": totals,
        "latency_ns": summary["latency_ns"],
    }
    return Pass({args.output: json.dumps(results, indent=2) + "\n"},
                failed=claims(shape))
