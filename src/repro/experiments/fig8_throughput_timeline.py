"""Figure 8: Redis throughput while DynaCut rewrites the live server.

The paper runs redis-benchmark GETs in a loop, disables SET at ~20 s,
re-enables it at ~48 s, and shows: (a) the server never dies, (b) each
rewrite costs only a sub-second dip, (c) throughput before, between,
and after the rewrites is indistinguishable from the vanilla server.
"""

from __future__ import annotations

import json
from argparse import Namespace

from ..apps import REDIS_PORT
from ..core import BlockMode, DynaCut, TrapPolicy
from ..tools import report
from ..tools.svgplot import LineChart
from ..workloads import SECOND_NS, RedisClient, TimelineEvent, run_request_timeline
from ..workloads.corpus import CORPORA, profile
from . import Pass, claims

DURATION_S = 30
DISABLE_AT_S = 8
ENABLE_AT_S = 20


def _timeline(with_dynacut: bool):
    profiled = profile(CORPORA["figures-redis-set"])
    feature = profiled.feature
    kernel = profiled.kernel
    client = RedisClient(kernel, REDIS_PORT)
    client.set("hot", "value")
    state = {"proc": profiled.root}

    events = []
    if with_dynacut:
        dynacut = DynaCut(kernel)

        def disable():
            dynacut.disable_feature(
                state["proc"].pid, feature, policy=TrapPolicy.REDIRECT,
                mode=BlockMode.ENTRY, redirect_symbol="redis_unknown_cmd",
            )
            state["proc"] = dynacut.restored_process(state["proc"].pid)

        def enable():
            dynacut.enable_feature(state["proc"].pid, feature)
            state["proc"] = dynacut.restored_process(state["proc"].pid)

        events = [
            TimelineEvent(DISABLE_AT_S * SECOND_NS, "disable SET", disable),
            TimelineEvent(ENABLE_AT_S * SECOND_NS, "re-enable SET", enable),
        ]

    def one_get() -> bool:
        try:
            return client.get("hot") == "value"
        except Exception:
            return False

    result = run_request_timeline(
        kernel, one_get, duration_ns=DURATION_S * SECOND_NS,
        bucket_ns=SECOND_NS, events=events,
        max_requests=100_000,
    )
    return result, state["proc"], client


def run(args: Namespace) -> Pass:
    dc_result, proc, client = _timeline(with_dynacut=True)
    base_result, *__ = _timeline(with_dynacut=False)

    dc_series = dc_result.throughput_series(SECOND_NS)
    base_series = base_result.throughput_series(SECOND_NS)
    results = {
        "with_dynacut": dc_series,
        "without_dynacut": base_series,
        "events": dc_result.events_fired,
    }

    chart = LineChart("Figure 8: Redis GET throughput under DynaCut",
                      "timeline (s)", "throughput (req/s)")
    chart.add_series("w/ DynaCut", dc_series)
    chart.add_series("w/o DynaCut", base_series, dashed=True)

    def shape() -> None:
        # (a) the server survived both rewrites and still serves
        assert proc.alive
        assert client.get("hot") == "value"
        assert dc_result.failed_requests == 0

        # (b) the SET feature really was toggled: disabled in the middle
        # window, working again at the end
        assert len(dc_result.events_fired) == 2

        # (c) steady-state throughput matches the vanilla run (±20%)
        def steady(series, lo, hi):
            values = [v for t, v in series if lo <= t < hi and v > 0]
            return sum(values) / len(values)

        for window in ((0, DISABLE_AT_S - 1), (DISABLE_AT_S + 2, ENABLE_AT_S - 1),
                       (ENABLE_AT_S + 2, DURATION_S)):
            dc_rate = steady(dc_series, *window)
            base_rate = steady(base_series, *window)
            assert abs(dc_rate - base_rate) / base_rate < 0.2, window

        # (d) each rewrite shows up as a dip in its bucket: the rewrite
        # buckets are the minima of the DynaCut series
        dc_values = [v for __, v in dc_series]
        dip_buckets = sorted(range(len(dc_values)), key=lambda i: dc_values[i])[:2]
        assert set(dip_buckets) <= {
            DISABLE_AT_S - 1, DISABLE_AT_S, DISABLE_AT_S + 1,
            ENABLE_AT_S - 1, ENABLE_AT_S, ENABLE_AT_S + 1,
        }, dip_buckets

    return Pass(
        {
            args.output: json.dumps(results, indent=2),
            args.output.with_name("fig8_timeline.svg"): chart.to_svg(),
        },
        report.SECTIONS["fig8_timeline"](results), claims(shape),
    )
