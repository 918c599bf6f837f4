"""The paper's evaluation (§4) and this repository's studies, as data.

Each module computes one committed result: a figure or table of the
paper, an ablation, a §5 extension, or a fleet, mesh, chaos, telemetry
or analysis study.  Its ``run(args)`` is one pass of its record in the
campaign registry (:mod:`repro.tools.campaign`), which runs it twice,
compares every file and then writes them::

    python -m repro.tools.campaign fig6

A record's parameters are its module's constants; ``args.output`` is
the one thing a run is given.  Wall-clock numbers in the paper are
testbed measurements; these records report the simulator's
*virtual-time* equivalents and check the paper's qualitative shape
(orderings, ratios, win/loss outcomes) rather than absolute values.
Each profiles its guests with a named corpus from
:mod:`repro.workloads.corpus`.

The telemetry campaigns' passes come from :func:`recorded`: each run
body runs under its **own fresh** :class:`~repro.telemetry.TelemetryHub`
(so runs cannot bleed metrics into each other) and binds the hub to
its kernel's clock.  The committed JSON report keeps summaries and
per-run digests only; the full event streams go to an uncommitted
``<output>.jsonl`` sidecar, from which
:func:`~repro.telemetry.summarize_events` can rebuild every reported
number, every hub's Prometheus metrics to ``<output>.prom`` (one
exposition: each family once, each sample labelled with its run), and
the request spans a run returns as ``_spans`` to
``<output>.spans.jsonl``.  Other ``_`` keys of a run record are
in-memory only too (e.g. trace's per-request records for its figures).
"""

from __future__ import annotations

import json
import pathlib
import traceback
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .. import telemetry
from ..telemetry import TelemetryHub, prometheus_runs, to_jsonl
from ..workloads.corpus import SPEC_ITERATIONS

#: benchmarks evaluated in Figures 7 and 9, each with a figures corpus
#: (602.gcc/657.xz analogues are excluded exactly as in the paper, which
#: could not trace them)
SPEC_EVALUATED = tuple(SPEC_ITERATIONS)


@dataclass(frozen=True)
class Pass:
    """One pass of a campaign."""

    #: the text of every file it writes, by path: its report, figures
    #: and sidecars
    files: dict[pathlib.Path, str]
    #: printed once, after the first pass: a line per run or a table
    text: str = ""
    #: the claim that failed, or None when every claim held
    failed: str | None = None


def claims(check: Callable[[], object]) -> str | None:
    """Run ``check``, whose asserts are a result's shape claims: None
    when every one holds, else the one that failed, where, and why."""
    if not __debug__:
        return "the shape claims are asserts, which python -O removes"
    try:
        check()
    except AssertionError as error:
        frame = traceback.extract_tb(error.__traceback__)[-1]
        reason = f" ({str(error).splitlines()[0]})" if str(error) else ""
        return (f"{pathlib.PurePath(frame.filename).name}:{frame.lineno}: "
                f"{frame.line}{reason}")
    return None


#: one recorded run: its hub label and its body
Run = tuple[str, Callable[[TelemetryHub], dict]]


@dataclass
class Results:
    """One pass over a campaign's recorded runs."""

    payload: dict
    #: each run's hub, by run label
    hubs: dict[str, TelemetryHub]

    def exports(self, output: pathlib.Path) -> dict[pathlib.Path, str]:
        """The report and its sidecars, by path: what a replay must match."""
        campaigns = self.payload["campaigns"]
        committed = {**self.payload, "campaigns": [
            {k: v for k, v in campaign.items() if not k.startswith("_")}
            for campaign in campaigns
        ]}
        exports = {
            output: json.dumps(committed, indent=2) + "\n",
            output.with_suffix(".jsonl"): "".join(
                to_jsonl(hub) for hub in self.hubs.values()
            ),
            output.with_suffix(".prom"): prometheus_runs(
                {label: hub.registry for label, hub in self.hubs.items()}
            ),
        }
        spans = "".join(campaign.get("_spans", "") for campaign in campaigns)
        if spans:
            exports[output.with_suffix(".spans.jsonl")] = spans
        return exports


def run_seeded(header: dict, runs: Iterable[Run]) -> Results:
    """Record every run under its own hub.

    A run's record gets a telemetry digest, and its hub a ``campaign``
    digest event.  The report is ``header``, then the verdict over the
    runs' ``ok`` flags, then the run records in order.
    """
    campaigns = []
    hubs = {}
    for label, body in runs:
        hub = hubs[label] = TelemetryHub()
        with telemetry.recording(hub):
            record = body(hub)
        hub.emit("campaign", label, events=len(hub.events),
                 ok=bool(record["ok"]))
        record["telemetry"] = {
            "events": len(hub.events),
            "counters": {
                "dispatch": hub.registry.sum_counters("dispatch_total"),
                "failover": hub.registry.sum_counters("failover_total"),
                "journal_phases": hub.registry.sum_counters(
                    "journal_phase_total"
                ),
                "supervisor_events": hub.registry.sum_counters(
                    "supervisor_events_total"
                ),
            },
        }
        campaigns.append(record)
    payload = {
        **header,
        "clean": all(campaign["ok"] for campaign in campaigns),
        "campaigns_total": len(campaigns),
        "campaigns_ok": sum(1 for campaign in campaigns if campaign["ok"]),
        "campaigns": campaigns,
    }
    return Results(payload, hubs)


def recorded(
    output: pathlib.Path,
    runs: Iterable[Run],
    describe: Callable[[dict], str],
    header: dict | None = None,
    figures: Callable[[Results, pathlib.Path], dict[pathlib.Path, str]] | None = None,
) -> Pass:
    """One pass of a telemetry campaign: its runs, each recorded under
    its own hub, then the report at ``output``, its sidecars and the
    ``figures`` drawn from them, a line per run from ``describe``, and
    the runs' verdict."""
    results = run_seeded(header or {}, runs)
    files = results.exports(output)
    if figures is not None:
        files.update(figures(results, output))
    payload = results.payload
    total, ok = payload["campaigns_total"], payload["campaigns_ok"]
    return Pass(
        files,
        "\n".join(describe(record) for record in payload["campaigns"]),
        None if ok == total else f"{total - ok} of {total} runs violated",
    )
