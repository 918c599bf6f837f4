"""The campaign registry and the one runner every campaign goes through.

Each campaign is one :class:`Campaign` record in :data:`CAMPAIGNS`:
its name, the files it writes, its runs, a one-line summary of each
run, its own flags and an optional figures hook.
``python -m repro.tools.campaign NAME [FLAGS]`` runs any of them; with
no flags it writes exactly the campaign's committed files.  The
``python -m repro.tools.<x>_cli`` commands are aliases that forward
their flags here.

* Each run's body runs under its **own fresh**
  :class:`~repro.telemetry.TelemetryHub` (so runs cannot bleed metrics
  into each other); the body binds the hub to its kernel's clock.
* The committed JSON report keeps summaries and per-run digests only.
  The full event streams go to an uncommitted ``<output>.jsonl``
  sidecar, from which :func:`~repro.telemetry.summarize_events` can
  rebuild every reported number, every hub's Prometheus metrics to
  ``<output>.prom`` (one exposition: each family once, each sample
  labelled with its run), and the request spans a run returns as
  ``_spans`` to ``<output>.spans.jsonl``.  Other ``_`` keys of a run record are
  in-memory only too (e.g. trace's per-request records for its
  figures).
* Every campaign runs **twice** in one process before anything is
  written: the replay must reproduce the report and every sidecar byte
  for byte, or the campaign exits 1 and writes nothing.  Nothing is
  warmed first, so what a recording exports may not depend on
  process-wide cache state.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial

from .. import telemetry
from ..telemetry import TelemetryHub, prometheus_runs, to_jsonl
from . import (
    chaos_cli,
    fleet_cli,
    mesh_cli,
    shelve_cli,
    supervisor_cli,
    telemetry_cli,
    trace_cli,
)

#: one recorded run: its hub label and its body
Run = tuple[str, Callable[[TelemetryHub], dict]]
Args = argparse.Namespace


@dataclass(frozen=True)
class Campaign:
    """One registered campaign."""

    name: str
    #: every committed file it writes: the JSON report first (the
    #: default ``--output``), then its figures, drawn next to the report
    files: tuple[str, ...]
    #: the labelled runs for the parsed flags, in report order
    runs: Callable[[Args], Iterable[Run]]
    #: the one-line summary printed for each run record
    describe: Callable[[dict], str]
    #: adds the campaign's own flags to its parser
    flags: Callable[[argparse.ArgumentParser], None]
    #: the report's leading keys, if any
    header: Callable[[Args], dict] | None = None
    #: why the parsed flags cannot make a valid campaign, or None
    usage: Callable[[Args], str | None] | None = None
    #: draws ``files[1:]`` (moved next to the report) from the results
    figures: Callable[[Results, list[pathlib.Path]], None] | None = None


def per_seed(prefix: str, body: Callable) -> Callable[[Args], list[Run]]:
    """Runs of ``body(args, seed, hub)``, one per ``--seeds`` seed."""
    return lambda args: [
        (f"{prefix}-{seed}", partial(body, args, seed))
        for seed in range(args.seed_base, args.seed_base + args.seeds)
    ]


def single(label: str, body: Callable) -> Callable[[Args], list[Run]]:
    """One run of ``body(args, hub)``."""
    return lambda args: [(label, partial(body, args))]


@dataclass
class Results:
    """One pass over a campaign's runs."""

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


def run_seeded(
    header: dict,
    runs: Iterable[Run],
    describe: Callable[[dict], str] | None = None,
) -> Results:
    """Record every run under its own hub, describing each in one line.

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
        if describe is not None:
            print(describe(record))
    payload = {
        **header,
        "clean": all(campaign["ok"] for campaign in campaigns),
        "campaigns_total": len(campaigns),
        "campaigns_ok": sum(1 for campaign in campaigns if campaign["ok"]),
        "campaigns": campaigns,
    }
    return Results(payload, hubs)


def finish(campaign: Campaign, args: Args) -> int:
    """Run ``campaign`` twice, then write its report, sidecars and figures.

    Returns the exit code: 1 when the replay diverged (nothing is
    written) or a run violated its invariants, 0 otherwise.
    """
    output: pathlib.Path = args.output
    header = campaign.header(args) if campaign.header else {}
    results = run_seeded(header, campaign.runs(args), campaign.describe)
    exports = results.exports(output)
    replayed = run_seeded(header, campaign.runs(args)).exports(output)
    diverged = sorted(
        path.name for path in exports.keys() | replayed.keys()
        if exports.get(path) != replayed.get(path)
    )
    if diverged:
        print(f"DETERMINISM VIOLATED: the replay diverged in "
              f"{', '.join(diverged)}; nothing written")
        return 1
    events = output.with_suffix(".jsonl")
    print(f"determinism: byte-identical re-export "
          f"({len(exports[events].splitlines())} events)")
    output.parent.mkdir(parents=True, exist_ok=True)
    for path, text in exports.items():
        path.write_text(text)
    if campaign.figures is not None:
        figures = [output.with_name(pathlib.PurePath(name).name)
                   for name in campaign.files[1:]]
        campaign.figures(results, figures)
        print(f"figures -> {', '.join(str(path) for path in figures)}")
    payload = results.payload
    print(f"{'CLEAN' if payload['clean'] else 'VIOLATED'} "
          f"({payload['campaigns_ok']}/{payload['campaigns_total']}) "
          f"-> {output} (events -> {events})")
    return 0 if payload["clean"] else 1


def registry(*campaigns: Campaign) -> dict[str, Campaign]:
    """The campaigns by name; no two may share a name or a file."""
    names = [campaign.name for campaign in campaigns]
    files = [path for campaign in campaigns for path in campaign.files]
    for label, values in (("named", names), ("both write", files)):
        shared = sorted({value for value in values if values.count(value) > 1})
        if shared:
            raise ValueError(f"two campaigns {label} {', '.join(shared)}")
    return dict(zip(names, campaigns))


CAMPAIGNS = registry(
    Campaign(
        "chaos", ("results/chaos_campaign.json",),
        chaos_cli.runs, chaos_cli.describe, chaos_cli.flags,
    ),
    Campaign(
        "fleet-rollout", ("results/fleet_rollout.json",),
        single("fleet-rollout", fleet_cli.run_rollout),
        fleet_cli.describe_rollout, fleet_cli.rollout_flags,
    ),
    Campaign(
        "fleet-drift", ("results/fleet_drift.json",),
        single("fleet-drift", fleet_cli.run_drift),
        fleet_cli.describe_drift, fleet_cli.drift_flags,
    ),
    Campaign(
        "supervisor", ("results/supervisor_chaos.json",),
        per_seed("supervisor", supervisor_cli.run_campaign),
        supervisor_cli.describe, supervisor_cli.flags,
        header=lambda args: {
            "app": args.app, "size": args.size, "duration_s": args.duration,
        },
    ),
    Campaign(
        "shelve", ("results/shelve_campaign.json",),
        shelve_cli.runs, shelve_cli.describe, shelve_cli.flags,
        header=shelve_cli.header, usage=shelve_cli.usage,
    ),
    Campaign(
        "telemetry",
        (
            "results/telemetry_rollout.json",
            "results/telemetry_rollout_timeline.svg",
            "results/telemetry_rollout_traps.svg",
            "results/telemetry_rollout_costs.svg",
        ),
        telemetry_cli.runs, telemetry_cli.describe, telemetry_cli.flags,
        header=telemetry_cli.header, usage=telemetry_cli.usage,
        figures=telemetry_cli.charts,
    ),
    Campaign(
        "trace",
        (
            "results/trace_attribution.json",
            "results/trace_latency_waterfall.svg",
            "results/trace_p99_timeline.svg",
        ),
        per_seed("trace", trace_cli.run_campaign), trace_cli.describe,
        partial(mesh_cli.flags, seeds=2, seed_base=900),
        header=lambda args: {**mesh_cli.header(args), "trap_policy": "verify"},
        usage=mesh_cli.usage, figures=trace_cli.render_figures,
    ),
    Campaign(
        "mesh", ("results/mesh_rollout.json",),
        per_seed("mesh", mesh_cli.run_campaign), mesh_cli.describe,
        partial(mesh_cli.flags, seeds=3, seed_base=700),
        header=mesh_cli.header, usage=mesh_cli.usage,
    ),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="campaign", description="Run one registered campaign."
    )
    sub = parser.add_subparsers(dest="campaign", required=True,
                                metavar="CAMPAIGN")
    for campaign in CAMPAIGNS.values():
        flags = sub.add_parser(
            campaign.name, help=f"writes {', '.join(campaign.files)}"
        )
        flags.add_argument("--output", type=pathlib.Path,
                           default=pathlib.Path(campaign.files[0]))
        campaign.flags(flags)
    args = parser.parse_args(argv)
    campaign = CAMPAIGNS[args.campaign]
    reason = campaign.usage(args) if campaign.usage else None
    if reason is not None:
        print(f"{campaign.name}: {reason}")
        return 2
    return finish(campaign, args)


def alias(name: str, argv: list[str] | None) -> int:
    """An old ``<x>_cli`` entry point: campaign ``name`` with its flags."""
    return main([name, *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
