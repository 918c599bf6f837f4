"""The campaign runner shared by every seeded campaign CLI.

A campaign runs one isolated scenario per seed (or per seed and
variant), aggregates a ``clean`` verdict, optionally replays itself to
prove determinism, writes a JSON report and prints the verdict banner.
Every campaign goes through the telemetry layer:

* each campaign body runs under its **own fresh**
  :class:`~repro.telemetry.TelemetryHub` (so seeds cannot bleed
  metrics into each other) — the body receives the hub and binds it to
  its kernel's virtual clock;
* the committed JSON keeps summaries and per-campaign digests only;
  the **full event streams** go to an uncommitted ``<output>.jsonl``
  sidecar, one JSON event per line, from which
  :func:`~repro.telemetry.summarize_events` can rebuild every reported
  number;
* ``--check-determinism`` runs the whole campaign twice in one process
  and requires the committed report and a replay stream (the event
  sidecar, or trace_cli's span stream) to be byte-identical.  Nothing
  is warmed first: what a recording exports may not depend on
  process-wide cache state.

Keys of a campaign record that start with ``_`` are in-memory only
(e.g. trace_cli's per-request records for its figures); they are
neither compared nor committed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .. import telemetry
from ..telemetry import TelemetryHub, to_jsonl

#: one recorded run: its hub label and its body
Run = tuple[str, Callable[[TelemetryHub], dict]]


def run_recorded(
    label: str, body: Callable[[TelemetryHub], dict]
) -> tuple[dict, TelemetryHub]:
    """Run one campaign body under a fresh ambient telemetry hub.

    ``body`` receives the hub (bind its clock once the kernel exists)
    and returns the campaign record; a ``campaign`` digest event and a
    per-record telemetry digest are attached before returning.
    """
    hub = TelemetryHub()
    with telemetry.recording(hub):
        record = body(hub)
    hub.emit(
        "campaign", label,
        events=len(hub.events),
        ok=bool(record.get("ok", record.get("clean", True))),
    )
    record["telemetry"] = {
        "events": len(hub.events),
        "counters": {
            "dispatch": hub.registry.sum_counters("dispatch_total"),
            "failover": hub.registry.sum_counters("failover_total"),
            "journal_phases": hub.registry.sum_counters("journal_phase_total"),
            "supervisor_events": hub.registry.sum_counters(
                "supervisor_events_total"
            ),
        },
    }
    return record, hub


def events_sidecar(output: pathlib.Path) -> pathlib.Path:
    """The uncommitted full-event-stream path next to ``output``."""
    return output.with_suffix(".jsonl")


def write_results(
    output: pathlib.Path,
    payload: dict,
    hubs: list[TelemetryHub],
    clean: bool,
    banner: str = "",
) -> int:
    """Write the summary JSON + the JSONL event sidecar; print verdict.

    Returns the CLI exit code (0 clean, 1 violated).
    """
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    sidecar = events_sidecar(output)
    with open(sidecar, "w") as handle:
        for hub in hubs:
            handle.write(to_jsonl(hub))
    detail = f" {banner}" if banner else ""
    print(
        f"{'CLEAN' if clean else 'VIOLATED'}{detail} -> {output} "
        f"(events -> {sidecar})"
    )
    return 0 if clean else 1


def seed_range(args: argparse.Namespace) -> range:
    """``--seeds`` consecutive seeds from ``--seed-base``."""
    return range(args.seed_base, args.seed_base + args.seeds)


@dataclass
class Results:
    """One pass over a campaign's runs."""

    payload: dict
    hubs: list[TelemetryHub]
    #: what ``--check-determinism`` compares next to the report
    stream: str
    unit: str = "events"


def run_seeded(
    header: dict, runs: Iterable[Run], describe: Callable[[dict], str]
) -> Results:
    """Record every run under its own hub, printing one line per run.

    The report is ``header``, then the verdict over the runs' ``ok``
    flags, then the run records in order.
    """
    campaigns = []
    hubs = []
    for label, body in runs:
        campaign, hub = run_recorded(label, body)
        campaigns.append(campaign)
        hubs.append(hub)
        print(describe(campaign))
    payload = {
        **header,
        "clean": all(campaign["ok"] for campaign in campaigns),
        "campaigns_total": len(campaigns),
        "campaigns_ok": sum(1 for campaign in campaigns if campaign["ok"]),
        "campaigns": campaigns,
    }
    return Results(payload, hubs, "".join(to_jsonl(hub) for hub in hubs))


def committed(payload: dict) -> dict:
    """``payload`` without the campaigns' in-memory ``_`` keys."""
    return {
        **payload,
        "campaigns": [
            {k: v for k, v in campaign.items() if not k.startswith("_")}
            for campaign in payload["campaigns"]
        ],
    }


def finish(
    output: pathlib.Path,
    run: Callable[[], Results],
    replay: bool = False,
    artifacts: Callable[[Results], None] | None = None,
) -> int:
    """Run the campaign (twice with ``replay``) and write its results.

    Returns the CLI exit code: 1 when the replay diverged (nothing is
    written) or a run violated its invariants, 0 otherwise.
    """
    results = run()
    if replay:
        again = run()
        report_match = json.dumps(
            committed(results.payload), sort_keys=True
        ) == json.dumps(committed(again.payload), sort_keys=True)
        stream_match = results.stream == again.stream
        if not (report_match and stream_match):
            print("DETERMINISM VIOLATED: re-run diverged "
                  f"(report match={report_match}, "
                  f"{results.unit} match={stream_match})")
            return 1
        print(f"determinism: byte-identical re-export "
              f"({len(results.stream.splitlines())} {results.unit})")
    if artifacts is not None:
        artifacts(results)
    payload = committed(results.payload)
    return write_results(
        output, payload, results.hubs, payload["clean"],
        banner=f"({payload['campaigns_ok']}/{payload['campaigns_total']})",
    )
