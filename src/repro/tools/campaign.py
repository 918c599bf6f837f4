"""The campaign registry and the one runner behind every committed result.

Each campaign is one :class:`Campaign` record in :data:`CAMPAIGNS`:
its name, the files it writes, one pass, and its own flags.
``python -m repro.tools.campaign NAME [FLAGS]`` runs any of them; with
no flags it writes exactly the campaign's committed files, the first
at ``--output`` and the rest beside it.  The
``python -m repro.tools.<x>_cli`` commands are aliases that forward
their flags here.

* One pass returns a :class:`~repro.experiments.Pass`: the text of
  every file it writes, by path (report, figures and sidecars), what
  it prints, and the claim that failed, if any.  The records of
  :mod:`repro.experiments` compute their result and check its shape
  claims; the telemetry campaigns' passes come from :func:`recorded`.
* :func:`finish` runs **two** passes in one process and compares every
  file: when the replay diverges it exits 1 and writes nothing;
  otherwise it writes every file, and exits 1 when a claim failed.
  Nothing is warmed first, so what a pass returns may not depend on
  process-wide cache state.
* A recorded run's body runs under its **own fresh**
  :class:`~repro.telemetry.TelemetryHub` (so runs cannot bleed metrics
  into each other) and binds the hub to its kernel's clock.  The
  committed JSON report keeps summaries and per-run digests only; the
  full event streams go to an uncommitted ``<output>.jsonl`` sidecar,
  from which :func:`~repro.telemetry.summarize_events` can rebuild
  every reported number, every hub's Prometheus metrics to
  ``<output>.prom`` (one exposition: each family once, each sample
  labelled with its run), and the request spans a run returns as
  ``_spans`` to ``<output>.spans.jsonl``.  Other ``_`` keys of a run
  record are in-memory only too (e.g. trace's per-request records for
  its figures).
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
from ..experiments import (
    Pass,
    ablation,
    dynaflow_refinement,
    dynalint_refinement,
    ext_rerandomization,
    ext_syscall_specialization,
    fig2_footprint,
    fig6_feature_removal,
    fig7_init_removal,
    fig8_throughput_timeline,
    fig9_removed_blocks,
    fig10_live_blocks,
    fleet_rollout,
    mesh_scaleout,
    sec_plt_and_attacks,
    shelve_debloat_retention,
    supervisor_recovery,
    table1_cve_mitigation,
    trace_overhead,
    transaction_overhead,
)
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
    #: every committed file it writes: the report first (the default
    #: ``--output``), then the files written beside it
    files: tuple[str, ...]
    #: one pass for the parsed flags
    run: Callable[[Args], Pass]
    #: adds the campaign's own flags to its parser
    flags: Callable[[argparse.ArgumentParser], None] = lambda parser: None
    #: why the parsed flags cannot make a valid campaign, or None
    usage: Callable[[Args], str | None] | None = None


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
    runs: Callable[[Args], Iterable[Run]],
    describe: Callable[[dict], str],
    header: Callable[[Args], dict] | None = None,
    figures: Callable[[Results, pathlib.Path], dict[pathlib.Path, str]] | None = None,
) -> Callable[[Args], Pass]:
    """The pass of a telemetry campaign: its runs, each recorded under
    its own hub, then the report, sidecars and ``figures`` drawn from
    them, a line per run from ``describe``, and the runs' verdict."""

    def one_pass(args: Args) -> Pass:
        results = run_seeded(header(args) if header else {}, runs(args))
        files = results.exports(args.output)
        if figures is not None:
            files.update(figures(results, args.output))
        payload = results.payload
        total, ok = payload["campaigns_total"], payload["campaigns_ok"]
        return Pass(
            files,
            "\n".join(describe(record) for record in payload["campaigns"]),
            None if ok == total else f"{total - ok} of {total} runs violated",
        )

    return one_pass


def finish(campaign: Campaign, args: Args) -> int:
    """Run two passes of ``campaign``, then write every file of the first.

    Returns the exit code: 1 when the replay diverged (nothing is
    written) or a claim failed (after writing), 0 otherwise.
    """
    first = campaign.run(args)
    if first.text:
        print(first.text)
    replay = campaign.run(args)
    diverged = sorted(
        path.name for path in first.files.keys() | replay.files.keys()
        if first.files.get(path) != replay.files.get(path)
    )
    if first.failed != replay.failed:
        diverged.append("its verdict")
    if diverged:
        print(f"DETERMINISM VIOLATED: the replay diverged in "
              f"{', '.join(diverged)}; nothing written")
        return 1
    output: pathlib.Path = args.output
    beside = [output.with_name(pathlib.PurePath(name).name)
              for name in campaign.files[1:]]
    missing = [str(path) for path in (output, *beside) if path not in first.files]
    if missing:
        raise ValueError(f"{campaign.name}: a pass wrote no {', '.join(missing)}")
    print(f"determinism: byte-identical re-export of {len(first.files)} files")
    for path, text in first.files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    print(f"{'VIOLATED: ' + first.failed if first.failed else 'CLEAN'} -> "
          f"{', '.join(str(path) for path in first.files)}")
    return 1 if first.failed else 0


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
        recorded(chaos_cli.runs, chaos_cli.describe), chaos_cli.flags,
    ),
    Campaign(
        "fleet-rollout", ("results/fleet_rollout.json",),
        recorded(single("fleet-rollout", fleet_cli.run_rollout),
                 fleet_cli.describe_rollout),
        fleet_cli.rollout_flags,
    ),
    Campaign(
        "fleet-drift", ("results/fleet_drift.json",),
        recorded(single("fleet-drift", fleet_cli.run_drift),
                 fleet_cli.describe_drift),
        fleet_cli.drift_flags,
    ),
    Campaign(
        "supervisor", ("results/supervisor_chaos.json",),
        recorded(
            per_seed("supervisor", supervisor_cli.run_campaign),
            supervisor_cli.describe,
            header=lambda args: {
                "app": args.app, "size": args.size, "duration_s": args.duration,
            },
        ),
        supervisor_cli.flags,
    ),
    Campaign(
        "shelve", ("results/shelve_campaign.json",),
        recorded(shelve_cli.runs, shelve_cli.describe, shelve_cli.header),
        shelve_cli.flags, shelve_cli.usage,
    ),
    Campaign(
        "telemetry",
        (
            "results/telemetry_rollout.json",
            "results/telemetry_rollout_timeline.svg",
            "results/telemetry_rollout_traps.svg",
            "results/telemetry_rollout_costs.svg",
        ),
        recorded(telemetry_cli.runs, telemetry_cli.describe,
                 telemetry_cli.header, telemetry_cli.charts),
        telemetry_cli.flags, telemetry_cli.usage,
    ),
    Campaign(
        "trace",
        (
            "results/trace_attribution.json",
            "results/trace_latency_waterfall.svg",
            "results/trace_p99_timeline.svg",
        ),
        recorded(
            per_seed("trace", trace_cli.run_campaign), trace_cli.describe,
            lambda args: {**mesh_cli.header(args), "trap_policy": "verify"},
            trace_cli.render_figures,
        ),
        partial(mesh_cli.flags, seeds=2, seed_base=900), mesh_cli.usage,
    ),
    Campaign(
        "mesh", ("results/mesh_rollout.json",),
        recorded(per_seed("mesh", mesh_cli.run_campaign), mesh_cli.describe,
                 mesh_cli.header),
        partial(mesh_cli.flags, seeds=3, seed_base=700), mesh_cli.usage,
    ),
    Campaign("fig2", ("results/fig2_footprint.json", "results/fig2_605_mcf_s.svg",
                      "results/fig2_Lighttpd.svg"), fig2_footprint.run),
    Campaign("fig6", ("results/fig6_feature_removal.json",), fig6_feature_removal.run),
    Campaign("fig7", ("results/fig7_init_removal.json",), fig7_init_removal.run),
    Campaign("fig8", ("results/fig8_timeline.json", "results/fig8_timeline.svg"),
             fig8_throughput_timeline.run),
    Campaign("fig9", ("results/fig9_removed_blocks.json",), fig9_removed_blocks.run),
    Campaign("fig10", ("results/fig10_live_blocks.json", "results/fig10_live_blocks.svg"),
             fig10_live_blocks.run),
    Campaign("table1", ("results/table1_cves.json",), table1_cve_mitigation.run),
    Campaign("sec-plt-attacks", ("results/sec_plt_attacks.json",), sec_plt_and_attacks.run),
    Campaign("ablation", ("results/ablation_exec_dump.json",
                          "results/ablation_granularity.json", "results/ablation_modes.json",
                          "results/ablation_restore_vs_reinit.json"), ablation.run),
    Campaign("ext-rerandomization", ("results/ext_rerandomization.json",),
             ext_rerandomization.run),
    Campaign("ext-syscall-specialization", ("results/ext_syscall_specialization.json",),
             ext_syscall_specialization.run),
    Campaign("transaction-overhead", ("results/transaction_overhead.json",),
             transaction_overhead.run),
    Campaign("trace-overhead", ("results/trace_overhead.json",), trace_overhead.run),
    Campaign("fleet-rollout-bench", ("results/fleet_rollout_bench.json",), fleet_rollout.run),
    Campaign("supervisor-recovery", ("results/supervisor_recovery.json",),
             supervisor_recovery.run),
    Campaign("shelve-retention", ("results/shelve_retention.json",),
             shelve_debloat_retention.run),
    Campaign("mesh-scaleout", ("results/mesh_scaleout.json",), mesh_scaleout.run),
    Campaign("dynalint-refinement", ("results/dynalint_refinement.json",),
             dynalint_refinement.run),
    Campaign("dynaflow-refinement", ("results/dynaflow_refinement.json",),
             dynaflow_refinement.run),
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
