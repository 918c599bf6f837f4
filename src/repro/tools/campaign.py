"""The campaign registry and the one runner behind every committed result.

Each campaign is one :class:`Campaign` record in :data:`CAMPAIGNS`:
its name, the files it writes and one pass.  Every record's pass is
the ``run(args)`` of a :mod:`repro.experiments` module, whose
parameters are that module's constants.
``python -m repro.tools.campaign NAME`` runs any of them and writes
exactly the record's committed files; ``--output``, the one flag, moves
the first file, and the rest are written beside it.

* One pass returns a :class:`~repro.experiments.Pass`: the text of
  every file it writes, by path (report, figures and sidecars), what
  it prints, and the claim that failed, if any.  A record computes its
  result and checks its shape claims; the telemetry campaigns' passes
  come from :func:`~repro.experiments.recorded`, which records each
  run under its own hub and adds the event, metric and span sidecars.
* :func:`finish` runs **two** passes in one process and compares every
  file: when the replay diverges it exits 1 and writes nothing;
  otherwise it writes every file, and exits 1 when a claim failed.
  Nothing is warmed first, so what a pass returns may not depend on
  process-wide cache state.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from collections.abc import Callable
from dataclasses import dataclass

from ..experiments import (
    Pass,
    ablation,
    chaos_campaign,
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
    mesh_rollout,
    mesh_scaleout,
    sec_plt_and_attacks,
    shelve_campaign,
    shelve_debloat_retention,
    supervisor_chaos,
    supervisor_recovery,
    table1_cve_mitigation,
    telemetry_rollout,
    trace_attribution,
    trace_overhead,
    transaction_overhead,
)

Args = argparse.Namespace


@dataclass(frozen=True)
class Campaign:
    """One registered campaign."""

    name: str
    #: every committed file it writes: the report first (the default
    #: ``--output``), then the files written beside it
    files: tuple[str, ...]
    #: one pass, writing its report at ``args.output``
    run: Callable[[Args], Pass]


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
    Campaign("chaos", ("results/chaos_campaign.json",), chaos_campaign.run),
    Campaign("fleet-rollout", ("results/fleet_rollout.json",), fleet_rollout.run),
    Campaign("supervisor", ("results/supervisor_chaos.json",), supervisor_chaos.run),
    Campaign("shelve", ("results/shelve_campaign.json",), shelve_campaign.run),
    Campaign("telemetry", ("results/telemetry_rollout.json",
                           "results/telemetry_rollout_timeline.svg",
                           "results/telemetry_rollout_traps.svg",
                           "results/telemetry_rollout_costs.svg"), telemetry_rollout.run),
    Campaign("trace", ("results/trace_attribution.json",
                       "results/trace_latency_waterfall.svg",
                       "results/trace_p99_timeline.svg"), trace_attribution.run),
    Campaign("mesh", ("results/mesh_rollout.json",), mesh_rollout.run),
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
    Campaign("fleet-rollout-bench", ("results/fleet_rollout_bench.json",),
             fleet_rollout.run_bench),
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
        sub.add_parser(
            campaign.name, help=f"writes {', '.join(campaign.files)}"
        ).add_argument("--output", type=pathlib.Path,
                       default=pathlib.Path(campaign.files[0]))
    args = parser.parse_args(argv)
    return finish(CAMPAIGNS[args.campaign], args)


if __name__ == "__main__":
    sys.exit(main())
