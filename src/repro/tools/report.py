"""Compile ``results/*.json`` into a single markdown experiment report.

Usage::

    python -m repro.tools.report [results_dir] > report.md

The campaign records write one JSON artifact per experiment; this
renderer turns whatever subset exists into tables, so a partial set of
runs still produces a useful report.  A record whose result has a
section here prints it, and EXPERIMENTS.md holds each section's
rendering of the committed results.
"""

from __future__ import annotations

import json
import pathlib
import sys


def _load(directory: pathlib.Path, name: str) -> dict | None:
    path = directory / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _table(headers: list[str], rows: list[list]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for __ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def _fig2(data: dict) -> str:
    rows = [
        [app, r["total_static_blocks"], r["executed_blocks"],
         r["unused_blocks"], r["init_only_blocks"]]
        for app, r in data.items()
    ]
    return "## Figure 2 — block liveness footprint\n\n" + _table(
        ["app", "total BBs", "executed", "unused", "init-only"], rows
    )


def _fig6(data: dict) -> str:
    rows = [
        [app, f"{r['image_bytes'] / 1e6:.2f}MB x{r['processes']}",
         f"{r['checkpoint']:.1f}", f"{r['disable code w/ int3']:.1f}",
         f"{r['insert sighandler']:.1f}", f"{r['restore']:.1f}",
         f"{r['total']:.1f}"]
        for app, r in data.items()
    ]
    return "## Figure 6 — feature-customization overhead (virtual ms)\n\n" + _table(
        ["app", "image", "checkpoint", "int3", "sighandler", "restore",
         "total"], rows
    )


def _fig7(data: dict) -> str:
    rows = [
        [app, r["init_blocks_removed"],
         f"{r['checkpoint_restore_ms']:.0f}", f"{r['code_update_ms']:.0f}",
         f"{r['total_ms']:.0f}"]
        for app, r in data.items()
    ]
    return "## Figure 7 — init-code removal (virtual ms)\n\n" + _table(
        ["app", "init BBs", "C/R", "code update", "total"], rows
    )


def _fig8(data: dict) -> str:
    with_dc = data["with_dynacut"]
    without = data["without_dynacut"]
    rows = [
        [f"{t:.0f}", f"{a:.0f}", f"{b:.0f}"]
        for (t, a), (__, b) in zip(with_dc, without)
    ]
    events = ", ".join(f"{ns / 1e9:.1f}s: {label}" for ns, label in data["events"])
    return ("## Figure 8 — throughput timeline (req/s)\n\n"
            + _table(["t (s)", "w/ DynaCut", "w/o"], rows)
            + f"\n\nrewrites: {events}")


def _fig9(data: dict) -> str:
    rows = [
        [app, r["total_static_blocks"], r["executed_blocks"],
         r["removed_blocks"], f"{r['removed_fraction']:.1%}"]
        for app, r in data.items()
    ]
    return "## Figure 9 — executed vs removed blocks\n\n" + _table(
        ["app", "total BBs", "executed", "removed", "removed %"], rows
    )


def _fig10(data: dict) -> str:
    rows = [
        [i, label, f"{fraction:.1%}", f"{data['razor']:.1%}",
         f"{data['chisel']:.1%}"]
        for i, (label, fraction) in enumerate(data["dynacut"])
    ]
    return "## Figure 10 — live blocks over time\n\n" + _table(
        ["slot", "phase", "DynaCut", "RAZOR", "CHISEL"], rows
    )


def _table1(data: dict) -> str:
    rows = [
        [cve, r["command"],
         "exploited" if r["vanilla_exploited"] else "survived",
         "mitigated" if r["dynacut_mitigated"] else "EXPLOITED"]
        for cve, r in data.items()
    ]
    return "## Table 1 — CVE mitigation\n\n" + _table(
        ["CVE", "command", "vanilla", "w/ DynaCut"], rows
    )


def _sec(data: dict) -> str:
    rows = [
        ["Nginx", data["nginx_plt"]["executed"], data["nginx_plt"]["removed"]],
        ["Lighttpd", data["lighttpd_plt"]["executed"],
         data["lighttpd_plt"]["removed"]],
    ]
    attack_rows = [
        ["ret2plt(fork)", data["vanilla"]["ret2plt_fork"],
         data["dynacut"]["ret2plt_fork"]],
        ["BROP feasible", data["vanilla"]["brop_feasible"],
         data["dynacut"]["brop_feasible"]],
    ]
    return ("## §4.2 — PLT removal and attacks\n\n"
            + _table(["app", "executed PLT", "removed"], rows)
            + "\n\n"
            + _table(["attack", "vanilla", "w/ DynaCut"], attack_rows))


#: the renderer of each result that has a section, by file stem
SECTIONS = {
    "fig2_footprint": _fig2,
    "fig6_feature_removal": _fig6,
    "fig7_init_removal": _fig7,
    "fig8_timeline": _fig8,
    "fig9_removed_blocks": _fig9,
    "fig10_live_blocks": _fig10,
    "table1_cves": _table1,
    "sec_plt_attacks": _sec,
}


def render(directory: pathlib.Path) -> str:
    """Render every available experiment artifact into markdown."""
    parts = ["# DynaCut reproduction — experiment report",
             f"\nsource: `{directory}`\n"]
    rendered = 0
    for name, formatter in SECTIONS.items():
        data = _load(directory, name)
        if data is None:
            continue
        parts.append(formatter(data))
        rendered += 1
    extras = sorted(
        p.stem for p in directory.glob("*.json")
        if p.stem not in SECTIONS
    )
    if extras:
        parts.append("## Additional artifacts\n\n" + "\n".join(
            f"- `{stem}.json`" for stem in extras
        ))
    if rendered == 0:
        parts.append("*(no experiment artifacts found — run "
                     "`python -m repro.tools.campaign NAME` first; "
                     "`--help` lists every record)*")
    return "\n\n".join(parts) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    directory = pathlib.Path(args[0]) if args else pathlib.Path("results")
    sys.stdout.write(render(directory))
    return 0


if __name__ == "__main__":
    sys.exit(main())
