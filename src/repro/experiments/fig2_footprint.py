"""Figure 2: memory footprint of executed / unused / init-only blocks.

The paper visualizes 605.mcf_s and Lighttpd: most static blocks are
never executed (gray), and a visible slice of the executed ones is
initialization-only (red).  This record regenerates the underlying
numbers and a block-liveness map of each.
"""

from __future__ import annotations

import json
from argparse import Namespace

from ..analysis import build_cfg
from ..tools import report
from ..tools.svgplot import GridMap
from ..workloads.corpus import CORPORA, profile
from . import Pass, claims


def _footprint(profiled):
    kernel = profiled.kernel
    binary = kernel.binaries[profiled.binary]
    cfg = build_cfg(binary)
    executed = {
        b.offset for b in profiled.init_trace.module_blocks(profiled.binary)
    } | {b.offset for b in profiled.serving_trace.module_blocks(profiled.binary)}
    init_only_starts = {b.offset for b in profiled.init_report.removed_blocks}
    rows = {
        "total_static_blocks": cfg.block_count,
        "executed_blocks": len(executed & cfg.block_starts()),
        "unused_blocks": len(cfg.block_starts() - executed),
        "init_only_blocks": len(init_only_starts),
    }
    return cfg, executed, init_only_starts, rows


def _liveness_map(label, cfg, executed, init_only) -> str:
    """One cell per static block: unused, executed or init-only."""
    cells = []
    for block in sorted(cfg.blocks):
        if block.start in init_only:
            cells.append("init")
        elif block.start in executed:
            cells.append("executed")
        else:
            cells.append("unused")
    return GridMap(
        title=f"Figure 2: {label} basic-block liveness",
        cells=cells,
        palette={"executed": "#1f77b4", "init": "#d62728",
                 "unused": "#cccccc"},
        legend={"executed": "executed", "init": "init-only",
                "unused": "never executed"},
    ).to_svg()


def run(args: Namespace) -> Pass:
    mcf = profile(CORPORA["figures-605.mcf_s-exit"])
    lighttpd = profile(CORPORA["figures-lighttpd"])

    results = {}
    files = {}
    for label, profiled in (("605.mcf_s", mcf), ("Lighttpd", lighttpd)):
        cfg, executed, init_only, stats = _footprint(profiled)
        results[label] = stats
        svg = args.output.with_name(f"fig2_{label.replace('.', '_')}.svg")
        files[svg] = _liveness_map(label, cfg, executed, init_only)

    def shape() -> None:
        # paper shape: a significant share of blocks never executes, and
        # the server has a visible init-only slice among the executed blocks
        for label, stats in results.items():
            assert stats["unused_blocks"] >= 0.15 * stats["total_static_blocks"], label
            assert stats["init_only_blocks"] > 0, label
        assert (
            results["Lighttpd"]["init_only_blocks"]
            > results["605.mcf_s"]["init_only_blocks"]
        ), "servers have more init-only code than the small compute kernel"

    return Pass(
        {args.output: json.dumps(results, indent=2), **files},
        report.SECTIONS["fig2_footprint"](results), claims(shape),
    )
