"""Figure 2: memory footprint of executed / unused / init-only blocks.

The paper visualizes 605.mcf_s and Lighttpd: most static blocks are
never executed (gray), and a visible slice of the executed ones is
initialization-only (red).  This bench regenerates the underlying
numbers and a coarse text rendering of the footprint map.
"""

from __future__ import annotations

import json

from repro.analysis import build_cfg
from repro.workloads.corpus import CORPORA, profile

from conftest import print_table


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


def _render_map(cfg, executed, init_only, columns: int = 64) -> str:
    """One character per static block: '.' unused, '#' executed, 'I' init."""
    cells = []
    for block in sorted(cfg.blocks):
        if block.start in init_only:
            cells.append("I")
        elif block.start in executed:
            cells.append("#")
        else:
            cells.append(".")
    return "\n".join(
        "".join(cells[i:i + columns]) for i in range(0, len(cells), columns)
    )


def test_fig2_memory_footprints(benchmark, results_dir):
    def run():
        mcf = profile(CORPORA["figures-605.mcf_s-exit"])
        lighttpd = profile(CORPORA["figures-lighttpd"])
        return mcf, lighttpd

    mcf, lighttpd = benchmark.pedantic(run, rounds=1, iterations=1)

    results = {}
    rows = []
    for label, profiled in (("605.mcf_s", mcf), ("Lighttpd", lighttpd)):
        cfg, executed, init_only, stats = _footprint(profiled)
        results[label] = stats
        rows.append([
            label,
            stats["total_static_blocks"],
            stats["executed_blocks"],
            stats["unused_blocks"],
            stats["init_only_blocks"],
            f"{stats['unused_blocks'] / stats['total_static_blocks']:.0%}",
        ])
        print(f"\n--- footprint map: {label} "
              "('.' unused, '#' executed, 'I' init-only) ---")
        print(_render_map(cfg, executed, init_only))

        from repro.tools.svgplot import GridMap

        cells = []
        for block in sorted(cfg.blocks):
            if block.start in init_only:
                cells.append("init")
            elif block.start in executed:
                cells.append("executed")
            else:
                cells.append("unused")
        GridMap(
            title=f"Figure 2: {label} basic-block liveness",
            cells=cells,
            palette={"executed": "#1f77b4", "init": "#d62728",
                     "unused": "#cccccc"},
            legend={"executed": "executed", "init": "init-only",
                    "unused": "never executed"},
        ).save(results_dir / f"fig2_{label.replace('.', '_')}.svg")

    print_table(
        "Figure 2: basic-block liveness footprint",
        ["app", "total BBs", "executed", "unused", "init-only", "unused %"],
        rows,
    )
    (results_dir / "fig2_footprint.json").write_text(json.dumps(results, indent=2))

    # paper shape: a significant share of blocks never executes, and the
    # server has a visible init-only slice among the executed blocks
    for label, stats in results.items():
        assert stats["unused_blocks"] >= 0.15 * stats["total_static_blocks"], label
        assert stats["init_only_blocks"] > 0, label
    assert (
        results["Lighttpd"]["init_only_blocks"]
        > results["605.mcf_s"]["init_only_blocks"]
    ), "servers have more init-only code than the small compute kernel"
