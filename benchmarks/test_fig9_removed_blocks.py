"""Figure 9: executed vs removed basic blocks per application.

For each of the nine applications the paper reports: total static
blocks (Angr), executed blocks (drcov), init-only blocks removed, code
size, and the size of removed init code.  Headline claims: up to 56%
of executed blocks removed for Nginx, ~46% for Lighttpd, and 8.4-41.4%
(mean 22.3%) across SPEC with perlbench at the top.
"""

from __future__ import annotations

import json

from repro.analysis import build_cfg
from repro.workloads.corpus import CORPORA, profile

from conftest import SPEC_EVALUATED, print_table


def test_fig9_removed_block_counts(benchmark, results_dir):
    def run():
        out = {}
        out["Lighttpd"] = profile(CORPORA["figures-lighttpd"])
        out["Nginx"] = profile(CORPORA["figures-nginx"])
        for name in SPEC_EVALUATED:
            out[name] = profile(CORPORA[f"figures-{name}-exit"])
        return out

    profiles = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    results = {}
    for app, profiled in profiles.items():
        binary = profiled.kernel.binaries[profiled.binary]
        report = profiled.init_report
        total_static = build_cfg(binary).block_count
        fraction = report.removable_fraction
        rows.append([
            app,
            total_static,
            report.total_executed,
            report.removable_count,
            f"{fraction:.1%}",
            f"{binary.code_size() / 1024:.1f}KB",
            f"{report.removable_bytes() / 1024:.2f}KB",
        ])
        results[app] = {
            "total_static_blocks": total_static,
            "executed_blocks": report.total_executed,
            "removed_blocks": report.removable_count,
            "removed_fraction": fraction,
            "code_size": binary.code_size(),
            "init_code_removed": report.removable_bytes(),
        }

    print_table(
        "Figure 9: executed vs removed basic blocks",
        ["app", "total BBs", "executed", "removed", "removed %",
         "code size", "init code rm"],
        rows,
    )
    (results_dir / "fig9_removed_blocks.json").write_text(
        json.dumps(results, indent=2)
    )

    # paper shape assertions
    fractions = {app: r["removed_fraction"] for app, r in results.items()}
    # servers: a large share of executed code is init-only (paper: 46-56%)
    assert fractions["Nginx"] > 0.3
    assert fractions["Lighttpd"] > 0.3
    # SPEC: nontrivial but smaller, with perlbench at the top
    spec = {k: v for k, v in fractions.items() if k[0].isdigit()}
    assert max(spec, key=spec.get) == "600.perlbench_s"
    assert all(0.03 < v < 0.75 for v in spec.values()), spec
    # every app: executed <= total static blocks, removed <= executed
    for app, r in results.items():
        assert r["executed_blocks"] <= r["total_static_blocks"], app
        assert r["removed_blocks"] <= r["executed_blocks"], app
