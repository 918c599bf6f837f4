"""Figure 9: executed vs removed basic blocks per application.

For each of the nine applications the paper reports: total static
blocks (Angr), executed blocks (drcov), init-only blocks removed, code
size, and the size of removed init code.  Headline claims: up to 56%
of executed blocks removed for Nginx, ~46% for Lighttpd, and 8.4-41.4%
(mean 22.3%) across SPEC with perlbench at the top.
"""

from __future__ import annotations

import json
from argparse import Namespace

from ..analysis import total_basic_blocks
from ..tools import report
from ..workloads.corpus import CORPORA, profile
from . import SPEC_EVALUATED, Pass, claims


def run(args: Namespace) -> Pass:
    corpora = {"Lighttpd": "figures-lighttpd", "Nginx": "figures-nginx"}
    corpora.update((name, f"figures-{name}-exit") for name in SPEC_EVALUATED)
    profiles = {app: profile(CORPORA[corpus]) for app, corpus in corpora.items()}

    results = {}
    for app, profiled in profiles.items():
        binary = profiled.kernel.binaries[profiled.binary]
        init_report = profiled.init_report
        results[app] = {
            "total_static_blocks": total_basic_blocks(binary),
            "executed_blocks": init_report.total_executed,
            "removed_blocks": init_report.removable_count,
            "removed_fraction": init_report.removable_fraction,
            "code_size": binary.code_size(),
            "init_code_removed": init_report.removable_bytes(),
        }

    def shape() -> None:
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

    return Pass({args.output: json.dumps(results, indent=2)},
                report.SECTIONS["fig9_removed_blocks"](results), claims(shape))
