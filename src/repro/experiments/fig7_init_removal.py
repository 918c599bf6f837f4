"""Figure 7: overhead of removing initialization code from live processes.

Paper numbers: Lighttpd 0.93 s, Nginx 3.5 s, SPEC from 0.22 s (mcf, the
smallest) to 18 s (perlbench, the most init blocks), split into
checkpoint/restore vs code update — the code-update share grows with
the number of init-only blocks.
"""

from __future__ import annotations

import json
from argparse import Namespace

from ..core import DynaCut
from ..tools import report
from ..workloads.corpus import CORPORA, profile
from . import SPEC_EVALUATED, Pass, claims


def _remove_init(profiled):
    dynacut = DynaCut(profiled.kernel)
    removal = dynacut.remove_init_code(
        profiled.root.pid,
        profiled.binary,
        list(profiled.init_report.init_only),
        wipe=True,
    )
    # the process must survive the removal
    assert dynacut.restored_process(profiled.root.pid).alive
    return removal


def run(args: Namespace) -> Pass:
    results = {}
    for app, corpus in (("Lighttpd", "figures-lighttpd"),
                        ("Nginx", "figures-nginx"),
                        *((name, f"figures-{name}") for name in SPEC_EVALUATED)):
        profiled = profile(CORPORA[corpus])
        init_report = profiled.init_report
        removal = _remove_init(profiled)
        breakdown = removal.breakdown_ms()
        results[app] = {
            "init_blocks_removed": init_report.removable_count,
            "init_bytes_removed": init_report.removable_bytes(),
            "image_bytes": removal.image_bytes,
            "checkpoint_restore_ms": breakdown["checkpoint"] + breakdown["restore"],
            "code_update_ms": breakdown["disable code w/ int3"],
            "total_ms": breakdown["total"],
        }

    def shape() -> None:
        totals = {app: r["total_ms"] for app, r in results.items()}
        # paper shape: Nginx (2 processes, most init blocks of the servers)
        # costs more than Lighttpd
        assert totals["Nginx"] > totals["Lighttpd"]
        # perlbench is the most expensive SPEC case, mcf the cheapest
        spec_totals = {k: v for k, v in totals.items() if k.startswith(("6",))}
        assert max(spec_totals, key=spec_totals.get) == "600.perlbench_s"
        assert min(spec_totals, key=spec_totals.get) == "605.mcf_s"
        # code-update time is proportional to the removed block count:
        # perlbench has the most blocks AND the highest code-update share
        blocks = {app: r["init_blocks_removed"] for app, r in results.items()}
        updates = {app: r["code_update_ms"] for app, r in results.items()}
        assert max(blocks, key=blocks.get) == "600.perlbench_s"
        assert max(updates, key=updates.get) == "600.perlbench_s"
        ordered_by_blocks = sorted(blocks, key=blocks.get)
        ordered_by_update = sorted(updates, key=updates.get)
        assert ordered_by_blocks[-1] == ordered_by_update[-1]

    return Pass({args.output: json.dumps(results, indent=2)},
                report.SECTIONS["fig7_init_removal"](results), claims(shape))
