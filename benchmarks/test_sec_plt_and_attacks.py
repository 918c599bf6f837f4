"""§4.2 attack-surface reduction: PLT-entry removal, ret2plt, BROP.

Paper claims reproduced here:

* init-code removal also removes *executed* PLT entries that are only
  used during initialization (43/56 for Nginx, 33/57 for Lighttpd);
* the ``fork`` PLT entry is among the removed ones, so a ret2plt pivot
  into ``fork@plt`` kills the worker instead of spawning a process;
* BROP needs the master's respawn-after-crash behaviour; with the
  post-init fork path wiped, the first crash probe ends the service
  and the brute force is infeasible.
"""

from __future__ import annotations

import json

from repro.analysis import executed_plt_entries, plt_entries_in_blocks
from repro.apps import NGINX_PORT, nginx_worker
from repro.attacks import PROBES_REQUIRED, attempt_ret2plt, run_brop
from repro.core import DynaCut
from repro.tracing import merge_traces
from repro.workloads import HttpClient
from repro.workloads.corpus import CORPORA, profile

from conftest import print_table


def _plt_stats(profiled):
    binary = profiled.kernel.binaries[profiled.binary]
    executed = executed_plt_entries(
        binary, merge_traces([profiled.init_trace, profiled.serving_trace])
    )
    removed = plt_entries_in_blocks(
        binary, list(profiled.init_report.init_only)
    ) & executed
    return executed, removed


def test_sec_plt_entry_removal_and_attacks(benchmark, results_dir):
    def run():
        nginx = profile(CORPORA["figures-nginx"])
        lighttpd = profile(CORPORA["figures-lighttpd"])
        nginx_stats = _plt_stats(nginx)
        lighttpd_stats = _plt_stats(lighttpd)

        # vanilla attack outcomes
        kernel = nginx.kernel
        binary = kernel.binaries[nginx.binary]
        worker = nginx_worker(kernel, nginx.root)
        vanilla_ret2plt = attempt_ret2plt(kernel, worker, binary, "fork")
        # the hijacked worker died; let the master reap and respawn
        # before the next attack begins
        from repro.attacks import live_workers

        kernel.run_until(
            lambda: bool(live_workers(kernel, nginx.root.pid)),
            max_instructions=4_000_000,
        )
        vanilla_brop = run_brop(
            kernel, nginx.root, NGINX_PORT, probes=PROBES_REQUIRED
        )

        # customized instance
        nginx2 = profile(CORPORA["figures-nginx"])
        dynacut = DynaCut(nginx2.kernel)
        dynacut.remove_init_code(
            nginx2.root.pid, nginx2.binary,
            list(nginx2.init_report.init_only), wipe=True,
        )
        master = dynacut.restored_process(nginx2.root.pid)
        assert HttpClient(nginx2.kernel, NGINX_PORT).get("/").status == 200
        binary2 = nginx2.kernel.binaries[nginx2.binary]
        worker2 = nginx_worker(nginx2.kernel, master)
        cut_ret2plt = attempt_ret2plt(nginx2.kernel, worker2, binary2, "fork")
        cut_brop = run_brop(
            nginx2.kernel, master, NGINX_PORT, probes=PROBES_REQUIRED
        )
        return (nginx_stats, lighttpd_stats, vanilla_ret2plt, vanilla_brop,
                cut_ret2plt, cut_brop)

    (nginx_stats, lighttpd_stats, vanilla_ret2plt, vanilla_brop,
     cut_ret2plt, cut_brop) = benchmark.pedantic(run, rounds=1, iterations=1)

    plt_rows = []
    for app, (executed, removed) in (("Nginx", nginx_stats),
                                     ("Lighttpd", lighttpd_stats)):
        plt_rows.append([
            app, len(executed), len(removed),
            f"{len(removed) / len(executed):.0%}",
            ", ".join(sorted(removed)[:6]) + ("..." if len(removed) > 6 else ""),
        ])
    print_table(
        "§4.2: executed PLT entries removed by init-code removal",
        ["app", "executed PLT", "removed", "share", "examples"],
        plt_rows,
    )

    attack_rows = [
        ["ret2plt(fork)", "fork invoked" if vanilla_ret2plt.attack_succeeded
         else "blocked",
         "fork invoked" if cut_ret2plt.attack_succeeded else "blocked"],
        ["BROP", f"feasible ({vanilla_brop.respawns_observed} respawns)"
         if vanilla_brop.feasible else "infeasible",
         f"feasible ({cut_brop.respawns_observed} respawns)"
         if cut_brop.feasible else "infeasible"],
    ]
    print_table(
        "§4.2: attack outcomes (vanilla vs DynaCut-customized Nginx)",
        ["attack", "vanilla", "w/ DynaCut"],
        attack_rows,
    )
    (results_dir / "sec_plt_attacks.json").write_text(json.dumps({
        "nginx_plt": {"executed": len(nginx_stats[0]),
                      "removed": len(nginx_stats[1]),
                      "removed_names": sorted(nginx_stats[1])},
        "lighttpd_plt": {"executed": len(lighttpd_stats[0]),
                         "removed": len(lighttpd_stats[1]),
                         "removed_names": sorted(lighttpd_stats[1])},
        "vanilla": {"ret2plt_fork": vanilla_ret2plt.attack_succeeded,
                    "brop_feasible": vanilla_brop.feasible},
        "dynacut": {"ret2plt_fork": cut_ret2plt.attack_succeeded,
                    "brop_feasible": cut_brop.feasible},
    }, indent=2))

    # paper shape: a substantial share of executed PLT entries goes away
    for app, (executed, removed) in (("Nginx", nginx_stats),
                                     ("Lighttpd", lighttpd_stats)):
        assert len(removed) >= 0.25 * len(executed), app
    # fork is among the removed Nginx entries (the BROP-critical one)
    assert "fork" in nginx_stats[1]
    # attack outcomes flip
    assert vanilla_ret2plt.attack_succeeded
    assert not cut_ret2plt.attack_succeeded
    assert vanilla_brop.feasible
    assert not cut_brop.feasible
