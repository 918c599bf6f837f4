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
from argparse import Namespace

from ..analysis import executed_plt_entries, plt_entries_in_blocks
from ..apps import NGINX_PORT, nginx_worker
from ..attacks import PROBES_REQUIRED, attempt_ret2plt, live_workers, run_brop
from ..core import DynaCut
from ..tools import report
from ..tracing import merge_traces
from ..workloads import HttpClient
from ..workloads.corpus import CORPORA, profile
from . import Pass, claims


def _plt_stats(profiled):
    binary = profiled.kernel.binaries[profiled.binary]
    executed = executed_plt_entries(
        binary, merge_traces([profiled.init_trace, profiled.serving_trace])
    )
    removed = plt_entries_in_blocks(
        binary, list(profiled.init_report.init_only)
    ) & executed
    return executed, removed


def run(args: Namespace) -> Pass:
    nginx = profile(CORPORA["figures-nginx"])
    lighttpd = profile(CORPORA["figures-lighttpd"])
    nginx_stats = _plt_stats(nginx)
    lighttpd_stats = _plt_stats(lighttpd)

    # vanilla attack outcomes
    kernel = nginx.kernel
    binary = kernel.binaries[nginx.binary]
    worker = nginx_worker(kernel, nginx.root)
    vanilla_ret2plt = attempt_ret2plt(kernel, worker, binary, "fork")
    # the hijacked worker died; let the master reap and respawn before
    # the next attack begins
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

    results = {
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
    }

    def shape() -> None:
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

    return Pass({args.output: json.dumps(results, indent=2)},
                report.SECTIONS["sec_plt_attacks"](results), claims(shape))
