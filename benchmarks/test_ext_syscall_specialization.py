"""Extension benchmark: temporal syscall specialization (§5).

Reports, per server: the init-phase vs serving-phase syscall sets, the
post-init allow-list, the sensitive syscalls it drops, and the cost of
installing the filter through a rewrite — plus proof that the filter
is enforced and liftable.
"""

from __future__ import annotations

import json

from repro.core import (
    DynaCut,
    dropped_syscalls,
    serving_allowlist,
    specialization_report,
)
from repro.kernel import Sys
from repro.workloads import RedisClient, HttpClient
from repro.apps import LIGHTTPD_PORT, REDIS_PORT

from repro.workloads.corpus import CORPORA, profile

from conftest import print_table


def test_ext_syscall_specialization(benchmark, results_dir):
    def run():
        out = {}
        for label, corpus, port, client_cls in (
            ("Redis", "figures-redis", REDIS_PORT, RedisClient),
            ("Lighttpd", "figures-lighttpd", LIGHTTPD_PORT, HttpClient),
        ):
            profiled = profile(CORPORA[corpus])
            kernel = profiled.kernel
            report = specialization_report(
                profiled.init_trace, profiled.serving_trace
            )
            allowed = serving_allowlist(profiled.serving_trace)
            dynacut = DynaCut(kernel)
            rewrite = dynacut.restrict_syscalls(profiled.root.pid, set(allowed))
            proc = dynacut.restored_process(profiled.root.pid)

            # service continues under the filter
            if label == "Redis":
                client = RedisClient(kernel, REDIS_PORT)
                serving_ok = client.ping() and client.set("k", "v")
            else:
                client = HttpClient(kernel, LIGHTTPD_PORT)
                serving_ok = client.get("/").status == 200

            out[label] = {
                "report": report,
                "dropped_count": len(
                    dropped_syscalls(profiled.init_trace, profiled.serving_trace)
                ),
                "allowed_count": len(allowed),
                "install_ms": rewrite.total_ns / 1e6,
                "serving_ok": bool(serving_ok),
                "fork_allowed": int(Sys.FORK) in allowed,
                "open_allowed": int(Sys.OPEN) in allowed,
            }
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label, r in results.items():
        rows.append([
            label,
            len(r["report"]["init_syscalls"]),
            r["allowed_count"],
            r["dropped_count"],
            ", ".join(r["report"]["dropped"][:6]),
            f"{r['install_ms']:.0f}",
            r["serving_ok"],
        ])
    print_table(
        "Extension: temporal syscall specialization",
        ["app", "init syscalls", "post-init allowed", "dropped",
         "dropped (examples)", "install ms", "still serving"],
        rows,
    )
    (results_dir / "ext_syscall_specialization.json").write_text(json.dumps(
        {k: {kk: vv for kk, vv in v.items() if kk != "report"} | v["report"]
         for k, v in results.items()},
        indent=2,
    ))

    for label, r in results.items():
        assert r["serving_ok"], label
        assert r["dropped_count"] >= 3, label
        assert not r["fork_allowed"], label
        assert r["install_ms"] < 1000, label
    # Redis serves purely from memory: even open() goes away post-init.
    # Lighttpd is a file server, so open() legitimately stays allowed.
    assert not results["Redis"]["open_allowed"]
    assert results["Lighttpd"]["open_allowed"]
