"""Extension: temporal syscall specialization (§5).

Reports, per server: the init-phase vs serving-phase syscall sets, the
post-init allow-list, the sensitive syscalls it drops, and the cost of
installing the filter through a rewrite — plus proof that the filter
is enforced and liftable.
"""

from __future__ import annotations

import json
from argparse import Namespace

from ..apps import LIGHTTPD_PORT, REDIS_PORT
from ..core import DynaCut, dropped_syscalls, serving_allowlist, specialization_report
from ..kernel import Sys
from ..workloads import HttpClient, RedisClient
from ..workloads.corpus import CORPORA, profile
from . import Pass, claims


def run(args: Namespace) -> Pass:
    results = {}
    for label, corpus in (("Redis", "figures-redis"),
                          ("Lighttpd", "figures-lighttpd")):
        profiled = profile(CORPORA[corpus])
        kernel = profiled.kernel
        phases = specialization_report(
            profiled.init_trace, profiled.serving_trace
        )
        allowed = serving_allowlist(profiled.serving_trace)
        dynacut = DynaCut(kernel)
        rewrite = dynacut.restrict_syscalls(profiled.root.pid, set(allowed))
        dynacut.restored_process(profiled.root.pid)

        # service continues under the filter
        if label == "Redis":
            client = RedisClient(kernel, REDIS_PORT)
            serving_ok = client.ping() and client.set("k", "v")
        else:
            serving_ok = HttpClient(kernel, LIGHTTPD_PORT).get("/").status == 200

        results[label] = {
            "dropped_count": len(
                dropped_syscalls(profiled.init_trace, profiled.serving_trace)
            ),
            "allowed_count": len(allowed),
            "install_ms": rewrite.total_ns / 1e6,
            "serving_ok": bool(serving_ok),
            "fork_allowed": int(Sys.FORK) in allowed,
            "open_allowed": int(Sys.OPEN) in allowed,
        } | phases

    def shape() -> None:
        for label, r in results.items():
            assert r["serving_ok"], label
            assert r["dropped_count"] >= 3, label
            assert not r["fork_allowed"], label
            assert r["install_ms"] < 1000, label
        # Redis serves purely from memory: even open() goes away post-init.
        # Lighttpd is a file server, so open() legitimately stays allowed.
        assert not results["Redis"]["open_allowed"]
        assert results["Lighttpd"]["open_allowed"]

    return Pass({args.output: json.dumps(results, indent=2)},
                failed=claims(shape))
