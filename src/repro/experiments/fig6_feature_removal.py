"""Figure 6: overhead of dynamically customizing code features.

Paper numbers (i5-10210U): Lighttpd 0.274 s, Nginx 0.56 s, Redis 0.29 s,
stacked as checkpoint / int3 patch / sighandler insertion / restore,
with Nginx costlier because two processes are snapshotted.

This record disables the same features (HTTP PUT+DELETE; Redis SET) via
the redirect policy and reports the virtual-time breakdown.
"""

from __future__ import annotations

import json
from argparse import Namespace

from ..apps import LIGHTTPD_PORT, NGINX_PORT, REDIS_PORT
from ..core import BlockMode, DynaCut, TrapPolicy
from ..tools import report
from ..workloads import HttpClient, RedisClient
from ..workloads.corpus import CORPORA, profile
from . import Pass, claims


def _customize(profiled, redirect_symbol):
    return DynaCut(profiled.kernel).disable_feature(
        profiled.root.pid, profiled.feature, policy=TrapPolicy.REDIRECT,
        mode=BlockMode.ENTRY, redirect_symbol=redirect_symbol,
    )


def run(args: Namespace) -> Pass:
    reports = {}

    lighttpd = profile(CORPORA["figures-lighttpd-dav"])
    reports["Lighttpd"] = _customize(lighttpd, "http_forbidden_entry")
    client = HttpClient(lighttpd.kernel, LIGHTTPD_PORT)
    assert client.put("/x", "v").status == 403
    assert client.get("/").status == 200

    nginx = profile(CORPORA["figures-nginx-dav"])
    reports["Nginx"] = _customize(nginx, "ngx_forbidden_entry")
    client = HttpClient(nginx.kernel, NGINX_PORT)
    assert client.put("/x", "v").status == 403
    assert client.get("/").status == 200

    redis = profile(CORPORA["figures-redis-set"])
    reports["Redis"] = _customize(redis, "redis_unknown_cmd")
    client = RedisClient(redis.kernel, REDIS_PORT)
    assert client.command("SET k v").startswith("-ERR")
    assert client.ping()

    results = {
        app: customized.breakdown_ms() | {
            "image_bytes": customized.image_bytes,
            "processes": len(customized.pids),
        }
        for app, customized in reports.items()
    }

    def shape() -> None:
        totals = {app: r["total"] for app, r in results.items()}
        # all three land in the sub-second "service blip" regime
        for app, total in totals.items():
            assert 50 < total < 1000, (app, total)
        # Nginx costs the most: two processes to checkpoint and restore
        assert totals["Nginx"] > totals["Lighttpd"]
        assert totals["Nginx"] > totals["Redis"]
        assert results["Nginx"]["processes"] == 2
        # the int3 patch itself is a negligible slice of the total
        for app, r in results.items():
            assert r["disable code w/ int3"] < 0.2 * r["total"], app

    return Pass({args.output: json.dumps(results, indent=2)},
                report.SECTIONS["fig6_feature_removal"](results), claims(shape))
