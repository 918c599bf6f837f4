"""Table 1: Redis CVEs mitigated by DynaCut's feature blocking.

For each CVE: the exploit succeeds against the vanilla server (memory
corruption, crash or control-flow hijack) and is mitigated once the
command's feature is dynamically blocked — the client receives the
server's error reply and the service keeps running.
"""

from __future__ import annotations

import json
from argparse import Namespace

from ..apps import REDIS_PORT
from ..attacks import REDIS_CVES, attempt_cve
from ..core import BlockMode, DynaCut, TrapPolicy
from ..tools import report
from ..workloads import RedisClient
from ..workloads.corpus import CORPORA, profile
from . import Pass, claims


def run(args: Namespace) -> Pass:
    results = {}
    for spec in REDIS_CVES:
        # vanilla server: deliver the exploit
        vanilla = profile(CORPORA["figures-redis"])
        vanilla_outcome = attempt_cve(
            vanilla.kernel, vanilla.root, REDIS_PORT, spec
        )

        # customized server: block the command feature, re-attack
        profiled = profile(CORPORA["figures-redis"].against(spec.benign_line))
        dynacut = DynaCut(profiled.kernel)
        dynacut.disable_feature(
            profiled.root.pid, profiled.feature, policy=TrapPolicy.REDIRECT,
            mode=BlockMode.ENTRY, redirect_symbol="redis_unknown_cmd",
        )
        proc = dynacut.restored_process(profiled.root.pid)
        blocked_outcome = attempt_cve(
            profiled.kernel, proc, REDIS_PORT, spec
        )
        still_serving = RedisClient(profiled.kernel, REDIS_PORT).ping()
        results[spec.cve] = {
            "command": spec.command,
            "vanilla_exploited": vanilla_outcome.exploited,
            "dynacut_mitigated": blocked_outcome.mitigated,
            "service_alive_after": still_serving,
        }

    def shape() -> None:
        assert len(results) == 5
        for cve, r in results.items():
            assert r["vanilla_exploited"], f"{cve}: exploit should work on vanilla"
            assert r["dynacut_mitigated"], f"{cve}: DynaCut should mitigate"
            assert r["service_alive_after"], f"{cve}: service must stay up"

    return Pass({args.output: json.dumps(results, indent=2)},
                report.SECTIONS["table1_cves"](results), claims(shape))
