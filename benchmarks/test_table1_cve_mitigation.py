"""Table 1: Redis CVEs mitigated by DynaCut's feature blocking.

For each CVE: the exploit succeeds against the vanilla server (memory
corruption, crash or control-flow hijack) and is mitigated once the
command's feature is dynamically blocked — the client receives the
server's error reply and the service keeps running.
"""

from __future__ import annotations

import json

from repro.apps import REDIS_PORT
from repro.attacks import REDIS_CVES, attempt_cve
from repro.core import BlockMode, DynaCut, TrapPolicy
from repro.workloads import RedisClient
from repro.workloads.corpus import CORPORA, profile

from conftest import print_table


def test_table1_cve_mitigation(benchmark, results_dir):
    def run():
        outcomes = {}
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
            outcomes[spec.cve] = (spec, vanilla_outcome, blocked_outcome,
                                  still_serving)
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    results = {}
    for cve, (spec, vanilla, blocked, still_serving) in outcomes.items():
        rows.append([
            cve,
            spec.command,
            "exploited" if vanilla.exploited else "survived",
            "mitigated" if blocked.mitigated else "EXPLOITED",
            "yes" if still_serving else "no",
        ])
        results[cve] = {
            "command": spec.command,
            "vanilla_exploited": vanilla.exploited,
            "dynacut_mitigated": blocked.mitigated,
            "service_alive_after": still_serving,
        }
    print_table(
        "Table 1: Redis CVEs vs DynaCut feature blocking",
        ["CVE", "command", "vanilla", "w/ DynaCut", "service alive"],
        rows,
    )
    (results_dir / "table1_cves.json").write_text(json.dumps(results, indent=2))

    assert len(results) == 5
    for cve, r in results.items():
        assert r["vanilla_exploited"], f"{cve}: exploit should work on vanilla"
        assert r["dynacut_mitigated"], f"{cve}: DynaCut should mitigate"
        assert r["service_alive_after"], f"{cve}: service must stay up"
