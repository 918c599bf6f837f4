"""DynaLint refinement: verifier trap-restores with and without static
removal-set refinement.

The §3.2.2 over-removal hazard, measured: a thin wanted profile (two
plain GETs) makes TraceDiff claim much more of Lighttpd than the DAV
feature owns.  Verify-mode removal of the raw set heals dozens of
blocks at runtime; refining the set first (dominator cutset over the
``lh_handle_request`` dispatcher arms) drops the suspects before the
rewrite, so only the enforced dispatcher arms ever trap — with
identical end-to-end behaviour and the redirect (403) policy
unaffected.
"""

from __future__ import annotations

import json

from repro.apps import LIGHTTPD_PORT
from repro.core import BlockMode, DynaCut, TrapPolicy
from repro.core.verifier import read_verifier_log
from repro.workloads import HttpClient
from repro.workloads.corpus import CORPORA, profile, send

from conftest import print_table

DISPATCHER = "lh_handle_request"


#: the wanted workload the customized server is kept for
WANTED = ("GET /", "GET /about.html", "GET /missing.html", "HEAD /",
          "OPTIONS /", "POST /echo abcd")


def _verify_run(refine: bool):
    profiled = profile(CORPORA["dynalint-lighttpd"])
    kernel, proc, feature = profiled.kernel, profiled.root, profiled.feature
    dynacut = DynaCut(kernel)
    report = dynacut.disable_feature(
        proc.pid, feature, policy=TrapPolicy.VERIFY, mode=BlockMode.ALL,
        refine=refine, dispatcher_symbol=DISPATCHER if refine else None,
    )
    proc = dynacut.restored_process(proc.pid)
    client = HttpClient(kernel, LIGHTTPD_PORT)
    statuses = [send(client, request).status for request in WANTED]
    traps = len(read_verifier_log(kernel, proc).trapped_addresses)
    return {
        "removal_set": feature.count,
        "blocks_patched": report.stats.blocks_patched,
        "trap_restores": traps,
        "statuses": statuses,
        "lint_clean": report.lint.ok if report.lint else None,
        "classification": (
            report.refinement.counts if report.refinement else None
        ),
    }


def _redirect_run():
    """The 403 policy, untouched by refinement (it does not compose)."""
    profiled = profile(CORPORA["dynalint-lighttpd"])
    kernel, proc, feature = profiled.kernel, profiled.root, profiled.feature
    dynacut = DynaCut(kernel)
    dynacut.disable_feature(
        proc.pid, feature, policy=TrapPolicy.REDIRECT,
        redirect_symbol="http_forbidden_entry",
    )
    client = HttpClient(kernel, LIGHTTPD_PORT)
    return {
        "put_status": client.put("/x", "v").status,
        "get_status": client.get("/").status,
    }


def test_dynalint_refinement(benchmark, results_dir):
    def run():
        return {
            "unrefined": _verify_run(refine=False),
            "refined": _verify_run(refine=True),
            "redirect": _redirect_run(),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    unrefined, refined = results["unrefined"], results["refined"]

    rows = [
        ["unrefined", unrefined["removal_set"], unrefined["blocks_patched"],
         unrefined["trap_restores"], unrefined["lint_clean"]],
        ["refined", refined["removal_set"], refined["blocks_patched"],
         refined["trap_restores"], refined["lint_clean"]],
    ]
    print_table(
        "DynaLint refinement: Lighttpd PUT/DELETE, thin wanted profile",
        ["variant", "removal set", "patched", "trap-restores", "lint clean"],
        rows,
    )
    (results_dir / "dynalint_refinement.json").write_text(
        json.dumps(results, indent=2)
    )

    # behaviour identical; trap-restores strictly reduced
    assert refined["statuses"] == unrefined["statuses"]
    assert refined["trap_restores"] < unrefined["trap_restores"]
    assert refined["blocks_patched"] < unrefined["blocks_patched"]
    # refinement really classified: suspects dropped, some blocks proven
    counts = refined["classification"]
    assert counts["suspect"] >= 1 and counts["provably_dead"] >= 1
    assert sum(counts.values()) == refined["removal_set"]
    # lint ran under the verify policy and found nothing
    assert refined["lint_clean"] is True and unrefined["lint_clean"] is True
    # the redirect policy is untouched by all of this
    assert results["redirect"] == {"put_status": 403, "get_status": 200}
