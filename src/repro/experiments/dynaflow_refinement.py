"""DynaFlow refinement study: suspect-set shrinkage under dataflow proofs.

The baseline (``results/dynalint_refinement.json``) classifies removal
sets with pure CFG reachability: every kept block is assumed live, so
any removed block a kept block can reach stays ``SUSPECT``.  The
DynaFlow prover replaces that assumption with value-set analysis —
resolved indirect-branch targets, an address-taken bound for the rest,
and proven liveness roots — and re-classifies the same thin-profile
removal sets over the server and SPEC guests.

Measured here, per guest: removal-set size, legacy vs prove verdict
counts, indirect-site resolution stats, and (for the guests run
end-to-end under the verifier) every trap-restore attributed to its
classification bucket.  The acceptance bar: at least 30% of the
previously-suspect blocks upgrade, and **zero** verifier restores land
in a block the prover marked ``PROVABLY_DEAD``.
"""

from __future__ import annotations

import json
import pathlib
from argparse import Namespace

from ..analysis.dataflow import analyze_image_flow
from ..analysis.reachability import refine_removal_set
from ..core import BlockMode, DynaCut, TrapPolicy
from ..core.verifier import read_verifier_log
from ..workloads import HttpResponse
from ..workloads.corpus import CORPORA, DYNALINT_SPEC, Profile, profile, send
from . import Pass, claims

#: the baseline: the dynalint-refinement record's committed file, under
#: the repository root that every campaign runs from, wherever this
#: record writes
BASELINE = pathlib.Path("results/dynalint_refinement.json")

#: server guests measured (feature-removal profiles)
SERVER_GUESTS = ("redis", "lighttpd", "nginx")
#: SPEC guests measured (init-code removal profiles)
SPEC_GUESTS = DYNALINT_SPEC
#: symbol inside each server's command/request dispatch function
DISPATCHERS = {
    "redis": "dispatch",
    "lighttpd": "lh_handle_request",
    "nginx": "ngx_handle_request",
}
#: server guests whose refined removal also runs end-to-end under the
#: verifier, attributing every trap-restore to a classification bucket,
#: and the wanted requests each is kept for, sent after the rewrite.
#: miniredis's PING, ECHO and GET all dispatch *before* the trapped
#: SET…APPEND chain arms, so no designated entry needs to heal
VERIFY_GUESTS = {
    "redis": ("PING", "ECHO hi", "GET greeting"),
    "lighttpd": ("GET /", "GET /about.html", "GET /missing.html", "HEAD /",
                 "POST /echo abcd"),
}


def _dispatcher_entries(profiled: Profile) -> list | None:
    """The feature's blocks inside the app's dispatch function."""
    dispatcher = DISPATCHERS.get(profiled.corpus.app)
    if dispatcher is None:
        return None
    binary = profiled.kernel.binaries[profiled.binary]
    return binary.blocks_in_function(dispatcher, profiled.blocks) or None


def _flow_summary(image) -> dict:
    """Deterministic indirect-resolution/hazard stats for one image."""
    flow = analyze_image_flow(image)
    internal = [s for s in flow.sites if s.resolved and not s.external]
    external = [s for s in flow.sites if s.external]
    return {
        "indirect_sites": len(flow.sites),
        "resolved_internal": len(internal),
        "resolved_external": len(external),
        "unresolved": len(flow.unresolved_sites()),
        "address_taken": len(flow.address_taken),
        "store_hazards": len(flow.hazards),
        "blocks_analyzed": flow.blocks_analyzed,
        "solver_visits": flow.solver_visits,
    }


def _verify_attribution(profiled: Profile) -> dict:
    """Refined prove-mode WIPE under the verifier, restores attributed.

    Every address the verifier heals is matched against the
    classification: a restore inside a PROVABLY_DEAD block would mean
    the dataflow proof was wrong (the acceptance bar is zero).
    """
    kernel, client, app = profiled.kernel, profiled.client, profiled.corpus.app
    assert client is not None and profiled.feature is not None
    dynacut = DynaCut(kernel)
    report = dynacut.disable_feature(
        profiled.root.pid, profiled.feature,
        policy=TrapPolicy.VERIFY, mode=BlockMode.WIPE,
        refine=True, prove=True,
        dispatcher_symbol=DISPATCHERS[app],
    )
    proc = dynacut.restored_process(profiled.root.pid)
    # a fresh client, so redis serves the workload on a new connection
    fresh = type(client)(kernel, client.port)
    replies = [send(fresh, request) for request in VERIFY_GUESTS[app]]
    responses = [
        r.status if isinstance(r, HttpResponse) else r for r in replies
    ]
    log = read_verifier_log(kernel, proc)
    refinement = report.refinement
    assert refinement is not None
    trapped = set(log.trapped_addresses)
    dead = {b.offset for b in refinement.provably_dead}
    trap_entries = {b.offset for b in refinement.trap_required}
    return {
        "trap_restores": len(trapped),
        "provably_dead_restores": len(trapped & dead),
        "trap_entry_restores": len(trapped & trap_entries),
        "responses": responses,
    }


def analyze_guest(name: str) -> dict:
    """Legacy-vs-prove refinement comparison for one guest."""
    profiled = profile(CORPORA[f"dynalint-{name}"])
    binary = profiled.kernel.binaries[profiled.binary]
    blocks = profiled.blocks
    entries = _dispatcher_entries(profiled)
    legacy = refine_removal_set(binary, blocks, entries)
    prove = refine_removal_set(binary, blocks, entries, prove=True)
    upgraded = legacy.counts["suspect"] - prove.counts["suspect"]
    row = {
        "guest": name,
        "kind": "spec-init" if profiled.feature is None else "server-feature",
        "removal_set": len(blocks),
        "legacy": dict(sorted(legacy.counts.items())),
        "prove": dict(sorted(prove.counts.items())),
        "mode": prove.mode,
        "fallback_reason": prove.fallback_reason,
        "suspects_upgraded": upgraded,
        "wipe_safe": len(prove.wipe_safe),
        "flow": _flow_summary(binary),
    }
    if name in VERIFY_GUESTS:
        row["verify"] = _verify_attribution(profiled)
    return row


def collect_refinement(guests: tuple[str, ...]) -> dict:
    """The refinement study payload over ``guests``: a row per guest
    and the totals (``dynaflow_refinement.json`` covers every guest)."""
    rows = [analyze_guest(name) for name in guests]
    legacy_suspects = sum(r["legacy"]["suspect"] for r in rows)
    prove_suspects = sum(r["prove"]["suspect"] for r in rows)
    upgraded = legacy_suspects - prove_suspects
    shrinkage = (
        round(100.0 * upgraded / legacy_suspects, 1)
        if legacy_suspects else 0.0
    )
    dead_restores = sum(
        r["verify"]["provably_dead_restores"] for r in rows if "verify" in r
    )
    return {
        "guests": rows,
        "totals": {
            "legacy_suspects": legacy_suspects,
            "prove_suspects": prove_suspects,
            "suspects_upgraded": upgraded,
            "suspect_shrinkage_pct": shrinkage,
            "provably_dead_restores": dead_restores,
        },
    }


def summary(payload: dict) -> str:
    """A line per guest and one over the totals of a study payload."""
    lines = []
    for row in payload["guests"]:
        verify = row.get("verify")
        tail = (
            f"  restores={verify['trap_restores']} "
            f"(dead={verify['provably_dead_restores']})"
            if verify else ""
        )
        lines.append(
            f"{row['guest']:>16}  removal={row['removal_set']:>3}  "
            f"suspects {row['legacy']['suspect']:>3} -> "
            f"{row['prove']['suspect']:>3}  mode={row['mode']}{tail}"
        )
    totals = payload["totals"]
    lines.append(
        f"total suspects {totals['legacy_suspects']} -> "
        f"{totals['prove_suspects']} "
        f"({totals['suspect_shrinkage_pct']}% upgraded), "
        f"{totals['provably_dead_restores']} provably-dead restores"
    )
    return "\n".join(lines)


def run(args: Namespace) -> Pass:
    results = collect_refinement(SERVER_GUESTS + SPEC_GUESTS)

    def shape() -> None:
        totals = results["totals"]
        # every guest must get a full proof — no hazard/unbounded fallback
        assert all(r["mode"] == "prove" for r in results["guests"])
        # ≥30% of previously-suspect blocks reclassified across the suite
        assert totals["legacy_suspects"] > 0
        assert totals["suspect_shrinkage_pct"] >= 30.0
        # the prover's dead verdicts hold up at run time: the verifier never
        # restored a block classified PROVABLY_DEAD
        assert totals["provably_dead_restores"] == 0
        # the end-to-end guests stayed functional under the wanted workload
        verify_rows = [r["verify"] for r in results["guests"] if "verify" in r]
        assert verify_rows, "at least one guest must run under the verifier"
        for verify in verify_rows:
            assert verify["responses"], "exercise traffic must get responses"
        # indirect sites: the VSA must resolve the PLT tails everywhere and
        # never leave a site unbounded on the server guests
        for row in results["guests"]:
            flow = row["flow"]
            assert flow["resolved_external"] > 0
            assert flow["unresolved"] <= 1
        # the prove-mode refined sets must shrink the suspect pool the
        # baseline reported; without the baseline the claim fails
        assert BASELINE.exists(), f"no baseline at {BASELINE}"
        legacy_counts = json.loads(BASELINE.read_text())["refined"]["classification"]
        lighttpd = next(r for r in results["guests"] if r["guest"] == "lighttpd")
        assert lighttpd["prove"]["suspect"] < legacy_counts["suspect"]

    return Pass(
        {args.output: json.dumps(results, indent=2, sort_keys=True)},
        summary(results), claims(shape),
    )
