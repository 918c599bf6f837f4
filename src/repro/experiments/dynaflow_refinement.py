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
in a block the prover marked ``PROVABLY_DEAD``.  ``dynalint_cli
analyze`` runs the same study and prints it.
"""

from __future__ import annotations

import json
from argparse import Namespace

from ..tools.dynalint_cli import (
    SERVER_GUESTS,
    SPEC_GUESTS,
    collect_refinement,
    summary,
)
from . import Pass, claims


def run(args: Namespace) -> Pass:
    results = collect_refinement(SERVER_GUESTS + SPEC_GUESTS)
    baseline_path = args.output.with_name("dynalint_refinement.json")

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
        # comparison against the baseline artifact, when present: the
        # prove-mode refined sets must shrink the suspect pool it reported
        if baseline_path.exists():
            baseline = json.loads(baseline_path.read_text())
            legacy_counts = baseline["refined"]["classification"]
            lighttpd = next(
                r for r in results["guests"] if r["guest"] == "lighttpd"
            )
            assert lighttpd["prove"]["suspect"] < legacy_counts["suspect"]

    return Pass(
        {args.output: json.dumps(results, indent=2, sort_keys=True)},
        summary(results), claims(shape),
    )
