"""DynaShelve: debloat retained under workload drift, policy by policy.

The drift studies so far measured *detection*; this one measures what
each ``drift_action`` leaves of the customization once a drifting
workload has come and gone.  The same seeded three-phase workload
(wanted-only warmup, a 5-second window where a fraction of requests
exercises the removed PUT path, cooldown) runs against three fresh
two-instance verify-mode fleets:

* ``reenable`` — the pre-shelving policy: the first windowed burst
  restores the whole feature fleet-wide and the debloat is gone for
  good (retention 0 %);
* ``shelve`` — only the trapping PUT-path blocks come back; the cold
  DELETE half stays removed throughout, and after cooldown the decay
  sweep re-removes the shelf (retention recovers to 100 %);
* ``recustomize`` — one adaptive narrowing round swaps in the removal
  set minus the trapped blocks, keeping the cold half removed with no
  further trap traffic at all.

In every scenario the workload must lose **zero** requests: wanted
traffic and the drifted PUTs both serve the whole window.
"""

from __future__ import annotations

import json
from argparse import Namespace

from ..telemetry import TelemetryHub
from ..tools.shelve_cli import SCENARIOS, run_scenario
from . import Pass, claims

SEED = 902
RETENTION_FLOOR_PCT = 60.0


def run(args: Namespace) -> Pass:
    flags = Namespace(size=2, put_mix=0.35, retention_floor=RETENTION_FLOOR_PCT)
    results = {
        action: run_scenario(flags, SEED, action, TelemetryHub())
        for action in SCENARIOS
    }

    def shape() -> None:
        # zero unaccounted request losses in every scenario: wanted
        # traffic and the drifted PUT mix both serve throughout
        for action, record in results.items():
            workload = record["workload"]
            assert record["accounted"], action
            assert workload["failed_requests"] == 0, action
            assert workload["errors"] == 0, action
            assert workload["puts_issued"] > 0, action
            assert workload["puts_ok"] == workload["puts_issued"], action
            assert record["rollout_completed"], action

        # the pre-shelving policy collapses to zero retained debloat
        reenable = results["reenable"]
        assert reenable["drift"]["triggered"]
        assert reenable["retained_final_pct"] == 0.0

        # shelving keeps the cold half removed during the drift and wins
        # everything back once the drift subsides
        shelve = results["shelve"]
        assert shelve["retained_drift_pct"] > 0.0
        assert shelve["retained_final_pct"] >= RETENTION_FLOOR_PCT
        assert shelve["retained_final_pct"] == 100.0
        assert shelve["drift"]["shelved_blocks"] > 0
        assert shelve["drift"]["decayed_blocks"] == shelve["drift"]["shelved_blocks"]
        assert shelve["drift"]["escalated"] == []

        # recustomize narrows instead of restoring: at least one round, a
        # non-empty narrowed set, and no block the static classifier proved
        # dead was ever restored by the verifier
        recustomize = results["recustomize"]
        rounds = recustomize["drift"]["recustomize_rounds"]
        assert len(rounds) >= 1
        assert all(entry["narrowed_blocks"] > 0 for entry in rounds)
        assert all(entry["dead_restores"] == 0 for entry in rounds)
        assert 0.0 < recustomize["retained_final_pct"] < 100.0

    return Pass({args.output: json.dumps(results, indent=2) + "\n"},
                failed=claims(shape))
