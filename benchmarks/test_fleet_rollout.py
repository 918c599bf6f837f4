"""DynaFleet: canary/rolling customization of a fleet under live traffic.

The single-process experiments (Figure 8) show one server surviving a
rewrite; this benchmark scales the claim to an 8-instance fleet behind
the balancer.  A closed-loop client hammers the frontend port for the
whole run while the rollout executor drains, customizes, health-gates
and rejoins instances between timeline buckets:

* **canary** and **rolling** rollouts must complete with *zero* failed
  balanced requests — drains show up as throughput dips, never errors;
* a seeded permanent fault injected into the canary's restore must
  abort the whole rollout with every instance rolled back to pristine
  and still serving.
"""

from __future__ import annotations

import json

from repro.faults import FaultPlan
from repro.fleet import FleetController, FleetPolicy, RolloutExecutor
from repro.kernel import Kernel
from repro.workloads import SECOND_NS, TimelineEvent, run_request_timeline

from conftest import print_table

FLEET_SIZE = 8
DURATION_S = 40
FIRST_STEP_S = 2
STEP_EVERY_S = 3


def _spawn(strategy: str, max_unavailable: int = 2) -> FleetController:
    policy = FleetPolicy(
        features=("dav-write",),
        strategy=strategy,
        max_unavailable=max_unavailable,
        probe_requests=4,
    )
    controller = FleetController(
        Kernel(), "lighttpd", policy, size=FLEET_SIZE
    )
    controller.spawn_fleet()
    return controller


def _rollout_under_traffic(controller: FleetController, plan=None) -> dict:
    """Drive the rollout from inside a continuous balanced workload."""
    executor = RolloutExecutor(controller)
    kernel, app = controller.kernel, controller.app

    def step() -> None:
        if executor.done:
            return
        if plan is not None and executor.report.state == "pending":
            with plan:                  # fault armed for the canary batch
                executor.step()
        else:
            executor.step()

    events = [
        TimelineEvent(
            at_ns=(FIRST_STEP_S + STEP_EVERY_S * i) * SECOND_NS,
            label=f"rollout-step-{i}", action=step,
        )
        for i in range(FLEET_SIZE + 2)
    ]
    timeline = run_request_timeline(
        kernel,
        lambda: app.wanted_request(kernel, controller.frontend_port),
        duration_ns=DURATION_S * SECOND_NS,
        events=events,
    )
    assert executor.done, "rollout must finish within the workload window"
    all_serving = all(
        controller.alive(i) and app.wanted_request(kernel, i.port)
        for i in controller.instances
    )
    return {
        "strategy": controller.policy.strategy,
        "rollout": executor.report.to_dict(),
        "pristine": not any(i.customized for i in controller.instances),
        "all_serving": all_serving,
        "in_service": controller.pool.in_service(),
        "workload": {
            "total_requests": timeline.total_requests,
            "failed_requests": timeline.failed_requests,
            "errors": len(timeline.errors),
            "min_bucket": timeline.min_bucket(),
            "max_bucket": timeline.max_bucket(),
            "throughput": timeline.throughput_series(SECOND_NS),
        },
    }


def test_fleet_rollout_under_traffic(benchmark, results_dir):
    def run():
        canary = _rollout_under_traffic(_spawn("canary"))
        rolling = _rollout_under_traffic(_spawn("rolling"))
        fault = _rollout_under_traffic(
            _spawn("canary"),
            plan=FaultPlan(seed=1234).arm(
                "restore.memory", "permanent", on_call=1, times=10
            ),
        )
        return {"canary": canary, "rolling": rolling, "canary-fault": fault}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        f"DynaFleet rollout, {FLEET_SIZE}x minilight under closed-loop "
        "traffic",
        ["scenario", "state", "customized", "rolled back", "max drained",
         "requests", "failed"],
        [
            [name, row["rollout"]["state"],
             len(row["rollout"]["customized"]),
             len(row["rollout"]["rolled_back"]),
             row["rollout"]["max_drained_seen"],
             row["workload"]["total_requests"],
             row["workload"]["failed_requests"]]
            for name, row in results.items()
        ],
    )
    # the fleet-rollout campaign owns results/fleet_rollout.json
    (results_dir / "fleet_rollout_bench.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )

    for name in ("canary", "rolling"):
        row = results[name]
        # the whole fleet got customized without a single failed request
        assert row["rollout"]["state"] == "completed"
        assert len(row["rollout"]["customized"]) == FLEET_SIZE
        assert not row["pristine"]
        assert row["workload"]["failed_requests"] == 0
        assert row["workload"]["errors"] == 0
        # a batch costs virtual time (dips, possibly empty buckets) but
        # throughput is fully recovered by the end of the window
        assert row["workload"]["throughput"][-1][1] > 0
        assert len(row["in_service"]) == FLEET_SIZE
        # the drain budget held: never more than max_unavailable out
        assert row["rollout"]["max_drained_seen"] <= 2

    fault = results["canary-fault"]
    # the injected canary fault aborted everything back to pristine...
    assert fault["rollout"]["state"] == "aborted"
    assert fault["rollout"]["customized"] == []
    assert fault["pristine"]
    # ...with the whole fleet alive, serving, and back in rotation
    assert fault["all_serving"]
    assert len(fault["in_service"]) == FLEET_SIZE
    assert fault["workload"]["failed_requests"] == 0
