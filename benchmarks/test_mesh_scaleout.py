"""DynaMesh scale-out: throughput vs shard count on a keyed workload.

The mesh's clock model makes shards genuinely parallel machines — a
request served on one host advances only that host's virtual clock,
and mesh wall time is the max over hosts.  A fixed keyed GET workload
(after 64 stores) is timed on 1, 2 and 4 shards.

The speedup over one shard is the product of two factors, each
asserted on its own:

* the **parallel factor**, Σ host busy / max host busy: how evenly the
  hash ring spreads the GETs.  It is at most the shard count (the ring's
  arcs are not exactly even, and the busiest shard sets the wall clock)
  and grows with it;
* the **per-GET cost factor**, the one-shard service time per GET over
  the mean one on ``N`` shards.  It is above 1 because miniredis
  ``db_find`` compares the key with every used slot and each shard
  holds fewer keys; it is why 2 shards run more than 2x faster.
"""

from __future__ import annotations

import json

import pytest

from repro.fleet import FleetPolicy
from repro.mesh import MeshController
from repro.workloads import SECOND_NS

from conftest import print_table

SHARD_COUNTS = (1, 2, 4)
SIZE_PER_SHARD = 1
KEYSPACE = 64
REQUESTS = 240


def _throughput(shards: int) -> dict:
    policy = FleetPolicy(
        features=("SET",), shards=shards, ring_replicas=32
    )
    mesh = MeshController("redis", policy, size_per_shard=SIZE_PER_SHARD)
    mesh.spawn_mesh()
    keys = [f"key-{index}" for index in range(KEYSPACE)]
    for key in keys:
        assert mesh.store(key, "v")
    # align every host on one serving epoch, then measure mesh wall time
    mesh.clock.clock_ns = mesh.clock.clock_ns
    start = mesh.clock.clock_ns
    host_starts = {host.name: host.kernel.clock_ns for host in mesh.hosts}
    stores = mesh.frontend.stats()["dispatched"]
    for index in range(REQUESTS):
        assert mesh.wanted_request(key=keys[index % KEYSPACE])
    elapsed = mesh.clock.clock_ns - start
    stats = mesh.frontend.stats()
    assert stats["accounted"] and stats["shed"] == 0
    assert sum(stats["dispatched"].values()) >= REQUESTS
    busy = {
        host.name: host.kernel.clock_ns - host_starts[host.name]
        for host in mesh.hosts
    }
    gets = {
        name: total - stores.get(name, 0)
        for name, total in stats["dispatched"].items()
    }
    assert sum(gets.values()) == REQUESTS
    return {
        "shards": shards,
        "requests": REQUESTS,
        "elapsed_ns": elapsed,
        "throughput_rps": REQUESTS * SECOND_NS / elapsed,
        "per_host_busy_ns": busy,
        "dispatched": stats["dispatched"],
        "get_dispatched": gets,
        "ns_per_get": {name: busy[name] / gets[name] for name in busy},
    }


def test_mesh_scaleout(results_dir):
    rows = [_throughput(shards) for shards in SHARD_COUNTS]
    by_shards = {row["shards"]: row for row in rows}
    speedup = {
        shards: by_shards[shards]["throughput_rps"] / by_shards[1]["throughput_rps"]
        for shards in SHARD_COUNTS
    }
    total_busy = {
        row["shards"]: sum(row["per_host_busy_ns"].values()) for row in rows
    }
    parallel = {
        row["shards"]: total_busy[row["shards"]] / max(row["per_host_busy_ns"].values())
        for row in rows
    }
    per_get_cost = {
        shards: total_busy[1] / total_busy[shards] for shards in SHARD_COUNTS
    }

    print_table(
        "DynaMesh scale-out (keyed GET, hash frontend)",
        ["shards", "requests", "elapsed (virt ms)", "throughput (req/s)",
         "speedup vs 1", "parallel", "per-GET cost", "ms per GET"],
        [
            [
                row["shards"],
                row["requests"],
                f"{row['elapsed_ns'] / 1e6:.2f}",
                f"{row['throughput_rps']:.0f}",
                f"{speedup[row['shards']]:.2f}x",
                f"{parallel[row['shards']]:.2f}",
                f"{per_get_cost[row['shards']]:.2f}",
                " ".join(f"{ns / 1e6:.0f}" for ns in row["ns_per_get"].values()),
            ]
            for row in rows
        ],
    )

    # every shard actually served a slice of the keyspace
    for row in rows:
        assert all(count > 0 for count in row["dispatched"].values()), row

    # qualitative scale-out shape: each doubling helps, 4 shards at
    # least doubles one (ring imbalance forbids asserting exactly Nx)
    assert speedup[2] >= 1.3, f"2 shards gained only {speedup[2]:.2f}x"
    assert speedup[4] / speedup[2] >= 1.2, (
        f"4 shards over 2 gained only {speedup[4] / speedup[2]:.2f}x"
    )
    assert speedup[4] >= 2.0, f"4 shards gained only {speedup[4]:.2f}x"

    # the speedup is exactly the parallel factor times the per-GET cost
    # factor; the first is bounded by the shard count and grows with
    # it, the second comes from fewer keys per shard
    for shards in SHARD_COUNTS:
        assert parallel[shards] * per_get_cost[shards] == pytest.approx(
            speedup[shards]
        )
        assert parallel[shards] <= shards
    assert parallel[1] < parallel[2] < parallel[4]
    assert per_get_cost[2] > 1 and per_get_cost[4] > 1

    (results_dir / "mesh_scaleout.json").write_text(
        json.dumps(
            {
                "workload": {
                    "requests": REQUESTS,
                    "keyspace": KEYSPACE,
                    "size_per_shard": SIZE_PER_SHARD,
                    "routing": "hash",
                },
                "points": rows,
                "speedup": {str(k): v for k, v in speedup.items()},
                "parallel_factor": {str(k): v for k, v in parallel.items()},
                "per_get_cost_factor": {
                    str(k): v for k, v in per_get_cost.items()
                },
            },
            indent=2,
        )
        + "\n"
    )
