"""DynaMesh: the fleet, sharded over kernels, behind a frontend tier.

Layer 8 of the stack.  DynaFleet customizes N instances on *one*
kernel; DynaMesh shards that fleet over N *kernels* ("hosts"), each
with its own virtual clock, network and supervisor, and puts a
cross-kernel frontend in front:

* :class:`Host` — one kernel-sized shard (kernel + fleet controller +
  supervisor), with whole-host crash as its failure unit;
* :class:`Frontend` — consistent-hash keyspace routing over shards
  (the mesh shards the redis kvstore only), cross-host failover, and
  the ``issued == served + failed_over + shed`` accounting identity;
* :class:`MeshController` — the control plane: mesh-time clock
  discipline (:class:`MeshClock`), mesh-wide supervision ticks, seeded
  whole-host chaos (:func:`inject_host_chaos`);
* :class:`MeshRollout` — shard-by-shard rollouts where a whole-host
  failure aborts only the affected shard.

See ``docs/fleet.md`` (Mesh section) and the ``mesh`` campaign record
(``repro.experiments.mesh_rollout``).
"""

from .controller import MeshClock, MeshController, inject_host_chaos
from .frontend import Frontend
from .host import Host, MeshError
from .ring import HashRing, RingError, stable_hash
from .rollout import MeshRollout

__all__ = [
    "Frontend",
    "HashRing",
    "Host",
    "MeshClock",
    "MeshController",
    "MeshError",
    "MeshRollout",
    "RingError",
    "inject_host_chaos",
    "stable_hash",
]
