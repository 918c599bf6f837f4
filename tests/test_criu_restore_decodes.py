"""A restore keeps the decodes and translated blocks that still hold,
and only those.

Each restored address space adopts the decode and block caches of the
dead process it replaces, minus the entries that may read a page whose
bytes or execute bit changed.  Every transaction shape DynaCut runs is
checked here on staged miniredis against a twin kernel that runs the
same operations with the restored caches cleared: after each restore
every cached decode must match a fresh decode of the bytes now at its
address and every cached block must consist of cached decodes, newly
patched ``int3`` sites must trap on their first execution, and the next
request must behave exactly as on the twin.
"""

from __future__ import annotations

import pytest

from repro.apps import REDIS_PORT, stage_redis
from repro.core import BlockMode, CustomizationAborted, DynaCut, TrapPolicy
from repro.core.verifier import read_verifier_log
from repro.faults import FaultPlan
from repro.fleet import get_app
from repro.fleet.apps import profile_feature
from repro.isa.encoding import decode, instruction_length_at
from repro.kernel import Kernel
from repro.kernel.jit import HANDLERS, UNIT_ENDERS
from repro.kernel.memory import PAGE_SHIFT
from repro.workloads import RedisClient


class World:
    """Staged miniredis; ``carry=False`` clears each restored cache."""

    def __init__(self, carry: bool):
        self.carry = carry
        self.feature = profile_feature(get_app("redis"), "SET")
        self.kernel = Kernel()
        self.pid = stage_redis(self.kernel).pid
        self.client = RedisClient(self.kernel, REDIS_PORT)
        self.dynacut = DynaCut(self.kernel)

    @property
    def proc(self):
        return self.kernel.processes[self.pid]

    def transact(self, operation) -> list:
        """Run one DynaCut transaction; returns the restored processes."""
        try:
            operation(self.dynacut, self.pid, self.feature)
        except CustomizationAborted:
            pass
        restored = [self.kernel.processes[pid] for pid in self.dynacut.history[-1].pids]
        if not self.carry:
            for proc in restored:
                proc.memory.decode_cache.clear()
                proc.memory.block_cache.clear()
        return restored

    def observe(self) -> dict:
        proc = self.proc
        return {
            "clock_ns": self.kernel.clock_ns,
            "retired": proc.instructions_retired,
            "regs": (list(proc.regs.gpr), proc.regs.rip, proc.regs.zf, proc.regs.lt),
            "pages": {index: bytes(page) for index, page in proc.memory.pages.items()},
            "traps": read_verifier_log(self.kernel, proc).trapped_addresses,
        }


def _assert_decodes_hold(proc) -> None:
    """Every cached decode equals a fresh decode of the bytes there now,
    and every cached block is a run of cached decodes."""
    memory = proc.memory
    cache = memory.decode_cache
    for start, (__, size, end) in memory.block_cache.items():
        address = start
        for __ in range(size):
            assert address in cache, f"block at {start:#x} outlived {address:#x}"
            address += cache[address][2]
        assert address == end, f"block at {start:#x} no longer ends at {end:#x}"
    for address, (handler, operands, length, ends) in memory.decode_cache.items():
        assert address >> PAGE_SHIFT in memory.executable_pages, (
            f"decode cached at non-executable {address:#x}"
        )
        fresh = decode(memory.fetch(
            address, instruction_length_at(memory.fetch(address, 1))
        ))
        assert (handler, operands, length, ends) == (
            HANDLERS[fresh.mnemonic], fresh.operands, fresh.length,
            fresh.mnemonic in UNIT_ENDERS,
        ), f"stale decode at {address:#x}"


def _disable_all(dynacut, pid, feature):
    dynacut.disable_feature(pid, feature, policy=TrapPolicy.VERIFY, mode=BlockMode.ALL)


def _enable(dynacut, pid, feature):
    dynacut.enable_feature(pid, feature)


def _disable_entry(dynacut, pid, feature):
    dynacut.disable_feature(pid, feature, policy=TrapPolicy.VERIFY, mode=BlockMode.ENTRY)


def _module_base(proc, module: str) -> int:
    return next(m.load_base for m in proc.modules if m.name == module)


def _shelve_trapped(dynacut, pid, feature):
    proc = dynacut.kernel.processes[pid]
    base = _module_base(proc, feature.module)
    trapped = {a - base for a in read_verifier_log(dynacut.kernel, proc).trapped_addresses}
    offsets = [b.offset for b in dynacut.disabled_blocks(pid, feature.name)
               if b.offset in trapped]
    assert offsets, "the SET request trapped on no patched block"
    dynacut.reenable_blocks(pid, feature, offsets, reset_log=True)


def _rolled_back_enable(dynacut, pid, feature):
    # the rewritten image's restore fails after its memory (and decode
    # cache) was built: the pristine rollback restore runs instead
    with FaultPlan(seed=7).arm("restore.fds", "permanent", on_call=1):
        dynacut.enable_feature(pid, feature)


def _rerandomize_libc(dynacut, pid, feature):
    # libc's executable pages move: every decode cached at the old base
    # must go, though the new address space never maps those pages
    dynacut.rerandomize_library(pid, "libc.so")


#: (transaction, request served right after it)
STEPS = (
    (_disable_all, ("SET", "k1", "v1")),
    (_enable, ("GET", "k1")),
    (_disable_entry, ("SET", "k2", "v2")),
    (_shelve_trapped, ("SET", "k3", "v3")),
    (_rolled_back_enable, ("GET", "k3")),
    (_enable, ("SET", "k4", "v4")),
    (_rerandomize_libc, ("GET", "k4")),
)


@pytest.fixture(scope="module")
def worlds():
    return World(carry=True), World(carry=False)


def test_restores_keep_only_valid_decodes(worlds):
    carried, twin = worlds
    for world in worlds:
        world.client.set("k0", "v0")       # warm every decode cache
    for operation, request in STEPS:
        restored = {}
        for world in worlds:
            restored[world.carry] = world.transact(operation)
        for proc in restored[True]:
            _assert_decodes_hold(proc)
        assert any(proc.memory.decode_cache for proc in restored[True]), (
            f"{operation.__name__}: the restore carried no decodes over"
        )
        assert any(proc.memory.block_cache for proc in restored[True]), (
            f"{operation.__name__}: the restore carried no blocks over"
        )
        traps_before = carried.observe()["traps"]
        for world in worlds:
            world.client.command(" ".join(request))
        observed = carried.observe()
        assert observed == twin.observe(), operation.__name__
        if operation in (_disable_all, _disable_entry):
            # the feature's first block was patched by this restore: the
            # request's first execution of it traps (and heals)
            base = _module_base(carried.proc, carried.feature.module)
            entry = base + carried.feature.entry.offset
            assert entry in observed["traps"][len(traps_before):]
        _assert_decodes_hold(carried.proc)
    assert [r.outcome for r in carried.dynacut.history].count("rolled-back") == 1
