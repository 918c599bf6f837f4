"""Ablations of DynaCut design choices.

Four studies backing the design decisions documented in DESIGN.md §5:

* **A1 — byte- vs block-identity coverage diff.**  Diffing dynamic
  trace blocks by identity (the paper's presentation) classifies
  blocks as init-only whose bytes are still live, because dynamic
  sub-blocks overlap across phases.  We count how many bytes the naive
  diff would wrongly wipe.
* **A2 — blocking-mode cost.**  Entry-byte patching vs whole-feature
  wiping: the security/overhead trade-off of §3.2.2 (wiping resists
  code reuse but patches many more bytes and costs more to restore).
* **A3 — the CRIU page-dump modification.**  Without DynaCut's
  dump-executable-pages change, int3 patches are silently lost at
  restore (text is rebuilt from the pristine binary); with it, image
  sizes grow but patches survive.
* **A4 — restore vs re-initialization (footnote 5).**  Restoring a
  customized process image is faster than launching the program
  through its whole initialization.
"""

from __future__ import annotations

import json
from argparse import Namespace

from ..apps import REDIS_PORT, stage_redis
from ..core import BlockMode, CoverageGraph, DynaCut, TrapPolicy
from ..criu import checkpoint_tree, restore_tree
from ..kernel import Kernel
from ..workloads import RedisClient
from ..workloads.corpus import CORPORA, profile
from . import Pass, claims


def _granularity() -> dict:
    profiled = profile(CORPORA["figures-lighttpd"])
    module = profiled.binary
    init_graph = CoverageGraph.from_traces(profiled.init_trace)
    serving_graph = CoverageGraph.from_traces(profiled.serving_trace)

    # naive, block-identity diff (what a literal reading implements)
    naive = init_graph.difference(serving_graph).restrict_to_module(module)
    serving_bytes = serving_graph.covered_bytes(module)
    return {
        "naive_blocks": len(naive),
        "misclassified_live_bytes": sum(
            1 for block in naive.blocks
            for o in range(block.offset, block.offset + block.size)
            if o in serving_bytes
        ),
        # byte-granular diff (this implementation)
        "sound_removable_bytes": profiled.init_report.removable_bytes(),
    }


def _block_modes() -> dict:
    out = {}
    for mode in (BlockMode.ENTRY, BlockMode.ALL, BlockMode.WIPE):
        profiled = profile(CORPORA["figures-redis-set"])
        feature = profiled.feature
        dynacut = DynaCut(profiled.kernel)
        disabled = dynacut.disable_feature(
            profiled.root.pid, feature, policy=TrapPolicy.REDIRECT,
            mode=mode, redirect_symbol="redis_unknown_cmd",
        )
        proc = dynacut.restored_process(profiled.root.pid)
        client = RedisClient(profiled.kernel, REDIS_PORT)
        blocked = client.command("SET k v").startswith("-ERR")
        alive = proc.alive and client.ping()
        enabled = dynacut.enable_feature(profiled.root.pid, feature, mode=mode)
        proc = dynacut.restored_process(profiled.root.pid)
        restored_works = client.set("k", "v") and proc.alive
        out[mode.value] = {
            "blocks_patched": disabled.stats.blocks_patched,
            "bytes_wiped": disabled.stats.bytes_wiped,
            "disable_ms": disabled.total_ns / 1e6,
            "enable_ms": enabled.total_ns / 1e6,
            "blocked": blocked,
            "alive": alive,
            "restored": bool(restored_works),
        }
    return out


def _restore_vs_reinit() -> dict:
    # cost of a cold boot to ready (virtual time)
    kernel = Kernel()
    boot_start = kernel.clock_ns
    proc = stage_redis(kernel)
    boot_ns = kernel.clock_ns - boot_start

    # cost of restoring the post-init image
    checkpoint = checkpoint_tree(kernel, proc.pid, image_dir=None)
    restore_start = kernel.clock_ns
    (proc,) = restore_tree(kernel, checkpoint)
    restore_ns = kernel.clock_ns - restore_start

    assert RedisClient(kernel, REDIS_PORT).ping()
    return {"boot_ms": boot_ns / 1e6, "restore_ms": restore_ns / 1e6}


def _exec_page_dump() -> dict:
    profiled = profile(CORPORA["figures-redis"])
    kernel = profiled.kernel
    with_flag = checkpoint_tree(
        kernel, profiled.root.pid, image_dir=None,
        dump_exec_pages=True, leave_running=True,
    )
    without_flag = checkpoint_tree(
        kernel, profiled.root.pid, image_dir=None,
        dump_exec_pages=False, leave_running=True,
    )
    return {
        "pages_with_exec_dump": with_flag.total_pages(),
        "pages_without": without_flag.total_pages(),
    }


def run(args: Namespace) -> Pass:
    granularity = _granularity()
    modes = _block_modes()
    reinit = _restore_vs_reinit()
    exec_dump = _exec_page_dump()

    def shape() -> None:
        # A1: the failure mode is real: the naive diff would wipe live bytes
        assert granularity["misclassified_live_bytes"] > 0
        assert granularity["sound_removable_bytes"] > 0
        # A2: every mode blocks the feature and restores cleanly; wiping
        # costs more bytes and time than patching the entry
        for mode, r in modes.items():
            assert r["blocked"] and r["alive"] and r["restored"], mode
        assert modes["entry"]["blocks_patched"] == 1
        assert modes["all"]["blocks_patched"] > 1
        assert modes["wipe"]["bytes_wiped"] > modes["all"]["bytes_wiped"]
        assert modes["wipe"]["disable_ms"] >= modes["entry"]["disable_ms"]
        # A4: restoring the post-init image beats booting through init
        assert reinit["restore_ms"] < reinit["boot_ms"]
        # A3: dumping the executable pages grows the image
        assert exec_dump["pages_with_exec_dump"] > exec_dump["pages_without"]

    return Pass(
        {
            args.output: json.dumps(exec_dump),
            args.output.with_name("ablation_granularity.json"):
                json.dumps(granularity),
            args.output.with_name("ablation_modes.json"):
                json.dumps(modes, indent=2),
            args.output.with_name("ablation_restore_vs_reinit.json"):
                json.dumps(reinit),
        },
        failed=claims(shape),
    )
