"""Ablations of DynaCut design choices.

Three studies backing the design decisions documented in DESIGN.md §5:

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
"""

from __future__ import annotations

import json

from repro.core import BlockMode, CoverageGraph, DynaCut, TrapPolicy
from repro.criu import checkpoint_tree
from repro.workloads import RedisClient
from repro.apps import REDIS_PORT
from repro.workloads.corpus import CORPORA, profile

from conftest import print_table


def test_ablation_byte_vs_block_granularity(benchmark, results_dir):
    def run():
        profiled = profile(CORPORA["figures-lighttpd"])
        module = profiled.binary
        init_graph = CoverageGraph.from_traces(profiled.init_trace)
        serving_graph = CoverageGraph.from_traces(profiled.serving_trace)

        # naive, block-identity diff (what a literal reading implements)
        naive = init_graph.difference(serving_graph).restrict_to_module(module)
        serving_bytes = serving_graph.covered_bytes(module)
        misclassified = 0
        for block in naive.blocks:
            overlap = sum(
                1 for o in range(block.offset, block.offset + block.size)
                if o in serving_bytes
            )
            misclassified += overlap

        # byte-granular diff (this implementation)
        sound_bytes = profiled.init_report.removable_bytes()
        return len(naive), misclassified, sound_bytes

    naive_blocks, misclassified, sound_bytes = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print_table(
        "Ablation A1: block-identity diff wrongly wipes live bytes",
        ["naive init-only blocks", "live bytes misclassified",
         "byte-granular removable bytes"],
        [[naive_blocks, misclassified, sound_bytes]],
    )
    (results_dir / "ablation_granularity.json").write_text(json.dumps({
        "naive_blocks": naive_blocks,
        "misclassified_live_bytes": misclassified,
        "sound_removable_bytes": sound_bytes,
    }))
    # the failure mode is real: the naive diff would wipe live bytes
    assert misclassified > 0
    assert sound_bytes > 0


def test_ablation_block_modes(benchmark, results_dir):
    def run():
        out = {}
        for mode in (BlockMode.ENTRY, BlockMode.ALL, BlockMode.WIPE):
            profiled = profile(CORPORA["figures-redis-set"])
            feature = profiled.feature
            dynacut = DynaCut(profiled.kernel)
            report = dynacut.disable_feature(
                profiled.root.pid, feature, policy=TrapPolicy.REDIRECT,
                mode=mode, redirect_symbol="redis_unknown_cmd",
            )
            proc = dynacut.restored_process(profiled.root.pid)
            client = RedisClient(profiled.kernel, REDIS_PORT)
            blocked = client.command("SET k v").startswith("-ERR")
            alive = proc.alive and client.ping()
            enable_report = dynacut.enable_feature(profiled.root.pid, feature,
                                                   mode=mode)
            proc = dynacut.restored_process(profiled.root.pid)
            restored_works = client.set("k", "v") and proc.alive
            out[mode.value] = {
                "blocks_patched": report.stats.blocks_patched,
                "bytes_wiped": report.stats.bytes_wiped,
                "disable_ms": report.total_ns / 1e6,
                "enable_ms": enable_report.total_ns / 1e6,
                "blocked": blocked,
                "alive": alive,
                "restored": bool(restored_works),
            }
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [mode, r["blocks_patched"], r["bytes_wiped"],
         f"{r['disable_ms']:.0f}", f"{r['enable_ms']:.0f}",
         r["blocked"], r["restored"]]
        for mode, r in results.items()
    ]
    print_table(
        "Ablation A2: blocking modes (cost vs anti-code-reuse strength)",
        ["mode", "blocks", "bytes wiped", "disable ms", "enable ms",
         "feature blocked", "restore ok"],
        rows,
    )
    (results_dir / "ablation_modes.json").write_text(json.dumps(results, indent=2))

    for mode, r in results.items():
        assert r["blocked"] and r["alive"] and r["restored"], mode
    assert results["entry"]["blocks_patched"] == 1
    assert results["all"]["blocks_patched"] > 1
    assert results["wipe"]["bytes_wiped"] > results["all"]["bytes_wiped"]
    assert results["wipe"]["disable_ms"] >= results["entry"]["disable_ms"]


def test_ablation_restore_vs_reinit(benchmark, results_dir):
    """Footnote 5: restoring a customized process image is faster than
    launching the program through its whole initialization."""
    from repro.apps import stage_redis
    from repro.criu import checkpoint_tree, restore_tree
    from repro.kernel import Kernel

    def run():
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

        client = RedisClient(kernel, REDIS_PORT)
        assert client.ping()
        return boot_ns, restore_ns

    boot_ns, restore_ns = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation A4: restore customized image vs full re-initialization",
        ["path", "virtual ms"],
        [["cold boot to ready", f"{boot_ns / 1e6:.0f}"],
         ["restore post-init image", f"{restore_ns / 1e6:.0f}"]],
    )
    (results_dir / "ablation_restore_vs_reinit.json").write_text(json.dumps({
        "boot_ms": boot_ns / 1e6, "restore_ms": restore_ns / 1e6,
    }))
    assert restore_ns < boot_ns


def test_ablation_exec_page_dump(benchmark, results_dir):
    def run():
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
        return with_flag.total_pages(), without_flag.total_pages()

    pages_with, pages_without = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation A3: DynaCut's CRIU page-dump modification",
        ["dump_exec_pages", "image pages", "code patchable in image"],
        [["True (DynaCut)", pages_with, "yes"],
         ["False (vanilla CRIU)", pages_without, "no (rebuilt from binary)"]],
    )
    (results_dir / "ablation_exec_dump.json").write_text(json.dumps({
        "pages_with_exec_dump": pages_with,
        "pages_without": pages_without,
    }))
    assert pages_with > pages_without
