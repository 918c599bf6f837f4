"""DynaBench: host time of the DynaCut simulator, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-steady --seed 1 \\
        --seconds 12 --trace 0

The simulator's results are in virtual time; this benchmark measures
the **host** time it takes to compute them, from outside the program,
through its public API only.  Every measured process is a fresh
interpreter (``perfbench/worker.py``) running one single-threaded
closed loop with one client, so caches start cold by construction.
Host times are CPU seconds divided by the host's slowness of the
moment, sampled with a calibration loop in the same process every
0.1 CPU second (``perfbench/hostclock.py``): reference seconds.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s`` -- the measured process's cold set-up (one per run: a
  fresh interpreter is the only way to get cold caches);
* ``run_s`` (host time of the measured phase), ``req_host_ms_p50`` and
  ``req_host_ms_p99`` (host time of each request call alone) and
  ``peak_rss_mb``;
* ``guest_mips`` and ``req_per_host_s``: the median, over ten
  consecutive slices of the measured phase, of guest steps and of
  requests per host second, so a few slow seconds of a shared host do
  not move them.

``--trace 1`` runs the workload traced and prints the per-layer metrics
plus the tracing cost, against an untraced run of the same seed: the
one an earlier ``--trace 0`` run in this checkout left in
``.perfbench/``, else a fresh one.  End-to-end numbers never come from
a traced run.

A run is correct when every reply matched the host-side model, no
transaction rolled back, every scheduled event fired, the workload's
own invariants held (mesh: ``issued == served + failed_over + shed``,
one-shard blast radius, recovered host), and the ``virtual_digest``
matches the recorded one.  The digest hashes the virtual-time record:
final clock(s), request/served/failed counts, per-bucket completions,
fired events, customize outcomes, verifier traps and frontend counts.
Recorded digests come from ``perfbench/digests.json`` and from earlier
runs in the same checkout (``.perfbench/digests.json``); a traced run
must also match its untraced twin.  The last stdout line is the JSON
result; the exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402

CONFIG = json.loads((ROOT / "perfbench" / "config.json").read_text())
RECORDED = ROOT / "perfbench" / "digests.json"
LOCAL = ROOT / ".perfbench" / "digests.json"
#: a run must end within this many seconds, whatever it does
BUDGET_S = 170

#: (name, unit) of every end-to-end metric, in print order
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("guest_mips", "Minstr/s"),
    ("req_per_host_s", "1/s"),
    ("req_host_ms_p50", "ms"),
    ("req_host_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
)


class RunFailed(RuntimeError):
    """A worker process failed or ran out of time."""


# ----------------------------------------------------------------------
# worker processes


def _command(args, traced: bool = False) -> list[str]:
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    return command + (["--traced"] if traced else [])


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    # set and dict iteration orders must not differ between processes
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(command: list[str], deadline: float) -> dict:
    """Run one worker process to completion; return its JSON result."""
    proc = subprocess.Popen(command, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, __ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed("worker ran past the time budget") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# metrics


def end_to_end(main: dict) -> dict[str, dict]:
    request_ms = [s * 1e3 for s in main["request_s"]]
    p50 = stats.percentile(request_ms, 0.5)
    p99 = stats.percentile(request_ms, 0.99)
    windows = main["windows"]
    mips = statistics.median(w_steps / w_s / 1e6 for w_s, w_steps, __, __ in windows)
    rate = statistics.median(w_reqs / w_s for w_s, __, w_reqs, __ in windows)
    values = {
        "setup_s": (main["setup_s"], 1),
        "run_s": (main["run_s"], 1),
        "guest_mips": (mips, len(windows)),
        "req_per_host_s": (rate, len(windows)),
        "req_host_ms_p50": (p50["value"], p50["n"]),
        "req_host_ms_p99": (p99["value"], p99["n"]),
        "peak_rss_mb": (main["peak_rss_mb"], 1),
    }
    return {
        name: {"value": values[name][0], "unit": unit, "n": values[name][1]}
        for name, unit in END_TO_END
    }


def per_layer(plain: dict, traced: dict) -> dict[str, dict]:
    """Every per-layer metric of BENCHMARK.json, from one traced run."""
    trace = traced["trace"]
    by_name = trace["by_name"]
    leaves = trace["leaves"]
    counts = trace["counts"]
    layer_ns = trace["layer_self_ns"]

    def calls(*names: str) -> int:
        return sum(by_name.get(name, {}).get("calls", 0) for name in names)

    def total_s(*names: str) -> float:
        return sum(by_name.get(name, {}).get("total_ns", 0) for name in names) / 1e9

    def self_s(name: str) -> float:
        return by_name.get(name, {}).get("self_ns", 0) / 1e9

    def layer_s(layer: str) -> float:
        return layer_ns.get(layer, 0) / 1e9

    def ratio(hits: str, misses: str) -> float:
        attempts = counts.get(hits, 0) + counts.get(misses, 0)
        return counts.get(hits, 0) / attempts if attempts else 0.0

    def leaf_calls(name: str) -> int:
        return leaves.get(name, [0, 0])[0]

    steps = counts.get("cpu.steps", 0) + counts.get("cpu.direct_steps", 0)
    misses = counts.get("cpu.decode_misses", 0)
    traced_ns = total_s("bench.setup", "bench.run") * 1e9
    cycles_ms = [s * 1e3 for s in plain["cycle_s"]]
    facts = plain["facts"]
    metrics = {
        "cpu.steps": (steps, "count"),
        "cpu.self_s": (layer_s("cpu"), "s"),
        "cpu.decode_misses": (misses, "count"),
        "cpu.decode_hit_ratio": (1 - misses / steps if steps else 0.0, "ratio"),
        "memory.reads": (leaf_calls("AddressSpace.read"), "count"),
        "memory.writes": (leaf_calls("AddressSpace.write"), "count"),
        "memory.fetches": (leaf_calls("AddressSpace.fetch"), "count"),
        "memory.self_s": (layer_s("memory"), "s"),
        "memory.epoch_bumps": (counts.get("memory.epoch_bumps", 0), "count"),
        "syscalls.calls": (calls("SyscallTable.dispatch"), "count"),
        "syscalls.self_s": (layer_s("syscalls"), "s"),
        "net.connects": (calls("NetworkStack.connect"), "count"),
        "net.bytes": (counts.get("net.bytes", 0), "bytes"),
        "net.self_s": (layer_s("net"), "s"),
        "sched.quanta": (calls("CPU.run_quantum"), "count"),
        "sched.self_s": (layer_s("sched"), "s"),
        "criu.checkpoints": (calls("checkpoint_tree"), "count"),
        "criu.restores": (calls("restore_tree"), "count"),
        "criu.pages_dumped": (counts.get("criu.pages_dumped", 0), "count"),
        "criu.checkpoint_s": (total_s("checkpoint_tree"), "s"),
        "criu.restore_s": (total_s("restore_tree"), "s"),
        "criu.image_save_s": (total_s("CheckpointImage.save"), "s"),
        "core.customizes": (calls("DynaCut.customize"), "count"),
        "core.attempts": (counts.get("core.attempts", 0), "count"),
        "core.rewrite_s": (total_s(
            "ImageRewriter.block_entry_int3", "ImageRewriter.wipe_blocks",
            "ImageRewriter.restore_blocks", "ImageRewriter.install_trap_handler",
        ), "s"),
        "core.customize_self_s": (self_s("DynaCut.customize"), "s"),
        "customize_host_ms_p50": (_quantile(cycles_ms, 0.5), "ms"),
        "customize_host_ms_p90": (_quantile(cycles_ms, 0.9), "ms"),
        "analysis.lint_s": (total_s("lint_checkpoint"), "s"),
        "analysis.refine_s": (total_s("refine_removal_set"), "s"),
        "analysis.flow_s": (total_s("analyze_image_flow"), "s"),
        "analysis.cfg_hit_ratio": (ratio("cfg_cache_hits", "cfg_cache_misses"), "ratio"),
        "analysis.flow_hit_ratio": (
            ratio("dynaflow_cache_hits", "dynaflow_cache_misses"), "ratio"),
        "toolchain.s": (total_s("build_libc", "build_miniredis"), "s"),
        "tracing.blocks": (leaf_calls("BlockTracer.on_block"), "count"),
        "tracing.s": (layer_s("tracing"), "s"),
        "tracediff.s": (total_s("TraceDiff.feature_blocks"), "s"),
        "driver.self_s": (self_s("run_request_timeline"), "s"),
        "client.self_s": (layer_s("client"), "s"),
        "fleet.customize_s": (total_s("FleetController.customize"), "s"),
        "fleet.probe_s": (total_s("FleetController.probe"), "s"),
        "fleet.ticks": (calls("FleetSupervisor.tick"), "count"),
        "fleet.tick_s": (total_s("FleetSupervisor.tick"), "s"),
        "fleet.recoveries": (facts.get("fleet.recoveries", 0), "count"),
        "mesh.dispatches": (calls("Frontend.dispatch"), "count"),
        "mesh.failovers": (facts.get("mesh.failovers", 0), "count"),
        "mesh.frontend_self_s": (self_s("Frontend.dispatch"), "s"),
        "mesh.tick_s": (total_s("MeshController.tick"), "s"),
        "telemetry.self_s": (layer_s("telemetry"), "s"),
        "trace.overhead": (traced["run_s"] / plain["run_s"] - 1, "ratio"),
        "trace.unattributed_share": (
            layer_ns.get("bench", 0) / traced_ns if traced_ns else 0.0, "ratio"),
    }
    for host in ("host-0", "host-1"):
        metrics[f"mesh.{host}.keys"] = (facts.get(f"mesh.{host}.keys", 0), "count")
        metrics[f"mesh.{host}.steps_per_get"] = (
            facts.get(f"mesh.{host}.steps_per_get", 0), "steps")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _quantile(samples: list[float], q: float) -> float:
    return stats.percentile(samples, q)["value"] if samples else 0.0


# ----------------------------------------------------------------------
# recorded digests


def _load(path: pathlib.Path) -> dict[str, str]:
    return json.loads(path.read_text()) if path.is_file() else {}


def record_key(args) -> str:
    """Names workload, config, seed and size of a run.

    The workload's config is part of the key, so editing a workload
    retires its old records instead of failing against them.
    """
    config = stats.digest(CONFIG["workloads"][args.workload])[:8]
    return f"{args.workload}/{config}/{args.seed}/{args.seconds:g}"


def check_digest(args, digest: str) -> list[str]:
    """Compare with the recorded digest; record it locally when new."""
    key = record_key(args)
    local = _load(LOCAL)
    problems = []
    for source, recorded in (("perfbench/digests.json", _load(RECORDED)),
                             (".perfbench/digests.json", local)):
        if key in recorded and recorded[key] != digest:
            problems.append(
                f"virtual_digest {digest} != {recorded[key]} recorded in {source}"
            )
    if key not in local:
        local[key] = digest
        _write(LOCAL, local)
    return problems


def _untraced_path(args) -> pathlib.Path:
    return LOCAL.parent / f"untraced-{record_key(args).replace('/', '_')}.json"


def _write(path: pathlib.Path, payload: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    scratch = path.with_suffix(".tmp")
    scratch.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    scratch.replace(path)


# ----------------------------------------------------------------------
# reporting


def print_layers(traced: dict) -> None:
    """Self-time share of each layer, per phase, with its e2e mapping."""
    phases = traced["trace"]["phase_self_ns"]
    totals = {phase: sum(layers.values()) or 1 for phase, layers in phases.items()}
    print(f"{'layer':<10} {'setup %':>8} {'run %':>8}  moves")
    for layer, moves in CONFIG["layers"].items():
        shares = [
            100 * phases.get(phase, {}).get(layer, 0) / totals.get(phase, 1)
            for phase in ("bench.setup", "bench.run")
        ]
        print(f"{layer:<10} {shares[0]:>8.2f} {shares[1]:>8.2f}  {moves}")


def print_extras(main: dict) -> None:
    cycles_ms = [s * 1e3 for s in main["cycle_s"]]
    for q, label in ((0.5, "p50"), (0.9, "p90")):
        if cycles_ms:
            p = stats.percentile(cycles_ms, q)
            print(f"customize_host_ms_{label} = {p['value']:.4f} ms "
                  f"(n={p['n']} disable+enable cycles, {p['beyond']} beyond)")
    ratio = main["failed"] / main["attempted"]
    print(f"failed_ratio = {ratio:.6f} ({main['failed']} of {main['attempted']} "
          f"requests + transactions)")
    for name, value in sorted(main["facts"].items()):
        print(f"{name} = {value:g}")
    print(f"virtual_digest = {main['digest']}")
    print(f"run_wall_s = {main['run_wall_s']:.4f} s (slowness {main['slowness']:.3f}: "
          f"host times below are CPU seconds / slowness)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=CONFIG["default_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no simulator sources under src/repro", file=sys.stderr)
        return 2
    if args.workload not in CONFIG["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    # a traced run reuses the untraced run of the same key when this
    # checkout already made one; only tracing overhead needs it fresh
    reused = args.trace and _untraced_path(args).is_file()
    try:
        if args.trace:
            if reused:
                main_run = json.loads(_untraced_path(args).read_text())
            else:
                main_run = run_worker(_command(args), deadline)
            traced = run_worker(_command(args, traced=True), deadline)
        else:
            main_run = run_worker(_command(args), deadline)
            _write(_untraced_path(args), main_run)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = list(main_run["problems"]) + check_digest(args, main_run["digest"])
    attempted, failed = main_run["attempted"], main_run["failed"]
    if reused:
        attempted = failed = 0  # counted by the run that made them
    if args.trace:
        problems += traced["problems"]
        if traced["digest"] != main_run["digest"]:
            problems.append(
                f"traced virtual_digest {traced['digest']} != untraced "
                f"{main_run['digest']}"
            )
        if traced["steps"] != main_run["steps"]:
            problems.append("traced and untraced runs executed different guest steps")
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics = per_layer(main_run, traced)
        print_layers(traced)
    else:
        metrics = end_to_end(main_run)
    print_extras(main_run)
    for name, metric in metrics.items():
        count = f" (n={metric.pop('n')})" if "n" in metric else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{count}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
