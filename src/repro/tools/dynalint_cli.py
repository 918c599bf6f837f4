"""``dynalint`` CLI — static checks over rewritten checkpoint images.

Three workflows::

    # run the quickstart rewrite and lint its image, optionally
    # exporting the rewritten image files to a host directory
    python -m repro.tools.dynalint_cli demo [--export DIR] [--json]

    # lint previously exported image files from a host directory
    python -m repro.tools.dynalint_cli lint DIR [--app redis] [--json]

    # run the DynaFlow refinement study over the server/SPEC guests
    # and print a line per guest, or the payload as JSON
    python -m repro.tools.dynalint_cli analyze [--json] [--guest NAME ...]

The committed ``results/dynaflow_refinement.json`` is the same study
over every guest, written by its campaign record
(``python -m repro.tools.campaign dynaflow-refinement``).

The linter needs the pristine binaries the image was built from, so
``lint`` boots the named application's kernel (staging registers the
binaries without running the workload) before decoding the images.

Exit status: ``demo``/``lint`` exit 0 when no *error*-severity
diagnostic fired (warnings alone keep exit 0), 1 otherwise.
``analyze`` exits 0 when every guest got a full dataflow proof (no
fallback) and no verifier restore touched a provably-dead block.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from ..analysis.lint import lint_checkpoint
from ..criu.images import CheckpointImage
from ..kernel import Kernel
from ..workloads import HttpResponse
from ..workloads.corpus import CORPORA, DYNALINT_SPEC, Profile, profile, send

#: server guests measured by ``analyze`` (feature-removal profiles)
SERVER_GUESTS = ("redis", "lighttpd", "nginx")
#: SPEC guests measured by ``analyze`` (init-code removal profiles)
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


class _HostFS:
    """Adapter giving CheckpointImage.load/save a host directory."""

    def __init__(self, root: pathlib.Path):
        self.root = root

    def read_file(self, path: str) -> bytes:
        return (self.root / pathlib.Path(path).name).read_bytes()

    def write_file(self, path: str, data: bytes) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / pathlib.Path(path).name).write_bytes(data)


def _stage_app(kernel: Kernel, app: str) -> None:
    """Register ``app``'s binaries (and libc) without running it."""
    from ..apps import stage_lighttpd, stage_nginx, stage_redis

    stager = {
        "redis": stage_redis,
        "lighttpd": stage_lighttpd,
        "nginx": stage_nginx,
    }.get(app)
    if stager is None:
        raise SystemExit(f"unknown app {app!r} (redis/lighttpd/nginx)")
    stager(kernel, run_to_ready=False)


def _emit_json(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def run_demo(export: pathlib.Path | None, as_json: bool = False) -> int:
    """The quickstart rewrite with the lint wired in."""
    from ..core import DynaCut, TrapPolicy

    profiled = profile(CORPORA["demo-redis"])
    kernel, client, feature = profiled.kernel, profiled.client, profiled.feature
    assert client is not None and feature is not None
    dynacut = DynaCut(kernel, lint_mode="always")
    report = dynacut.disable_feature(
        profiled.root.pid, feature,
        policy=TrapPolicy.REDIRECT,
        redirect_symbol="redis_unknown_cmd",
    )
    blocked = client.command("SET k v")

    if export is not None:
        source_dir = dynacut.image_dir
        host = _HostFS(export)
        checkpoint = CheckpointImage.load(kernel.fs, source_dir)
        checkpoint.save(host, source_dir)

    assert report.lint is not None
    if as_json:
        payload = report.lint.to_dict()
        payload["feature_blocks"] = feature.count
        payload["blocked_response"] = blocked
        _emit_json(payload)
    else:
        print(f"feature SET: {feature.count} unique blocks; "
              f"blocked response: {blocked!r}")
        if export is not None:
            print(f"exported image files to {export}")
        print(report.lint.summary())
    return 0 if report.lint.ok else 1


def run_lint(directory: pathlib.Path, app: str, as_json: bool = False) -> int:
    kernel = Kernel()
    _stage_app(kernel, app)
    checkpoint = CheckpointImage.load(_HostFS(directory), ".")
    report = lint_checkpoint(kernel, checkpoint)
    if as_json:
        _emit_json(report.to_dict())
    else:
        print(report.summary())
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# the DynaFlow refinement study (the ``analyze`` subcommand)


def _dispatcher_entries(profiled: Profile) -> list | None:
    """The feature's blocks inside the app's dispatch function."""
    from ..core.dynacut import enclosing_function

    dispatcher = DISPATCHERS.get(profiled.corpus.app)
    if dispatcher is None:
        return None
    binary = profiled.kernel.binaries[profiled.binary]
    dispatcher_fn = enclosing_function(
        binary, binary.symbol_address(dispatcher)
    )
    entries = [
        block for block in profiled.blocks
        if enclosing_function(binary, block.offset) == dispatcher_fn
    ]
    return entries or None


def _flow_summary(image) -> dict:
    """Deterministic indirect-resolution/hazard stats for one image."""
    from ..analysis.dataflow import analyze_image_flow

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
    from ..core import BlockMode, DynaCut, TrapPolicy
    from ..core.verifier import read_verifier_log

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
    from ..analysis.reachability import refine_removal_set

    if name not in SERVER_GUESTS + SPEC_GUESTS:
        known = ", ".join(sorted(SERVER_GUESTS + SPEC_GUESTS))
        raise SystemExit(f"unknown guest {name!r} (known: {known})")
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


def collect_refinement(guests: tuple[str, ...] | None = None) -> dict:
    """The full refinement study payload (``dynaflow_refinement.json``)."""
    if not guests:
        guests = SERVER_GUESTS + SPEC_GUESTS
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


def run_analyze(as_json: bool = False, guests: tuple[str, ...] | None = None) -> int:
    payload = collect_refinement(guests)
    if as_json:
        _emit_json(payload)
    else:
        print(summary(payload))
    clean = all(r["mode"] == "prove" for r in payload["guests"])
    return 0 if clean and payload["totals"]["provably_dead_restores"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynalint")
    sub = parser.add_subparsers(dest="command", required=True)
    demo = sub.add_parser("demo", help="quickstart rewrite + lint")
    demo.add_argument("--export", type=pathlib.Path, default=None,
                      help="write the rewritten image files here")
    demo.add_argument("--json", action="store_true",
                      help="emit the lint report as deterministic JSON")
    lint = sub.add_parser("lint", help="lint exported image files")
    lint.add_argument("directory", type=pathlib.Path)
    lint.add_argument("--app", default="redis",
                      help="application whose binaries the image uses")
    lint.add_argument("--json", action="store_true",
                      help="emit the lint report as deterministic JSON")
    analyze = sub.add_parser(
        "analyze", help="DynaFlow refinement study over the guests"
    )
    analyze.add_argument("--json", action="store_true",
                         help="print the payload as JSON")
    analyze.add_argument("--guest", action="append", default=None,
                         help="restrict to this guest (repeatable)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return run_demo(args.export, args.json)
    if args.command == "analyze":
        guests = tuple(args.guest) if args.guest else None
        return run_analyze(args.json, guests)
    return run_lint(args.directory, args.app, args.json)


if __name__ == "__main__":
    sys.exit(main())
