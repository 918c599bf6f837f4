"""``dynalint`` CLI — static checks over rewritten checkpoint images.

Two workflows::

    # run the quickstart rewrite and lint its image, optionally
    # exporting the rewritten image files to a host directory
    python -m repro.tools.dynalint_cli demo [--export DIR] [--json]

    # lint previously exported image files from a host directory
    python -m repro.tools.dynalint_cli lint DIR [--app redis] [--json]

The DynaFlow refinement study over the server and SPEC guests is the
``dynaflow-refinement`` campaign record
(:mod:`repro.experiments.dynaflow_refinement`).

The linter needs the pristine binaries the image was built from, so
``lint`` boots the named application's kernel (staging registers the
binaries without running the workload) before decoding the images.

Exit status: 0 when no *error*-severity diagnostic fired (warnings
alone keep exit 0), 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from ..analysis.lint import lint_checkpoint
from ..criu.images import CheckpointImage
from ..kernel import Kernel
from ..workloads.corpus import CORPORA, profile


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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return run_demo(args.export, args.json)
    return run_lint(args.directory, args.app, args.json)


if __name__ == "__main__":
    sys.exit(main())
