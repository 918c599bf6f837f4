"""``telemetry`` CLI — replay and verify a recorded DynaScope run.

``report`` rebuilds the aggregates from a ``.jsonl`` event stream
alone (:func:`~repro.telemetry.summarize_events`); ``check`` strictly
parses a ``.prom`` snapshot (the CI assertion).  The ``telemetry``
campaign record (:mod:`repro.experiments.telemetry_rollout`) writes
both beside ``results/telemetry_rollout.json``.

Usage::

    python -m repro.tools.telemetry_cli report EVENTS.jsonl [--output FILE]
    python -m repro.tools.telemetry_cli check SNAPSHOT.prom
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from ..telemetry import parse_prometheus, read_jsonl, summarize_events


def run_report(args) -> int:
    events = read_jsonl(pathlib.Path(args.events).read_text())
    summary = summarize_events(events)
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text + "\n")
        print(f"{summary['events']} events summarized -> {args.output}")
    else:
        print(text)
    return 0


def run_check(args) -> int:
    text = pathlib.Path(args.snapshot).read_text()
    try:
        values = parse_prometheus(text)
    except ValueError as exc:
        print(f"MALFORMED snapshot {args.snapshot}: {exc}")
        return 1
    if not values:
        print(f"EMPTY snapshot {args.snapshot}")
        return 1
    families = {key.split("{", 1)[0] for key in values}
    print(
        f"OK {args.snapshot}: {len(values)} samples across "
        f"{len(families)} families"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="telemetry")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="rebuild aggregates from a .jsonl")
    report.add_argument("events", help="JSONL event stream to summarize")
    report.add_argument("--output", type=pathlib.Path, default=None)

    check = sub.add_parser("check", help="strictly parse a .prom snapshot")
    check.add_argument("snapshot", help="Prometheus text snapshot to parse")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return run_report(args)
    return run_check(args)


if __name__ == "__main__":
    sys.exit(main())
