"""The command-line tools (tracediff, crit, dynalint, telemetry), the
DynaFlow study's guest rows, and small runs of the fleet-rollout and
trace scenarios through the campaign runner."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from argparse import Namespace
from functools import partial

import pytest

from repro.criu.images import (
    CoreImage,
    MmImage,
    RegsImage,
    SigactionEntry,
    VmaEntry,
)
from repro.experiments import dynaflow_refinement, recorded
from repro.tools import crit_cli, tracediff_cli
from repro.tools.campaign import CAMPAIGNS, Campaign, finish
from repro.tracing import BlockRecord, CoverageTrace, ModuleEntry


@pytest.fixture()
def trace_files(tmp_path):
    def write(name, records):
        trace = CoverageTrace(modules=[ModuleEntry("app", 0x400000, 0x500000)])
        for offset, size in records:
            trace.add(BlockRecord("app", offset, size))
        path = tmp_path / name
        path.write_text(trace.to_text())
        return str(path)

    wanted = write("wanted.cov", [(0x10, 4), (0x20, 8)])
    undesired = write("undesired.cov", [(0x10, 4), (0x40, 8), (0x50, 4)])
    return wanted, undesired


class TestTracediffCli:
    def test_prints_unique_blocks(self, trace_files, capsys):
        wanted, undesired = trace_files
        code = tracediff_cli.main(
            ["--module", "app", "--wanted", wanted, "--undesired", undesired]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 unique blocks" in out
        assert "0x40 8" in out
        assert "0x50 4" in out
        assert "0x10" not in out.splitlines()[-2:]

    def test_exit_code_one_when_nothing_unique(self, trace_files, capsys):
        wanted, __ = trace_files
        code = tracediff_cli.main(
            ["--module", "app", "--wanted", wanted, "--undesired", wanted]
        )
        assert code == 1


class TestCritCli:
    def _core_file(self, tmp_path):
        core = CoreImage(
            pid=9, ppid=1, binary="app",
            regs=RegsImage(list(range(16)), 0x400100, False, False),
            sigactions=[SigactionEntry(5, 0x7D0000, 0x7D0040)],
        )
        path = tmp_path / "core-9.img"
        path.write_bytes(core.to_bytes())
        return path

    def test_decode_encode_roundtrip(self, tmp_path, capsys):
        img = self._core_file(tmp_path)
        json_path = tmp_path / "core-9.json"
        crit_cli.main(["decode", str(img), "-o", str(json_path)])
        payload = json.loads(json_path.read_text())
        assert payload["pid"] == 9
        out_img = tmp_path / "out.img"
        crit_cli.main(["encode", str(json_path), "-o", str(out_img)])
        assert out_img.read_bytes() == img.read_bytes()

    def test_decode_to_stdout(self, tmp_path, capsys):
        img = self._core_file(tmp_path)
        crit_cli.main(["decode", str(img)])
        assert '"pid": 9' in capsys.readouterr().out

    def test_show_core(self, tmp_path, capsys):
        img = self._core_file(tmp_path)
        crit_cli.main(["show", str(img)])
        out = capsys.readouterr().out
        assert "pid=9" in out
        assert "sigaction 5" in out

    def test_show_mm(self, tmp_path, capsys):
        mm = MmImage([VmaEntry(0x400000, 0x401000, "r-x", "app", 0x400000)])
        path = tmp_path / "mm.img"
        path.write_bytes(mm.to_bytes())
        crit_cli.main(["show", str(path)])
        out = capsys.readouterr().out
        assert "1 VMAs" in out
        assert "r-x app" in out


class TestDynalintCli:
    def test_demo_export_lint_roundtrip(self, tmp_path, capsys):
        from repro.tools import dynalint_cli

        export = tmp_path / "img"
        code = dynalint_cli.main(["demo", "--export", str(export)])
        out = capsys.readouterr().out
        assert code == 0
        assert "dynalint: image clean" in out
        assert (export / "inventory.img").exists()

        code = dynalint_cli.main(["lint", str(export), "--app", "redis"])
        out = capsys.readouterr().out
        assert code == 0
        assert "dynalint: image clean" in out

    def test_lint_flags_corrupted_export(self, tmp_path, capsys):
        from repro.tools import dynalint_cli

        export = tmp_path / "img"
        assert dynalint_cli.main(["demo", "--export", str(export)]) == 0
        capsys.readouterr()

        # scribble a non-int3 byte over the server's dumped text pages
        from repro.criu.images import CheckpointImage
        from repro.tools.dynalint_cli import _HostFS

        host = _HostFS(export)
        checkpoint = CheckpointImage.load(host, ".")
        image = checkpoint.root()
        text_vma = next(
            v for v in image.mm.vmas
            if v.file_path == "miniredis" and v.executable
        )
        pristine = image.read_memory(text_vma.start + 64, 1)[0]
        image.write_memory(
            text_vma.start + 64, bytes([pristine ^ 0x41])
        )
        checkpoint.save(host, ".")

        code = dynalint_cli.main(["lint", str(export), "--app", "redis"])
        out = capsys.readouterr().out
        assert code == 1
        assert "DL" in out


class TestDynalintJson:
    def test_demo_json_is_deterministic_and_parseable(self, capsys):
        from repro.tools import dynalint_cli

        code = dynalint_cli.main(["demo", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["feature_blocks"] > 0
        assert payload["blocked_response"].startswith("-ERR")
        # stable key order: re-serializing sorted must reproduce stdout
        assert out.strip() == json.dumps(payload, indent=2, sort_keys=True)

    def test_lint_json_roundtrip(self, tmp_path, capsys):
        from repro.tools import dynalint_cli

        export = tmp_path / "img"
        assert dynalint_cli.main(["demo", "--export", str(export)]) == 0
        capsys.readouterr()
        code = dynalint_cli.main(
            ["lint", str(export), "--app", "redis", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["diagnostics"] == []

    # the DynaFlow study's row for one guest, as the dynaflow-refinement
    # record computes it
    def test_analyze_single_guest_prints_payload(self):
        row = dynaflow_refinement.analyze_guest("605.mcf_s")
        # the deterministic row, serialised as the committed study is
        text = json.dumps(row, indent=2, sort_keys=True)
        assert json.loads(text) == row
        assert row["guest"] == "605.mcf_s"
        assert row["kind"] == "spec-init"
        assert row["mode"] == "prove"
        assert row["flow"]["resolved_external"] > 0
        # a SPEC guest runs under no verifier, so it restores nothing
        assert "verify" not in row

    def test_analyze_table_output(self):
        payload = dynaflow_refinement.collect_refinement(("605.mcf_s",))
        assert payload["totals"]["provably_dead_restores"] == 0
        out = dynaflow_refinement.summary(payload)
        assert "605.mcf_s" in out
        assert "mode=prove" in out
        assert "total suspects" in out


def _small(name: str, runs: list, describe, figures=None) -> Campaign:
    """Record ``name`` over its small ``runs``, writing its files."""
    return Campaign(
        name, CAMPAIGNS[name].files,
        lambda args: recorded(args.output, runs, describe, figures=figures),
    )


class TestFleetCli:
    """The fleet-rollout record's scenario, small, through the runner."""

    def test_rollout_writes_clean_report(self, tmp_path, capsys):
        from repro.experiments import fleet_rollout

        small = partial(
            fleet_rollout.canary_record, size=2, max_unavailable=1,
            probe_requests=2, duration_s=20,
        )
        out = tmp_path / "fleet.json"
        code = finish(
            _small("fleet-rollout", [("fleet-rollout", small)],
                   fleet_rollout.describe),
            Namespace(output=out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["clean"]
        record = payload["campaigns"][0]
        assert record["rollout"]["state"] == "completed"
        assert record["workload"]["failed_requests"] == 0
        assert "CLEAN" in capsys.readouterr().out


class TestTraceCli:
    """The trace record's scenario, small, through the runner."""

    def test_check_replays_identically_from_cleared_caches(
        self, tmp_path, capsys
    ):
        from repro.analysis.cfg import _CFG_CACHE
        from repro.analysis.dataflow.valueset import _FLOW_CACHE
        from repro.experiments import trace_attribution

        _CFG_CACHE.clear()
        _FLOW_CACHE.clear()
        output = tmp_path / "trace.json"
        small = partial(trace_attribution.run_seed, 900, shards=2)
        assert finish(
            _small("trace", [("trace-900", small)], trace_attribution.describe,
                   trace_attribution.figures),
            Namespace(output=output),
        ) == 0
        printed = capsys.readouterr().out
        assert "determinism: byte-identical re-export" in printed
        assert json.loads(output.read_text())["clean"] is True


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module,args", [
        ("report", ["{tmp}"]),
        ("crit_cli", ["--help"]),
        ("tracediff_cli", ["--help"]),
        ("dynalint_cli", ["--help"]),
        ("telemetry_cli", ["--help"]),
    ])
    def test_runs_without_a_runpy_warning(self, module, args, tmp_path):
        # the tools package imports none of its submodules, so running
        # one with ``-m`` finds it not yet loaded
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             f"repro.tools.{module}",
             *(arg.format(tmp=tmp_path) for arg in args)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "RuntimeWarning" not in done.stderr
