"""The campaign registry and runner (``repro.tools.campaign``).

The runner replays every campaign before it writes anything, so a pass
whose files depend on process state must fail loudly; the registry is
the one list of campaigns behind every committed result, so the docs
results table and the CI matrix must agree with it.
"""

import dataclasses
import fnmatch
import json
import os
import pathlib
import re
import subprocess
import sys
from argparse import Namespace
from collections import Counter
from collections.abc import Callable

import pytest
import yaml

from repro import telemetry
from repro.experiments import (
    Pass,
    claims,
    dynaflow_refinement,
    recorded,
    run_seeded,
)
from repro.fleet import apps
from repro.telemetry import (
    TelemetryHub,
    parse_prometheus,
    prometheus_snapshot,
    read_jsonl,
)
from repro.tools.campaign import CAMPAIGNS, Campaign, finish, main, registry

ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMAND = re.compile(r"python -m repro\.tools\.campaign ([\w-]+)")

#: read by the nondeterministic body: its second pass sees another value
_BODY_CALLS = 0


def _leaky_body(hub: TelemetryHub) -> dict:
    global _BODY_CALLS
    _BODY_CALLS += 1
    hub.count("probe_total")
    return {"ok": True, "calls": _BODY_CALLS}


def _steady_body(hub: TelemetryHub) -> dict:
    hub.count("probe_total", app="probe")
    hub.emit("probe", "steady")
    return {"ok": True, "calls": 1}


def _probe(body) -> Campaign:
    return Campaign(
        "probe", ("probe.json",),
        lambda args: recorded(
            args.output, [("probe-1", body)],
            describe=lambda record: f"probe: {record['calls']} calls",
        ),
    )


def _drawn(figure: Callable[[], str]) -> Campaign:
    """A probe whose report is steady and whose figure is ``figure()``."""
    def one_pass(args: Namespace) -> Pass:
        return Pass({
            args.output: "{}\n",
            args.output.with_name("probe.svg"): figure(),
        })

    return Campaign("probe", ("probe.json", "probe.svg"), one_pass)


class TestRunner:
    def test_replay_divergence_exits_1_and_writes_nothing(
        self, tmp_path, capsys
    ):
        output = tmp_path / "probe.json"
        assert finish(_probe(_leaky_body), Namespace(output=output)) == 1
        assert list(tmp_path.iterdir()) == []
        assert "DETERMINISM VIOLATED" in capsys.readouterr().out

    def test_deterministic_campaign_writes_report_and_sidecars(
        self, tmp_path, capsys
    ):
        output = tmp_path / "probe.json"
        assert finish(_probe(_steady_body), Namespace(output=output)) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "probe.json", "probe.jsonl", "probe.prom",
        ]
        report = json.loads(output.read_text())
        assert report["clean"] and report["campaigns_ok"] == 1
        assert report["campaigns"][0]["calls"] == 1
        events = read_jsonl(output.with_suffix(".jsonl").read_text())
        assert [event.kind for event in events] == ["probe", "campaign"]
        samples = parse_prometheus(output.with_suffix(".prom").read_text())
        assert samples == {'dynacut_probe_total{app="probe",run="probe-1"}': 1.0}
        printed = capsys.readouterr().out
        assert "determinism: byte-identical re-export of 3 files" in printed
        assert "probe: 1 calls" in printed

    def test_figure_divergence_exits_1_and_writes_nothing(
        self, tmp_path, capsys
    ):
        drawn = iter(("<svg>1</svg>", "<svg>2</svg>"))
        output = tmp_path / "probe.json"
        assert finish(_drawn(lambda: next(drawn)), Namespace(output=output)) == 1
        assert list(tmp_path.iterdir()) == []
        assert "diverged in probe.svg" in capsys.readouterr().out

    def test_failed_claim_writes_then_exits_1(self, tmp_path, capsys):
        def one_pass(args: Namespace) -> Pass:
            return Pass({args.output: "{}\n"}, failed=claims(lambda: _claim(1)))

        def _claim(count: int) -> None:
            assert count == 2, "two of them"

        output = tmp_path / "probe.json"
        probe = Campaign("probe", ("probe.json",), one_pass)
        assert finish(probe, Namespace(output=output)) == 1
        assert output.read_text() == "{}\n"
        printed = capsys.readouterr().out
        assert "VIOLATED: test_tools_campaign.py" in printed
        assert 'assert count == 2, "two of them" (two of them)' in printed

    def test_claims_fail_when_python_strips_asserts(self):
        # under -O no assert runs, so a record may not call itself clean
        done = subprocess.run(
            [sys.executable, "-O", "-c",
             "from repro.experiments import claims; print(claims(lambda: None))"],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "python -O removes" in done.stdout

    def test_fig10_reproduces_its_committed_files(self, tmp_path):
        output = tmp_path / "fig10_live_blocks.json"
        assert finish(CAMPAIGNS["fig10"], Namespace(output=output)) == 0
        for name in ("fig10_live_blocks.json", "fig10_live_blocks.svg"):
            assert (tmp_path / name).read_bytes() == (
                ROOT / "results" / name
            ).read_bytes(), name

    def test_multi_run_sidecar_is_one_exposition_keeping_every_run(
        self, tmp_path
    ):
        def body(count: int) -> Callable[[TelemetryHub], dict]:
            def run(hub: TelemetryHub) -> dict:
                hub.count("probe_total", count, app="probe")
                hub.observe("probe_ns", 1_000_000 * count)
                return {"ok": True}
            return run

        results = run_seeded({}, [("probe-1", body(1)), ("probe-2", body(2))])
        output = tmp_path / "probe.json"
        text = results.exports(output)[output.with_suffix(".prom")]
        # one TYPE header per family, however many runs
        headers = [line for line in text.splitlines() if line.startswith("# TYPE")]
        assert len(headers) == len(set(headers)) == 3
        samples = parse_prometheus(text)
        assert samples['dynacut_probe_total{app="probe",run="probe-1"}'] == 1
        assert samples['dynacut_probe_total{app="probe",run="probe-2"}'] == 2
        assert samples['dynacut_probe_ns_count{run="probe-1"}'] == 1
        assert samples['dynacut_probe_ns_count{run="probe-2"}'] == 1
        assert samples['dynacut_probe_ns_sum{run="probe-2"}'] == 2_000_000

    def test_registry_rejects_two_campaigns_writing_one_file(self):
        probe = _probe(_steady_body)
        with pytest.raises(ValueError, match="both write probe.json"):
            registry(probe, dataclasses.replace(probe, name="other"))

    @pytest.mark.parametrize(
        "app_name,feature",
        [
            (app.name, feature)
            for app in apps.FLEET_APPS.values()
            for feature in app.features
        ],
    )
    def test_cold_feature_profile_records_nothing(
        self, app_name, feature, monkeypatch
    ):
        # the profile cache is process-wide and every campaign replays
        # with it warm, so a cold profile may not record anything
        monkeypatch.delitem(
            apps._PROFILE_CACHE, (app_name, feature), raising=False
        )
        hub = TelemetryHub()
        with telemetry.recording(hub):
            apps.profile_feature(apps.get_app(app_name), feature)
        assert hub.events == []
        assert prometheus_snapshot(hub.registry) == ""


def _refinement(prove_suspects: int) -> dict:
    """A DynaFlow study payload whose every claim but the baseline
    comparison holds; lighttpd keeps ``prove_suspects`` suspects."""
    def row(guest: str, suspects: int) -> dict:
        return {
            "guest": guest, "mode": "prove", "removal_set": 70,
            "legacy": {"suspect": 60}, "prove": {"suspect": suspects},
            "flow": {"resolved_external": 3, "unresolved": 0},
            "verify": {"responses": ["200"], "trap_restores": 1,
                       "provably_dead_restores": 0},
        }

    return {
        "guests": [row("redis", 5), row("lighttpd", prove_suspects)],
        "totals": {"legacy_suspects": 120, "prove_suspects": 5 + prove_suspects,
                   "suspect_shrinkage_pct": 50.0, "provably_dead_restores": 0},
    }


class TestDynaflowBaseline:
    """The record compares lighttpd's prove-mode suspects with the
    committed DynaLint baseline, wherever it writes."""

    @pytest.mark.parametrize("prove_suspects,clean", [(37, True), (57, False)])
    def test_verdict_does_not_depend_on_the_output_directory(
        self, prove_suspects, clean, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(ROOT)
        monkeypatch.setattr(dynaflow_refinement, "collect_refinement",
                            lambda guests: _refinement(prove_suspects))
        # a stale baseline beside one output reports no suspects at all
        beside, bare = tmp_path / "beside", tmp_path / "bare"
        beside.mkdir()
        (beside / "dynalint_refinement.json").write_text(
            json.dumps({"refined": {"classification": {"suspect": 0}}}))
        verdicts = [
            dynaflow_refinement.run(
                Namespace(output=directory / "dynaflow_refinement.json")).failed
            for directory in (beside, bare)
        ]
        assert verdicts[0] == verdicts[1]
        # the committed baseline keeps 57 lighttpd suspects
        assert (verdicts[0] is None) is clean

    def test_missing_baseline_fails_the_claim(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(dynaflow_refinement, "collect_refinement",
                            lambda guests: _refinement(37))
        verdict = dynaflow_refinement.run(
            Namespace(output=tmp_path / "dynaflow_refinement.json")).failed
        assert "no baseline at results/dynalint_refinement.json" in verdict


def committed_campaigns() -> dict[str, tuple[str, ...]]:
    """Registry campaigns whose files are committed (not git-ignored)."""
    ignored = set((ROOT / ".gitignore").read_text().split())
    return {
        name: campaign.files
        for name, campaign in CAMPAIGNS.items()
        if not ignored.issuperset(campaign.files)
    }


def committed_results() -> set[str]:
    """Every file in ``results/`` that ``.gitignore`` does not exclude."""
    patterns = (ROOT / ".gitignore").read_text().split()
    return {
        f"results/{path.name}"
        for path in (ROOT / "results").iterdir()
        if path.is_file()
        and not any(
            fnmatch.fnmatch(f"results/{path.name}", pattern) for pattern in patterns
        )
    }


def ci_campaign_entries() -> list[dict]:
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "ci.yml").read_text())
    return workflow["jobs"]["campaigns"]["strategy"]["matrix"]["include"]


class TestRegistryIsTheOneList:
    def test_every_record_takes_only_output(self, capsys):
        # a record's parameters are its module's constants: the one
        # flag moves its report
        flags = {}
        for name in CAMPAIGNS:
            with pytest.raises(SystemExit) as done:
                main([name, "--help"])
            assert done.value.code == 0, name
            flags[name] = re.findall(
                r"^  (--[\w-]+)", capsys.readouterr().out, re.MULTILINE
            )
        assert flags == {name: ["--output"] for name in CAMPAIGNS}

    def test_docs_results_table_matches_registry(self):
        rows = {}
        doc = (ROOT / "docs" / "observability.md").read_text()
        for line in doc.splitlines():
            cells = line.split(" | ")
            match = COMMAND.fullmatch(cells[-1].strip(" |`")) if cells else None
            if match:
                assert match[1] not in rows, f"two rows for {match[1]}"
                rows[match[1]] = tuple(re.findall(r"`(results/[^`]+)`", cells[0]))
        assert rows == committed_campaigns()

    def test_ci_matrix_matches_registry(self):
        # an entry may run several records; its last line diffs exactly
        # the union of their files, and each committed record runs in
        # exactly one entry
        ran = Counter()
        for entry in ci_campaign_entries():
            lines = entry["run"].replace("\\\n", " ").strip().splitlines()
            names = COMMAND.findall(entry["run"])
            if not names:
                continue
            ran.update(names)
            *__, last = lines
            diffed = last.split()
            assert diffed[:4] == ["git", "diff", "--exit-code", "--"], entry["name"]
            assert sorted(diffed[4:]) == sorted(
                path for name in names for path in CAMPAIGNS[name].files
            ), entry["name"]
        assert set(ran) == set(committed_campaigns())
        assert set(ran.values()) == {1}

    def test_every_committed_result_is_documented_and_diffed_once(self):
        documented = Counter(
            path
            for line in (ROOT / "docs" / "observability.md").read_text().splitlines()
            if line.startswith("| `results/")
            for path in re.findall(r"`(results/[^`]+)`", line.split(" | ")[0])
        )
        diffed = Counter()
        for entry in ci_campaign_entries():
            for line in entry["run"].replace("\\\n", " ").splitlines():
                words = line.split()
                if words[:4] == ["git", "diff", "--exit-code", "--"]:
                    diffed.update(words[4:])
        committed = committed_results()
        assert committed
        for where, named in (("docs table", documented), ("CI diff lines", diffed)):
            assert set(named) == committed, where
            assert set(named.values()) == {1}, where
