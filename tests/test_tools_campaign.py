"""The campaign registry and runner (``repro.tools.campaign``).

The runner replays every campaign before it writes anything, so a body
whose output depends on process state must fail loudly; the registry is
the one list of campaigns, so the docs results table and the CI matrix
must agree with it.
"""

import dataclasses
import fnmatch
import json
import pathlib
import re
from argparse import Namespace
from collections import Counter
from collections.abc import Callable

import pytest
import yaml

from repro import telemetry
from repro.fleet import apps
from repro.telemetry import (
    TelemetryHub,
    parse_prometheus,
    prometheus_snapshot,
    read_jsonl,
)
from repro.tools.campaign import (
    CAMPAIGNS,
    Campaign,
    finish,
    registry,
    run_seeded,
)

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
        runs=lambda args: [("probe-1", body)],
        describe=lambda record: f"probe: {record['calls']} calls",
        flags=lambda parser: None,
    )


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
        assert "determinism: byte-identical re-export (2 events)" in printed
        assert "probe: 1 calls" in printed

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
    def test_fleet_drift_report_is_ignored_and_its_own(self):
        assert CAMPAIGNS["fleet-drift"].files == ("results/fleet_drift.json",)
        assert "fleet-drift" not in committed_campaigns()

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
        entries = {}
        for entry in ci_campaign_entries():
            lines = entry["run"].replace("\\\n", " ").strip().splitlines()
            names = COMMAND.findall(entry["run"])
            if not names:
                continue
            assert len(names) == 1, entry["name"]
            assert names[0] not in entries, f"two entries run {names[0]}"
            *__, last = lines
            diffed = last.split()
            assert diffed[:4] == ["git", "diff", "--exit-code", "--"], entry["name"]
            entries[names[0]] = tuple(diffed[4:])
        assert entries == committed_campaigns()

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
