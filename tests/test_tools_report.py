"""Tests for the experiment-report renderer."""

from __future__ import annotations

import json
import pathlib

from repro.tools import report


def _write(tmp_path: pathlib.Path, name: str, payload) -> None:
    (tmp_path / f"{name}.json").write_text(json.dumps(payload))


class TestReportRenderer:
    def test_empty_directory(self, tmp_path):
        text = report.render(tmp_path)
        assert "no experiment artifacts" in text

    def test_partial_artifacts(self, tmp_path):
        _write(tmp_path, "fig2_footprint", {
            "app": {"total_static_blocks": 10, "executed_blocks": 8,
                    "unused_blocks": 2, "init_only_blocks": 3},
        })
        text = report.render(tmp_path)
        assert "Figure 2" in text
        assert "| app | 10 | 8 | 2 | 3 |" in text
        assert "Figure 6" not in text

    def test_unknown_artifacts_listed(self, tmp_path):
        _write(tmp_path, "my_custom_experiment", {"x": 1})
        text = report.render(tmp_path)
        assert "my_custom_experiment.json" in text

    def test_table1_rendering(self, tmp_path):
        _write(tmp_path, "table1_cves", {
            "CVE-X": {"command": "SET", "vanilla_exploited": True,
                      "dynacut_mitigated": True,
                      "service_alive_after": True},
        })
        text = report.render(tmp_path)
        assert "| CVE-X | SET | exploited | mitigated |" in text

    def test_full_results_directory_renders(self):
        results = pathlib.Path(__file__).resolve().parent.parent / "results"
        if not results.exists():
            import pytest

            pytest.skip("results/ not generated yet")
        text = report.render(results)
        assert "Figure 9" in text
        assert text.count("|") > 50

    def test_main_writes_stdout(self, tmp_path, capsys):
        _write(tmp_path, "fig2_footprint", {
            "a": {"total_static_blocks": 1, "executed_blocks": 1,
                  "unused_blocks": 0, "init_only_blocks": 0},
        })
        assert report.main([str(tmp_path)]) == 0
        assert "Figure 2" in capsys.readouterr().out


class TestExperimentsDocument:
    def test_every_section_appears_verbatim_in_experiments_md(self):
        # EXPERIMENTS.md holds the renderer's tables of the committed
        # results, so its numbers cannot drift from what the code writes
        root = pathlib.Path(__file__).resolve().parent.parent
        document = (root / "EXPERIMENTS.md").read_text()
        for name in report.SECTIONS:
            data = json.loads((root / "results" / f"{name}.json").read_text())
            assert report.SECTIONS[name](data) in document, name
