"""The benchmark's own helpers: self time, percentiles, names, inputs."""

from __future__ import annotations

import json
import pathlib

import pytest

from perfbench import layers, run, stats, workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]


def span(name, start, end, parent=-1, leaf_ns=0):
    return [name, start, end, parent, leaf_ns]


class TestSelfTime:
    def test_nested_spans_subtract_only_direct_children(self):
        spans = [
            span("root", 0, 100),
            span("child", 10, 40, parent=0),
            span("grandchild", 15, 20, parent=1),
        ]
        assert layers.self_times(spans) == [70, 25, 5]

    def test_back_to_back_children_are_not_double_counted(self):
        spans = [
            span("root", 0, 100),
            span("a", 10, 30, parent=0),
            span("b", 30, 60, parent=0),
        ]
        assert layers.self_times(spans)[0] == 50

    def test_overlapping_children_count_their_union(self):
        spans = [
            span("root", 0, 100),
            span("a", 10, 50, parent=0),
            span("b", 40, 70, parent=0),
        ]
        assert layers.self_times(spans)[0] == 40

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("root", 10, 20), span("late", 15, 30, parent=0)]
        assert layers.self_times(spans)[0] == 5

    def test_leaf_time_is_subtracted_and_never_negative(self):
        spans = [span("root", 0, 100, leaf_ns=30), span("c", 0, 80, parent=0)]
        assert layers.self_times(spans) == [0, 80]
        assert layers.self_times([span("x", 0, 10, leaf_ns=4)]) == [6]


class TestPercentiles:
    def test_p99_of_1000_samples_has_ten_beyond(self):
        samples = list(range(1, 1001))
        p99 = stats.percentile(samples, 0.99)
        assert p99 == {"value": 990, "n": 1000, "beyond": 10}

    def test_median_interpolates(self):
        assert stats.percentile([4, 1, 3, 2], 0.5)["value"] == 2.5
        assert stats.percentile([5], 0.5) == {"value": 5, "n": 1, "beyond": 0}

    def test_p90_counts(self):
        p90 = stats.percentile(list(range(100)), 0.9)
        assert (p90["value"], p90["beyond"]) == (89, 10)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile([], 0.5)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 1.0)


class TestNames:
    def test_name_and_unit_rules(self):
        assert stats.valid_name("req_host_ms_p99")
        assert stats.valid_name("mesh.host-0.keys")
        assert not stats.valid_name("_hidden")
        assert not stats.valid_name("a" * 65)
        assert not stats.valid_name("bad name")
        assert stats.valid_unit("1/s") and stats.valid_unit("%")
        assert not stats.valid_unit("requests per s")

    def test_benchmark_json_matches_what_the_runner_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        per_layer = {m["name"]: m for m in spec["per_layer"]}
        names = [w["name"] for w in spec["workloads"]] + list(e2e) + list(per_layer)
        assert all(stats.valid_name(name) for name in names)
        assert len(names) == len(set(names))
        assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
        assert {name: unit for name, unit in run.END_TO_END} == {
            name: m["unit"] for name, m in e2e.items()
        }
        assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
        tracer = layers.LayerTracer()
        traced = {"trace": tracer.summary(), "run_s": 2.0, "problems": []}
        plain = {"run_s": 1.0, "cycle_s": [], "facts": {}}
        printed = run.per_layer(plain, traced)
        assert {name: m["unit"] for name, m in printed.items()} == {
            name: m["unit"] for name, m in per_layer.items()
        }
        assert all(stats.valid_unit(m["unit"]) for m in spec["end_to_end"])


class TestInputs:
    def test_same_seed_same_inputs(self):
        cfg = workloads.CONFIG["workloads"]["serve-steady"]
        keys_a, rng_a = workloads.make_inputs(cfg, 7)
        keys_b, rng_b = workloads.make_inputs(cfg, 7)
        assert keys_a == keys_b
        assert [rng_a.random() for __ in range(5)] == [rng_b.random() for __ in range(5)]

    def test_other_seed_other_inputs(self):
        cfg = workloads.CONFIG["workloads"]["serve-steady"]
        assert workloads.make_inputs(cfg, 7)[0] != workloads.make_inputs(cfg, 8)[0]

    def test_keyspace_shape(self):
        for name, cfg in workloads.CONFIG["workloads"].items():
            keyspace, __ = workloads.make_inputs(cfg, 1)
            assert len(keyspace) == cfg["keys"], name
            assert all(len(key) == cfg["key_chars"] for key in keyspace)

    def test_digest_is_order_insensitive_and_sensitive_to_values(self):
        assert stats.digest({"a": 1, "b": [1, 2]}) == stats.digest({"b": [1, 2], "a": 1})
        assert stats.digest({"a": 1}) != stats.digest({"a": 2})


class TestPatching:
    def test_install_patches_every_binding_and_uninstall_restores(self):
        from repro.core import dynacut
        from repro.criu import checkpoint
        from repro.kernel.memory import AddressSpace

        read = AddressSpace.read
        original = checkpoint.checkpoint_tree
        tracer = layers.LayerTracer().install()
        try:
            assert AddressSpace.read is not read
            assert dynacut.checkpoint_tree is not original
            assert dynacut.checkpoint_tree is checkpoint.checkpoint_tree
        finally:
            tracer.uninstall()
        assert AddressSpace.read is read
        assert dynacut.checkpoint_tree is original


class TestRecordedDigests:
    def test_mismatch_is_a_problem_and_new_keys_are_recorded(self, tmp_path, monkeypatch):
        import argparse

        args = argparse.Namespace(workload="serve-steady", seed=3, seconds=12.0)
        key = run.record_key(args)
        recorded = tmp_path / "recorded.json"
        recorded.write_text(json.dumps({key: "expected"}))
        monkeypatch.setattr(run, "RECORDED", recorded)
        monkeypatch.setattr(run, "LOCAL", tmp_path / "local" / "digests.json")
        assert run.check_digest(args, "expected") == []
        assert json.loads(run.LOCAL.read_text()) == {key: "expected"}
        problems = run.check_digest(args, "other")
        assert len(problems) == 2 and all("other" in p for p in problems)
        args.seed = 4
        assert run.check_digest(args, "fresh") == []
        assert json.loads(run.LOCAL.read_text())[run.record_key(args)] == "fresh"
