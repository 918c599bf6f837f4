"""The per-image analysis store: one analysis per pristine image.

Every analysis the rewrite control path derives from a pristine binary
(the CFG, the lint instruction map, the register liveness) is kept once
per :func:`~repro.analysis.cfg.image_digest`.  Reuse inside the
analysis layer goes through an accessor that counts nothing, so the
``cfg_cache_*`` and ``dynaflow_cache_*`` counters a recording exports
stay what the public lookups (``cached_cfg``, ``analyze_image_flow``)
report.
"""

from __future__ import annotations

from repro import telemetry
from repro.analysis import build_cfg, cached_cfg
from repro.analysis import cfg as cfg_module
from repro.analysis.cfg import DigestCache, image_analyses, image_cfg
from repro.analysis.dataflow import liveness
from repro.analysis.dataflow.liveness import block_liveness, live_in_registers
from repro.apps import libc_image, redis_image, stage_redis
from repro.core import DynaCut, TrapPolicy
from repro.fleet import get_app
from repro.fleet.apps import profile_feature
from repro.kernel import Kernel
from repro.telemetry import TelemetryHub

CACHE_FAMILIES = ("cfg_cache_", "dynaflow_")

#: what a recording of VERIFY disable (refine, prove) + enable +
#: REDIRECT disable on staged miniredis counts: the cache lookups and
#: the per-analysis counters that ride along with a miss
PINNED_CACHE_COUNTERS = {
    ("cfg_cache_misses", (("image", "libc.so"),)): 1,
    ("cfg_cache_misses", (("image", "miniredis"),)): 1,
    ("dynaflow_blocks_analyzed", (("image", "libc.so"),)): 203,
    ("dynaflow_blocks_analyzed", (("image", "miniredis"),)): 824,
    ("dynaflow_cache_hits", (("image", "miniredis"),)): 1,
    ("dynaflow_cache_misses", (("image", "libc.so"),)): 1,
    ("dynaflow_cache_misses", (("image", "miniredis"),)): 1,
    ("dynaflow_indirect_resolved", (("image", "libc.so"),)): 0,
    ("dynaflow_indirect_resolved", (("image", "miniredis"),)): 24,
    ("dynaflow_indirect_unresolved", (("image", "libc.so"),)): 0,
    ("dynaflow_indirect_unresolved", (("image", "miniredis"),)): 1,
    ("dynaflow_redirect_checks", ()): 1,
    ("dynaflow_redirect_live_in_flags", ()): 1,
    ("dynaflow_solver_visits", (("image", "libc.so"),)): 759,
    ("dynaflow_solver_visits", (("image", "miniredis"),)): 1466,
    ("dynaflow_store_hazards", (("image", "libc.so"),)): 0,
    ("dynaflow_store_hazards", (("image", "miniredis"),)): 0,
    ("dynaflow_suspects_upgraded", (("image", "miniredis"),)): 0,
}


def _cache_counters(hub: TelemetryHub) -> dict:
    return {
        key: counter.value
        for key, counter in hub.registry.counters.items()
        if key[0].startswith(CACHE_FAMILIES)
    }


def test_control_path_cache_telemetry_is_pinned():
    app = get_app("redis")
    feature = profile_feature(app, "SET")
    kernel = Kernel()
    proc = stage_redis(kernel)
    dynacut = DynaCut(kernel)
    hub = TelemetryHub(clock=lambda: kernel.clock_ns)
    with telemetry.recording(hub):
        dynacut.disable_feature(
            proc.pid, feature, policy=TrapPolicy.VERIFY, refine=True, prove=True,
        )
        dynacut.enable_feature(proc.pid, feature)
        dynacut.disable_feature(
            proc.pid, feature, policy=TrapPolicy.REDIRECT,
            redirect_symbol=app.redirect_symbol,
        )
    assert _cache_counters(hub) == PINNED_CACHE_COUNTERS


class TestUncountedAccess:
    def test_image_cfg_shares_the_counted_entry_and_counts_nothing(self):
        binary = redis_image()
        hub = TelemetryHub(lambda: 0)
        with telemetry.recording(hub):
            stored = image_cfg(binary)
            assert _cache_counters(hub) == {}
            assert cached_cfg(binary) is stored
        assert _cache_counters(hub) == {
            ("cfg_cache_misses", (("image", "miniredis"),)): 1,
        }

    def test_unrecorded_first_lookup_is_a_miss_after_an_uncounted_fill(
        self, monkeypatch
    ):
        cache: DigestCache[object] = DigestCache("t_hits", "t_misses", limit=4)
        tally: list[str] = []
        monkeypatch.setattr(
            telemetry, "count", lambda name, n=1, **labels: tally.append(name)
        )
        binary = libc_image()
        made = cache.get(binary, object)
        assert tally == []
        assert cache.lookup(binary, object) == (made, True)
        assert cache.lookup(binary, object) == (made, False)
        assert tally == ["t_misses", "t_hits"]


class TestDerivedAnalyses:
    def test_live_in_is_solved_once_per_image_content(self, monkeypatch):
        monkeypatch.setattr(
            cfg_module, "_CFG_CACHE",
            DigestCache("cfg_cache_hits", "cfg_cache_misses", limit=64),
        )
        solves: list[str] = []

        def counted(image):
            solves.append(image.name)
            return block_liveness(image)

        monkeypatch.setattr(liveness, "block_liveness", counted)
        blocks = sorted(build_cfg(libc_image()).block_starts())
        assert image_analyses(libc_image()).live_in is None
        for block in blocks[:3]:
            live_in_registers(libc_image(), block)
        assert solves == ["libc.so"]
        assert image_analyses(libc_image()).live_in is not None

    def test_stored_live_in_matches_a_fresh_solve(self):
        binary = redis_image()
        fresh = block_liveness(binary)
        for block in build_cfg(binary).block_starts():
            assert live_in_registers(binary, block) == fresh.live_in_of(block)
        assert live_in_registers(binary, -1) == fresh.live_in_of(-1)
