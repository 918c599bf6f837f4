"""End-to-end DynaCut orchestrator tests: the paper's §3 flows."""

from __future__ import annotations

import pytest

from repro.apps import (
    LIGHTTPD_PORT,
    REDIS_PORT,
    stage_lighttpd,
    stage_redis,
)
from repro.apps.httpd_lighttpd import FORBIDDEN_SYMBOL, LIGHTTPD_BINARY
from repro.apps.kvstore import REDIS_BINARY
from repro.core import (
    BlockMode,
    DynaCut,
    TraceDiff,
    TrapPolicy,
    init_only_blocks,
    read_verifier_log,
)
from repro.core.rewriter import RewriteError
from repro.kernel import Kernel, Signal
from repro.tracing import BlockTracer
from repro.workloads import HttpClient, RedisClient


def _profile_redis_set(kernel, proc):
    """Trace wanted basics vs the SET feature."""
    tracer = BlockTracer(kernel, proc).attach()
    client = RedisClient(kernel, REDIS_PORT)
    for cmd in ("PING", "GET a", "DEL a", "EXISTS a", "DBSIZE"):
        client.command(cmd)
    wanted = tracer.nudge_dump()
    client.command("SET a 1")
    undesired = tracer.finish()
    return TraceDiff(REDIS_BINARY).feature_blocks("SET", [wanted], [undesired])


def _profile_lighttpd_dav(kernel, proc):
    tracer = BlockTracer(kernel, proc).attach()
    client = HttpClient(kernel, LIGHTTPD_PORT)
    client.get("/")
    client.head("/")
    client.options("/")
    client.post("/e", "abcd")
    wanted = tracer.nudge_dump()
    client.put("/f.txt", "hi")
    client.delete("/f.txt")
    undesired = tracer.finish()
    return TraceDiff(LIGHTTPD_BINARY).feature_blocks(
        "dav-write", [wanted], [undesired]
    )


class TestFeatureLifecycleRedis:
    def test_disable_with_redirect_then_reenable(self):
        kernel = Kernel()
        proc = stage_redis(kernel)
        feature = _profile_redis_set(kernel, proc)
        assert feature.count > 0

        dynacut = DynaCut(kernel)
        report = dynacut.disable_feature(
            proc.pid, feature, policy=TrapPolicy.REDIRECT,
            redirect_symbol="redis_unknown_cmd",
        )
        proc = dynacut.restored_process(proc.pid)
        client = RedisClient(kernel, REDIS_PORT)
        assert client.command("SET k v").startswith("-ERR")
        assert proc.alive
        assert client.ping()
        assert client.get("k") is None

        dynacut.enable_feature(proc.pid, feature)
        proc = dynacut.restored_process(proc.pid)
        assert client.set("k", "v2")
        assert client.get("k") == "v2"

    def test_terminate_policy_kills_on_access(self):
        kernel = Kernel()
        proc = stage_redis(kernel)
        feature = _profile_redis_set(kernel, proc)
        dynacut = DynaCut(kernel)
        dynacut.disable_feature(proc.pid, feature, policy=TrapPolicy.TERMINATE)
        proc = dynacut.restored_process(proc.pid)
        sock = kernel.connect(REDIS_PORT)
        sock.send("SET k v\n")
        kernel.run_until(lambda: not proc.alive, max_instructions=2_000_000)
        assert not proc.alive
        assert proc.term_signal is Signal.SIGTRAP

    def test_verify_policy_heals_and_logs(self):
        kernel = Kernel()
        proc = stage_redis(kernel)
        feature = _profile_redis_set(kernel, proc)
        dynacut = DynaCut(kernel)
        dynacut.disable_feature(
            proc.pid, feature, policy=TrapPolicy.VERIFY, mode=BlockMode.ALL
        )
        proc = dynacut.restored_process(proc.pid)
        client = RedisClient(kernel, REDIS_PORT)
        # the "falsely removed" feature self-heals: SET works
        assert client.set("healed", "yes")
        assert client.get("healed") == "yes"
        report = read_verifier_log(kernel, proc)
        assert not report.clean
        assert len(report.trapped_addresses) >= 1

    def test_wipe_mode_destroys_block_bytes(self):
        kernel = Kernel()
        proc = stage_redis(kernel)
        feature = _profile_redis_set(kernel, proc)
        dynacut = DynaCut(kernel)
        dynacut.disable_feature(
            proc.pid, feature, policy=TrapPolicy.TERMINATE, mode=BlockMode.WIPE
        )
        proc = dynacut.restored_process(proc.pid)
        block = feature.blocks[1]
        raw = proc.memory.read_raw(block.offset, block.size)
        assert raw == b"\xcc" * block.size

    def test_report_breakdown_structure(self):
        kernel = Kernel()
        proc = stage_redis(kernel)
        feature = _profile_redis_set(kernel, proc)
        dynacut = DynaCut(kernel)
        report = dynacut.disable_feature(
            proc.pid, feature, policy=TrapPolicy.REDIRECT,
            redirect_symbol="redis_unknown_cmd",
        )
        breakdown = report.breakdown_ms()
        assert breakdown["checkpoint"] > 0
        assert breakdown["disable code w/ int3"] > 0
        assert breakdown["insert sighandler"] > 0
        assert breakdown["restore"] > 0
        assert abs(
            breakdown["total"]
            - sum(v for k, v in breakdown.items() if k != "total")
        ) < 1e-6
        assert dynacut.history == [report]


class TestFeatureLifecycleLighttpd:
    def test_dav_disable_403_reenable(self):
        kernel = Kernel()
        proc = stage_lighttpd(kernel)
        feature = _profile_lighttpd_dav(kernel, proc)
        dynacut = DynaCut(kernel)
        dynacut.disable_feature(
            proc.pid, feature, policy=TrapPolicy.REDIRECT,
            redirect_symbol=FORBIDDEN_SYMBOL,
        )
        proc = dynacut.restored_process(proc.pid)
        client = HttpClient(kernel, LIGHTTPD_PORT)
        assert client.put("/x.txt", "data").status == 403
        assert client.get("/").status == 200
        assert proc.alive

        dynacut.enable_feature(proc.pid, feature)
        assert client.put("/x.txt", "data").status == 201
        assert client.get("/x.txt").body == b"data"

    def test_redirect_requires_symbol(self):
        kernel = Kernel()
        proc = stage_lighttpd(kernel)
        feature = _profile_lighttpd_dav(kernel, proc)
        with pytest.raises(RewriteError):
            DynaCut(kernel).disable_feature(
                proc.pid, feature, policy=TrapPolicy.REDIRECT
            )

    def test_redirect_rejects_foreign_function_target(self):
        kernel = Kernel()
        proc = stage_lighttpd(kernel)
        feature = _profile_lighttpd_dav(kernel, proc)
        # http_get is a real symbol but not the dispatcher: no unique
        # block of the feature lives inside it
        with pytest.raises(RewriteError):
            DynaCut(kernel).disable_feature(
                proc.pid, feature, policy=TrapPolicy.REDIRECT,
                redirect_symbol="http_get",
            )


class TestInitCodeRemoval:
    def _profiled_server(self):
        kernel = Kernel()
        proc = stage_redis(kernel, run_to_ready=False)
        tracer = BlockTracer(kernel, proc).attach()
        from repro.apps.kvstore import READY_LINE

        kernel.run_until(lambda: READY_LINE in proc.stdout_text())
        init_trace = tracer.nudge_dump()
        client = RedisClient(kernel, REDIS_PORT)
        for cmd in ("PING", "SET a 1", "GET a", "DEL a", "DBSIZE", "EXISTS a"):
            client.command(cmd)
        serving_trace = tracer.finish()
        report = init_only_blocks(init_trace, serving_trace, REDIS_BINARY)
        return kernel, proc, client, report

    def test_init_blocks_found(self):
        __, __, __, report = self._profiled_server()
        assert report.removable_count > 50
        assert 0.1 < report.removable_fraction < 0.9

    def test_removal_keeps_server_functional(self):
        kernel, proc, client, report = self._profiled_server()
        dynacut = DynaCut(kernel)
        dynacut.remove_init_code(
            proc.pid, REDIS_BINARY, list(report.init_only), wipe=True
        )
        proc = dynacut.restored_process(proc.pid)
        assert client.ping()
        assert client.set("post", "removal")
        assert client.get("post") == "removal"

    def test_removed_init_code_is_wiped(self):
        kernel, proc, client, report = self._profiled_server()
        dynacut = DynaCut(kernel)
        dynacut.remove_init_code(
            proc.pid, REDIS_BINARY, list(report.init_only), wipe=True
        )
        proc = dynacut.restored_process(proc.pid)
        first = report.init_only[0]
        assert proc.memory.read_raw(first.offset, first.size) == b"\xcc" * first.size

    def test_verify_mode_detects_misclassified_block(self):
        kernel, proc, client, report = self._profiled_server()
        # poison the block list with a block that IS needed for serving:
        # the cmd_get entry block
        binary = kernel.binaries[REDIS_BINARY]
        from repro.tracing import BlockRecord

        needed = BlockRecord(REDIS_BINARY, binary.symbol_address("cmd_get"), 1)
        blocks = list(report.init_only)[:40] + [needed]
        dynacut = DynaCut(kernel)
        dynacut.remove_init_code(
            proc.pid, REDIS_BINARY, blocks, verify=True
        )
        proc = dynacut.restored_process(proc.pid)
        client.set("k", "1")
        assert client.get("k") == "1"   # verifier healed cmd_get
        log = read_verifier_log(kernel, proc)
        assert needed.offset in log.trapped_addresses


class TestValidateRemovalWorkflow:
    def test_poisoned_list_converges_to_clean(self):
        """§3.2.3 end to end: verify -> log -> refine -> re-remove."""
        from repro.core import validate_removal
        from repro.tracing import BlockRecord

        kernel = Kernel()
        proc = stage_redis(kernel, run_to_ready=False)
        tracer = BlockTracer(kernel, proc).attach()
        from repro.apps.kvstore import READY_LINE

        kernel.run_until(lambda: READY_LINE in proc.stdout_text())
        init_trace = tracer.nudge_dump()
        client = RedisClient(kernel, REDIS_PORT)
        for cmd in ("PING", "SET a 1", "GET a"):
            client.command(cmd)
        serving = tracer.finish()
        report = init_only_blocks(init_trace, serving, REDIS_BINARY)

        # poison the removal list with two blocks the workload needs
        binary = kernel.binaries[REDIS_BINARY]
        poison = [
            BlockRecord(REDIS_BINARY, binary.symbol_address("cmd_get"), 1),
            BlockRecord(REDIS_BINARY, binary.symbol_address("cmd_set"), 1),
        ]
        blocks = list(report.init_only)[:30] + poison

        def exercise():
            assert client.set("v", "1")
            assert client.get("v") == "1"
            assert client.ping()

        dynacut = DynaCut(kernel)
        clean, reports = validate_removal(
            dynacut, proc.pid, REDIS_BINARY, blocks, exercise
        )
        # the poisoned blocks were detected and dropped
        assert not (set(poison) & set(clean))
        assert not reports[0].clean
        assert reports[-1].clean
        # and the service still works at the end
        exercise()


class TestImagesAreNeverMutated:
    """Each SELF image hashes itself once (``SelfImage.digest``) and
    the per-image analysis store is keyed by that digest; both are only
    sound because nothing mutates an image after it is built."""

    @pytest.mark.parametrize("app_name", ["redis", "lighttpd"])
    def test_remembered_digests_equal_a_fresh_hash(self, app_name):
        from repro.binfmt.self_format import content_digest
        from repro.fleet import get_app
        from repro.fleet.apps import profile_feature

        app = get_app(app_name)
        feature = profile_feature(app, app.feature)
        kernel = Kernel()
        proc = app.stage(kernel, app.default_port)
        remembered = {
            name: image.digest for name, image in kernel.binaries.items()
        }
        dynacut = DynaCut(kernel)
        dynacut.disable_feature(
            proc.pid, feature, policy=TrapPolicy.VERIFY, mode=BlockMode.ALL,
            refine=True, prove=True,
        )
        shelved = [
            block.offset for block in dynacut.disabled_blocks(
                proc.pid, feature.name
            )[:2]
        ]
        assert dynacut.reenable_blocks(proc.pid, feature, shelved)
        kernel.clock_ns += 5
        assert dynacut.decay_shelved(proc.pid, feature, decay_ns=5)
        dynacut.enable_feature(proc.pid, feature)
        assert app.wanted_request(kernel, app.default_port)
        for name, image in kernel.binaries.items():
            assert image.digest == content_digest(image), name
        for name, digest in remembered.items():
            assert content_digest(kernel.binaries[name]) == digest, name



#: every removal recipe a caller runs, as (recipe, keyword arguments)
_PIN_RECIPES = {
    "redirect-entry": ("disable", dict(
        policy=TrapPolicy.REDIRECT, mode=BlockMode.ENTRY,
        redirect_symbol="redis_unknown_cmd")),
    "redirect-all": ("disable", dict(
        policy=TrapPolicy.REDIRECT, mode=BlockMode.ALL,
        redirect_symbol="redis_unknown_cmd")),
    "redirect-wipe": ("disable", dict(
        policy=TrapPolicy.REDIRECT, mode=BlockMode.WIPE,
        redirect_symbol="redis_unknown_cmd")),
    # the rewrite-churn benchmark's call
    "verify-entry-refine-prove": ("disable", dict(
        policy=TrapPolicy.VERIFY, mode=BlockMode.ENTRY, refine=True,
        prove=True)),
    "verify-all": ("disable", dict(
        policy=TrapPolicy.VERIFY, mode=BlockMode.ALL)),
    "verify-all-refine": ("disable", dict(
        policy=TrapPolicy.VERIFY, mode=BlockMode.ALL, refine=True,
        dispatcher_symbol="dispatch")),
    "verify-wipe-refine-prove": ("disable", dict(
        policy=TrapPolicy.VERIFY, mode=BlockMode.WIPE, refine=True,
        prove=True, dispatcher_symbol="dispatch")),
    "verify-wipe-refine": ("disable", dict(
        policy=TrapPolicy.VERIFY, mode=BlockMode.WIPE, refine=True,
        dispatcher_symbol="dispatch")),
    "terminate-all": ("disable", dict(
        policy=TrapPolicy.TERMINATE, mode=BlockMode.ALL)),
    "init-wipe": ("init", dict(wipe=True)),
    "init-wipe-refine": ("init", dict(wipe=True, refine=True)),
    "init-verify": ("init", dict(verify=True)),
}

#: sha-256 prefixes of each recipe's rewriter-call log (JSON): a new
#: digest means the recipe now writes different patches into the image
_PIN_DIGESTS = {
    "redirect-entry": "7feec57b11513a83",
    "redirect-all": "8477ff52907fcefa",
    "redirect-wipe": "8dce69cbacec6f27",
    "verify-entry-refine-prove": "c7633bf216e98004",
    "verify-all": "1a530cfb4e96ff8b",
    "verify-all-refine": "a983d4c70368d47e",
    "verify-wipe-refine-prove": "4562f9958857344d",
    "verify-wipe-refine": "b5d45ef9ca269d4d",
    "terminate-all": "3985899b54c85f1a",
    "init-wipe": "95236b8f24e5ce46",
    "init-wipe-refine": "5297fa19f7ef28b6",
    "init-verify": "e69642782dc86250",
}


@pytest.fixture(scope="module")
def pinned_redis():
    """miniredis profiled with a thin wanted set (init traced too), so
    the feature over-claims and refinement has suspects to drop."""
    from repro.workloads.corpus import CORPORA, profile

    return profile(CORPORA["dynalint-redis"])


class TestRecipePin:
    """The rewriter calls of each removal recipe, pinned by digest:
    their order, block offsets, redirect table and original-byte
    table."""

    @staticmethod
    def _record(monkeypatch) -> list:
        import inspect

        from repro.core.rewriter import ImageRewriter

        log: list = []

        def recording(method, original):
            signature = inspect.signature(original)

            def recorder(self, *args, **kwargs):
                bound = signature.bind(self, *args, **kwargs).arguments
                if method == "install_trap_handler":
                    log.append([
                        method, bound["policy"],
                        [list(e) for e in bound.get("redirect_entries") or []],
                        [list(e) for e in bound.get("orig_entries") or []],
                    ])
                else:
                    log.append([method, bound["module"],
                                [block.offset for block in bound["blocks"]]])
                return original(self, *args, **kwargs)
            return recorder

        for method in ("wipe_blocks", "block_entry_int3",
                       "install_trap_handler"):
            monkeypatch.setattr(ImageRewriter, method, recording(
                method, getattr(ImageRewriter, method)))
        return log

    @pytest.mark.parametrize("name", list(_PIN_RECIPES))
    def test_rewriter_calls_match_the_pin(self, name, pinned_redis, monkeypatch):
        import hashlib
        import json

        profiled = pinned_redis
        recipe, kwargs = _PIN_RECIPES[name]
        dynacut = DynaCut(profiled.kernel)
        pid = profiled.root.pid
        log = self._record(monkeypatch)
        if recipe == "disable":
            dynacut.disable_feature(pid, profiled.feature, **kwargs)
        else:
            dynacut.remove_init_code(
                pid, profiled.binary, list(profiled.init_report.init_only),
                **kwargs,
            )
        calls = list(log)
        if recipe == "disable":
            dynacut.enable_feature(pid, profiled.feature)
        digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()[:16]
        assert calls
        assert digest == _PIN_DIGESTS[name], (name, calls)
