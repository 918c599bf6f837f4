"""Every registered profiling corpus, pinned to the profile it makes.

A corpus decides a removal set, so each one is pinned by four values:
the feature-block count, a digest of the sorted ``(module, offset,
size)`` triples of its removal set (the feature's blocks, else the
init-only code), the init-only count where init is traced, and the
profiling kernel's virtual clock after the last request.  The expected
values are those the per-caller recipes produced before the registry
replaced them, so a dropped or reordered request, or a nudge that stops
quiescing, fails here before it moves a committed result.
"""

import dataclasses
import hashlib

import pytest

from repro.workloads import HttpClient, RedisClient
from repro.workloads.corpus import CORPORA, Corpus, profile, send

#: name -> (feature blocks, removal-set digest, init-only count, clock_ns)
PINNED = {
    "fleet-lighttpd": (45, "2fa6e2c72470263a", None, 1_332_150_000),
    "fleet-nginx": (45, "8549351d946a6e01", None, 1_336_430_000),
    "fleet-redis": (30, "d498025d272a0d7f", None, 6_194_190_000),
    "demo-redis": (30, "d498025d272a0d7f", None, 6_179_440_000),
    "dynalint-redis": (78, "f707fd834d4155b3", 32, 6_132_160_000),
    "dynalint-lighttpd": (70, "1a4e0b3b7e344c38", 29, 892_020_000),
    "dynalint-nginx": (70, "8a3185db251b3243", 33, 864_930_000),
    "dynalint-600.perlbench_s": (None, "bbffb49e82e69c72", 33, 8_386_460_000),
    "dynalint-605.mcf_s": (None, "0eda202216d16799", 8, 237_390_000),
    "dynalint-625.x264_s": (None, "af50470ef878dc2c", 12, 16_531_160_000),
    "chaos-redis": (30, "d498025d272a0d7f", None, 6_143_220_000),
    "chaos-lighttpd": (57, "a54c58762b61c8d4", None, 1_012_440_000),
    "figures-redis": (None, "64e165f1c0ad4dba", 32, 6_306_360_000),
    "figures-redis-set": (19, "641cb0c3b3f9590c", 32, 6_344_620_000),
    "figures-lighttpd": (None, "7f79d4ff9ae39149", 29, 1_406_150_000),
    "figures-lighttpd-dav": (45, "2fa6e2c72470263a", 29, 1_726_380_000),
    "figures-nginx": (None, "3dde6a3b6870845e", 33, 1_422_320_000),
    "figures-nginx-dav": (45, "8549351d946a6e01", 33, 1_766_270_000),
    "figures-605.mcf_s": (None, "6452802fad5bb3ad", 9, 15_049_100_000),
    "figures-605.mcf_s-exit": (None, "0eda202216d16799", 8, 34_996_820_000),
    "transaction-redis": (30, "d498025d272a0d7f", None, 6_095_860_000),
}

#: SPEC figure profiles left out for time (1.5–35 s each); they run the
#: pinned 605.mcf_s recipe with other data, and the committed Figure 7
#: and Figure 9 results hold their output
UNPINNED = {
    f"figures-{name}{suffix}"
    for name in ("600.perlbench_s", "620.omnetpp_s", "623.xalancbmk_s",
                 "625.x264_s", "631.deepsjeng_s", "641.leela_s")
    for suffix in ("", "-exit")
}


def _digest(blocks) -> str:
    triples = sorted((b.module, b.offset, b.size) for b in blocks)
    return hashlib.sha256(repr(triples).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_corpus_profile_is_pinned(name):
    profiled = profile(CORPORA[name])
    init_only = (
        len(profiled.init_report.init_only)
        if profiled.init_trace is not None else None
    )
    feature = profiled.feature.count if profiled.feature is not None else None
    assert (
        feature, _digest(profiled.blocks), init_only, profiled.kernel.clock_ns
    ) == PINNED[name]


def test_every_corpus_is_pinned_or_named():
    assert not set(PINNED) & UNPINNED
    assert set(PINNED) | UNPINNED == set(CORPORA)


def test_every_field_takes_two_values():
    for field in dataclasses.fields(Corpus):
        values = {getattr(corpus, field.name) for corpus in CORPORA.values()}
        assert len(values) >= 2, field.name


def test_against_drops_wanted_commands_of_the_feature_word():
    base = Corpus("redis", wanted=("PING", "SET a 1", "SETRANGE a 0 x"))
    derived = base.against("SET probe v")
    assert derived.wanted == ("PING", "SETRANGE a 0 x")
    assert (derived.feature, derived.feature_requests) == ("SET", ("SET probe v",))


class _Http(HttpClient):
    def __init__(self):
        self.calls = []

    def request(self, *args):
        self.calls.append(args)


class _Redis(RedisClient):
    def __init__(self):
        self.calls = []

    def command(self, line):
        self.calls.append(line)


def test_send_makes_the_client_call_a_recipe_made():
    http, redis = _Http(), _Redis()
    for request in ("GET /", "PUT /probe.txt x", "POST /echo a b"):
        send(http, request)
    send(redis, "SET a 1")
    assert http.calls == [
        ("GET", "/"), ("PUT", "/probe.txt", "x"), ("POST", "/echo", "a b"),
    ]
    assert redis.calls == ["SET a 1"]
