"""Tests for the injectable trap-handler library and dynacut helpers."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import build_handler_library
from repro.core.covgraph import bytes_to_ranges
from repro.core.sighandler import (
    HANDLER_SYMBOL,
    LOG_COUNT_SYMBOL,
    LOG_TABLE_SYMBOL,
    ORIG_TABLE_SYMBOL,
    POLICY_SYMBOL,
    REDIRECT_TABLE_SYMBOL,
    RESTORER_SYMBOL,
)
from repro.binfmt import ImageKind


class TestHandlerLibrary:
    def test_is_position_independent_shared_object(self, libc):
        library = build_handler_library(libc)
        assert library.kind is ImageKind.DYN
        assert library.base == 0
        assert library.needed == ["libc.so"]

    def test_exports_all_control_symbols(self, libc):
        library = build_handler_library(libc)
        for name in (HANDLER_SYMBOL, RESTORER_SYMBOL, POLICY_SYMBOL,
                     REDIRECT_TABLE_SYMBOL, ORIG_TABLE_SYMBOL,
                     LOG_COUNT_SYMBOL, LOG_TABLE_SYMBOL):
            assert name in library.symbols, name

    def test_imports_only_exit_and_mprotect(self, libc):
        library = build_handler_library(libc)
        assert set(library.plt_entries) == {"exit", "mprotect"}

    def test_tables_live_in_writable_data(self, libc):
        library = build_handler_library(libc)
        data = library.segment("bss")
        for name in (REDIRECT_TABLE_SYMBOL, ORIG_TABLE_SYMBOL, LOG_TABLE_SYMBOL):
            vaddr = library.symbol_address(name)
            assert data.vaddr <= vaddr < data.end, name
        assert data.perms == "rw-"

    def test_restorer_is_own_code(self, libc):
        library = build_handler_library(libc)
        text = library.segment("text")
        restorer = library.symbol_address(RESTORER_SYMBOL)
        assert text.vaddr <= restorer < text.vaddr + len(text.data)

    def test_cached_per_libc(self, libc):
        assert build_handler_library(libc) is build_handler_library(libc)


class TestEnclosingFunction:
    """:meth:`SelfImage.function_at`: each function runs until the next
    function symbol starts, and the last one never ends."""

    def test_finds_containing_function(self, redis_binary):
        addr = redis_binary.symbol_address("cmd_set")
        assert redis_binary.function_at(addr) == "cmd_set"
        assert redis_binary.function_at(addr + 5) == "cmd_set"

    def test_before_first_function_is_none(self, redis_binary):
        assert redis_binary.function_at(0) is None
        first, __ = redis_binary.function_table[0]
        assert redis_binary.function_at(first - 1) is None

    def test_markers_are_not_functions(self, redis_binary):
        marker = redis_binary.symbol_address("redis_unknown_cmd")
        assert redis_binary.function_at(marker) == "dispatch"

    def test_plt_stub_belongs_to_the_last_function(self, redis_binary):
        stub = redis_binary.plt_entries["accept"]
        assert redis_binary.function_table[-1] < (stub, "")
        assert redis_binary.function_at(stub + 1) == "main"

    def test_past_the_last_block_is_the_last_function(self, redis_binary):
        __, text_end = redis_binary.text_range()
        assert redis_binary.function_at(text_end) == "main"
        assert redis_binary.function_at(text_end + 0x10000) == "main"

    def test_table_is_sorted_and_built_once(self, redis_binary):
        table = redis_binary.function_table
        assert list(table) == sorted(table)
        assert {name for __, name in table} == set(redis_binary.functions())
        assert redis_binary.function_table is table


class TestBytesToRanges:
    def test_empty(self):
        assert bytes_to_ranges(set()) == []

    def test_single_run(self):
        assert bytes_to_ranges({4, 5, 6}) == [(4, 3)]

    def test_multiple_runs(self):
        assert bytes_to_ranges({1, 2, 10, 12, 13}) == [(1, 2), (10, 1), (12, 2)]

    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.integers(0, 500), max_size=200))
    def test_ranges_partition_the_set(self, offsets):
        ranges = bytes_to_ranges(offsets)
        rebuilt = set()
        for start, size in ranges:
            chunk = set(range(start, start + size))
            assert not (chunk & rebuilt), "ranges overlap"
            rebuilt |= chunk
        assert rebuilt == offsets
        # maximality: consecutive ranges are separated by a gap
        starts = sorted(ranges)
        for (s1, z1), (s2, __) in zip(starts, starts[1:]):
            assert s1 + z1 < s2
