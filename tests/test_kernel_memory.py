"""Tests for address spaces, VMAs, and permission enforcement."""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from repro.kernel import VMA, AddressSpace, FileBacking, MemoryFault, PAGE_SIZE
from repro.kernel.memory import MAX_INSTRUCTION, PAGE_SHIFT

BASE = 0x400000


@pytest.fixture()
def space():
    memory = AddressSpace()
    memory.mmap(BASE, 4 * PAGE_SIZE, "rw-", tag="data")
    return memory


class TestMapping:
    def test_mmap_rounds_to_pages(self, space):
        vma = space.mmap(BASE + 0x10000, 100, "r--")
        assert vma.size == PAGE_SIZE

    def test_overlap_rejected(self, space):
        with pytest.raises(MemoryFault):
            space.mmap(BASE + PAGE_SIZE, PAGE_SIZE, "rw-")

    def test_unaligned_rejected(self):
        memory = AddressSpace()
        with pytest.raises(ValueError):
            memory.mmap(0x401001, PAGE_SIZE, "rw-")

    def test_munmap_full(self, space):
        space.munmap(BASE, 4 * PAGE_SIZE)
        assert space.find_vma(BASE) is None
        with pytest.raises(MemoryFault):
            space.read(BASE, 1)

    def test_munmap_splits_vma(self, space):
        space.munmap(BASE + PAGE_SIZE, PAGE_SIZE)
        assert space.find_vma(BASE) is not None
        assert space.find_vma(BASE + PAGE_SIZE) is None
        assert space.find_vma(BASE + 2 * PAGE_SIZE) is not None
        # the split tail keeps correct backing offsets
        lo = space.find_vma(BASE)
        hi = space.find_vma(BASE + 2 * PAGE_SIZE)
        assert lo.end == BASE + PAGE_SIZE
        assert hi.start == BASE + 2 * PAGE_SIZE

    def test_munmap_preserves_file_offset_of_tail(self):
        memory = AddressSpace()
        memory.mmap(
            BASE, 3 * PAGE_SIZE, "r-x",
            backing=FileBacking("bin", 0x1000),
        )
        memory.munmap(BASE, PAGE_SIZE)
        tail = memory.find_vma(BASE + PAGE_SIZE)
        assert tail.backing.offset == 0x1000 + PAGE_SIZE

    def test_find_free_range_avoids_existing(self, space):
        addr = space.find_free_range(PAGE_SIZE, hint=BASE)
        assert space.find_vma(addr) is None
        assert addr >= BASE + 4 * PAGE_SIZE


class TestAccess:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 4 * PAGE_SIZE - 64), st.binary(min_size=1, max_size=64))
    def test_write_read_roundtrip(self, offset, data):
        memory = AddressSpace()
        memory.mmap(BASE, 4 * PAGE_SIZE, "rw-")
        memory.write(BASE + offset, data)
        assert memory.read(BASE + offset, len(data)) == data

    def test_cross_page_write(self, space):
        data = bytes(range(100))
        addr = BASE + PAGE_SIZE - 50
        space.write(addr, data)
        assert space.read(addr, 100) == data

    def test_read_requires_r(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "-w-")
        with pytest.raises(MemoryFault):
            memory.read(BASE, 1)

    def test_write_requires_w(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "r--")
        with pytest.raises(MemoryFault):
            memory.write(BASE, b"x")

    def test_fetch_requires_x(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "rw-")
        with pytest.raises(MemoryFault) as excinfo:
            memory.fetch(BASE, 1)
        assert excinfo.value.access == "exec"

    def test_fetch_from_exec_region(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "r-x")
        memory.write_raw(BASE, b"\x90")
        assert memory.fetch(BASE, 1) == b"\x90"

    def test_unmapped_access_faults_with_address(self, space):
        with pytest.raises(MemoryFault) as excinfo:
            space.read(0xDEAD000, 4)
        assert excinfo.value.address == 0xDEAD000

    def test_read_cstring(self, space):
        space.write(BASE, b"hello\x00world")
        assert space.read_cstring(BASE) == b"hello"

    def test_read_cstring_ending_at_mapping_end(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "rw-")
        memory.write(BASE + PAGE_SIZE - 6, b"hello\x00")
        assert memory.read_cstring(BASE + PAGE_SIZE - 6) == b"hello"

    def test_read_cstring_across_pages(self):
        memory = AddressSpace()
        memory.mmap(BASE, 2 * PAGE_SIZE, "rw-")
        memory.write(BASE + PAGE_SIZE - 3, b"abcdef\x00")
        assert memory.read_cstring(BASE + PAGE_SIZE - 3) == b"abcdef"

    def test_read_cstring_running_off_the_mapping_faults_there(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "rw-")
        memory.write_raw(BASE + PAGE_SIZE - 4, b"abcd")
        with pytest.raises(MemoryFault) as excinfo:
            memory.read_cstring(BASE + PAGE_SIZE - 4)
        assert excinfo.value.address == BASE + PAGE_SIZE
        assert excinfo.value.reason == "unmapped"

    def test_read_cstring_unterminated(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "rw-")
        memory.write_raw(BASE, b"\x01" * PAGE_SIZE)
        with pytest.raises(MemoryFault):
            memory.read_cstring(BASE, limit=PAGE_SIZE // 2)

    def test_raw_access_ignores_permissions(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "---")
        memory.write_raw(BASE, b"k")
        assert memory.read_raw(BASE, 1) == b"k"


class TestCodeEpoch:
    def test_write_to_exec_bumps_epoch(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "r-x")
        before = memory.code_epoch
        memory.write_raw(BASE, b"\xcc")
        assert memory.code_epoch > before

    def test_raw_write_faulting_midway_evicts_what_it_stored(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "r-x")
        memory.decode_cache[BASE] = memory.fetch(BASE, MAX_INSTRUCTION)
        with pytest.raises(MemoryFault):
            memory.write_raw(BASE, b"\xcc" * (PAGE_SIZE + 1))
        assert memory.read_raw(BASE, 1) == b"\xcc"
        assert BASE not in memory.decode_cache

    def test_write_to_data_keeps_epoch(self, space):
        before = space.code_epoch
        space.write(BASE, b"x")
        assert space.code_epoch == before

    def test_mprotect_bumps_epoch(self, space):
        before = space.code_epoch
        space.mprotect(BASE, PAGE_SIZE, "r-x")
        assert space.code_epoch > before

    def test_zero_length_write_inside_exec_keeps_epoch(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "rwx")
        before = memory.code_epoch
        memory.write(BASE + 5, b"")
        memory.write_raw(BASE + 5, b"")
        assert memory.code_epoch == before

    def test_mprotect_without_exec_change_keeps_epoch(self, space):
        before = space.code_epoch
        space.mprotect(BASE, PAGE_SIZE, "r--")
        assert space.code_epoch == before

    def test_mprotect_keeping_exec_keeps_epoch(self):
        memory = AddressSpace()
        memory.mmap(BASE, 2 * PAGE_SIZE, "r-x")
        before = memory.code_epoch
        memory.mprotect(BASE, PAGE_SIZE, "rwx")
        assert memory.code_epoch == before

    def test_mprotect_dropping_exec_bumps_epoch(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "r-x")
        before = memory.code_epoch
        memory.mprotect(BASE, PAGE_SIZE, "r--")
        assert memory.code_epoch > before

    def test_mprotect_changes_perms_mid_region(self, space):
        space.mprotect(BASE + PAGE_SIZE, PAGE_SIZE, "r--")
        assert space.find_vma(BASE).perms == "rw-"
        assert space.find_vma(BASE + PAGE_SIZE).perms == "r--"
        assert space.find_vma(BASE + 2 * PAGE_SIZE).perms == "rw-"


#: an offset inside a page, biased to the page's first and last bytes,
#: where eviction windows start and end
_OFFSETS = st.one_of(
    st.integers(0, 15),
    st.integers(PAGE_SIZE - 16, PAGE_SIZE - 1),
    st.integers(0, PAGE_SIZE - 1),
)


class TestAdoptDecodes:
    @settings(max_examples=80, deadline=None)
    @given(
        decodes=st.lists(st.tuples(st.integers(-1, 6), _OFFSETS), max_size=40),
        blocks=st.lists(
            st.tuples(st.integers(-1, 6), _OFFSETS, st.integers(1, 64)),
            max_size=20,
        ),
        patched=st.sets(st.integers(0, 5)),
        unexec=st.sets(st.integers(0, 5)),
        grow=st.booleans(),
    )
    def test_one_pass_drops_what_the_per_page_loop_drops(
        self, decodes, blocks, patched, unexec, grow
    ):
        old = AddressSpace()
        old.mmap(BASE, 6 * PAGE_SIZE, "r-x")
        new = old.clone()
        for page in patched:
            new.write_raw(BASE + page * PAGE_SIZE + 7, b"\xcc")
        for page in unexec:
            new.mprotect(BASE + page * PAGE_SIZE, PAGE_SIZE, "r--")
        if grow:
            new.mmap(BASE + 6 * PAGE_SIZE, PAGE_SIZE, "r-x")
        old.decode_cache = {
            BASE + page * PAGE_SIZE + offset: page for page, offset in decodes
        }
        old.block_cache = {
            # a block ends at the latest at the end of its page
            BASE + page * PAGE_SIZE + offset: (
                None, 1, BASE + page * PAGE_SIZE + min(offset + size, PAGE_SIZE)
            )
            for page, offset, size in blocks
        }
        # the reference: one eviction per changed executable page
        reference = new.clone()
        reference.decode_cache = dict(old.decode_cache)
        reference.block_cache = dict(old.block_cache)
        ours, theirs = new.executable_pages, old.executable_pages
        for index in ours.keys() | theirs.keys():
            if ours.get(index) != theirs.get(index):
                reference._evict_decodes(
                    index << PAGE_SHIFT, (index + 1) << PAGE_SHIFT
                )
        new.adopt_decodes(old)
        assert new.decode_cache == reference.decode_cache
        assert new.block_cache == reference.block_cache


class TestClone:
    def test_clone_is_deep(self, space):
        space.write(BASE, b"orig")
        child = space.clone()
        child.write(BASE, b"chng")
        assert space.read(BASE, 4) == b"orig"
        assert child.read(BASE, 4) == b"chng"

    def test_clone_copies_vmas(self, space):
        child = space.clone()
        child.munmap(BASE, PAGE_SIZE)
        assert space.find_vma(BASE) is not None

    def test_describe_maps(self, space):
        listing = space.describe_maps()
        assert f"{BASE:#014x}" in listing
        assert "rw-" in listing


# ----------------------------------------------------------------------
# differential test: the page index against a linear VMA scan


class LinearSpace:
    """Reference model: every access is checked by walking the VMA list."""

    def __init__(self, pages=None, vmas=None):
        self.pages = {} if pages is None else pages
        self.vmas = [] if vmas is None else vmas

    def clone(self):
        return LinearSpace(
            {index: bytearray(page) for index, page in self.pages.items()},
            [replace(vma) for vma in self.vmas],
        )

    def find_vma(self, address):
        return next((vma for vma in self.vmas if vma.contains(address)), None)

    def mmap(self, start, size, perms):
        end = start + size
        for vma in self.vmas:
            if vma.overlaps(start, end):
                raise MemoryFault(start, "map", f"overlaps {vma.describe()}")
        vma = VMA(start, end, perms)
        self.vmas = sorted([*self.vmas, vma], key=lambda v: v.start)
        for index in range(start // PAGE_SIZE, end // PAGE_SIZE):
            self.pages[index] = bytearray(PAGE_SIZE)
        return vma

    def munmap(self, start, size):
        self._carve(start, start + size, None)
        for index in list(self.pages):
            if self.find_vma(index * PAGE_SIZE) is None:
                del self.pages[index]

    def mprotect(self, start, size, perms):
        self._carve(start, start + size, perms)

    def _carve(self, start, end, perms):
        """Cut ``[start, end)`` out of the VMAs; give it ``perms`` unless None."""
        kept = []
        for vma in self.vmas:
            if not vma.overlaps(start, end):
                kept.append(vma)
                continue
            if vma.start < start:
                kept.append(VMA(vma.start, start, vma.perms))
            if perms is not None:
                kept.append(VMA(max(vma.start, start), min(vma.end, end), perms))
            if vma.end > end:
                kept.append(VMA(end, vma.end, vma.perms))
        self.vmas = kept

    def _check(self, address, size, access, flag, refusal):
        cursor = address
        while cursor < address + size:
            vma = self.find_vma(cursor)
            if vma is None:
                raise MemoryFault(cursor, access, "unmapped")
            if flag not in vma.perms:
                raise MemoryFault(cursor, access, f"{refusal} ({vma.perms})")
            cursor = vma.end

    def read(self, address, size):
        self._check(address, size, "read", "r", "permission")
        return self.read_raw(address, size)

    def write(self, address, data):
        self._check(address, len(data), "write", "w", "permission")
        self.write_raw(address, data)

    def fetch(self, address, size):
        self._check(address, max(size, 1), "exec", "x", "not executable")
        return self.read_raw(address, size)

    def read_raw(self, address, size):
        out = bytearray()
        for cursor in range(address, address + size):
            page = self.pages.get(cursor // PAGE_SIZE)
            if page is None:
                raise MemoryFault(cursor, "read", "page not present")
            out.append(page[cursor % PAGE_SIZE])
        return bytes(out)

    def write_raw(self, address, data):
        for cursor, byte in enumerate(data, start=address):
            page = self.pages.get(cursor // PAGE_SIZE)
            if page is None:
                raise MemoryFault(cursor, "write", "page not present")
            page[cursor % PAGE_SIZE] = byte


SPAN = 4  # pages in play, from BASE
page_numbers = st.integers(0, SPAN - 1)
page_counts = st.integers(1, 3)
permissions = st.sampled_from(["---", "r--", "-w-", "--x", "rw-", "r-x", "-wx", "rwx"])
#: addresses cluster at page boundaries so accesses often straddle them
addresses = st.builds(
    lambda page, offset: BASE + page * PAGE_SIZE + offset,
    st.integers(-1, SPAN),
    st.one_of(
        st.integers(0, PAGE_SIZE - 1),
        st.integers(PAGE_SIZE - MAX_INSTRUCTION, PAGE_SIZE - 1),
        st.integers(0, MAX_INSTRUCTION),
    ),
)
sizes = st.one_of(st.integers(0, 2 * MAX_INSTRUCTION), st.integers(0, 2 * PAGE_SIZE + 16))
payloads = st.builds(
    lambda size, seed: bytes((seed + i) & 0xFF for i in range(size)),
    sizes,
    st.integers(0, 255),
)
#: 8-byte-aligned addresses, the only ones the CPU reads or writes as words
word_addresses = st.builds(
    lambda page, word: BASE + page * PAGE_SIZE + 8 * word,
    st.integers(-1, SPAN),
    st.integers(0, PAGE_SIZE // 8 - 1),
)
qwords = st.integers(0, (1 << 64) - 1)


class AddressSpaceMachine(RuleBasedStateMachine):
    """Random mmap/munmap/mprotect/clone/read/write/write_raw/fetch
    sequences, and aligned word loads and stores through the word maps;
    the address space must agree with :class:`LinearSpace`."""

    decoded = Bundle("decoded")

    def __init__(self):
        super().__init__()
        self.space = AddressSpace()
        self.model = LinearSpace()

    def _both(self, operation, *args):
        outcomes = []
        for target in (self.space, self.model):
            try:
                outcomes.append(("ok", getattr(target, operation)(*args)))
            except MemoryFault as fault:
                outcomes.append(("fault", fault.address, fault.access, fault.reason))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    @rule(page=page_numbers, count=page_counts, perms=permissions)
    def mmap(self, page, count, perms):
        self._both("mmap", BASE + page * PAGE_SIZE, count * PAGE_SIZE, perms)

    @rule(page=page_numbers, count=page_counts)
    def munmap(self, page, count):
        self._both("munmap", BASE + page * PAGE_SIZE, count * PAGE_SIZE)

    @rule(page=page_numbers, count=page_counts, perms=permissions)
    def mprotect(self, page, count, perms):
        self._both("mprotect", BASE + page * PAGE_SIZE, count * PAGE_SIZE, perms)

    @rule()
    def clone(self):
        self.space = self.space.clone()
        self.model = self.model.clone()

    @rule(address=addresses, size=sizes)
    def read(self, address, size):
        self._both("read", address, size)

    @rule(address=addresses, data=payloads)
    def write(self, address, data):
        self._both("write", address, data)

    @rule(address=addresses, data=payloads)
    def write_raw(self, address, data):
        self._both("write_raw", address, data)

    @rule(address=addresses, size=sizes)
    def fetch(self, address, size):
        self._both("fetch", address, size)

    @rule(address=word_addresses)
    def load_word(self, address):
        """An aligned 8-byte load through the readable word map, as the
        CPU does it; where the map has no view, the checked read."""
        view = self.space.readable_words.get(address // PAGE_SIZE)
        if view is None:
            self._both("read", address, 8)
            return
        expected = int.from_bytes(self.model.read(address, 8), "little")
        assert view[address % PAGE_SIZE // 8] == expected

    @rule(address=word_addresses, value=qwords)
    def store_word(self, address, value):
        """An aligned 8-byte store through the store map, as the CPU does
        it; where the map has no view, the checked write.  The model must
        allow the store, to a page that is not executable: a store through
        the map evicts no cached decode."""
        data = value.to_bytes(8, "little")
        view = self.space.store_words.get(address // PAGE_SIZE)
        if view is None:
            self._both("write", address, data)
            return
        view[address % PAGE_SIZE // 8] = value
        self.model.write(address, data)
        assert "x" not in self.model.find_vma(address).perms

    @rule(target=decoded, address=addresses)
    def decode(self, address):
        """Fetch like the CPU does and cache the bytes the decode read."""
        outcome = self._both("fetch", address, MAX_INSTRUCTION)
        if outcome[0] == "ok":
            self.space.decode_cache[address] = outcome[1]
        return address

    @rule(
        address=decoded,
        delta=st.integers(-MAX_INSTRUCTION, 2 * MAX_INSTRUCTION),
        data=payloads,
        raw=st.booleans(),
    )
    def patch_near_decode(self, address, delta, data, raw):
        self._both("write_raw" if raw else "write", address + delta, data)

    @invariant()
    def same_memory(self):
        assert self.space.pages == self.model.pages
        assert [(v.start, v.end, v.perms) for v in self.space.vmas] == [
            (v.start, v.end, v.perms) for v in self.model.vmas
        ]

    @invariant()
    def index_matches_a_rebuild(self):
        space = self.space
        index = (
            (space.readable_pages, lambda perms: "r" in perms),
            (space.writable_pages, lambda perms: "w" in perms),
            (space.executable_pages, lambda perms: "x" in perms),
            (space.store_pages, lambda perms: "w" in perms and "x" not in perms),
        )
        for pages, allowed in index:
            rebuilt = {
                number: space.pages[number]
                for vma in space.vmas
                if allowed(vma.perms)
                for number in range(vma.start // PAGE_SIZE, vma.end // PAGE_SIZE)
            }
            assert pages.keys() == rebuilt.keys()
            assert all(pages[number] is rebuilt[number] for number in rebuilt)
        # every page has one word view, over that very page object, and
        # the word maps hold the views of the readable pages and of the
        # store map; on a big-endian host they all stay empty
        for views, pages in (
            (space.words, space.pages),
            (space.readable_words, space.readable_pages),
            (space.store_words, space.store_pages),
        ):
            if sys.byteorder != "little":
                assert not views
                continue
            assert views.keys() == pages.keys()
            assert all(views[number].obj is pages[number] for number in pages)
            assert all(views[number].format == "Q" for number in pages)

    @invariant()
    def cached_decodes_are_current(self):
        for address, raw in self.space.decode_cache.items():
            assert self.model.fetch(address, MAX_INSTRUCTION) == raw


AddressSpaceMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestAddressSpaceAgainstLinearScan = AddressSpaceMachine.TestCase
