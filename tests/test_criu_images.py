"""Serialization and mutation tests for CRIU-style images and CRIT."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.criu import (
    CheckpointImage,
    CoreImage,
    FdEntryImage,
    FilesImage,
    ImageError,
    MmImage,
    PagemapEntry,
    PagemapImage,
    PagesImage,
    ProcessImage,
    RegsImage,
    SigactionEntry,
    VmaEntry,
    crit,
)
from repro.kernel import InMemoryFS, PAGE_SIZE


def _core(pid: int = 7) -> CoreImage:
    return CoreImage(
        pid=pid,
        ppid=1,
        binary="app",
        regs=RegsImage(list(range(16)), 0x401000, True, False),
        sigactions=[SigactionEntry(5, 0x7D0000, 0x7D0100)],
        next_fd=9,
    )


def _process_image(pid: int = 7) -> ProcessImage:
    pages = bytes(range(256)) * 16 * 2      # two pages
    return ProcessImage(
        core=_core(pid),
        mm=MmImage([
            VmaEntry(0x400000, 0x402000, "r-x", "app", 0x400000, "text"),
            VmaEntry(0x500000, 0x501000, "rw-", "", 0, "heap"),
        ]),
        pagemap=PagemapImage([PagemapEntry(0x400000, 2)]),
        pages=PagesImage(pages),
        files=FilesImage([
            FdEntryImage(3, "file", path="/tmp/x", offset=5, flags=2),
            FdEntryImage(4, "socket-listen", port=80, pending_conns=[1, 2]),
            FdEntryImage(5, "socket-conn", conn_id=3, side="b",
                         recv_buffer=b"abc"),
        ]),
    )


class TestImageRoundTrips:
    def test_core(self):
        core = _core()
        restored = CoreImage.from_bytes(core.to_bytes())
        assert restored == core

    def test_mm(self):
        mm = _process_image().mm
        assert MmImage.from_bytes(mm.to_bytes()) == mm

    def test_pagemap(self):
        pagemap = _process_image().pagemap
        assert PagemapImage.from_bytes(pagemap.to_bytes()) == pagemap

    def test_pages(self):
        pages = _process_image().pages
        assert PagesImage.from_bytes(pages.to_bytes()) == pages

    def test_files(self):
        files = _process_image().files
        assert FilesImage.from_bytes(files.to_bytes()) == files

    def test_wrong_magic_rejected(self):
        with pytest.raises(ImageError):
            CoreImage.from_bytes(b"XXXX\x01" + b"\x00" * 64)

    def test_checkpoint_save_load(self):
        fs = InMemoryFS()
        checkpoint = CheckpointImage([_process_image(7), _process_image(8)])
        checkpoint.save(fs, "/tmp/criu/test")
        loaded = CheckpointImage.load(fs, "/tmp/criu/test")
        assert loaded.pids == [7, 8]
        assert loaded.process(7).core == checkpoint.process(7).core
        assert loaded.process(8).pages == checkpoint.process(8).pages

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 255), st.integers(1, 4)),
            min_size=1, max_size=5,
        )
    )
    def test_pagemap_total_pages(self, entries):
        pagemap = PagemapImage(
            [PagemapEntry(idx * 0x100000, n) for idx, (__, n) in enumerate(entries)]
        )
        assert pagemap.total_pages == sum(n for __, n in entries)


class TestProcessImageMutation:
    def test_read_write_memory(self):
        image = _process_image()
        image.write_memory(0x400010, b"\xcc\xcc")
        assert image.read_memory(0x400010, 2) == b"\xcc\xcc"
        assert image.read_memory(0x400012, 1) != b"\xcc"

    def test_write_outside_dump_rejected(self):
        image = _process_image()
        with pytest.raises(ImageError):
            image.write_memory(0x500000, b"x")   # heap VMA was not dumped

    def test_write_across_pages(self):
        image = _process_image()
        addr = 0x401000 - 2
        image.write_memory(addr, b"ABCD")
        assert image.read_memory(addr, 4) == b"ABCD"

    def test_add_pages_then_write(self):
        image = _process_image()
        image.add_pages(0x7D000000, b"\x01" * 100)
        assert image.read_memory(0x7D000000, 1) == b"\x01"
        image.write_memory(0x7D000040, b"\xff")
        assert image.read_memory(0x7D000040, 1) == b"\xff"
        # padded to a whole page
        assert image.pagemap.entries[-1].nr_pages == 1

    def test_add_pages_unaligned_rejected(self):
        image = _process_image()
        with pytest.raises(ImageError):
            image.add_pages(0x7D000001, b"x")

    def test_drop_range(self):
        image = _process_image()
        dropped = image.drop_range(0x400000, 0x401000)
        assert dropped == 1
        assert not image.has_dumped(0x400000)
        assert image.has_dumped(0x401000)
        assert len(image.pages.data) == PAGE_SIZE

    def test_total_bytes_tracks_pages(self):
        image = _process_image()
        before = image.total_bytes()
        image.add_pages(0x7D000000, b"\x00" * PAGE_SIZE * 3)
        assert image.total_bytes() >= before + 3 * PAGE_SIZE

    def test_write_memory_patches_the_buffer_in_place(self):
        image = _process_image()
        buffer = image.pages.data
        image.write_memory(0x400010, b"\xcc\xcc")
        assert image.pages.data is buffer
        assert buffer[0x10:0x12] == b"\xcc\xcc"


def _sized_images() -> list[ProcessImage]:
    """Process images whose encodings exercise every variable field."""
    plain = _process_image(7)
    filtered = _process_image(8)
    filtered.core.syscall_filter = [0, 1, 60, 231]
    # a non-ASCII path: its UTF-8 length is not its length in characters
    filtered.mm.vmas.append(
        VmaEntry(0x600000, 0x601000, "rw-", "/tmp/d\u00e9j\u00e0", 0, "\u00e9")
    )
    grown = _process_image(9)
    grown.add_pages(0x7D000000, b"\x01" * 100)
    grown.drop_range(0x400000, 0x401000)
    empty = ProcessImage(
        _core(10), MmImage(), PagemapImage(), PagesImage(), FilesImage()
    )
    return [plain, filtered, grown, empty]


class TestImageSizes:
    @pytest.mark.parametrize("index", range(4))
    def test_total_bytes_is_the_length_of_the_five_files(self, index):
        image = _sized_images()[index]
        encoded = (
            image.core.to_bytes(), image.mm.to_bytes(),
            image.pagemap.to_bytes(), image.pages.to_bytes(),
            image.files.to_bytes(),
        )
        assert image.total_bytes() == sum(len(data) for data in encoded)

    def test_checkpoint_total_bytes_is_what_save_writes(self):
        fs = InMemoryFS()
        checkpoint = CheckpointImage(_sized_images())
        checkpoint.save(fs, "/tmp/criu/sized")
        written = sum(
            len(fs.read_file(path))
            for path in fs.listdir("/tmp/criu/sized")
            if not path.endswith("inventory.img")
        )
        assert checkpoint.total_bytes() == written


def _mutable_objects(value, seen: dict[int, object]) -> None:
    """Every list, dict, bytearray and dataclass instance reachable
    from ``value``, by id."""
    import dataclasses

    if isinstance(value, (list, dict, bytearray)) or (
        dataclasses.is_dataclass(value) and not isinstance(value, type)
    ):
        if id(value) in seen:
            return
        seen[id(value)] = value
    if isinstance(value, list):
        for item in value:
            _mutable_objects(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            _mutable_objects(item, seen)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for spec in dataclasses.fields(value):
            _mutable_objects(getattr(value, spec.name), seen)


class TestCheckpointCopy:
    def test_copy_is_equal_and_shares_no_mutable_object(self):
        checkpoint = CheckpointImage(_sized_images(), clock_ns=77)
        copied = checkpoint.copy()
        assert copied == checkpoint
        ours: dict[int, object] = {}
        theirs: dict[int, object] = {}
        _mutable_objects(checkpoint, ours)
        _mutable_objects(copied, theirs)
        assert ours.keys().isdisjoint(theirs.keys())

    def test_patching_the_copy_leaves_the_original(self):
        checkpoint = CheckpointImage([_process_image(7)])
        copied = checkpoint.copy()
        before = checkpoint.root().read_memory(0x400010, 2)
        copied.root().write_memory(0x400010, b"\xcc\xcc")
        copied.root().add_pages(0x7D000000, b"\x01")
        copied.root().core.sigactions.clear()
        assert checkpoint.root().read_memory(0x400010, 2) == before
        assert checkpoint.total_pages() == 2
        assert checkpoint.root().core.sigactions


class TestCrit:
    @pytest.mark.parametrize("kind", ["core", "mm", "pagemap", "pages", "files"])
    def test_decode_encode_roundtrip(self, kind):
        image = _process_image()
        raw = {
            "core": image.core.to_bytes(),
            "mm": image.mm.to_bytes(),
            "pagemap": image.pagemap.to_bytes(),
            "pages": image.pages.to_bytes(),
            "files": image.files.to_bytes(),
        }[kind]
        decoded = crit.decode(raw)
        assert decoded["kind"] == kind
        assert crit.encode(decoded) == raw

    def test_json_roundtrip(self):
        raw = _core().to_bytes()
        text = crit.decode_to_json(raw)
        assert crit.encode_from_json(text) == raw

    def test_show_mems(self):
        fs = InMemoryFS()
        CheckpointImage([_process_image()]).save(fs, "/tmp/c")
        listing = crit.show_mems(fs, "/tmp/c")
        assert "0x000000400000" in listing
        assert "r-x" in listing
        assert "app" in listing

    def test_show_core(self):
        fs = InMemoryFS()
        CheckpointImage([_process_image()]).save(fs, "/tmp/c2")
        text = crit.show_core(fs, "/tmp/c2", 7)
        assert "pid 7" in text
        assert "sigaction 5" in text

    def test_image_kind_detection(self):
        assert crit.image_kind(_core().to_bytes()) == "core"
        with pytest.raises(ImageError):
            crit.image_kind(b"????")
