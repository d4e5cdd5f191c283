"""The frozen container: packing carrier, segment table, torn-write rejection.

A frozen snapshot is trusted at ``mmap`` speed — nothing re-parses it after
open — so the open-time validation is the only line of defence against a
truncated, corrupted, or foreign file.  These tests write real containers,
then damage them byte-by-byte and assert every damage mode is rejected with
:class:`~repro.errors.ReproError` before any view is handed out.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.storage import (
    FROZEN_FORMAT,
    FROZEN_MAGIC,
    FROZEN_VERSION,
    open_frozen,
    pack_int32,
    unpack_int32,
)
from repro.storage.format import SegmentWriter, int32_view
from repro.utils.fileio import write_bytes_atomic

#: magic, uint32 container version, uint32 header length (little-endian).
PREAMBLE = struct.Struct("<8sII")


def _align(offset: int) -> int:
    return (offset + 7) // 8 * 8


def write_sample(path: Path) -> dict:
    """A small but fully populated container: every segment kind, 3 segments."""
    writer = SegmentWriter()
    writer.add_int32("forest/parents", [-1, 0, 0, 1, -5, 2_000_000_000])
    writer.add_int8("forest/kinds", [0, 1, 2, 1, 0, 3])
    writer.add_bytes("names/blob", "libroébook".encode("utf-8"))
    return writer.write(path, {"repository": {"name": "sample", "trees": 1, "nodes": 6}})


def rewrite_header(path: Path, mutate=None, raw_header: bytes | None = None) -> None:
    """Replace the JSON header in place, keeping the data region byte-identical.

    Segment offsets are relative to the aligned data start, so re-aligning
    after the new header preserves their validity — only the header changed.
    """
    data = path.read_bytes()
    magic, version, header_length = PREAMBLE.unpack_from(data, 0)
    old_start = _align(PREAMBLE.size + header_length)
    if raw_header is None:
        header = json.loads(data[PREAMBLE.size : PREAMBLE.size + header_length])
        raw_header = json.dumps(mutate(header) or header, separators=(",", ":")).encode("utf-8")
    new_start = _align(PREAMBLE.size + len(raw_header))
    padding = b"\x00" * (new_start - PREAMBLE.size - len(raw_header))
    path.write_bytes(
        PREAMBLE.pack(magic, version, len(raw_header)) + raw_header + padding + data[old_start:]
    )


class TestInt32Carrier:
    @pytest.mark.parametrize(
        "values",
        [[], [0], [1, -1, 2_147_483_647, -2_147_483_648], list(range(-50, 50))],
    )
    def test_pack_unpack_round_trip(self, values):
        packed = pack_int32(values)
        assert len(packed) == 4 * len(values)
        assert list(unpack_int32(packed)) == values

    def test_int32_view_reads_packed_bytes_without_copying(self):
        values = [7, -9, 0, 123_456]
        view = int32_view(memoryview(pack_int32(values)))
        assert list(view) == values

    def test_unpack_accepts_memoryview_slices(self):
        packed = pack_int32([10, 20, 30, 40])
        assert list(unpack_int32(memoryview(packed)[4:12])) == [20, 30]


class TestSegmentWriter:
    def test_round_trip_preserves_every_segment_kind(self, tmp_path):
        target = tmp_path / "sample.frozen"
        header = write_sample(target)
        assert header["format"] == FROZEN_FORMAT
        assert header["version"] == FROZEN_VERSION

        snapshot = open_frozen(target)
        assert snapshot.header["repository"]["name"] == "sample"
        assert snapshot.segment_names() == ["forest/parents", "forest/kinds", "names/blob"]
        assert list(snapshot.int32("forest/parents")) == [-1, 0, 0, 1, -5, 2_000_000_000]
        assert list(snapshot.int8("forest/kinds")) == [0, 1, 2, 1, 0, 3]
        assert bytes(snapshot.raw("names/blob")).decode("utf-8") == "libroébook"

    def test_segment_offsets_are_eight_byte_aligned(self, tmp_path):
        target = tmp_path / "sample.frozen"
        write_sample(target)
        snapshot = open_frozen(target)
        assert snapshot.data_start % 8 == 0
        for entry in snapshot.header["segments"]:
            assert entry["offset"] % 8 == 0

    def test_duplicate_segment_names_are_rejected(self):
        writer = SegmentWriter()
        writer.add_int32("forest/parents", [0])
        with pytest.raises(ReproError, match="duplicate"):
            writer.add_int8("forest/parents", [0])

    def test_kind_mismatch_is_rejected_at_read(self, tmp_path):
        target = tmp_path / "sample.frozen"
        write_sample(target)
        snapshot = open_frozen(target)
        with pytest.raises(ReproError, match="not int32"):
            snapshot.int32("names/blob")
        with pytest.raises(ReproError, match="not int8"):
            snapshot.int8("forest/parents")

    def test_unknown_segment_name_is_rejected(self, tmp_path):
        target = tmp_path / "sample.frozen"
        write_sample(target)
        with pytest.raises(ReproError, match="no segment"):
            open_frozen(target).int32("forest/missing")


class TestOpenValidation:
    def test_non_frozen_file_is_rejected(self, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_bytes(b"plain text, not a snapshot at all")
        with pytest.raises(ReproError, match="bad magic"):
            open_frozen(target)

    def test_json_service_snapshot_is_rejected_with_a_rebuild_hint(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_bytes(b'{"format": "bellflower-service-snapshot"}')
        with pytest.raises(ReproError, match="JSON service snapshot.*rebuild it"):
            open_frozen(target)

    def test_file_shorter_than_the_preamble_is_rejected(self, tmp_path):
        target = tmp_path / "stub.frozen"
        target.write_bytes(FROZEN_MAGIC[:4])
        with pytest.raises(ReproError, match="shorter than the preamble"):
            open_frozen(target)

    def test_missing_file_is_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="cannot open"):
            open_frozen(tmp_path / "absent.frozen")

    def test_truncation_at_any_structural_point_is_rejected(self, tmp_path):
        target = tmp_path / "sample.frozen"
        write_sample(target)
        image = target.read_bytes()
        snapshot = open_frozen(target)
        last_byte = snapshot.data_start + max(
            entry["offset"] + entry["length"] for entry in snapshot.header["segments"]
        )
        _, _, header_length = PREAMBLE.unpack_from(image, 0)
        cuts = [
            PREAMBLE.size - 1,  # inside the preamble
            PREAMBLE.size + header_length // 2,  # inside the JSON header
            snapshot.data_start + 3,  # inside the first segment
            last_byte - 1,  # one byte short of the last segment
        ]
        for cut in cuts:
            torn = tmp_path / f"torn-{cut}.frozen"
            torn.write_bytes(image[:cut])
            with pytest.raises(ReproError):
                open_frozen(torn)

    def test_corrupt_magic_is_rejected(self, tmp_path):
        target = tmp_path / "sample.frozen"
        write_sample(target)
        image = bytearray(target.read_bytes())
        image[0] ^= 0xFF
        target.write_bytes(bytes(image))
        with pytest.raises(ReproError, match="bad magic"):
            open_frozen(target)

    def test_unsupported_container_version_is_rejected(self, tmp_path):
        target = tmp_path / "sample.frozen"
        write_sample(target)
        image = bytearray(target.read_bytes())
        struct.pack_into("<I", image, 8, FROZEN_VERSION + 1)
        target.write_bytes(bytes(image))
        with pytest.raises(ReproError, match="container version"):
            open_frozen(target)

    def test_garbage_header_bytes_are_rejected(self, tmp_path):
        target = tmp_path / "sample.frozen"
        write_sample(target)
        image = bytearray(target.read_bytes())
        _, _, header_length = PREAMBLE.unpack_from(image, 0)
        image[PREAMBLE.size : PREAMBLE.size + header_length] = b"\xff" * header_length
        target.write_bytes(bytes(image))
        with pytest.raises(ReproError, match="corrupt header"):
            open_frozen(target)

    def test_foreign_document_format_is_rejected(self, tmp_path):
        target = tmp_path / "sample.frozen"
        write_sample(target)

        def mutate(header):
            header["format"] = "some-other-format"

        rewrite_header(target, mutate)
        with pytest.raises(ReproError, match="not a frozen service snapshot"):
            open_frozen(target)

    def test_future_document_version_is_rejected(self, tmp_path):
        target = tmp_path / "sample.frozen"
        write_sample(target)

        def mutate(header):
            header["version"] = FROZEN_VERSION + 1

        rewrite_header(target, mutate)
        with pytest.raises(ReproError, match="snapshot version"):
            open_frozen(target)

    def test_missing_segment_table_is_rejected(self, tmp_path):
        target = tmp_path / "sample.frozen"
        write_sample(target)

        def mutate(header):
            del header["segments"]

        rewrite_header(target, mutate)
        with pytest.raises(ReproError, match="no segment table"):
            open_frozen(target)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("kind", "float64", "unknown kind"),
            ("count", 999, "inconsistent geometry"),
            ("offset", -8, "inconsistent geometry"),
            ("offset", 10**9, "truncated"),
            ("length", "not-a-number", "malformed descriptor"),
        ],
    )
    def test_bad_segment_geometry_is_rejected(self, tmp_path, field, value, message):
        target = tmp_path / "sample.frozen"
        write_sample(target)

        def mutate(header):
            header["segments"][0][field] = value

        rewrite_header(target, mutate)
        with pytest.raises(ReproError, match=message):
            open_frozen(target)

    def test_header_that_is_not_json_object_is_rejected(self, tmp_path):
        target = tmp_path / "sample.frozen"
        write_sample(target)
        rewrite_header(target, raw_header=b"[1, 2, 3]")
        with pytest.raises(ReproError, match="not a frozen service snapshot"):
            open_frozen(target)


class TestWriteBytesAtomic:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "blob.bin"
        write_bytes_atomic(target, b"\x00first")
        assert target.read_bytes() == b"\x00first"
        write_bytes_atomic(target, b"\x01second")
        assert target.read_bytes() == b"\x01second"

    def test_leaves_no_temp_files_behind(self, tmp_path):
        write_bytes_atomic(tmp_path / "blob.bin", b"payload")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blob.bin"]

    def test_a_failed_write_preserves_the_old_content(self, tmp_path, monkeypatch):
        target = tmp_path / "blob.bin"
        write_bytes_atomic(target, b"good")

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            write_bytes_atomic(target, b"bad")
        assert target.read_bytes() == b"good"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blob.bin"]
