"""The frozen snapshot container: segmented, versioned, loaded by ``mmap``.

A frozen snapshot is the on-disk form of a service snapshot: forest
structure, name tables, Euler tours, sparse-table rows and posting lists,
stored as fixed-width little-endian arrays that a reader maps into its
address space instead of parsing.  Opening one is O(header), not
O(repository): the loader validates the preamble and the segment table,
``mmap``\\ s the file once, and every array is a zero-copy ``memoryview`` cast
over the mapping.

File layout
-----------
::

    [8-byte magic][uint32 container version][uint32 header length]
    [UTF-8 JSON header][zero padding to 8-byte alignment]
    [segment 0][padding][segment 1][padding]...

The JSON header is self-describing: it carries the document ``format`` /
``version`` pair, the repository metadata a ``snapshot inspect`` needs
(tree/node counts, digest), the service configuration, and a ``segments``
table of ``{name, offset, length, kind, count}`` entries whose offsets are
relative to the 8-byte-aligned **data start** (the first aligned byte after
the header).  Segment kinds are ``int32`` (little-endian 4-byte), ``int8``
(1-byte codes) and ``bytes`` (opaque blobs, e.g. UTF-8 string-table heaps).

Torn writes
-----------
Writers go through :func:`~repro.utils.fileio.write_bytes_atomic`, so a crash
mid-freeze never leaves a partial file under the target name.  Readers still
validate defensively at open: magic, container version, header bounds, JSON
well-formedness, and that every segment lies inside the file with a length
consistent with its kind and count.  A truncated or corrupted file is
rejected with :class:`~repro.errors.ReproError` before any view is handed
out.

A JSON service snapshot — the document earlier builds wrote — is recognized
by its opening brace and rejected with a message that says how to rebuild
it, so an old deployment fails loudly at its first load.

Version policy
--------------
The loader rejects any ``version`` it was not written for (frozen state is
pure acceleration — a wrong structural guess would silently corrupt match
results, so there is no best-effort path).  Adding optional header keys or
new segments is allowed within a version; changing the meaning or layout of
an existing segment requires a bump.

Int32 packing
-------------
:func:`pack_int32` / :func:`unpack_int32` are the one int32 byte codec: the
writer packs segments with them and big-endian readers decode with them, so
the little-endian-on-disk/by-swap-on-big-endian rule lives in exactly one
place.
"""

from __future__ import annotations

import json
import mmap
import struct
import sys
from array import array
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ReproError
from repro.utils.fileio import write_bytes_atomic

#: First 8 bytes of every frozen snapshot.  PNG-style: a high bit to catch
#: 7-bit transport corruption, CRLF + ^Z + LF to catch newline translation.
FROZEN_MAGIC = b"\x89BFZ\r\n\x1a\n"

FROZEN_FORMAT = "bellflower-frozen-snapshot"
FROZEN_VERSION = 1

#: magic, container version, header byte length.
_PREAMBLE = struct.Struct("<8sII")

_ALIGNMENT = 8

_SEGMENT_KINDS = {"int32": 4, "int8": 1, "bytes": 1}


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


# -- int32 packing ------------------------------------------------------------


def pack_int32(values) -> bytes:
    """Little-endian int32 bytes of a flat int sequence."""
    buffer = array("i", values)
    if sys.byteorder == "big":  # pragma: no cover - x86/arm are little-endian
        buffer.byteswap()
    return buffer.tobytes()


def unpack_int32(data) -> array:
    """Invert :func:`pack_int32` into a *live* ``array('i')`` (copies)."""
    buffer = array("i")
    buffer.frombytes(bytes(data))
    if sys.byteorder == "big":  # pragma: no cover - x86/arm are little-endian
        buffer.byteswap()
    return buffer


def int32_view(view: memoryview) -> Sequence[int]:
    """Zero-copy int sequence over little-endian int32 bytes.

    On little-endian hosts this is a ``memoryview.cast('i')`` straight over
    the mapping — no copy, O(1) regardless of length.  Big-endian hosts fall
    back to a byteswapped ``array('i')`` copy (correct, not zero-copy).
    """
    if sys.byteorder == "big":  # pragma: no cover - x86/arm are little-endian
        return unpack_int32(view)
    return view.cast("i")


# -- writing ------------------------------------------------------------------


class SegmentWriter:
    """Accumulate named segments, then write one frozen snapshot atomically.

    Segment names must be unique; the registration order is the on-disk
    order.  ``write`` computes the aligned offsets, embeds the segment table
    into the header and hands the whole image to
    :func:`~repro.utils.fileio.write_bytes_atomic`.
    """

    def __init__(self) -> None:
        self._segments: List[Tuple[str, str, int, bytes]] = []
        self._names: set = set()

    def _add(self, name: str, kind: str, count: int, data: bytes) -> None:
        if name in self._names:
            raise ReproError(f"duplicate frozen segment name {name!r}")
        self._names.add(name)
        self._segments.append((name, kind, count, data))

    def add_int32(self, name: str, values) -> None:
        data = pack_int32(values)
        self._add(name, "int32", len(data) // 4, data)

    def add_int8(self, name: str, values) -> None:
        data = bytes(bytearray(values))
        self._add(name, "int8", len(data), data)

    def add_bytes(self, name: str, data: bytes) -> None:
        self._add(name, "bytes", len(data), bytes(data))

    def write(self, path: str | Path, header: Dict[str, Any]) -> Dict[str, Any]:
        """Assemble and atomically write the snapshot; returns the header."""
        document = dict(header)
        document["format"] = FROZEN_FORMAT
        document["version"] = FROZEN_VERSION
        table: List[Dict[str, Any]] = []
        offset = 0
        for name, kind, count, data in self._segments:
            table.append(
                {
                    "name": name,
                    "offset": offset,
                    "length": len(data),
                    "kind": kind,
                    "count": count,
                }
            )
            offset = _align(offset + len(data))
        document["segments"] = table
        header_bytes = json.dumps(document, separators=(",", ":")).encode("utf-8")
        parts: List[bytes] = [
            _PREAMBLE.pack(FROZEN_MAGIC, FROZEN_VERSION, len(header_bytes)),
            header_bytes,
        ]
        position = _PREAMBLE.size + len(header_bytes)
        padding = _align(position) - position
        if padding:
            parts.append(b"\x00" * padding)
        for entry, (_, _, _, data) in zip(table, self._segments):
            parts.append(data)
            tail = _align(entry["offset"] + len(data)) - (entry["offset"] + len(data))
            if tail:
                parts.append(b"\x00" * tail)
        write_bytes_atomic(path, b"".join(parts))
        return document


# -- reading ------------------------------------------------------------------


class FrozenSnapshot:
    """A validated, memory-mapped frozen snapshot.

    Construction costs O(header): the file is mapped once, the preamble and
    segment table are validated (bounds, kinds, counts), and every later
    :meth:`int32`/:meth:`int8`/:meth:`raw` call is an O(1) view over the
    mapping.  Instances are shared freely across threads — views are
    read-only.
    """

    def __init__(self, path: str | Path) -> None:
        target = Path(path)
        self.source_path = str(target)
        try:
            with open(target, "rb") as stream:
                size = target.stat().st_size
                if size < _PREAMBLE.size:
                    raise ReproError(
                        f"{target} is not a frozen snapshot (file shorter than the preamble)"
                    )
                mapping = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
        except OSError as exc:
            raise ReproError(f"cannot open frozen snapshot {target}: {exc}") from exc
        self._mapping = mapping
        self._view = memoryview(mapping)
        try:
            self.header = self._validate()
        except BaseException:
            self._view.release()
            mapping.close()
            raise
        self._segments: Dict[str, Dict[str, Any]] = {
            entry["name"]: entry for entry in self.header["segments"]
        }

    # -- validation ----------------------------------------------------------

    def _validate(self) -> Dict[str, Any]:
        size = len(self._view)
        magic, container_version, header_length = _PREAMBLE.unpack_from(self._view, 0)
        if magic.lstrip().startswith(b"{"):
            raise ReproError(
                f"{self.source_path} is a JSON service snapshot, which this build no "
                "longer reads; rebuild it from the repository with `cli snapshot` "
                "(a shard set with `cli shard split`)"
            )
        if magic != FROZEN_MAGIC:
            raise ReproError(
                f"{self.source_path} is not a frozen snapshot (bad magic {magic!r})"
            )
        if container_version != FROZEN_VERSION:
            raise ReproError(
                f"unsupported frozen container version {container_version} "
                f"(this build reads version {FROZEN_VERSION})"
            )
        if _PREAMBLE.size + header_length > size:
            raise ReproError(
                f"frozen snapshot {self.source_path} is truncated "
                f"(header of {header_length} bytes does not fit in {size})"
            )
        raw_header = bytes(self._view[_PREAMBLE.size : _PREAMBLE.size + header_length])
        try:
            header = json.loads(raw_header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ReproError(
                f"frozen snapshot {self.source_path} has a corrupt header: {exc}"
            ) from exc
        if not isinstance(header, dict) or header.get("format") != FROZEN_FORMAT:
            found = header.get("format") if isinstance(header, dict) else type(header).__name__
            raise ReproError(
                f"{self.source_path} is not a frozen service snapshot "
                f"(format={found!r} if it is a header at all)"
            )
        if header.get("version") != FROZEN_VERSION:
            raise ReproError(
                f"unsupported frozen snapshot version {header.get('version')!r} "
                f"(this build reads version {FROZEN_VERSION})"
            )
        table = header.get("segments")
        if not isinstance(table, list):
            raise ReproError(
                f"frozen snapshot {self.source_path} header has no segment table"
            )
        data_start = _align(_PREAMBLE.size + header_length)
        for entry in table:
            if not isinstance(entry, dict):
                raise ReproError(
                    f"frozen snapshot {self.source_path} has a malformed segment entry"
                )
            name = entry.get("name")
            kind = entry.get("kind")
            try:
                offset = int(entry["offset"])
                length = int(entry["length"])
                count = int(entry["count"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ReproError(
                    f"frozen snapshot {self.source_path} segment {name!r} has a "
                    f"malformed descriptor: {exc}"
                ) from exc
            width = _SEGMENT_KINDS.get(kind)
            if width is None:
                raise ReproError(
                    f"frozen snapshot {self.source_path} segment {name!r} has "
                    f"unknown kind {kind!r}"
                )
            if offset < 0 or length < 0 or count < 0 or length != count * width:
                raise ReproError(
                    f"frozen snapshot {self.source_path} segment {name!r} declares "
                    f"inconsistent geometry (offset={offset}, length={length}, "
                    f"count={count}, kind={kind})"
                )
            if data_start + offset + length > size:
                raise ReproError(
                    f"frozen snapshot {self.source_path} is truncated: segment "
                    f"{name!r} ends at byte {data_start + offset + length} of {size}"
                )
        self.data_start = data_start
        return header

    # -- views ---------------------------------------------------------------

    def _entry(self, name: str) -> Dict[str, Any]:
        entry = self._segments.get(name)
        if entry is None:
            raise ReproError(
                f"frozen snapshot {self.source_path} has no segment {name!r}"
            )
        return entry

    def raw(self, name: str) -> memoryview:
        """Read-only byte view of a segment (any kind)."""
        entry = self._entry(name)
        start = self.data_start + entry["offset"]
        return self._view[start : start + entry["length"]]

    def int32(self, name: str) -> Sequence[int]:
        """Zero-copy int sequence over an ``int32`` segment."""
        entry = self._entry(name)
        if entry["kind"] != "int32":
            raise ReproError(
                f"segment {name!r} of {self.source_path} is {entry['kind']}, not int32"
            )
        return int32_view(self.raw(name))

    def int8(self, name: str) -> Sequence[int]:
        """Zero-copy int sequence over an ``int8`` segment."""
        entry = self._entry(name)
        if entry["kind"] != "int8":
            raise ReproError(
                f"segment {name!r} of {self.source_path} is {entry['kind']}, not int8"
            )
        return self.raw(name).cast("b")

    def segment_names(self) -> List[str]:
        return [entry["name"] for entry in self.header["segments"]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenSnapshot(path={self.source_path!r}, "
            f"segments={len(self._segments)})"
        )


def open_frozen(path: str | Path) -> FrozenSnapshot:
    """Map and validate a frozen snapshot.

    Every call maps the file as it is now: replacing the file (every freeze
    is an atomic rename) never leaves a later open reading the old
    generation, while readers of the old one keep their still-mapped pages.
    """
    return FrozenSnapshot(path)
