"""Frozen storage subsystem: segmented mmap snapshots.

A service snapshot is one frozen file: a segmented, versioned binary file
whose fixed-width little-endian arrays are mapped — not parsed — at open, so
:func:`repro.service.snapshot.load_snapshot` returns a ready service in
O(header) time regardless of repository size.

* :mod:`repro.storage.format` — the container (magic, header, segment table,
  validation, the int32 packing codec);
* :mod:`repro.storage.frozen` — mmap-backed view classes satisfying the same
  contracts as the in-memory structures they stand for;
* :mod:`repro.storage.builder` — the streaming writer behind
  :func:`~repro.service.snapshot.write_snapshot` and the ingestion merge's
  one pass over a corpus.
"""

from repro.storage.format import (
    FROZEN_FORMAT,
    FROZEN_MAGIC,
    FROZEN_VERSION,
    FrozenSnapshot,
    open_frozen,
    pack_int32,
    unpack_int32,
)
from repro.storage.frozen import (
    FrozenNameIndex,
    FrozenPartition,
    FrozenRepository,
    FrozenRepositoryDistanceOracle,
)

__all__ = [
    "FROZEN_FORMAT",
    "FROZEN_MAGIC",
    "FROZEN_VERSION",
    "FrozenNameIndex",
    "FrozenPartition",
    "FrozenRepository",
    "FrozenRepositoryDistanceOracle",
    "FrozenSnapshot",
    "open_frozen",
    "pack_int32",
    "unpack_int32",
]
