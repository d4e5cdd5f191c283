"""Frozen storage subsystem: segmented mmap snapshots + banded candidate index.

The JSON snapshot (:mod:`repro.service.snapshot`) is one parse-everything
document; it tops out around tens of thousands of nodes because open time is
linear in repository size.  This package adds a *frozen* carrier for the same
logical document: a segmented, versioned binary file whose fixed-width
little-endian arrays are mapped — not parsed — at open, so
:func:`repro.service.snapshot.load_snapshot` on a frozen file returns a ready
service in O(header) time regardless of repository size.

* :mod:`repro.storage.format` — the container (magic, header, segment table,
  validation, the shared int32 packing carrier);
* :mod:`repro.storage.frozen` — mmap-backed view classes satisfying the same
  contracts as the JSON-loaded structures, plus :func:`load_frozen_service`;
* :mod:`repro.storage.builder` — streaming freeze/convert/compact writers.
"""

from repro.storage.builder import (
    compact_frozen,
    freeze_service,
    freeze_snapshot_file,
)
from repro.storage.format import (
    FROZEN_FORMAT,
    FROZEN_MAGIC,
    FROZEN_VERSION,
    FrozenSnapshot,
    is_frozen_file,
    is_frozen_prefix,
    open_frozen,
    pack_int32,
    unpack_int32,
)
from repro.storage.frozen import (
    FrozenNameIndex,
    FrozenPartition,
    FrozenRepository,
    FrozenRepositoryDistanceOracle,
    load_frozen_service,
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
    "compact_frozen",
    "freeze_service",
    "freeze_snapshot_file",
    "is_frozen_file",
    "is_frozen_prefix",
    "load_frozen_service",
    "open_frozen",
    "pack_int32",
    "unpack_int32",
]
