"""Service layer: snapshots, incremental updates, cached query execution.

The experiment harness treats every matching run as a throwaway process; this
package treats the repository as a long-lived, versioned asset.

* :class:`MatchingService` — the facade: query caching and incremental
  ``add_tree``/``remove_tree``.
* :mod:`repro.service.snapshot` — one-file persistence of the repository and
  all derived state (indexes, oracles, partition) as a frozen
  :mod:`repro.storage` file, loaded in O(header) time.
* :class:`RepositoryPartition` / :class:`PartitionClusterer` — the
  precomputable, snapshot-friendly clustering configuration.
* :func:`schema_fingerprint` — the query-cache key.
"""

from repro.service.fingerprint import schema_fingerprint
from repro.service.partition import PartitionClusterer, RepositoryPartition
from repro.service.service import MatchingService
from repro.service.snapshot import load_snapshot, write_snapshot

__all__ = [
    "MatchingService",
    "PartitionClusterer",
    "RepositoryPartition",
    "load_snapshot",
    "schema_fingerprint",
    "write_snapshot",
]
