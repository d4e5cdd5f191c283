"""Personal-schema fingerprints: the key of the one result cache.

Two personal schemas get identical answers whenever every input the matcher
reads is identical: node names, kinds, datatypes and the parent structure
(structural matchers walk the tree).  The fingerprint hashes exactly those
inputs in node-id order.  It leads the key ``(fingerprint, effective δ,
top_k, version)`` under which the batch front end
(:meth:`~repro.api.matcher.MatcherAPIMixin._answer_batch`) collapses
duplicates within a batch and caches final
:class:`~repro.system.results.MatchResult` objects — schemas that hash alike
match alike.

Deliberately *not* part of the fingerprint:

* the tree's display ``name`` (no matcher reads it);
* the nodes' free-form ``properties`` dictionaries.  No bundled matcher reads
  them, but a custom one may, so every backend trusts the fingerprint only
  for a bundled matcher (:func:`fingerprint_covers`) and answers each query
  of a custom matcher on its own, whatever its cache capacity.
"""

from __future__ import annotations

import hashlib

from repro.matchers.base import ElementMatcher
from repro.schema.tree import SchemaTree


def schema_fingerprint(tree: SchemaTree) -> str:
    """A stable hex digest of everything the element matchers can observe."""
    hasher = hashlib.sha256()
    hasher.update(f"nodes={tree.node_count}".encode())
    for node_id in tree.node_ids():
        node = tree.node(node_id)
        parent = tree.parent_id(node_id)
        record = (
            -1 if parent is None else parent,
            node.kind.value,
            node.datatype.value,
            node.name,
        )
        hasher.update(repr(record).encode())
    return hasher.hexdigest()


def fingerprint_covers(matcher: ElementMatcher) -> bool:
    """Whether ``matcher`` reads nothing :func:`schema_fingerprint` leaves out.

    True exactly for the bundled matchers a snapshot can describe.
    """
    # Imported lazily: the snapshot module imports the service, which imports this one.
    from repro.service.snapshot import _matcher_config

    return _matcher_config(matcher) is not None
