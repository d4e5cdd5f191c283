"""Check served answers against an independent in-process reference.

The reference is a plain in-memory :class:`~repro.service.MatchingService`
over a freshly loaded copy of the repository, with its query cache off: no
snapshot carrier, no server, no wire envelopes, no caches, no batch dedup and
no shard fan-out stand between it and the matching pipeline.

Recomputing every answer would cost as much as serving it, so the check has
two parts: every answer to the same request must carry the same ranking
(repeats are where the query cache and the result cache answer), and the
answers to ``CHECKED`` distinct requests, drawn from the seed, must equal the
reference's rankings exactly — scores and similarities to the last bit,
trees, and every assignment path.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Tuple

from repro.schema.serialization import load_repository, tree_from_dict
from repro.service import MatchingService

from workloads import DELTA, ELEMENT_THRESHOLD, Query, seed_for

#: Distinct requests recomputed by the reference per run.
CHECKED = 100


def _path(tree, node_id: int) -> str:
    return "/" + "/".join(tree.root_path_names(node_id))


class Reference:
    def __init__(self, repository_path: Path) -> None:
        self.repository = load_repository(repository_path)
        self.service = MatchingService(
            self.repository,
            element_threshold=ELEMENT_THRESHOLD,
            delta=DELTA,
            query_cache_size=0,
        )

    def expected(self, query: Query) -> Tuple[int, List[dict]]:
        """``(mapping_count, mapping records)`` the served answer must carry."""
        personal = tree_from_dict(query.schema)
        result = self.service.match(personal, delta=query.delta, top_k=query.top_k)
        records = []
        for mapping in result.mappings:
            tree = self.repository.tree(mapping.tree_id)
            records.append(
                {
                    "score": mapping.score,
                    "tree": tree.name,
                    "tree_id": mapping.tree_id,
                    "assignment": [
                        {
                            "personal": _path(personal, node_id),
                            "repository": _path(tree, element.ref.node_id),
                            "similarity": element.similarity,
                        }
                        for node_id, element in sorted(mapping.assignment.items())
                    ],
                }
            )
        return len(result.mappings), records


def check_answers(reference: Reference, exchanges, seed: int) -> Tuple[int, int]:
    """Verify the ``(query, answer line)`` exchanges of one run.

    Returns ``(failed requests, wrong answers)``: a failed request is one the
    server answered with an error; a wrong answer is a served ranking that
    differs from an earlier answer to the same request or from the
    reference.
    """
    failed = wrong = 0
    served: Dict[str, Tuple[Query, object]] = {}
    for query, answer in exchanges:
        result = json.loads(answer)
        if result.get("kind") != "match_response":
            failed += 1
            continue
        ranking = (result.get("partial"), result.get("degraded"), result.get("mapping_count"), result.get("mappings"))
        first = served.setdefault(query.key, (query, ranking))
        if first[1] != ranking:
            wrong += 1
    keys = list(served)
    for key in random.Random(seed_for(seed, "checked")).sample(keys, min(CHECKED, len(keys))):
        query, (partial, degraded, count, records) = served[key]
        if partial or degraded or (count, records) != reference.expected(query):
            wrong += 1
    return failed, wrong
