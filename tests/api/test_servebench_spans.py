"""The serving benchmark's span instrumentation still finds every layer.

``servebench/spans.py`` wraps one entry point per layer of the served path
(by module attribute), so a refactor that moves or renames one of them
silently drops that layer from the benchmark's per-layer report.  This test
loads the module by path, instruments a dispatcher over a small service and
over a two-shard set, and checks that one v1 match line leaves a span in
every in-process layer.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from _backends import small_repository_factory
from repro.api.dispatch import RequestDispatcher
from repro.api.envelope import MatchRequest
from repro.service import MatchingService
from repro.shard import ShardedMatchingService

SPANS_PATH = Path(__file__).resolve().parents[2] / "servebench" / "spans.py"

#: Every layer a served match passes through below the transport.
SERVED_LAYERS = {"dispatch", "decode", "backend", "cache", "stage1", "stage2", "stage3", "encode"}


def load_spans_module():
    spec = importlib.util.spec_from_file_location("servebench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_service():
    return MatchingService(small_repository_factory(), element_threshold=0.5, delta=0.6)


def build_shard_set():
    return ShardedMatchingService.from_repository(
        small_repository_factory(), 2, element_threshold=0.5, delta=0.6
    )


@pytest.mark.parametrize("build", [build_service, build_shard_set], ids=["service", "shards"])
def test_one_served_match_leaves_a_span_in_every_layer(build):
    spans = load_spans_module()
    originals = [
        (owner, attribute, owner.__dict__[attribute])
        for owner, attribute, _layer, _counts in spans.LAYER_ENTRY_POINTS
    ]
    dispatcher = RequestDispatcher(build())
    line = json.dumps(MatchRequest(schema={"person": ["name", "email"]}).to_wire())
    recorder = spans.SpanRecorder()
    restore = spans.instrument(recorder)
    try:
        response = dispatcher.handle_line(line)
    finally:
        restore()
    assert response["kind"] == "match_response"
    assert response["mapping_count"] >= 1
    recorded = {span[3] for span in recorder.spans}
    assert SERVED_LAYERS <= recorded, f"no spans for {sorted(SERVED_LAYERS - recorded)}"
    for owner, attribute, original in originals:
        assert owner.__dict__[attribute] is original, f"{attribute} was not restored"
