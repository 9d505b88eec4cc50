"""The layer wrappers record the expected span tree, and the metric
names the benchmark emits are the ones BENCHMARK.json declares."""

import json

from layers import install
from spans import Tracer, descendants, layer_counts, layer_self_times

import run

SOURCE = '''
class Box:
    def __init__(self, width, height):
        self.width = width
        self.height = height

    def area(self):
        return self.width * self.height
'''


def test_prepare_and_cache_calls_become_nested_spans(tmp_path):
    tracer = Tracer()
    install(tracer)
    from repro.cache import ContentCache
    from repro.core.prepare import prepare_file_checked
    from repro.corpus.model import SourceFile

    with tracer.span("root") as root:
        prepared = prepare_file_checked(SourceFile(path="box.py", source=SOURCE))
        cache = ContentCache(tmp_path)
        assert cache.get("prepare", "k") is None
        cache.put("prepare", "k", [1, 2, 3])
        assert cache.get("prepare", "k") == [1, 2, 3]
    data = tracer.to_json()
    spans = data["spans"]
    labels = {s[2] for s in spans}
    assert {
        "core.prepare", "lang.parse", "analysis.origins", "analysis.facts",
        "analysis.pointsto", "core.transform", "core.namepath",
        "cache.prepare.get", "cache.prepare.put",
    } <= labels
    parents = {s[0]: s[1] for s in spans}
    label_of = {s[0]: s[2] for s in spans}
    for span_id, label in label_of.items():
        if label in ("analysis.facts", "analysis.pointsto"):
            assert label_of[parents[span_id]] == "analysis.origins"
        if label == "lang.parse":
            assert label_of[parents[span_id]] == "core.prepare"
    within = descendants(spans, [root])
    assert len(within) == len(spans)
    counts = layer_counts(data["counts"], within)
    assert counts["cache.prepare.gets"] == 2
    assert counts["cache.prepare.hits"] == 1
    assert counts["cache.bytes_written"] > 0
    assert counts["core.statements"] >= len(prepared.statements)
    assert counts["analysis.pointsto_solves"] == 1
    selfs = layer_self_times(spans, data["durations"], within)
    assert all(value >= 0 for value in selfs.values())


def test_emitted_metric_names_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_load_metrics_windows_skip_gaps_and_failures():
    # Segment 1: 64 answers, one every 1/32 s.  Segment 2 starts 100 s
    # later: 64 answers, one every 1/16 s, plus one failed answer.
    first = [(i, (i + 1) / 32 - 0.01, (i + 1) / 32, 200, b"") for i in range(64)]
    second = [(64 + i, 100 + (i + 1) / 16 - 0.01, 100 + (i + 1) / 16, 200, b"")
              for i in range(64)]
    second.insert(10, (999, 100.6, 100.61, 500, b""))
    metrics = run.load_metrics([(0.0, first), (100.0, second)], [])
    # Windows of 32 answers: 1 s, 1 s, 2 s, 2 s; none spans the gap.
    assert abs(metrics["wall_s"] - 1.5) < 1e-9
    assert abs(metrics["files_per_s"] - 32 / 1.5) < 1e-9
    assert abs(metrics["latency_p50_ms"] - 10.0) < 1e-6
