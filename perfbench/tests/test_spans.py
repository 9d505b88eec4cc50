"""Span bookkeeping and the tail-latency rule, on synthetic inputs."""

import threading

import pytest

from spans import (
    Tracer,
    descendants,
    layer_counts,
    layer_self_times,
    self_times,
    tail_percentile,
    union_length,
)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([], 0, 10) == 0
    assert union_length([(1, 4), (3, 6), (8, 9)], 0, 10) == 6
    assert union_length([(1, 4), (2, 3)], 0, 10) == 3  # nested
    assert union_length([(-5, 2), (9, 20)], 0, 10) == 3  # clipped both ends
    assert union_length([(11, 12)], 0, 10) == 0  # outside


# A synthetic tree (times in seconds):
#   1 root  [0, 10]  layer "root"; 1 s of "d" work recorded as a duration
#   2 a     [1, 4]   child of root
#   3 b     [3, 6]   child of root, overlaps a
#   4 g     [2, 3]   child of a
#   5 c     [7, 9]   child of root recorded from another thread
#   6 other [20, 21] unrelated root
SPANS = [
    [4, 2, "g", 2.0, 3.0],
    [2, 1, "a", 1.0, 4.0],
    [3, 1, "b", 3.0, 6.0],
    [5, 1, "c", 7.0, 9.0],
    [1, None, "root", 0.0, 10.0],
    [6, None, "other", 20.0, 21.0],
]
DURATIONS = [[1, "d", 1.0]]


def test_self_time_is_duration_minus_union_of_children_and_durations():
    own = self_times(SPANS, DURATIONS)
    # root: 10 - |[1,6] U [7,9]| (= 7) - 1 s duration
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(2.0)  # a: 3 - g's 1
    assert own[3] == pytest.approx(3.0)  # b: no children
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(2.0)


def test_layer_totals_and_coverage_of_one_tree():
    within = descendants(SPANS, [1])
    assert within == {1, 2, 3, 4, 5}
    layers = layer_self_times(SPANS, DURATIONS, within)
    assert layers == pytest.approx(
        {"root": 2.0, "a": 2.0, "b": 3.0, "g": 1.0, "c": 2.0, "d": 1.0}
    )
    # Self times partition the root's wall time, except that the one
    # second where siblings a and b overlap is busy time in both layers.
    assert sum(layers.values()) == pytest.approx(10.0 + 1.0)
    attributed = sum(v for k, v in layers.items() if k != "root")
    assert attributed / 10.0 == pytest.approx(0.9)  # coverage


def test_self_time_never_negative_when_children_overrun():
    spans = [[1, None, "p", 0.0, 1.0], [2, 1, "c", 0.0, 1.0]]
    assert self_times(spans, [[1, "d", 0.5]])[1] == 0.0


def test_tracer_records_nesting_cross_thread_parents_and_counts():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            tracer.count("items", 3)
            tracer.add_duration("rows", 0.0)

        def worker():
            with tracer.span("remote", parent=outer):
                tracer.count("items", 1)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    tracer.count("loose")
    data = tracer.to_json()
    by_label = {s[2]: s for s in data["spans"]}
    assert by_label["outer"][1] is None
    assert by_label["inner"][1] == outer
    assert by_label["remote"][1] == outer
    within = descendants(data["spans"], [outer])
    assert layer_counts(data["counts"], within) == {"items": 4}
    assert layer_counts(data["counts"]) == {"items": 4, "loose": 1}
    assert data["durations"][0][0] == by_label["inner"][0]


def test_tail_picks_highest_percentile_with_ten_samples_beyond():
    tail = tail_percentile([float(v) for v in range(1, 101)])
    assert tail == {"value": 90.0, "percentile": 90.0, "beyond": 10, "n": 100}
    tail = tail_percentile(list(range(1000, 0, -1)))  # order does not matter
    assert (tail["value"], tail["beyond"], tail["n"]) == (990, 10, 1000)
    assert tail["percentile"] == pytest.approx(99.0)


def test_tail_steps_below_ties():
    samples = [1.0] * 50 + [2.0] * 20 + [3.0] * 5
    tail = tail_percentile(samples)
    # 2.0 has only 5 samples beyond it; 1.0 has 25.
    assert tail["value"] == 1.0
    assert tail["beyond"] == 25
    assert tail["percentile"] == pytest.approx(100 * 50 / 75)


def test_tail_with_too_few_samples_is_the_maximum():
    assert tail_percentile([5.0, 1.0, 3.0]) == {
        "value": 5.0, "percentile": 100.0, "beyond": 0, "n": 3,
    }
    assert tail_percentile([1.0] * 30)["beyond"] == 0
    with pytest.raises(ValueError):
        tail_percentile([])
