"""Self-time arithmetic, the percentile rule and span capture."""

import pytest

import tracing
from tracing import (CHECK_SPAN, Tracer, aggregate, install, percentile,
                     self_time_ns, tail_percentile)


def test_self_time_without_children_is_the_duration():
    assert self_time_ns(100, 250, []) == 150


def test_self_time_subtracts_sequential_and_nested_children():
    # two siblings, the second holding a grandchild given as an overlap
    children = [(110, 130), (150, 200), (160, 170)]
    assert self_time_ns(100, 250, children) == 150 - 20 - 50


def test_self_time_counts_overlapping_children_once():
    # children from two threads under one parent overlap in time
    assert self_time_ns(0, 100, [(10, 60), (40, 80), (70, 90)]) == 100 - 80


def test_self_time_clips_children_to_the_parent():
    assert self_time_ns(100, 200, [(50, 120), (190, 260), (300, 400)]) == 100 - 20 - 10


def test_self_time_of_a_fully_covered_span_is_zero():
    assert self_time_ns(10, 20, [(0, 15), (15, 30)]) == 0


def test_percentile_is_nearest_rank():
    data = list(range(1, 101))
    assert percentile(data, 50) == 50
    assert percentile(data, 99) == 99
    assert percentile(data, 100) == 100
    assert percentile([7], 50) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, q, beyond", [
    (20, 50.0, 10),        # the median just qualifies
    (99, 50.0, 49),        # p90 has only 9 samples beyond it
    (100, 90.0, 10),
    (999, 90.0, 99),       # p99 sits at rank 990, 9 beyond
    (1000, 99.0, 10),
    (10_000, 99.9, 10),
    (100_000, 99.99, 10),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, q, beyond):
    data = list(range(n))
    got_q, value, got_beyond = tail_percentile(data)
    assert (got_q, got_beyond) == (q, beyond)
    assert value == percentile(data, q)


def test_tail_needs_ten_samples_beyond_the_median():
    assert tail_percentile(list(range(19))) is None
    assert "too few samples" in tracing.describe_tail("x", list(range(5)), 1, "ns")
    assert "n=1000, 10 beyond p99" in tracing.describe_tail("x", list(range(1000)), 1, "ns")


def _span(name, start, end, parent=-1, kind=None, nbytes=0):
    return [name, kind, start, end, parent, None, nbytes]


def test_aggregate_charges_children_and_checks_to_no_one():
    spans = [
        _span("outer", 0, 100),
        _span("inner", 10, 40, parent=0, kind="StudyRecord", nbytes=7),
        _span(CHECK_SPAN, 50, 90, parent=0),
        _span("inner", 41, 45, parent=0, kind="Envelope", nbytes=3),
    ]
    stats, durations, by_kind = aggregate({"t": spans})
    assert stats["outer"].self_ns == 100 - 30 - 40 - 4
    assert stats["inner"].calls == 2
    assert stats["inner"].self_ns == 34
    assert stats["inner"].nbytes == 10
    assert CHECK_SPAN not in stats
    assert durations["inner"] == [4, 30]
    assert by_kind["inner", "StudyRecord"] == [30]


def test_install_wraps_every_binding_and_uninstall_restores_them():
    from labelloop import canon, protocol
    from labelloop.reports import LabelSet
    original = canon.canonical_encode
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        assert protocol.canonical_encode is not original
        assert protocol.canonical_encode is canon.canonical_encode
        with tracer.span("root", corr="study-1"):
            protocol.make_envelope("siteA", protocol.EnvelopeKind.LABELSET,
                                   LabelSet("R1", "S1", []), _now())
    finally:
        uninstall()
    assert protocol.canonical_encode is original
    assert canon.canonical_encode is original
    (spans,) = tracer.threads.values()
    names = [s[tracing.NAME] for s in spans]
    assert names == ["root", "protocol.make_envelope", "canon.encode"]
    root, make, encode = spans
    assert make[tracing.PARENT] == 0 and encode[tracing.PARENT] == 1
    assert encode[tracing.KIND] == "LabelSet"
    assert encode[tracing.NBYTES] == len(original(LabelSet("R1", "S1", [])))
    assert {s[tracing.CORR] for s in spans} == {"study-1"}
    assert root[tracing.START] <= make[tracing.START] <= encode[tracing.START]
    assert encode[tracing.END] <= make[tracing.END] <= root[tracing.END]


def test_install_patches_methods_on_the_class():
    from labelloop import protocol
    original = protocol.Hub.__dict__["ingest"]
    tracer = Tracer()
    from labelloop.reports import LabelSet
    with tracing.installed(tracer):
        hub = protocol.Hub()
        e = protocol.make_envelope("siteA", protocol.EnvelopeKind.LABELSET,
                                   LabelSet("R1", "S1", []), _now())
        assert hub.ingest(e).status is protocol.AckStatus.ACCEPTED
        assert hub.ingest(e).status is protocol.AckStatus.DUPLICATE
    assert protocol.Hub.__dict__["ingest"] is original
    assert tracer.counters["protocol.ingest.accepted"] == 1
    assert tracer.counters["protocol.ingest.duplicate"] == 1
    (spans,) = tracer.threads.values()
    ingests = [s for s in spans if s[tracing.NAME] == "protocol.ingest"]
    assert [s[tracing.CORR] for s in ingests] == [e.envelope_id] * 2


def test_spans_survive_a_write_and_read(tmp_path):
    threads = {"a": [_span("x", 1, 5, kind="K", nbytes=2)],
               "b": [_span("y", 2, 3), _span("z", 2, 3, parent=0)]}
    path = tmp_path / "spans.tsv"
    tracing.write_spans(path, threads)
    assert tracing.read_spans(path) == threads


def _now():
    from datetime import datetime, timezone
    return datetime(2024, 1, 1, tzinfo=timezone.utc)
