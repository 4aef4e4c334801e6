"""Envelope framing, idempotent ingestion, retries and the TCP path."""

import dataclasses
import functools
import gc
import json
import socket
import threading
import time
import tracemalloc
from contextlib import ExitStack
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from support import join_or_fail, records, served, unframe
from labelloop import protocol
from labelloop.canon import canonical_decode, canonical_encode, digest_text
from labelloop.feedback import AlgorithmOutput, Detection, ExecutionMode
from labelloop.harness import make_scenario, run_scenario
from labelloop.model import FindingCode, Measurement, StudyRecord, Unit, box, point
from labelloop.protocol import (
    MAX_FRAME_BYTES, Ack, AckStatus, AlertAck, DeliveryError, Envelope,
    EnvelopeKind, FrameError, Hub, InProcessClient, IntegrityError,
    TcpClient, TransientStoreError, VersionError, encode_envelope,
    envelope_from_line, _read_frame, make_envelope, submit_batch,
)
from labelloop.reports import (
    ExtractedLabel, InteractiveReport, LabelSet, LabelStrength, Polarity,
)

NOW = datetime(2024, 2, 2, 8, 0, tzinfo=timezone.utc)


def labelset(report="R1", study="S1", n=1) -> LabelSet:
    labels = [
        ExtractedLabel(report, study, FindingCode.NODULE, Polarity.POSITIVE,
                       LabelStrength.HYPERLINKED, i, region=box(0, 0, 9, 9),
                       image_uid="IMG1")
        for i in range(n)
    ]
    return LabelSet(report, study, labels)


def env_of(record=None, kind=EnvelopeKind.LABELSET, site="siteA") -> Envelope:
    return make_envelope(site, kind, record or labelset(), NOW)


def blocked_spool(tmp_path, site="siteA"):
    """A hub spooling to ``tmp_path``, where a directory takes the place of
    ``site``'s spool file, so that appending to it fails even for root; and
    that directory, whose removal lifts the block."""
    blocker = tmp_path / f"{site}.env.jsonl"
    blocker.mkdir()
    return Hub(spool_dir=tmp_path), blocker


def test_round_trip_envelope():
    e = env_of()
    assert envelope_from_line(unframe(encode_envelope(e))) == e


def test_idempotency_key_shape():
    e = env_of()
    assert e.idempotency_key == "siteA/LABELSET/R1"


def test_flipped_payload_byte_is_integrity_error():
    e = env_of()
    line = canonical_encode(e)
    # corrupt one byte inside the embedded payload but keep the frame valid
    # JSON (payload quotes appear escaped inside the envelope line)
    needle = '\\"NODULE\\"'
    assert needle in line
    bad = line.replace(needle, '\\"NODULQ\\"', 1)
    with pytest.raises(IntegrityError):
        envelope_from_line(bad)


def test_unknown_schema_version_named_in_error():
    e = dataclasses.replace(env_of(), schema_version=2)
    with pytest.raises(VersionError, match="2"):
        envelope_from_line(canonical_encode(e))


def test_truncated_frame_rejected():
    frame = encode_envelope(env_of())
    with pytest.raises(FrameError):
        envelope_from_line(frame[4:-3].decode("utf-8"))
    # the hub never ingests a frame its peer did not finish
    hub = Hub()
    with served(hub) as addr, socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(frame[:-3])
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(1) == b""
    assert hub.envelopes() == []


def test_accept_then_duplicate():
    hub = Hub()
    e = env_of()
    assert hub.ingest(e).status is AckStatus.ACCEPTED
    assert hub.ingest(e).status is AckStatus.DUPLICATE
    assert hub.envelopes() == [e]


def test_same_key_new_digest_conflict():
    hub = Hub()
    e1 = env_of(labelset(n=1))
    e2 = env_of(labelset(n=2))
    assert e1.idempotency_key == e2.idempotency_key
    assert hub.ingest(e1).status is AckStatus.ACCEPTED
    ack = hub.ingest(e2)
    assert ack.status is AckStatus.REJECTED
    assert "idempotency conflict" in ack.reason


def test_invalid_payload_rejected_with_violations(fixture_study):
    s = dataclasses.replace(fixture_study, images=[])
    e = make_envelope("siteA", EnvelopeKind.STUDY, s, NOW)
    ack = Hub().ingest(e)
    assert ack.status is AckStatus.REJECTED
    assert "images nonempty" in ack.reason


def test_degenerate_detection_box_rejected():
    out = AlgorithmOutput("S1", "cad", "1.0", ExecutionMode.CENTRAL,
                          [Detection(FindingCode.NODULE,
                                     dataclasses.replace(box(0, 0, 5, 5), x1=0),
                                     0.5)])
    ack = Hub().ingest(make_envelope("siteA", EnvelopeKind.ALG_OUTPUT, out, NOW))
    assert ack.status is AckStatus.REJECTED
    assert "degenerate" in ack.reason


def test_point_detection_rejected_before_scoring():
    # a POINT region is well formed, but match_detections needs a BOX to score
    out = AlgorithmOutput("S1", "cad", "1.0", ExecutionMode.CENTRAL,
                          [Detection(FindingCode.NODULE, box(0, 0, 5, 5), 0.9),
                           Detection(FindingCode.NODULE, point(3, 4), 0.5)])
    hub = Hub()
    ack = hub.ingest(make_envelope("siteA", EnvelopeKind.ALG_OUTPUT, out, NOW))
    assert ack.status is AckStatus.REJECTED
    assert ack.reason == "detections[1] region is not a BOX"
    assert records(hub, EnvelopeKind.ALG_OUTPUT) == []


def test_malformed_payload_shape_rejected_not_raised(fixture_study):
    e = make_envelope("siteA", EnvelopeKind.STUDY, fixture_study, NOW)
    obj = json.loads(e.payload)
    obj["images"] = 5
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    forged = dataclasses.replace(e, payload=payload,
                                 payload_digest=digest_text(payload))
    ack = Hub().ingest(forged)
    assert ack.status is AckStatus.REJECTED
    assert ack.reason == "undecodable payload: expected array, got int"


def _forged(e: Envelope, payload: str) -> Envelope:
    return dataclasses.replace(e, payload=payload, payload_digest=digest_text(payload))


def test_trailing_newline_timestamp_rejected(fixture_study):
    # "...Z\n" once decoded to the same instant as "...Z", so the hub accepted
    # a second wire form of one record
    e = make_envelope("siteA", EnvelopeKind.STUDY, fixture_study, NOW)
    payload = e.payload.replace('"2024-01-01T00:00:00Z"', '"2024-01-01T00:00:00Z\\n"')
    assert payload != e.payload
    hub = Hub()
    ack = hub.ingest(_forged(e, payload))
    assert ack.status is AckStatus.REJECTED
    assert ack.reason == "undecodable payload: bad timestamp '2024-01-01T00:00:00Z\\n'"
    assert hub.stored_count() == 0


@pytest.mark.parametrize("confidence", ["1" + "0" * 400, "1" + "0" * 5000],
                         ids=["overflows-float", "past-int-digit-limit"])
def test_huge_integer_confidence_rejected(confidence):
    out = AlgorithmOutput("S1", "cad", "1.0", ExecutionMode.CENTRAL,
                          [Detection(FindingCode.NODULE, box(0, 0, 5, 5), 0.5)])
    e = make_envelope("siteA", EnvelopeKind.ALG_OUTPUT, out, NOW)
    payload = e.payload.replace('"confidence":0.5', '"confidence":' + confidence)
    assert payload != e.payload
    ack = Hub().ingest(_forged(e, payload))
    assert ack.status is AckStatus.REJECTED
    assert ack.reason.startswith("undecodable payload: ")


def test_lone_surrogate_in_envelope_line_is_a_frame_error():
    # the escape decodes to a payload that UTF-8 cannot hold, so it has no digest
    line = canonical_encode(env_of()).replace("R1", "R1\\ud800", 1)
    with pytest.raises(FrameError, match="lone surrogate"):
        envelope_from_line(line)
    body = line.encode("utf-8")
    with served(Hub()) as addr, socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(len(body).to_bytes(4, "big") + body)
        ack = read_ack(sock)
    assert ack.status is AckStatus.REJECTED and "lone surrogate" in ack.reason


def test_payload_that_is_not_utf8_text_rejected():
    e = env_of()
    ack = Hub().ingest(dataclasses.replace(e, payload=e.payload + "\ud800"))
    assert ack == Ack(e.envelope_id, AckStatus.REJECTED, "payload is not UTF-8 text")


@pytest.mark.parametrize("old,new", [
    ('"report_uid":"R1"', '"report_uid":"R1\\ud800"'),
    ('"value":12.5', '"value":NaN'),
    ('"value":12.5', '"value":Infinity'),
    ('"value":12.5', '"value":1e400'),
], ids=["lone-surrogate", "nan", "infinity", "overflow"])
def test_payload_without_a_canonical_line_rejected(old, new):
    # none of these records has a canonical line to store or to digest
    label = dataclasses.replace(labelset().labels[0],
                                measurement=Measurement(12.5, Unit.mm))
    e = env_of(LabelSet("R1", "S1", [label]))
    payload = e.payload.replace(old, new)
    assert payload != e.payload
    hub = Hub()
    ack = hub.ingest(_forged(e, payload))
    assert ack.status is AckStatus.REJECTED
    assert ack.reason.startswith("undecodable payload: ")
    assert hub.stored_count() == 0


def test_deeply_nested_payload_rejected():
    ack = Hub().ingest(_forged(env_of(), "[" * 100_000))
    assert ack.status is AckStatus.REJECTED
    assert ack.reason.startswith("undecodable payload: not a canonical record: ")


def test_concurrent_submissions_single_winner():
    hub = Hub()
    e = env_of()
    acks = []
    lock = threading.Lock()

    def worker():
        ack = hub.ingest(e)
        with lock:
            acks.append(ack)

    threads = [threading.Thread(target=worker) for _ in range(10)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    statuses = sorted(a.status.name for a in acks)
    assert statuses.count("ACCEPTED") == 1
    assert statuses.count("DUPLICATE") == 9
    assert hub.envelopes() == [e]


def test_only_an_accepted_envelope_claims_its_key(tmp_path):
    good = env_of(labelset("R1", "S1"))
    invalid = env_of(dataclasses.replace(
        labelset("R1", "S1"), labels=labelset("R2", "S1").labels))
    assert invalid.idempotency_key == good.idempotency_key

    hub = Hub()
    ack = hub.ingest(invalid)
    assert ack.status is AckStatus.REJECTED
    assert ack.reason == "labels[0] does not belong to this set"
    assert hub.ingest(good).status is AckStatus.ACCEPTED

    hub, blocker = blocked_spool(tmp_path)
    with pytest.raises(TransientStoreError):
        hub.ingest(env_of(labelset("R1", "S1", n=2)))
    assert hub.stored_count() == 0
    blocker.rmdir()
    assert hub.ingest(good).status is AckStatus.ACCEPTED

    # an accepted key answers an undecodable re-presentation as undecodable,
    # not as a conflict: decoding comes before the store is consulted
    ack = hub.ingest(_forged(good, '{"report_uid":5}'))
    assert ack.status is AckStatus.REJECTED
    assert ack.reason.startswith("undecodable payload: ")
    assert records(hub, EnvelopeKind.LABELSET) == [labelset("R1", "S1")]


def test_an_envelope_claiming_another_key_is_rejected():
    e = env_of(labelset("R3", "S3"))
    forged = dataclasses.replace(e, idempotency_key="siteB/STUDY/whatever")
    hub = Hub()
    ack = hub.ingest(forged)
    assert ack.status is AckStatus.REJECTED
    assert ack.reason == ("idempotency_key 'siteB/STUDY/whatever' is not "
                          "'siteA/LABELSET/R3'")
    assert hub.stored_count() == 0
    assert hub.ingest(e).status is AckStatus.ACCEPTED


def test_a_record_filed_in_another_sites_name_is_rejected(fixture_study):
    study = make_envelope("siteB", EnvelopeKind.STUDY, fixture_study, NOW)
    alert_ack = make_envelope("siteB", EnvelopeKind.ALERT_ACK,
                              AlertAck("AL1", "siteC", NOW), NOW)
    hub = Hub()
    assert hub.ingest(study) == Ack(study.envelope_id, AckStatus.REJECTED,
                                    "record site_id 'siteA' is not the envelope's 'siteB'")
    assert hub.ingest(alert_ack) == Ack(
        alert_ack.envelope_id, AckStatus.REJECTED,
        "record site_id 'siteC' is not the envelope's 'siteB'")
    assert hub.stored_count() == 0
    own = make_envelope("siteA", EnvelopeKind.STUDY, fixture_study, NOW)
    assert hub.ingest(own).status is AckStatus.ACCEPTED


def test_algorithm_names_that_blur_the_key_are_rejected():
    outputs = [AlgorithmOutput("S1", "x:1", "2", ExecutionMode.CENTRAL),
               AlgorithmOutput("S1", "x", "1:2", ExecutionMode.CENTRAL)]
    envelopes = [make_envelope("siteA", EnvelopeKind.ALG_OUTPUT, out, NOW)
                 for out in outputs]
    assert envelopes[0].idempotency_key == envelopes[1].idempotency_key
    hub = Hub()
    assert [hub.ingest(e).reason for e in envelopes] == [
        "algorithm_id 'x:1' is not a plain name", "version '1:2' is not a plain name"]
    assert hub.stored_count() == 0


def test_a_site_id_that_is_a_path_writes_nothing_outside_the_spool(tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir()
    hub = Hub(spool_dir=spool)
    ack = hub.ingest(env_of(site="../escaped"))
    assert ack.status is AckStatus.REJECTED
    assert ack.reason == "site_id '../escaped' is not a plain name"
    assert hub.stored_count() == 0
    assert sorted(tmp_path.rglob("*")) == [spool]


def test_a_site_id_with_a_lone_surrogate_gets_an_ack(tmp_path):
    e = dataclasses.replace(env_of(), site_id="s\ud800")
    ack = Hub(spool_dir=tmp_path).ingest(e)
    assert ack.status is AckStatus.REJECTED
    assert ack.reason == "site_id 's\\ud800' is not a plain name"
    assert list(tmp_path.iterdir()) == []


def test_hub_keeps_one_copy_of_each_envelope():
    cfg = make_scenario(seed=515, n_sites=3, n_studies=200, drift=False)
    envelopes = run_scenario(cfg).hub.envelopes()
    payload_bytes = sum(len(e.payload.encode("utf-8")) for e in envelopes)

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hub = Hub()
        for e in envelopes:
            assert hub.ingest(e).status is AckStatus.ACCEPTED
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert hub.stored_count() == len(envelopes)
    # the envelopes existed before tracing; a decoded copy or a second index
    # per key would retain about three times the payload bytes
    assert retained <= 0.5 * payload_bytes, (retained, payload_bytes)

    # the store reads back as the accepted envelopes decoded, in acceptance
    # order; duplicates, rejections and conflicts add none
    hub = Hub()
    labelsets = [e for e in envelopes if e.kind is EnvelopeKind.LABELSET]
    claimed = next(e for e in labelsets if canonical_decode(e.payload, LabelSet).labels)
    # the same report's label set emptied: its own key, another digest
    conflict = _forged(claimed, canonical_encode(dataclasses.replace(
        canonical_decode(claimed.payload, LabelSet), labels=[])))
    undecodable = _forged(labelsets[2], "{}")  # under a key not yet accepted
    for e in envelopes:
        assert hub.ingest(e).status is AckStatus.ACCEPTED
        assert hub.ingest(e).status is AckStatus.DUPLICATE
        if e is claimed:
            assert hub.ingest(conflict).reason == "idempotency conflict"
            assert hub.ingest(undecodable).status is AckStatus.REJECTED
    assert hub.stored_count() == len(envelopes)
    payload_types = {
        EnvelopeKind.STUDY: StudyRecord, EnvelopeKind.REPORT: InteractiveReport,
        EnvelopeKind.LABELSET: LabelSet, EnvelopeKind.ALG_OUTPUT: AlgorithmOutput,
        EnvelopeKind.ALERT_ACK: AlertAck,
    }
    for kind, cls in payload_types.items():
        assert records(hub, kind) == [canonical_decode(e.payload, cls)
                                      for e in envelopes if e.kind is kind]


# ---------------------------------------------------------------------------
# a re-sent envelope is answered from the store; a payload has one wire form


NOT_CANONICAL = "payload is not the canonical line of its record"


def reversed_keys(value):
    if isinstance(value, dict):
        return {k: reversed_keys(value[k]) for k in reversed(list(value))}
    if isinstance(value, list):
        return [reversed_keys(v) for v in value]
    return value


def test_a_payload_in_another_wire_form_is_rejected(fixture_study):
    # once ACCEPTED, after which the canonical envelope of the same record
    # was refused as an idempotency conflict
    e = make_envelope("siteA", EnvelopeKind.STUDY,
                      dataclasses.replace(fixture_study, order_text="CT t\u00eate"), NOW)
    other = json.dumps(reversed_keys(json.loads(e.payload)), indent=2, ensure_ascii=True)
    hub = Hub()
    assert hub.ingest(_forged(e, other)) == Ack(e.envelope_id, AckStatus.REJECTED,
                                                NOT_CANONICAL)
    assert hub.stored_count() == 0
    assert hub.ingest(e).status is AckStatus.ACCEPTED


@st.composite
def reserialized(draw, payload: str) -> str:
    """The payload's JSON tree written with other key order, spacing or escapes."""
    obj = json.loads(payload)
    if draw(st.booleans()):
        obj = reversed_keys(obj)
    return json.dumps(obj, ensure_ascii=draw(st.booleans()),
                      indent=draw(st.sampled_from([None, 0, 2])),
                      separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])),
                      sort_keys=draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_payload_other_than_its_records_canonical_line_is_never_accepted(data):
    e = data.draw(st.sampled_from(real_envelopes()))
    same_record = data.draw(st.booleans())
    payload = data.draw(reserialized(e.payload) if same_record else mutated(e.payload))
    ack = Hub().ingest(_forged(e, payload))
    if ack.status is AckStatus.ACCEPTED:
        record = canonical_decode(payload, protocol._KINDS[e.kind].payload)
        assert canonical_encode(record) == payload
    if same_record and payload != e.payload:
        assert ack == Ack(e.envelope_id, AckStatus.REJECTED, NOT_CANONICAL)


def count_calls(monkeypatch, module, name: str) -> list:
    """Patch ``module.name`` to record each call; return the record."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counting)
    return calls


def test_a_re_sent_envelope_is_answered_from_the_store(monkeypatch):
    hub = Hub()
    e = env_of()
    assert hub.ingest(e).status is AckStatus.ACCEPTED
    again = envelope_from_line(canonical_encode(e))  # equal, but another object
    assert again is not e
    decoded = count_calls(monkeypatch, protocol, "canonical_decode")
    hashed = count_calls(monkeypatch, protocol, "digest_text")
    assert hub.ingest(again) == Ack(e.envelope_id, AckStatus.DUPLICATE)
    assert decoded == [] and hashed == []
    assert hub.envelopes() == [e]


CHANGED_RE_PRESENTATIONS = {
    "site_id": (lambda e: dataclasses.replace(e, site_id="siteB"),
                "idempotency_key 'siteA/LABELSET/R1' is not 'siteB/LABELSET/R1'"),
    "kind": (lambda e: dataclasses.replace(e, kind=EnvelopeKind.REPORT),
             "undecodable payload: unknown field(s) for InteractiveReport: ['labels']"),
    "schema_version": (lambda e: dataclasses.replace(e, schema_version=2),
                       "unsupported schema_version 2"),
    "payload": (lambda e: _forged(e, env_of(labelset(n=2)).payload),
                "idempotency conflict"),
    "payload_digest": (lambda e: dataclasses.replace(e, payload_digest=digest_text("x")),
                       "payload digest mismatch"),
}


@pytest.mark.parametrize("change, reason", CHANGED_RE_PRESENTATIONS.values(),
                         ids=CHANGED_RE_PRESENTATIONS)
def test_a_re_presentation_with_one_field_changed_goes_through_the_gate(change, reason):
    hub = Hub()
    e = env_of()
    assert hub.ingest(e).status is AckStatus.ACCEPTED
    assert hub.ingest(change(e)) == Ack(e.envelope_id, AckStatus.REJECTED, reason)
    assert hub.envelopes() == [e]


def test_a_re_sent_envelope_is_a_duplicate_while_the_spool_is_blocked(tmp_path):
    hub = Hub(spool_dir=tmp_path)
    e = env_of()
    assert hub.ingest(e).status is AckStatus.ACCEPTED
    spooled = tmp_path / "siteA.env.jsonl"
    assert spooled.read_text() == canonical_encode(e) + "\n"
    spooled.unlink()
    spooled.mkdir()  # any write to the spool would now fail
    again = envelope_from_line(canonical_encode(e))  # equal, but another object
    assert hub.ingest(e) == hub.ingest(again) == Ack(e.envelope_id, AckStatus.DUPLICATE)
    assert hub.envelopes() == [e]
    assert list(spooled.iterdir()) == []


def test_retry_succeeds_after_two_failures(tmp_path):
    hub, blocker = blocked_spool(tmp_path)
    sleeps, stored = [], []

    def sleep(seconds):
        sleeps.append(seconds)
        stored.append(hub.stored_count())
        if len(sleeps) == 2:
            blocker.rmdir()
    e = env_of()
    acks = submit_batch(InProcessClient(hub), [e], sleep=sleep)
    assert acks == [Ack(e.envelope_id, AckStatus.ACCEPTED)]
    assert sleeps == [0.1, 0.2]  # base 100 ms, factor 2
    assert stored == [0, 0]  # a failed spool write stores nothing
    assert hub.envelopes() == [e]
    assert [envelope_from_line(line) for line in blocker.read_text().splitlines()] == [e]


def test_empty_batch():
    assert submit_batch(InProcessClient(Hub()), []) == []


def test_permanently_down_hub_exhausts_five_attempts(tmp_path):
    hub, _ = blocked_spool(tmp_path)
    e1, e2 = env_of(labelset("R1")), env_of(labelset("R2"))
    sleeps = []
    with pytest.raises(DeliveryError) as exc:
        submit_batch(InProcessClient(hub), [e1, e2], sleep=sleeps.append)
    assert exc.value.undelivered == [e1.envelope_id, e2.envelope_id]
    assert len(sleeps) == 4  # 5 attempts on the first envelope, then abort
    assert sleeps == [0.1, 0.2, 0.4, 0.8]
    assert hub.stored_count() == 0


def test_ack_order_matches_input_order():
    hub = Hub()
    envs = [env_of(labelset(f"R{i}")) for i in range(5)]
    acks = submit_batch(InProcessClient(hub), list(reversed(envs)))
    assert [a.envelope_id for a in acks] == [e.envelope_id for e in reversed(envs)]


def test_tcp_round_trip():
    hub = Hub()
    with served(hub) as (host, port), TcpClient(host, port) as client:
        acks = submit_batch(client, [env_of(), env_of()])
    assert [a.status for a in acks] == [AckStatus.ACCEPTED, AckStatus.DUPLICATE]
    assert hub.stored_count() == 1


def test_tcp_transient_failure_retried(tmp_path):
    hub, blocker = blocked_spool(tmp_path)
    stored = []

    def sleep(seconds):
        # the connection closed without an ack, and nothing was stored
        stored.append(hub.stored_count())
        blocker.rmdir()
    e = env_of()
    with served(hub) as (host, port), TcpClient(host, port) as client:
        acks = submit_batch(client, [e], sleep=sleep)
    assert acks == [Ack(e.envelope_id, AckStatus.ACCEPTED)]
    assert stored == [0]
    assert hub.envelopes() == [e]


def read_ack(sock: socket.socket) -> Ack:
    return canonical_decode(_read_frame(sock)[4:].decode("utf-8"), Ack)


def test_tcp_frame_not_utf8_is_rejected_and_the_connection_serves_on():
    hub = Hub()
    with served(hub) as addr, socket.create_connection(addr, timeout=5) as sock:
        body = b'{"envelope_id":"\xff"}'
        sock.sendall(len(body).to_bytes(4, "big") + body)
        ack = read_ack(sock)
        assert ack.status is AckStatus.REJECTED
        assert ack.reason.startswith("frame body is not UTF-8")
        sock.sendall(encode_envelope(env_of()))
        assert read_ack(sock).status is AckStatus.ACCEPTED
    assert hub.stored_count() == 1


def closed_unread(sock: socket.socket) -> bool:
    """Whether the hub closes ``sock`` without answering a frame on it."""
    try:
        sock.sendall(encode_envelope(env_of(labelset("unanswered"))))
        return sock.recv(1) == b""
    except ConnectionError:
        return True


def test_tcp_frames_are_answered_once_each_in_order():
    envelopes = [env_of(labelset(f"R{i}")) for i in range(4)]
    with served(Hub()) as addr, socket.create_connection(addr, timeout=5) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(b"".join(encode_envelope(e) for e in envelopes[:3]))
        for byte in encode_envelope(envelopes[3]):
            sock.sendall(bytes([byte]))
        assert [read_ack(sock) for _ in envelopes] == [
            Ack(e.envelope_id, AckStatus.ACCEPTED) for e in envelopes]
        sock.settimeout(0.2)
        with pytest.raises(TimeoutError):
            sock.recv(1)  # no second ack for the frame sent a byte at a time


def test_a_connection_beyond_the_cap_is_closed_unread(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_CONNECTIONS", 2)
    hub = Hub()
    with served(hub) as addr, ExitStack() as stack:
        socks = [stack.enter_context(socket.create_connection(addr, timeout=5))
                 for _ in range(2)]
        for i, sock in enumerate(socks):
            sock.sendall(encode_envelope(env_of(labelset(f"R{i}"))))
            assert read_ack(sock).status is AckStatus.ACCEPTED
        assert closed_unread(stack.enter_context(socket.create_connection(addr, timeout=5)))
        for i, sock in enumerate(socks):
            sock.sendall(encode_envelope(env_of(labelset(f"R{i}"))))
            assert read_ack(sock).status is AckStatus.DUPLICATE
    assert hub.stored_count() == 2


def test_silent_peers_are_closed_once_idle_so_the_cap_frees(monkeypatch):
    # silent connections once held every slot for as long as they stayed open
    monkeypatch.setattr(protocol, "MAX_CONNECTIONS", 2)
    monkeypatch.setattr(protocol, "IDLE_TIMEOUT_S", 0.4)
    hub = Hub()
    with served(hub) as (host, port), ExitStack() as stack:
        silent = [stack.enter_context(socket.create_connection((host, port), timeout=5))
                  for _ in range(2)]
        silent[1].sendall(encode_envelope(env_of())[:6])  # a frame never finished
        for sock in silent:
            assert sock.recv(1) == b""  # the hub closed it within the 5 s
        with TcpClient(host, port) as client:
            assert client.submit(env_of()).status is AckStatus.ACCEPTED
    assert hub.stored_count() == 1


def test_a_peer_that_keeps_completing_frames_stays_open(monkeypatch):
    monkeypatch.setattr(protocol, "IDLE_TIMEOUT_S", 0.5)
    with served(Hub()) as (host, port), TcpClient(host, port) as client:
        statuses = []
        # two idle timeouts on one connection; a close by the hub would
        # raise TransientStoreError from submit
        for i in range(10):
            statuses.append(client.submit(env_of(labelset(f"R{i}"))).status)
            time.sleep(0.1)
    assert statuses == [AckStatus.ACCEPTED] * 10


def test_the_hub_serves_every_connection_from_one_thread():
    with served(Hub()) as addr, ExitStack() as stack:
        before = threading.active_count()
        for i in range(4):
            sock = stack.enter_context(socket.create_connection(addr, timeout=5))
            sock.sendall(encode_envelope(env_of(labelset(f"R{i}"))))
            assert read_ack(sock).status is AckStatus.ACCEPTED
        assert threading.active_count() <= before


class CountingHub(Hub):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def ingest(self, e: Envelope) -> Ack:
        self.calls += 1
        return super().ingest(e)


def settled(read, timeout_s=10.0):
    """The value of ``read()`` once it has held still for 0.3 s."""
    deadline = time.monotonic() + timeout_s
    last = read()
    while time.monotonic() < deadline:
        time.sleep(0.3)
        now, last = last, read()
        if now == last:
            return last
    raise AssertionError(f"still moving after {timeout_s} s")


def test_a_peer_is_not_read_while_its_acks_wait_to_be_sent(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_UNSENT_ACK_BYTES", 1024)
    # each REJECTED ack repeats the forged key: 256 KB of ack per frame, so
    # 40 acks are 10 MB, over the 4 MB a loopback connection buffers
    frame = encode_envelope(dataclasses.replace(env_of(), idempotency_key="k" * 256_000))
    n = 40
    hub = CountingHub()
    with served(hub) as addr, socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(10)
        sock.connect(addr)
        sender = threading.Thread(target=sock.sendall, args=(frame * n,), daemon=True)
        sender.start()
        assert settled(lambda: hub.calls) < n  # none read while acks wait
        acks = [read_ack(sock) for _ in range(n)]  # and all once they drain
        join_or_fail(sender, "the sender")
    assert hub.calls == n
    assert {a.status for a in acks} == {AckStatus.REJECTED}


class BrokenHub(Hub):
    def ingest(self, e: Envelope) -> Ack:
        if e.site_id == "siteX":
            raise RuntimeError("a fault in ingest")
        return super().ingest(e)


def test_an_unexpected_error_closes_only_its_connection(capsys):
    hub = BrokenHub()
    with served(hub) as addr, socket.create_connection(addr, timeout=5) as good, \
            socket.create_connection(addr, timeout=5) as bad:
        good.sendall(encode_envelope(env_of(labelset("R1"))))
        assert read_ack(good).status is AckStatus.ACCEPTED
        bad.sendall(encode_envelope(env_of(site="siteX")))
        assert bad.recv(1) == b""
        good.sendall(encode_envelope(env_of(labelset("R2"))))
        assert read_ack(good).status is AckStatus.ACCEPTED
    assert hub.stored_count() == 2
    assert "RuntimeError: a fault in ingest" in capsys.readouterr().err


uids = st.from_regex(r"[A-Za-z0-9._-]{1,12}", fullmatch=True)


@settings(max_examples=120, deadline=None)
@given(site=uids, report=uids, study=uids, n=st.integers(0, 3),
       kind=st.sampled_from([EnvelopeKind.LABELSET]))
def test_decode_encode_identity_property(site, report, study, n, kind):
    e = make_envelope(site, kind, labelset(report, study, n), NOW)
    frame = encode_envelope(e)
    back = envelope_from_line(unframe(frame))
    assert back == e
    assert encode_envelope(back) == frame


# ---------------------------------------------------------------------------
# one contract: every input fault is a REJECTED ack; only TransientStoreError raises


def test_ingest_rejects_an_unknown_schema_version():
    e = dataclasses.replace(env_of(), schema_version=2)
    hub = Hub()
    assert hub.ingest(e) == Ack(e.envelope_id, AckStatus.REJECTED,
                                "unsupported schema_version 2")
    assert hub.stored_count() == 0


def test_ingest_rejects_a_digest_mismatch():
    e = dataclasses.replace(env_of(), payload_digest=digest_text("another payload"))
    hub = Hub()
    assert hub.ingest(e) == Ack(e.envelope_id, AckStatus.REJECTED,
                                "payload digest mismatch")
    assert hub.stored_count() == 0
    # the hub's gate and the line decoder give the same message
    with pytest.raises(IntegrityError, match="^payload digest mismatch$"):
        envelope_from_line(canonical_encode(e))


def report_with(anchor: str) -> InteractiveReport:
    return InteractiveReport("R1", "S1", f"Nodule {anchor}.", NOW, "A1")


ANCHOR_FAULTS = {
    # int() refuses a digit run past CPython's 4,300-digit limit
    "frame-past-int-digit-limit": (
        "{{link|image=IMG1|frame=" + "1" * 5000 + "|region=0,0,9,9}}",
        "anchor number out of range at offset 7"),
    # \d would match these, giving a second wire form of frame 12
    "frame-in-arabic-indic-digits": (
        "{{link|image=IMG1|frame=١٢|region=0,0,9,9}}",
        "malformed anchor at offset 7"),
    # parses to inf, which format_anchor refuses to write
    "meas-overflows-float": (
        "{{link|image=IMG1|frame=2|region=0,0,9,9|meas=" + "9" * 400 + "mm}}",
        "anchor measurement out of range at offset 7"),
}


@pytest.mark.parametrize("anchor, reason", ANCHOR_FAULTS.values(), ids=ANCHOR_FAULTS)
def test_anchor_number_without_a_canonical_form_is_rejected(anchor, reason):
    e = make_envelope("siteA", EnvelopeKind.REPORT, report_with(anchor), NOW)
    hub = Hub()
    assert hub.ingest(e) == Ack(e.envelope_id, AckStatus.REJECTED, reason)
    assert hub.stored_count() == 0


def test_tcp_anchor_past_the_digit_limit_gets_one_rejected_ack():
    anchor, reason = ANCHOR_FAULTS["frame-past-int-digit-limit"]
    e = make_envelope("siteA", EnvelopeKind.REPORT, report_with(anchor), NOW)
    sleeps = []
    with served(Hub()) as (host, port), TcpClient(host, port) as client:
        acks = submit_batch(client, [e], sleep=sleeps.append)
    assert acks == [Ack(e.envelope_id, AckStatus.REJECTED, reason)]
    assert sleeps == []  # no dropped connection, so no retry


def test_tcp_oversized_frame_is_rejected_unread_and_closed():
    n = MAX_FRAME_BYTES + 1
    with served(Hub()) as addr, socket.create_connection(addr, timeout=2) as sock:
        sock.sendall(n.to_bytes(4, "big"))  # and no body
        ack = read_ack(sock)
        assert ack.status is AckStatus.REJECTED
        assert f"frame length {n} exceeds" in ack.reason
        assert sock.recv(1) == b""  # the hub closed the connection


@functools.lru_cache(maxsize=1)
def real_envelopes() -> tuple[Envelope, ...]:
    """One real envelope of each kind."""
    cfg = make_scenario(seed=7, n_sites=1, n_studies=3, drift=False)
    firsts = {}
    for e in run_scenario(cfg).hub.envelopes():
        firsts.setdefault(e.kind, e)
    firsts[EnvelopeKind.ALERT_ACK] = make_envelope(
        "siteA", EnvelopeKind.ALERT_ACK, AlertAck("AL1", "siteA", NOW), NOW)
    assert set(firsts) == set(EnvelopeKind)
    return tuple(firsts.values())


anchors = st.builds(
    lambda frame, meas: f"see {{{{link|image=IMG1|frame={frame}|point=3,4{meas}}}}}",
    st.text("0123456789١٢", min_size=1, max_size=6) | st.just("1" * 5000),
    st.sampled_from(["", "|meas=5.2mm", "|meas=" + "9" * 400 + "cm"]))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False,
                                                          allow_infinity=False)
    | st.text(max_size=12) | anchors,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=8),
                                                              kids, max_size=3),
    max_leaves=6)


def json_paths(obj, path=()):
    yield path
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        children = ()
    for key, value in children:
        yield from json_paths(value, path + (key,))


@st.composite
def mutated(draw, payload: str) -> str:
    if draw(st.booleans()):  # splice text, or an anchor, anywhere
        i = draw(st.integers(0, len(payload)))
        j = draw(st.integers(i, min(len(payload), i + 20)))
        return payload[:i] + draw(st.text(max_size=12) | anchors) + payload[j:]
    obj = json.loads(payload)  # replace one node of the JSON tree
    path = draw(st.sampled_from(list(json_paths(obj))))
    value = draw(json_values)
    if not path:
        return json.dumps(value)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@pytest.mark.parametrize("kind", EnvelopeKind, ids=lambda kind: kind.name)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_payload_under_its_own_digest_gets_an_ack(kind, data):
    [e] = [e for e in real_envelopes() if e.kind is kind]
    hub = Hub()
    ack = hub.ingest(_forged(e, data.draw(mutated(e.payload))))
    assert isinstance(ack, Ack)
    # whatever was accepted reads back
    assert len(records(hub, e.kind)) == (ack.status is AckStatus.ACCEPTED)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_bytes_decode_to_an_envelope_or_a_frame_error(data):
    line = canonical_encode(data.draw(st.sampled_from(real_envelopes()))).encode("utf-8")
    i = data.draw(st.integers(0, len(line)))
    body = data.draw(st.binary(max_size=64) | st.builds(
        lambda junk, j: line[:i] + junk + line[j:],
        st.binary(max_size=8), st.integers(i, min(len(line), i + 8))))
    # what the hub's loop does with the body of a whole frame
    try:
        e = envelope_from_line(body.decode("utf-8"))
    except (UnicodeDecodeError, FrameError):
        return  # either one is answered REJECTED
    assert isinstance(Hub().ingest(e), Ack)
