import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from labelloop.canon import canonical_decode, canonical_encode
from labelloop.feedback import StudyAgreement
from labelloop.model import FindingCode
from labelloop.monitoring import (
    Alert,
    AlertKind,
    AlertSeverity,
    AgreementStream,
    DEFAULT_CUSUM_H,
    MonitoringEngine,
    N0,
    P0_FLOOR,
    PREVALENCE_CALIBRATION,
    PREVALENCE_WINDOW,
    PrevalenceProfile,
    cusum_step,
    events_of,
    replay_events,
)
from labelloop.registry import AuditAction, Registry

AT = datetime(2024, 3, 1, tzinfo=timezone.utc)


def agreement(tp=0, fp=0, fn=0, unverified=0, site="siteA", alg="lung-cad", ver="2.1.0"):
    return StudyAgreement(
        study_uid="S1", algorithm_id=alg, version=ver, site_id=site,
        tp=tp, fp=fp, fn=fn, unverified=unverified,
    )


def calibrated_stream(p0=0.9, seed=7):
    stream = AgreementStream("siteA", "lung-cad", "2.1.0")
    rng = random.Random(seed)
    for _ in range(N0):
        stream.observe_event(1 if rng.random() < p0 else 0, AT)
    assert stream.p0 is not None
    return stream


class TestCusumStep:
    def test_disagreement_accumulates(self):
        s_plus, fired = cusum_step(0.0, 0, p0=0.9, h=2.0)
        assert s_plus == pytest.approx(0.85)
        assert fired is None

    def test_agreement_drains(self):
        s_plus, fired = cusum_step(0.5, 1, p0=0.9, h=2.0)
        assert s_plus == pytest.approx(0.35)
        assert fired is None

    def test_floor_at_zero(self):
        s_plus, _ = cusum_step(0.0, 1, p0=0.9, h=2.0)
        assert s_plus == 0.0

    def test_hand_stepped_fire_and_reset(self):
        # at p0 = 0.9 each disagreement adds 0.85, so a run of them
        # crosses h = 2.0 on the third step, with the statistic 2.55
        s_plus = 0.0
        fires = []
        for i in range(1, 5):
            s_plus, fired = cusum_step(s_plus, 0, p0=0.9, h=2.0)
            if fired is not None:
                fires.append((i, fired))
                assert s_plus == 0.0
        assert fires == [(3, pytest.approx(2.55))]

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            cusum_step(0.0, 2, p0=0.9, h=2.0)

    @given(
        xs=st.lists(st.integers(min_value=0, max_value=1), max_size=60),
        p0=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_s_plus_never_negative_and_reset_on_fire(self, xs, p0):
        s_plus = 0.0
        for x in xs:
            s_plus, fired = cusum_step(s_plus, x, p0, h=2.0)
            assert s_plus >= 0.0
            if fired is not None:
                assert s_plus == 0.0 and fired > 2.0
            else:
                assert s_plus <= 2.0 + 1e-12


class TestEventDecomposition:
    def test_events_of(self):
        assert events_of(agreement(tp=2, fp=1, fn=1, unverified=3)) == [1, 1, 0, 0]

    def test_unmatched_only(self):
        assert events_of(agreement(fp=2)) == [0, 0]

    @given(
        tp=st.integers(0, 5), fp=st.integers(0, 5),
        fn=st.integers(0, 5), unverified=st.integers(0, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_unverified_never_touches_stream_state(self, tp, fp, fn, unverified):
        a = MonitoringEngine()
        b = MonitoringEngine()
        a.observe_agreement(agreement(tp=tp, fp=fp, fn=fn, unverified=0), AT)
        b.observe_agreement(agreement(tp=tp, fp=fp, fn=fn, unverified=unverified), AT)
        [sa], [sb] = a.streams.values(), b.streams.values()
        assert sa.s_plus == sb.s_plus
        assert sa.event_count == sb.event_count
        assert sa._calibration_ones == sb._calibration_ones


class TestAgreementStream:
    def test_no_alerts_during_calibration(self):
        stream = AgreementStream("siteA", "lung-cad", "2.1.0")
        for _ in range(N0 - 1):
            assert stream.observe_event(0, AT) is None
        assert stream.p0 is None

    def test_p0_frozen_after_calibration(self):
        stream = calibrated_stream(p0=0.9)
        frozen = stream.p0
        stream.observe_event(0, AT)
        assert stream.p0 == frozen

    def test_p0_floor(self):
        stream = AgreementStream("siteA", "lung-cad", "2.1.0")
        for _ in range(N0):
            stream.observe_event(0, AT)
        assert stream.p0 == P0_FLOOR

    def test_drop_fires_with_evidence(self):
        stream = calibrated_stream(p0=0.9)
        alerts = []
        rng = random.Random(11)
        for _ in range(500):
            alerts += [a for a in [stream.observe_event(
                1 if rng.random() < 0.4 else 0, AT)] if a]
            if alerts:
                break
        assert alerts, "sustained 0.9 -> 0.4 drop must fire"
        alert = alerts[0]
        assert alert.kind is AlertKind.INTERNAL_DRIFT
        assert alert.severity is AlertSeverity.CRITICAL
        assert alert.evidence.statistic > alert.evidence.threshold
        assert alert.evidence.threshold == DEFAULT_CUSUM_H
        assert alert.evidence.p0 == stream.p0
        assert alert.evidence.observed_rate < stream.p0 - 0.2

    def test_mild_drop_is_warn(self):
        # drop smaller than CRITICAL_DROP below p0 keeps severity at WARN
        stream = AgreementStream("siteA", "lung-cad", "2.1.0")
        for _ in range(N0):
            stream.observe_event(1, AT)
        assert stream.p0 == 1.0
        pattern = [1, 1, 1, 1, 1, 1, 1, 1, 0]  # ~0.89 observed rate
        alert = None
        i = 0
        while alert is None:
            alert = stream.observe_event(pattern[i % len(pattern)], AT)
            i += 1
        assert alert.severity is AlertSeverity.WARN

    def test_alert_id_deterministic_across_replay(self):
        rng = random.Random(3)
        events = [1 if rng.random() < 0.9 else 0 for _ in range(600)]
        events += [0] * 200
        first = AgreementStream("siteA", "lung-cad", "2.1.0")
        second = AgreementStream("siteA", "lung-cad", "2.1.0")
        got_first = []
        got_second = []
        for x in events:
            a = first.observe_event(x, AT)
            b = second.observe_event(x, AT)
            if a:
                got_first.append(canonical_encode(a))
            if b:
                got_second.append(canonical_encode(b))
        assert got_first and got_first == got_second

    def test_alert_round_trips_canonically(self):
        stream = calibrated_stream(p0=0.9)
        alert = None
        while alert is None:
            alert = stream.observe_event(0, AT)
        line = canonical_encode(alert)
        assert canonical_decode(line, Alert) == alert


class TestReplayTargets:
    def test_detection_delay_under_drop(self):
        # 0.9 -> 0.6 drop at event 600: detected within 300 events
        rng = random.Random(21)
        events = [1 if rng.random() < 0.9 else 0 for _ in range(600)]
        events += [1 if rng.random() < 0.6 else 0 for _ in range(600)]
        fires = replay_events(events)
        post = [f for f in fires if f > 600]
        assert post and post[0] - 600 <= 300

    def test_in_control_false_alarms_rare(self):
        total = 0
        for seed in range(22, 27):
            rng = random.Random(seed)
            events = [1 if rng.random() < 0.9 else 0 for _ in range(10_000)]
            total += len(replay_events(events))
        assert total / 5 <= 1.0

    def test_h2_would_false_alarm_constantly(self):
        # the reason the default h is 10.0 and not 2.0
        rng = random.Random(23)
        events = [1 if rng.random() < 0.9 else 0 for _ in range(10_000)]
        assert len(replay_events(events, 2.0)) > 10


def feed_profile(profile, dist, n, rng):
    """dist: list of (codes frozenset, weight). Returns alerts raised."""
    alerts = []
    total = sum(w for _, w in dist)
    for _ in range(n):
        r = rng.random() * total
        acc = 0.0
        chosen = frozenset()
        for codes, w in dist:
            acc += w
            if r < acc:
                chosen = codes
                break
        a = profile.observe(set(chosen), AT)
        if a:
            alerts.append(a)
    return alerts


BASE_MIX = [
    (frozenset(), 0.55),
    (frozenset({FindingCode.NODULE}), 0.20),
    (frozenset({FindingCode.PNEUMOTHORAX}), 0.10),
    (frozenset({FindingCode.FRACTURE}), 0.08),
    (frozenset({FindingCode.NODULE, FindingCode.EFFUSION}), 0.07),
]


class TestPrevalenceProfile:
    def test_stable_mix_stays_quiet(self):
        profile = PrevalenceProfile("siteA")
        rng = random.Random(5)
        n = PREVALENCE_CALIBRATION + 10 * PREVALENCE_WINDOW
        alerts = feed_profile(profile, BASE_MIX, n, rng)
        assert alerts == []
        assert profile.checks_run == 10

    def test_shifted_mix_fires(self):
        profile = PrevalenceProfile("siteA")
        rng = random.Random(6)
        feed_profile(profile, BASE_MIX, PREVALENCE_CALIBRATION, rng)
        shifted = [
            (frozenset(), 0.10),
            (frozenset({FindingCode.NODULE}), 0.60),
            (frozenset({FindingCode.HEMORRHAGE}), 0.30),
        ]
        alerts = feed_profile(profile, shifted, PREVALENCE_WINDOW, rng)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.kind is AlertKind.EXTERNAL_DRIFT
        assert alert.algorithm_id == "-" and alert.version == "-"
        assert alert.evidence.statistic > alert.evidence.threshold

    def test_windows_are_tumbling_not_sliding(self):
        profile = PrevalenceProfile("siteA")
        rng = random.Random(7)
        feed_profile(profile, BASE_MIX,
                     PREVALENCE_CALIBRATION + PREVALENCE_WINDOW - 1, rng)
        assert profile.checks_run == 0
        feed_profile(profile, BASE_MIX, 1, rng)
        assert profile.checks_run == 1
        assert profile.window_studies == 0

    def test_small_expected_bins_pool(self):
        # a code absent from calibration must not divide by zero
        profile = PrevalenceProfile("siteA")
        rng = random.Random(8)
        feed_profile(profile, [(frozenset({FindingCode.NODULE}), 1.0)],
                     PREVALENCE_CALIBRATION, rng)
        only_rare = [(frozenset({FindingCode.HEMORRHAGE}), 1.0)]
        alerts = feed_profile(profile, only_rare, PREVALENCE_WINDOW, rng)
        assert len(alerts) == 1  # total displacement, must fire


class FakeRegistry:
    def __init__(self, sites):
        self.sites = sites
        self.audits = []

    def list_sites_running(self, algorithm_id, version):
        return set(self.sites)

    def append_audit(self, action, actor, payload_digest, at):
        self.audits.append((action, actor, payload_digest))


def make_alert(kind=AlertKind.INTERNAL_DRIFT, site="siteA", alg="lung-cad", ver="2.1.0"):
    from labelloop.monitoring import AlertEvidence, _alert_id
    return Alert(
        alert_id=_alert_id(kind, site, alg, ver, 777),
        kind=kind, site_id=site, algorithm_id=alg, version=ver,
        severity=AlertSeverity.WARN,
        evidence=AlertEvidence(statistic=9.0, threshold=8.0, event_index=777),
        raised_at=AT,
    )


class TestPropagation:
    def test_fan_out_to_running_sites_plus_developer(self):
        registry = FakeRegistry({"siteB", "siteA"})
        notes = MonitoringEngine().propagate(make_alert(), registry, AT)
        assert [n.recipient for n in notes] == ["siteA", "siteB", "developer"]
        assert all(n.alert_id == notes[0].alert_id for n in notes)
        assert len(registry.audits) == 1
        assert registry.audits[0][0] is AuditAction.ALERT

    def test_alert_audit_entry_carries_the_delivery_time(self):
        registry = Registry()
        delivered_at = AT + timedelta(hours=1)
        MonitoringEngine().propagate(make_alert(), registry, delivered_at)
        assert [e.timestamp for e in registry.audit] == [delivered_at]

    def test_external_drift_targets_origin_site_only(self):
        registry = FakeRegistry({"siteB", "siteC"})
        alert = make_alert(kind=AlertKind.EXTERNAL_DRIFT, alg="-", ver="-")
        notes = MonitoringEngine().propagate(alert, registry, AT)
        assert [n.recipient for n in notes] == ["siteA", "developer"]

    def test_engine_propagation_idempotent(self):
        engine = MonitoringEngine()
        registry = FakeRegistry({"siteA"})
        alert = make_alert()
        first = engine.propagate(alert, registry, AT)
        second = engine.propagate(alert, registry, AT)
        assert len(first) == 2 and second == []
        assert len(registry.audits) == 1


class TestEngine:
    def test_streams_keyed_per_site_algorithm_version(self):
        engine = MonitoringEngine()
        engine.observe_agreement(agreement(tp=1, site="siteA"), AT)
        engine.observe_agreement(agreement(tp=1, site="siteB"), AT)
        engine.observe_agreement(agreement(tp=1, site="siteA", ver="2.2.0"), AT)
        assert len(engine.streams) == 3

    def test_observe_labels_routes_to_site_profile(self):
        engine = MonitoringEngine()
        engine.observe_labels("siteA", {FindingCode.NODULE}, AT)
        engine.observe_labels("siteB", set(), AT)
        assert set(engine.profiles) == {"siteA", "siteB"}
        assert engine.profiles["siteA"].study_count == 1
