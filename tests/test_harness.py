"""Scenario driver: generator/extractor agreement, determinism, drift
delivery, and the byte-level bundle contract."""

import dataclasses
import gc
import random
import threading
import weakref
from pathlib import Path

import pytest

from support import records, served
from labelloop import harness
from labelloop.canon import canonical_decode, canonical_encode
from labelloop.feedback import (
    AlgorithmOutput, ExecutionMode, aggregate_metrics, match_detections, score_study,
)
from labelloop.harness import (
    AlgorithmProfile, AlgorithmSpec, DriftEvent, DriftKind, RadiologistProfile,
    ScenarioAssertions, ScenarioConfig, ScenarioError, SiteConfig, TruthLesion,
    _SiteState, generate_case, load_scenario, make_scenario, render_report,
    run_scenario, save_scenario, simulate_algorithm, validate_scenario,
)
from labelloop.model import FindingCode, Measurement, Unit, box
from labelloop.monitoring import AlertKind
from labelloop.protocol import (
    Envelope, EnvelopeKind, Hub, TcpClient, submit_batch,
)
from labelloop.registry import AuditAction
from labelloop.reports import LabelStrength, Polarity, extract_labels, parse_body

FULL_SENS = {c: 1.0 for c in FindingCode.__members__}


def radiologist(**overrides) -> RadiologistProfile:
    base = dict(sensitivity={c: 0.9 for c in FindingCode.__members__},
                hyperlink_rate=0.8, representative_only=0.25,
                negation_mention_rate=0.3)
    base.update(overrides)
    return RadiologistProfile(**base)


def tiny_config(n_studies=50, sites=2, drift=False, seed=11) -> ScenarioConfig:
    return make_scenario(seed=seed, n_sites=sites, n_studies=n_studies, drift=drift)


def site_state(mix=None, seed=3):
    cfg = tiny_config()
    state = _SiteState(cfg, cfg.sites[0], 0)
    if mix is not None:
        state.case_mix = dict(mix)
    return state, random.Random(f"{seed}|case|test")


class TestGenerateCase:
    def test_deterministic_for_equal_seeds(self):
        a_state, a_rng = site_state()
        b_state, b_rng = site_state()
        for _ in range(25):
            sa, ta = generate_case(a_rng, a_state.case_mix, a_state)
            sb, tb = generate_case(b_rng, b_state.case_mix, b_state)
            assert canonical_encode(sa) == canonical_encode(sb)
            assert ta == tb

    def test_prevalence_matches_mix(self):
        # presence probability per study, not lesion count
        state, rng = site_state(mix={"NODULE": 0.3})
        hits = 0
        for _ in range(10_000):
            _, truth = generate_case(rng, state.case_mix, state)
            if any(l.finding is FindingCode.NODULE for l in truth):
                hits += 1
        assert abs(hits / 10_000 - 0.3) < 0.015

    def test_phi_tokens_cover_identity(self):
        state, rng = site_state()
        study, _ = generate_case(rng, state.case_mix, state)
        ident = study.identity
        assert ident.patient_name in ident.phi_tokens
        assert ident.patient_id in ident.phi_tokens
        assert ident.accession_number in ident.phi_tokens
        assert ident.patient_name in study.order_text

    def test_lesions_fit_inside_the_image(self):
        state, rng = site_state()
        for _ in range(200):
            study, truth = generate_case(rng, state.case_mix, state)
            side = study.images[0].width
            for lesion in truth:
                r = lesion.region
                assert 0 <= r.x0 < r.x1 <= side
                assert 0 <= r.y0 < r.y1 <= side


class TestRenderReport:
    """The generator must be the extractor's exact inverse."""

    def run_once(self, profile, rng, mix=None):
        state, case_rng = site_state(mix=mix, seed=rng.randint(0, 10**9))
        study, truth = generate_case(case_rng, state.case_mix, state)
        report, intents = render_report(truth, profile, rng, study,
                                        report_uid="R1", author_id="rad-1")
        labels, diags = extract_labels(parse_body(report, study))
        return intents, labels, diags

    def test_round_trip_over_many_cases(self):
        rng = random.Random(99)
        profile = radiologist()
        for _ in range(200):
            intents, labels, diags = self.run_once(profile, rng)
            assert diags == []
            want = sorted(canonical_encode(l) for l in intents)
            got = sorted(canonical_encode(l) for l in labels)
            assert want == got

    def test_single_anchor_carries_truth_box(self):
        profile = radiologist(sensitivity=FULL_SENS, hyperlink_rate=1.0,
                              representative_only=0.0)
        state, case_rng = site_state(mix={})
        study, _ = generate_case(case_rng, state.case_mix, state)
        lesion = TruthLesion(FindingCode.NODULE, box(10, 20, 60, 90),
                             Measurement(7.5, Unit.mm))
        report, _ = render_report([lesion], profile, random.Random(4), study,
                                  report_uid="R1", author_id="rad-1")
        labels, diags = extract_labels(parse_body(report, study))
        assert diags == []
        (label,) = [l for l in labels if l.polarity is Polarity.POSITIVE]
        assert label.strength is LabelStrength.HYPERLINKED
        assert label.region == lesion.region
        assert label.measurement == lesion.measurement

    def test_all_negative_report_has_no_anchors(self):
        profile = radiologist(sensitivity={c: 0.0 for c in FindingCode.__members__},
                              negation_mention_rate=1.0)
        state, case_rng = site_state(mix={})
        study, _ = generate_case(case_rng, state.case_mix, state)
        report, intents = render_report([], profile, random.Random(5), study,
                                        report_uid="R1", author_id="rad-1")
        assert "{{link" not in report.body
        labels, diags = extract_labels(parse_body(report, study))
        assert diags == []
        assert len(labels) == len(FindingCode)
        assert all(l.polarity is Polarity.NEGATIVE for l in labels)
        assert sorted(canonical_encode(l) for l in intents) == \
            sorted(canonical_encode(l) for l in labels)


class TestSimulateAlgorithm:
    def test_perfect_profile_reproduces_truth(self):
        truth = [
            TruthLesion(FindingCode.NODULE, box(5, 5, 40, 40), None),
            TruthLesion(FindingCode.EFFUSION, box(100, 100, 180, 150), None),
        ]
        profile = AlgorithmProfile(sensitivity=FULL_SENS, fp_per_study=0.0,
                                   localization_sigma=0.0)
        out = simulate_algorithm(truth, profile, random.Random(1), "S1", 512,
                                 "cad-1", "2.1.0", ExecutionMode.CENTRAL)
        assert out.study_uid == "S1" and out.executed is ExecutionMode.CENTRAL
        assert [(d.finding, d.region) for d in out.detections] == \
            [(l.finding, l.region) for l in truth]

    def test_blind_profile_emits_nothing(self):
        truth = [TruthLesion(FindingCode.NODULE, box(5, 5, 40, 40), None)]
        profile = AlgorithmProfile(
            sensitivity={c: 0.0 for c in FindingCode.__members__},
            fp_per_study=0.0, localization_sigma=0.0)
        out = simulate_algorithm(truth, profile, random.Random(2), "S1", 512,
                                 "cad-1", "2.1.0", ExecutionMode.LOCAL)
        assert out.detections == []

    def test_jitter_keeps_boxes_valid(self):
        truth = [TruthLesion(FindingCode.NODULE, box(0, 0, 12, 12), None)]
        profile = AlgorithmProfile(sensitivity=FULL_SENS, fp_per_study=2.0,
                                   localization_sigma=25.0)
        rng = random.Random(6)
        for _ in range(300):
            out = simulate_algorithm(truth, profile, rng, "S1", 512,
                                     "cad-1", "2.1.0", ExecutionMode.CENTRAL)
            for d in out.detections:
                assert 0 <= d.region.x0 < d.region.x1 <= 512
                assert 0 <= d.region.y0 < d.region.y1 <= 512
                assert 0.0 <= d.confidence <= 1.0


class TestScenarioConfig:
    def test_reference_scenario_validates(self):
        assert validate_scenario(make_scenario()) == []

    def test_bad_probability_names_the_field(self):
        cfg = tiny_config()
        bad = dataclasses.replace(
            cfg, sites=[dataclasses.replace(
                cfg.sites[0],
                radiologist=radiologist(hyperlink_rate=1.5))])
        problems = validate_scenario(bad)
        assert any("sites[0].radiologist.hyperlink_rate" in p for p in problems)

    def test_unknown_drift_algorithm_is_rejected(self):
        cfg = tiny_config()
        bad = dataclasses.replace(cfg, drift_events=[
            DriftEvent(at_study=10, kind=DriftKind.SENSITIVITY_DROP,
                       algorithm_id="ghost", new_sensitivity=0.2)])
        problems = validate_scenario(bad)
        assert any("drift_events[0].algorithm_id" in p for p in problems)

    def test_algorithm_names_that_are_not_plain_are_rejected(self):
        cfg = tiny_config()
        bad = dataclasses.replace(cfg, algorithms=[dataclasses.replace(
            cfg.algorithms[0], algorithm_id="x:1", version="2/b")])
        problems = validate_scenario(bad)
        assert "algorithms[0].algorithm_id: 'x:1' is not a plain name" in problems
        assert "algorithms[0].version: '2/b' is not a plain name" in problems

    def test_site_id_that_is_not_a_plain_name_is_rejected(self):
        cfg = tiny_config()
        bad = dataclasses.replace(
            cfg, sites=[dataclasses.replace(cfg.sites[0], site_id="../escaped")])
        assert validate_scenario(bad) == [
            "sites[0].site_id: '../escaped' is not a plain name"]

    def test_file_round_trip(self, tmp_path):
        cfg = make_scenario()
        path = tmp_path / "scenario.json"
        save_scenario(cfg, path)
        text = path.read_text()
        assert text.count("\n") == 1  # one canonical line
        assert load_scenario(path) == cfg

    def test_run_rejects_invalid_config(self):
        cfg = dataclasses.replace(tiny_config(), n_studies=0)
        with pytest.raises(ScenarioError, match="n_studies"):
            run_scenario(cfg)


class TestRunScenario:
    def test_quiet_scenario_stays_quiet(self):
        cfg = dataclasses.replace(
            tiny_config(n_studies=100, sites=1),
            assertions=ScenarioAssertions(expect_no_alerts=True))
        result = run_scenario(cfg)
        assert result.assertion_failures == []
        assert result.bundle.alerts == []
        assert result.bundle.audit_verdict == "ok"
        assert len(result.bundle.ledger) == 2  # one row per algorithm
        for row in result.bundle.ledger:
            assert row.tp + row.fp + row.fn > 0

    def test_ledger_recount_matches_agreements(self):
        # every algorithm of tiny_config runs CENTRAL or BOTH, so the loop
        # scores each CENTRAL output against its study's stored labels
        result = run_scenario(tiny_config(n_studies=60))
        labels = {ls.study_uid: ls.labels
                  for ls in records(result.hub, EnvelopeKind.LABELSET)}
        agreements = []
        for e in result.hub.envelopes():
            if e.kind is not EnvelopeKind.ALG_OUTPUT:
                continue
            output = canonical_decode(e.payload, AlgorithmOutput)
            if output.executed is ExecutionMode.CENTRAL:
                match = match_detections(output, labels[output.study_uid])
                agreements.append(score_study(match, e.site_id))
        recount = [row for _, row in sorted(aggregate_metrics(agreements).items())]
        assert recount == result.bundle.ledger

    def test_no_phi_reaches_the_hub(self, monkeypatch):
        phi_tokens = set()
        real = harness.generate_case

        def generate_case(*args):
            study, truth = real(*args)
            phi_tokens.update(study.identity.phi_tokens)
            return study, truth
        monkeypatch.setattr(harness, "generate_case", generate_case)
        result = run_scenario(tiny_config(n_studies=60))
        assert phi_tokens  # the scan must have something to look for
        lines = [canonical_encode(e).casefold()
                 for e in result.hub.envelopes()]
        for token in phi_tokens:
            needle = token.casefold()
            assert all(needle not in line for line in lines), token

    def test_finished_run_is_freed_by_reference_counting(self):
        # a reference cycle keeps a whole run alive until a full collection,
        # which raises peak memory when runs follow one another
        gc.collect()
        gc.disable()
        try:
            result = run_scenario(tiny_config(n_studies=20, sites=1))
            registry = weakref.ref(result.registry)
            del result
            assert registry() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("stage, callee", [
        ("generate", "labelloop.harness.generate_case"),
        ("report", "labelloop.harness.render_report"),
        ("deidentify", "labelloop.harness.deidentify_study"),
        ("extract", "labelloop.harness.extract_labels"),
        ("execute", "labelloop.harness.simulate_algorithm"),
        ("feedback", "labelloop.harness.match_detections"),
        ("monitoring", "labelloop.monitoring.MonitoringEngine.observe_labels"),
    ], ids=lambda v: v.rsplit(".", 1)[-1])
    def test_stage_labelled_failure(self, monkeypatch, stage, callee):
        def explode(*args, **kwargs):
            raise RuntimeError("weights corrupted")
        monkeypatch.setattr(callee, explode)
        with pytest.raises(ScenarioError, match=rf"study 0 stage {stage}: "):
            run_scenario(tiny_config(n_studies=5, sites=1))


@pytest.fixture(scope="module")
def drifted():
    cfg = make_scenario(seed=808, n_sites=3, n_studies=700)
    cfg = dataclasses.replace(
        cfg,
        drift_events=[DriftEvent(at_study=400,
                                 kind=DriftKind.SENSITIVITY_DROP,
                                 algorithm_id="cad-1",
                                 new_sensitivity=0.45)],
        assertions=ScenarioAssertions(alert_within_events=300))
    return cfg, run_scenario(cfg)


class TestDriftDelivery:
    def test_drift_is_detected_at_every_site(self, drifted):
        cfg, result = drifted
        assert result.assertion_failures == []
        sites_with_alert = {a.site_id for a in result.bundle.alerts
                            if a.kind is AlertKind.INTERNAL_DRIFT
                            and a.algorithm_id == "cad-1"}
        assert sites_with_alert == {s.site_id for s in cfg.sites}

    def test_delay_rows_report_the_change(self, drifted):
        cfg, result = drifted
        rows = [d for d in result.bundle.delays
                if d.algorithm_id == "cad-1" and d.kind == "INTERNAL_DRIFT"]
        assert len(rows) == len(cfg.sites)
        for row in rows:
            assert row.change_index is not None
            assert row.delay is not None and row.delay <= 300
            assert row.false_alarms == 0

    def test_prevalence_shift_gets_an_external_delay_row(self):
        cfg = dataclasses.replace(
            tiny_config(n_studies=1400, sites=1),
            drift_events=[DriftEvent(at_study=1100, kind=DriftKind.PREVALENCE_SHIFT,
                                     code="HEMORRHAGE", new_probability=0.7)])
        result = run_scenario(cfg)
        external = [d for d in result.bundle.delays if d.kind == "EXTERNAL_DRIFT"]
        assert [(d.site_id, d.algorithm_id, d.version) for d in external] == [
            (cfg.sites[0].site_id, "-", "-")]
        row = external[0]
        assert row.change_index == 1100
        assert row.delay == row.alert_index - 1100 and 0 < row.delay <= 100
        assert row.false_alarms == sum(
            1 for a in result.bundle.alerts
            if a.kind is AlertKind.EXTERNAL_DRIFT and a.evidence.event_index <= 1100)

    def test_fan_out_reaches_running_sites_and_developer_once(self, drifted):
        cfg, result = drifted
        site_ids = sorted(s.site_id for s in cfg.sites)
        per_alert = result.bundle.recipients
        assert set(per_alert) == {a.alert_id for a in result.bundle.alerts}
        for alert in result.bundle.alerts:
            if alert.kind is AlertKind.EXTERNAL_DRIFT:
                continue
            recipients = per_alert[alert.alert_id]
            # every actively assigned site exactly once, then the developer
            assert recipients == site_ids + ["developer"]

    def test_alert_audit_entries_written(self, drifted):
        _, result = drifted
        audit_alerts = [e for e in result.registry.audit
                        if e.action is AuditAction.ALERT]
        assert len(audit_alerts) == len(result.bundle.alerts)

    def test_ack_envelopes_arrive_from_each_notified_site(self, drifted):
        cfg, result = drifted
        acks = [e for e in result.hub.envelopes()
                if e.kind is EnvelopeKind.ALERT_ACK]
        # one ack per (alert, site) pair; the developer channel sends none
        assert len(acks) == len(result.bundle.alerts) * len(cfg.sites)


class TestBundleBytes:
    def test_two_runs_write_identical_bundles(self, tmp_path):
        cfg = tiny_config(n_studies=120, seed=77)
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        first.bundle.write(a_dir)
        second.bundle.write(b_dir)
        names = sorted(p.name for p in a_dir.iterdir())
        assert names == ["alerts.csv", "alerts.log", "audit.verdict",
                         "delays.csv", "ledger.csv"]
        for name in names:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_different_seed_changes_the_ledger(self, tmp_path):
        base = run_scenario(tiny_config(n_studies=40, seed=1))
        other = run_scenario(tiny_config(n_studies=40, seed=2))
        assert [canonical_encode(r) for r in base.bundle.ledger] != \
            [canonical_encode(r) for r in other.bundle.ledger]


def stress_ingest(cfg: ScenarioConfig) -> tuple[Hub, int]:
    """Order-independent variant: every site submits its envelopes from its
    own thread through real TCP framing. Returns the hub and the expected
    number of unique stored envelopes."""
    result = run_scenario(cfg)
    by_site: dict[str, list[Envelope]] = {s.site_id: [] for s in cfg.sites}
    for envelope in result.hub.envelopes():
        by_site[envelope.site_id].append(envelope)
    expected = sum(len(v) for v in by_site.values())

    hub = Hub()
    with served(hub) as (host, port):
        errors: list[BaseException] = []

        def pump(envelopes: list[Envelope]) -> None:
            try:
                with TcpClient(host, port) as tcp:
                    # resubmit everything twice: duplicates must be harmless
                    submit_batch(tcp, envelopes, sleep=lambda _: None)
                    submit_batch(tcp, envelopes, sleep=lambda _: None)
            except BaseException as err:
                errors.append(err)

        threads = [threading.Thread(target=pump, args=(v,))
                   for v in by_site.values()]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise ScenarioError(f"stress ingest failed: {errors[0]}")
    return hub, expected


class TestStressIngest:
    def test_threaded_double_submission_stores_once(self):
        cfg = tiny_config(n_studies=40, sites=2, seed=21)
        hub, expected = stress_ingest(cfg)
        assert expected > 0
        assert len(hub.envelopes()) == expected
