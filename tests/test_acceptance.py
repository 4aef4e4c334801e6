"""Acceptance gates for the whole loop.

Eight end-to-end criteria, each printing one verdict line so a release run
reads as a checklist. Budgets and tolerances are pinned here, not in config:
  1. parser/generator round trip, 1,000 reports, < 5 s
  2. de-identification completeness, 500 studies, < 5 s
  3. idempotent ingestion under 10-thread duplication; codec identity x 10,000
  4. greedy matching equals the exhaustive oracle on 10,000 detector-like
     instances; conservation identities on every stored scenario study
  5. drift detection: 20-seed replay targets, < 60 s total
  6. cross-site alert propagation, exactly once per alert id
  7. 1,000 random audit tampers all detected; golden hashes re-derived
  8. full 3-site scenario twice, byte-identical, < 60 s per run
"""

import dataclasses
import hashlib
import random
import threading
import time
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone

import pytest

from labelloop.canon import canonical_decode, canonical_encode, digest_text
from labelloop.deid import default_policy, deidentify_study, verify_deidentified
from labelloop.feedback import (
    AlgorithmOutput, Detection, ExecutionMode, greedy_select,
    match_detections, score_study,
)
from labelloop.harness import (
    RadiologistProfile, _SiteState, generate_case, make_scenario,
    render_report, run_scenario,
)
from labelloop.model import FindingCode, box, region_iou
from labelloop.monitoring import (
    PREVALENCE_CALIBRATION, PREVALENCE_WINDOW, AlertKind, PrevalenceProfile,
    replay_events,
)
from labelloop.protocol import (
    AckStatus, AlertAck, EnvelopeKind, Hub, InProcessClient, decode_envelope,
    encode_envelope, make_envelope,
)
from labelloop.registry import (
    AuditAction, AuditEntry, ChainHead, Registry, verify_audit_chain,
)
from labelloop.reports import (
    ExtractedLabel, InteractiveReport, LabelSet, LabelStrength, Polarity,
    extract_labels, parse_body,
)
from test_feedback import brute_force_best

T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)

ROUND_TRIP_REPORTS = 1_000
ROUND_TRIP_BUDGET_S = 5.0
DEID_STUDIES = 500
DEID_BUDGET_S = 5.0
INGEST_THREADS = 10
INGEST_ENVELOPES = 1_000
CODEC_TRIALS = 10_000
MATCHING_TRIALS = 10_000
DRIFT_SEEDS = 20
DRIFT_DELAY_BUDGET = 300
DRIFT_MIN_DETECTED = 19
FALSE_ALARM_MEAN_MAX = 1.0
PREVALENCE_WINDOWS = 100
PREVALENCE_RATE_MAX = 0.01
DRIFT_BUDGET_S = 60.0
TAMPER_TRIALS = 1_000
SCENARIO_BUDGET_S = 60.0


@contextmanager
def criterion(capsys, number, label):
    info = {}
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number}: FAIL ({label})")
        raise
    note = info.get("note", "")
    suffix = f"; {note}" if note else ""
    with capsys.disabled():
        print(f"criterion {number}: PASS ({label}{suffix})")


def fresh_site(seed: str, negation=0.35):
    cfg = make_scenario(n_sites=1, drift=False)
    state = _SiteState(cfg, cfg.sites[0], 0)
    profile = RadiologistProfile(
        sensitivity={c: 0.9 for c in FindingCode.__members__},
        hyperlink_rate=0.8, representative_only=0.3,
        negation_mention_rate=negation)
    return state, profile, random.Random(f"{seed}|case"), random.Random(f"{seed}|report")


def test_criterion_1_parser_generator_round_trip(capsys):
    with criterion(capsys, 1, "parser round trip") as info:
        state, profile, case_rng, report_rng = fresh_site("c1")
        started = time.perf_counter()
        exact = 0
        for i in range(ROUND_TRIP_REPORTS):
            study, truth = generate_case(case_rng, state.case_mix, state)
            report, intents = render_report(
                truth, profile, report_rng, study,
                report_uid=f"R{i:05d}", author_id=f"rad-{i % 5}")
            labels, _ = extract_labels(parse_body(report, study))
            if {canonical_encode(l) for l in intents} == \
                    {canonical_encode(l) for l in labels}:
                exact += 1
        elapsed = time.perf_counter() - started
        assert exact == ROUND_TRIP_REPORTS
        assert elapsed < ROUND_TRIP_BUDGET_S
        info["note"] = f"{exact}/{ROUND_TRIP_REPORTS} in {elapsed:.2f}s"


def test_criterion_2_deidentification_completeness(capsys):
    with criterion(capsys, 2, "de-identification") as info:
        state, profile, case_rng, report_rng = fresh_site("c2")
        policy = default_policy(hashlib.sha256(b"acceptance-c2").digest())
        by_patient: dict[str, set] = {}
        started = time.perf_counter()
        for i in range(DEID_STUDIES):
            study, truth = generate_case(case_rng, state.case_mix, state)
            report, _ = render_report(truth, profile, report_rng, study,
                                      report_uid=f"R{i:05d}",
                                      author_id="rad-1")
            deid_study, deid_reports, _ = deidentify_study(
                study, [report], policy, now=study.acquired_at)
            leaks = verify_deidentified(deid_study, deid_reports,
                                        study.identity.phi_tokens)
            assert leaks == []
            offset = deid_study.acquired_at - study.acquired_at
            assert deid_study.identity.birth_date - study.identity.birth_date \
                == offset
            assert abs(offset.days) <= 182
            by_patient.setdefault(study.identity.patient_id, set()).add(
                (deid_study.identity.patient_id, offset))
        elapsed = time.perf_counter() - started
        # one pseudonym and one shift per patient, no pseudonym collisions
        assert all(len(v) == 1 for v in by_patient.values())
        pseudonyms = [next(iter(v))[0] for v in by_patient.values()]
        assert len(set(pseudonyms)) == len(by_patient)
        revisits = DEID_STUDIES - len(by_patient)
        assert revisits > 0  # the consistency check needs repeat patients
        assert elapsed < DEID_BUDGET_S
        info["note"] = (f"{DEID_STUDIES} studies, {len(by_patient)} patients, "
                        f"0 leaks in {elapsed:.2f}s")


def _stress_labelset(i: int) -> LabelSet:
    label = ExtractedLabel(f"R{i:04d}", f"S{i:04d}", FindingCode.NODULE,
                           Polarity.POSITIVE, LabelStrength.HYPERLINKED, 0,
                           region=box(0, 0, 10, 10), image_uid="IMG1")
    return LabelSet(f"R{i:04d}", f"S{i:04d}", [label])


def _random_record(rng: random.Random, i: int):
    kind = rng.choice([EnvelopeKind.LABELSET, EnvelopeKind.LABELSET,
                       EnvelopeKind.ALG_OUTPUT, EnvelopeKind.ALG_OUTPUT,
                       EnvelopeKind.REPORT, EnvelopeKind.ALERT_ACK])
    when = T0 + timedelta(seconds=rng.randint(0, 10 ** 7))
    if kind is EnvelopeKind.LABELSET:
        labels = []
        for s in range(rng.randint(0, 3)):
            hyperlinked = rng.random() < 0.5
            r = box(rng.randint(0, 300), rng.randint(0, 300),
                    rng.randint(301, 500), rng.randint(301, 500))
            labels.append(ExtractedLabel(
                f"R{i}", f"S{i}", rng.choice(list(FindingCode)),
                rng.choice(list(Polarity)),
                LabelStrength.HYPERLINKED if hyperlinked else LabelStrength.TEXT_ONLY,
                s, region=r if hyperlinked else None,
                image_uid=f"IMG{s}" if hyperlinked else None))
        return kind, LabelSet(f"R{i}", f"S{i}", labels)
    if kind is EnvelopeKind.ALG_OUTPUT:
        detections = [
            Detection(rng.choice(list(FindingCode)),
                      box(rng.randint(0, 200), rng.randint(0, 200),
                          rng.randint(201, 400), rng.randint(201, 400)),
                      round(rng.uniform(0.0, 1.0), 4))
            for _ in range(rng.randint(0, 3))]
        return kind, AlgorithmOutput(f"S{i}", f"alg{rng.randint(0, 4)}",
                                     f"{rng.randint(1, 3)}.0",
                                     rng.choice(list(ExecutionMode)),
                                     detections)
    if kind is EnvelopeKind.REPORT:
        return kind, InteractiveReport(
            f"R{i}", f"S{i}",
            f"Stable exam {i}. No change from prior étude.",
            when, f"rad-{rng.randint(0, 9)}")
    return kind, AlertAck(digest_text(f"alert{i}")[:16],
                          f"site{rng.randint(0, 9)}", when)


def test_criterion_3_idempotent_ingestion_and_codec(capsys):
    with criterion(capsys, 3, "idempotent ingestion and codec") as info:
        hub = Hub()
        client = InProcessClient(hub)
        envelopes = [make_envelope("siteA", EnvelopeKind.LABELSET,
                                   _stress_labelset(i), T0)
                     for i in range(INGEST_ENVELOPES)]
        tallies = []

        def pump():
            counts = {AckStatus.ACCEPTED: 0, AckStatus.DUPLICATE: 0,
                      AckStatus.REJECTED: 0}
            for e in envelopes:
                counts[client.submit(e).status] += 1
            tallies.append(counts)

        threads = [threading.Thread(target=pump)
                   for _ in range(INGEST_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        accepted = sum(c[AckStatus.ACCEPTED] for c in tallies)
        rejected = sum(c[AckStatus.REJECTED] for c in tallies)
        assert accepted == INGEST_ENVELOPES  # one winner per key
        assert rejected == 0
        assert hub.stored_count() == INGEST_ENVELOPES
        assert all(hub.stored_count(e.idempotency_key) == 1
                   for e in envelopes)

        rng = random.Random("c3")
        for i in range(CODEC_TRIALS):
            kind, record = _random_record(rng, i)
            envelope = make_envelope(f"site{i % 7}", kind, record,
                                     T0 + timedelta(seconds=i))
            assert decode_envelope(encode_envelope(envelope)) == envelope
        info["note"] = (f"{INGEST_THREADS}x{INGEST_ENVELOPES} dup stress, "
                        f"{CODEC_TRIALS} codec round trips")


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    cfg = make_scenario()
    started = time.perf_counter()
    result = run_scenario(cfg)
    elapsed = time.perf_counter() - started
    return cfg, result, elapsed


def _detector_like_instance(rng: random.Random):
    """Disjoint label cells, jittered detection copies, Poisson-ish FPs:
    the geometry this system actually scores."""
    cells = rng.sample(range(16), rng.randint(1, 4))
    labels = []
    for cell in cells:
        cx, cy = (cell % 4) * 128, (cell // 4) * 128
        w, h = rng.randint(50, 100), rng.randint(50, 100)
        x0 = cx + rng.randint(0, 127 - w)
        y0 = cy + rng.randint(0, 127 - h)
        labels.append(box(x0, y0, x0 + w, y0 + h))
    detections = []
    for lab in labels:
        if rng.random() < 0.75 and len(detections) < 4:
            dx, dy = round(rng.gauss(0, 9)), round(rng.gauss(0, 9))
            x0 = max(0, min(lab.x0 + dx, 510))
            y0 = max(0, min(lab.y0 + dy, 510))
            x1 = min(512, max(x0 + 1, lab.x1 + dx))
            y1 = min(512, max(y0 + 1, lab.y1 + dy))
            detections.append(box(x0, y0, x1, y1))
    while len(detections) < 4 and rng.random() < 0.35:
        w, h = rng.randint(30, 120), rng.randint(30, 120)
        x0, y0 = rng.randint(0, 511 - w), rng.randint(0, 511 - h)
        detections.append(box(x0, y0, x0 + w, y0 + h))
    return detections, labels


def test_criterion_4_matching_oracle_and_conservation(capsys, reference_run):
    with criterion(capsys, 4, "matching oracle + conservation") as info:
        rng = random.Random("c4")
        trials = 0
        while trials < MATCHING_TRIALS:
            detections, labels = _detector_like_instance(rng)
            scored = []
            for di, d in enumerate(detections):
                for li, l in enumerate(labels):
                    v = region_iou(d, l)
                    if v >= 0.3:
                        scored.append((di, li, v))
            ious = [s for _, _, s in scored]
            if len(set(ious)) != len(ious):
                continue  # criterion wants distinct IoUs
            trials += 1
            _, best = brute_force_best(scored)
            assert sorted(greedy_select(scored)) == sorted(best)

        _, result, _ = reference_run
        labels_by_study = {ls.study_uid: ls.labels
                           for ls in result.hub.records(EnvelopeKind.LABELSET)}
        checked = 0
        for output in result.hub.records(EnvelopeKind.ALG_OUTPUT):
            labels = labels_by_study[output.study_uid]
            agreement = score_study(
                match_detections(output, labels),
                site_id="recount")
            positives = sum(1 for l in labels
                            if l.polarity is Polarity.POSITIVE)
            assert agreement.tp + agreement.fp + agreement.unverified == \
                len(output.detections)
            assert agreement.tp + agreement.fn == positives
            checked += 1
        assert checked >= 3 * 2 * 2000  # every stored scenario study
        info["note"] = (f"{MATCHING_TRIALS} oracle trials, "
                        f"{checked} conservation checks")


def test_criterion_5_drift_detection_targets(capsys):
    with criterion(capsys, 5, "drift detection targets") as info:
        started = time.perf_counter()

        detected = 0
        for seed in range(DRIFT_SEEDS):
            rng = random.Random(f"c5a|{seed}")
            events = [1 if rng.random() < 0.9 else 0 for _ in range(5_000)]
            events += [1 if rng.random() < 0.6 else 0 for _ in range(5_000)]
            fires = replay_events(events)
            if any(5_000 < f <= 5_000 + DRIFT_DELAY_BUDGET for f in fires):
                detected += 1
        assert detected >= DRIFT_MIN_DETECTED

        alarm_counts = []
        for seed in range(DRIFT_SEEDS):
            rng = random.Random(f"c5b|{seed}")
            events = [1 if rng.random() < 0.9 else 0 for _ in range(10_000)]
            alarm_counts.append(len(replay_events(events)))
        mean_alarms = sum(alarm_counts) / DRIFT_SEEDS
        assert mean_alarms <= FALSE_ALARM_MEAN_MAX

        mix = make_scenario().case_mix
        window_alarms = 0
        for seed in range(DRIFT_SEEDS):
            rng = random.Random(f"c5c|{seed}")
            profile = PrevalenceProfile(f"site{seed}")
            n = PREVALENCE_CALIBRATION + PREVALENCE_WINDOWS * PREVALENCE_WINDOW
            at = T0
            for _ in range(n):
                codes = {FindingCode[c] for c, p in mix.items()
                         if rng.random() < p}
                if profile.observe(codes, at) is not None:
                    window_alarms += 1
        rate = window_alarms / (DRIFT_SEEDS * PREVALENCE_WINDOWS)
        assert rate <= PREVALENCE_RATE_MAX

        elapsed = time.perf_counter() - started
        assert elapsed < DRIFT_BUDGET_S
        info["note"] = (f"{detected}/{DRIFT_SEEDS} drops caught, "
                        f"mean fa {mean_alarms:.2f}, window rate {rate:.4f}, "
                        f"{elapsed:.1f}s")


def test_criterion_6_cross_site_alert_propagation(capsys, reference_run):
    with criterion(capsys, 6, "cross-site alert propagation") as info:
        cfg, result, _ = reference_run
        assert result.assertion_failures == []
        site_ids = sorted(s.site_id for s in cfg.sites)

        internal = [a for a in result.bundle.alerts
                    if a.kind is AlertKind.INTERNAL_DRIFT]
        degraded = [a for a in internal if a.algorithm_id == "cad-1"]
        assert degraded
        assert {a.site_id for a in degraded} == set(site_ids)

        deliveries: dict[tuple[str, str], int] = {}
        for note in result.notifications:
            key = (note.alert_id, note.recipient)
            deliveries[key] = deliveries.get(key, 0) + 1
        assert all(count == 1 for count in deliveries.values())
        for alert in internal:
            got = sorted(r for (aid, r) in deliveries if aid == alert.alert_id)
            assert got == sorted(site_ids + ["developer"])
        info["note"] = (f"{len(degraded)} alerts fanned out to "
                        f"{len(site_ids)} sites + developer")


GOLDEN_CHAIN = "audit_chain.txt"


def _golden_chain_oracle():
    """Recompute the golden chain with nothing but hashlib."""
    from conftest import golden_text
    lines = golden_text(GOLDEN_CHAIN).splitlines()
    digests = lines[0].split()
    rows = [
        ("1", "2024-01-01T00:00:00Z", "hub", "REGISTER", digests[0]),
        ("2", "2024-01-01T00:05:00Z", "hub", "STATUS_CHANGE", digests[1]),
        ("3", "2024-01-01T00:10:00Z", "ops", "ASSIGN", digests[2]),
    ]
    prev = "0" * 64
    for expected, row in zip(lines[1:], rows):
        preimage = "|".join(row + (prev,))
        got = hashlib.sha256(preimage.encode("utf-8")).hexdigest()
        assert got == expected
        prev = got
    assert [digest_text(m) for m in ("m1", "m2", "m3")] == digests


def _tamper(lines: list[str], rng: random.Random) -> tuple[str, list[str]]:
    op = rng.choice(("edit", "delete", "swap", "truncate"))
    n = len(lines)
    if op == "edit":
        i = rng.randrange(n)
        entry = canonical_decode(lines[i], AuditEntry)
        field = rng.choice(("actor", "payload_digest", "timestamp", "seq",
                            "prev_hash", "entry_hash", "action"))
        if field == "actor":
            entry = dataclasses.replace(entry, actor=entry.actor + "x")
        elif field == "payload_digest":
            flipped = ("1" if entry.payload_digest[0] != "1" else "2") + \
                entry.payload_digest[1:]
            entry = dataclasses.replace(entry, payload_digest=flipped)
        elif field == "timestamp":
            entry = dataclasses.replace(
                entry, timestamp=entry.timestamp + timedelta(seconds=1))
        elif field == "seq":
            entry = dataclasses.replace(entry, seq=entry.seq + 1)
        elif field == "prev_hash":
            flipped = ("1" if entry.prev_hash[0] != "1" else "2") + \
                entry.prev_hash[1:]
            entry = dataclasses.replace(entry, prev_hash=flipped)
        elif field == "entry_hash":
            flipped = ("1" if entry.entry_hash[0] != "1" else "2") + \
                entry.entry_hash[1:]
            entry = dataclasses.replace(entry, entry_hash=flipped)
        else:
            others = [a for a in AuditAction if a is not entry.action]
            entry = dataclasses.replace(entry, action=rng.choice(others))
        out = list(lines)
        out[i] = canonical_encode(entry)
        return op, out
    if op == "delete":
        i = rng.randrange(n)
        out = lines[:i] + lines[i + 1:]
        if rng.random() < 0.5:  # renumbering must not hide the gap
            entries = [canonical_decode(l, AuditEntry) for l in out]
            out = [canonical_encode(dataclasses.replace(e, seq=j + 1))
                   for j, e in enumerate(entries)]
        return op, out
    if op == "swap":
        i, j = rng.sample(range(n), 2)
        out = list(lines)
        out[i], out[j] = out[j], out[i]
        return op, out
    return op, lines[:rng.randrange(n)]


def test_criterion_7_audit_tamper_detection(capsys, tmp_path):
    with criterion(capsys, 7, "audit tamper detection") as info:
        _golden_chain_oracle()

        registry = Registry()
        actions = list(AuditAction)
        for i in range(60):
            registry.append_audit(actions[i % len(actions)], f"actor{i % 7}",
                                  digest_text(f"payload{i}"),
                                  at=T0 + timedelta(minutes=i))
        registry.save(tmp_path)
        lines = (tmp_path / "audit.log").read_text().splitlines()
        head = canonical_decode(
            (tmp_path / "audit.head").read_text().strip(), ChainHead)
        pristine = [canonical_decode(l, AuditEntry) for l in lines]
        assert verify_audit_chain(pristine, head) is None

        rng = random.Random("c7")
        op_counts: dict[str, int] = {}
        for _ in range(TAMPER_TRIALS):
            op, tampered = _tamper(lines, rng)
            entries = [canonical_decode(l, AuditEntry) for l in tampered]
            assert verify_audit_chain(entries, head) is not None, op
            op_counts[op] = op_counts.get(op, 0) + 1
        assert set(op_counts) == {"edit", "delete", "swap", "truncate"}
        ops = ", ".join(f"{k} {v}" for k, v in sorted(op_counts.items()))
        info["note"] = f"{TAMPER_TRIALS} tampers detected ({ops})"


def test_criterion_8_determinism_and_scale(capsys, reference_run, tmp_path):
    with criterion(capsys, 8, "end-to-end determinism and scale") as info:
        cfg, first, first_elapsed = reference_run
        assert first_elapsed < SCENARIO_BUDGET_S

        started = time.perf_counter()
        second = run_scenario(cfg)
        second_elapsed = time.perf_counter() - started
        assert second_elapsed < SCENARIO_BUDGET_S

        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        first.bundle.write(a_dir)
        second.bundle.write(b_dir)
        names = sorted(p.name for p in a_dir.iterdir())
        assert names == ["alerts.csv", "alerts.log", "audit.verdict",
                         "delays.csv", "ledger.csv"]
        for name in names:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
        total = cfg.n_studies * len(cfg.sites)
        info["note"] = (f"{total} studies twice, byte-identical, "
                        f"{first_elapsed:.1f}s + {second_elapsed:.1f}s")
