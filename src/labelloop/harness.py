"""Deterministic multi-site scenario driver.

Synthesizes the whole loop end to end. For each site and study,
``run_scenario`` runs the stages of the loop in order: drift (scheduled
profile changes), generate (a ground-truth case), report (written as the
exact inverse of the label extractor), deidentify (at the site boundary),
extract (labels from the de-identified report), submit (wire envelopes into
the hub), execute (imperfect algorithm outputs), feedback (scoring against
the labels), monitoring (drift surveillance) and propagation (alert fan-out
and acks); the registry's audit chain records the control side. Everything
downstream of a (config, seed) pair is a pure function of it; two runs write
byte-identical bundles.

The report generator is the parser oracle: alongside each rendered body it
records the labels the extractor must recover, verbatim. Template vocabulary
is therefore chosen to stay out of the finding lexicon and the negation cue
list, and every template contributes exactly one sentence.

Time is virtual. Studies tick forward from a fixed origin at each site's
case rate in whole seconds; nothing reads the wall clock.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import os
import random
from dataclasses import dataclass, field, replace
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

from .canon import (
    canonical_decode, canonical_digest, canonical_encode, digest_text,
    format_datetime, format_float, write_lines,
)
from .deid import (
    MAX_DATE_SHIFT_DAYS, SECRET_ENV_VAR, default_policy, deidentify_study,
    secret_from_env,
)
from .feedback import (
    AlgorithmOutput, Detection, ExecutionMode, StudyAgreement,
    aggregate_metrics, match_detections, score_study,
)
from .model import (
    FindingCode, IdentityBlock, ImageRef, Measurement, Modality, Region,
    LEXICON, StudyRecord, Unit, box,
)
from .monitoring import (
    DEFAULT_CUSUM_H, NO_ALGORITHM, Alert, AlertKind, MonitoringEngine,
    Notification,
)
from .protocol import (
    AckStatus, AlertAck, EnvelopeKind, Hub, InProcessClient, is_plain_name,
    make_envelope, submit_batch,
)
from .registry import (
    AuditAction, DeploymentAssignment, DeploymentMode, ModelRecord,
    ModelStatus, Registry,
)
from .reports import (
    ExtractedLabel, InteractiveReport, LabelSet, LabelStrength, Polarity,
    extract_labels, format_anchor, parse_body,
)

__all__ = [
    "AlgorithmProfile", "AlgorithmSpec", "DriftEvent", "DriftKind",
    "MetricsBundle", "RadiologistProfile", "ScenarioAssertions",
    "ScenarioConfig", "ScenarioError", "ScenarioResult", "SiteConfig",
    "TruthLesion", "generate_case", "load_scenario", "make_scenario",
    "render_report", "run_scenario", "save_scenario", "simulate_algorithm",
    "validate_scenario",
]

T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
# a site's first study is this much later than the previous site's
_SITE_OFFSET_S = 600
# a study is reported, and its envelopes sent, this long after acquisition
_REPORT_DELAY_S = 5400
# the last second canon can write, counted from T0
_CALENDAR_END_S = (datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc) - T0) \
    // timedelta(seconds=1)
_ACK_BUCKETS = {AckStatus.ACCEPTED: "accepted", AckStatus.DUPLICATE: "duplicates",
                AckStatus.REJECTED: "rejected"}

# Synthetic PHI vocabulary. Names must never collide with the finding lexicon
# or a negation cue, or scrubbing tests would pass for the wrong reason.
FIRST_NAMES = ("Avery", "Blake", "Carmen", "Dana", "Emery", "Flor", "Gale",
               "Harper", "Imani", "Jules", "Kiran", "Lane", "Mika", "Noor",
               "Oakley", "Parker", "Quinn", "Rowan", "Sasha", "Tate")
LAST_NAMES = ("Acker", "Bellows", "Castle", "Dunmore", "Ellery", "Frost",
              "Garland", "Hollis", "Ibarra", "Jennings", "Keating", "Lockwood",
              "Merritt", "Navarro", "Oberlin", "Pruitt", "Quimby", "Rutledge",
              "Stanton", "Thorne")

LOCATIONS = ("upper zone", "lower zone", "left side", "right side",
             "central zone", "peripheral zone")

NEGATION_TEMPLATES = (
    "No {phrase} is identified.",
    "There is no {phrase}.",
    "Negative for {phrase}.",
)


class DriftKind:
    # plain constants; the scenario file stores the name
    SENSITIVITY_DROP = "SENSITIVITY_DROP"
    PREVALENCE_SHIFT = "PREVALENCE_SHIFT"
    LOCALIZATION_DEGRADE = "LOCALIZATION_DEGRADE"
    ALL = (SENSITIVITY_DROP, PREVALENCE_SHIFT, LOCALIZATION_DEGRADE)


@dataclass(frozen=True)
class RadiologistProfile:
    sensitivity: dict[str, float]  # keyed by FindingCode name
    hyperlink_rate: float
    representative_only: float
    negation_mention_rate: float


@dataclass(frozen=True)
class AlgorithmProfile:
    sensitivity: dict[str, float]
    fp_per_study: float
    localization_sigma: float


@dataclass(frozen=True)
class SiteConfig:
    site_id: str
    case_rate: float  # studies per day
    radiologist: RadiologistProfile


@dataclass(frozen=True)
class AlgorithmSpec:
    algorithm_id: str
    version: str
    mode: DeploymentMode
    profile: AlgorithmProfile


@dataclass(frozen=True)
class DriftEvent:
    at_study: int  # per-site study index at which the event applies
    kind: str
    algorithm_id: str | None = None  # SENSITIVITY_DROP/LOCALIZATION_DEGRADE; None = all
    new_sensitivity: float | None = None
    code: str | None = None  # PREVALENCE_SHIFT target
    new_probability: float | None = None
    new_sigma: float | None = None


@dataclass(frozen=True)
class ScenarioAssertions:
    alert_within_events: int | None = None
    expect_no_alerts: bool = False


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    n_studies: int
    sites: list[SiteConfig]
    algorithms: list[AlgorithmSpec]
    case_mix: dict[str, float]
    drift_events: list[DriftEvent] = field(default_factory=list)
    assertions: ScenarioAssertions = field(default_factory=ScenarioAssertions)


class ScenarioError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# config plumbing


def _check_prob(problems: list[str], path: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
        problems.append(f"{path}: probability {value!r} outside [0, 1]")


def _check_rates(problems: list[str], path: str, rates: dict[str, float]) -> None:
    for key, p in rates.items():
        if key not in FindingCode.__members__:
            problems.append(f"{path}[{key!r}]: unknown finding code")
        _check_prob(problems, f"{path}[{key!r}]", p)


def _step_seconds(case_rate: float) -> int:
    return max(1, round(86400.0 / case_rate))


def _latest_second(ordinal: int, n_studies: int, case_rate: float) -> float:
    """Seconds after T0 past which nothing of a site's run is dated: its last
    study's report time, plus the largest date shift de-identification may
    add to the acquisition time."""
    if 86400.0 / case_rate > _CALENDAR_END_S:
        return math.inf  # the step alone overflows the calendar
    return (ordinal * _SITE_OFFSET_S + (n_studies - 1) * _step_seconds(case_rate)
            + _REPORT_DELAY_S + MAX_DATE_SHIFT_DAYS * 86400)


def validate_scenario(cfg: ScenarioConfig) -> list[str]:
    problems: list[str] = []
    if not (0 <= cfg.seed < 2 ** 64):
        problems.append(f"seed: {cfg.seed} outside u64 range")
    if cfg.n_studies <= 0:
        problems.append(f"n_studies: must be positive, got {cfg.n_studies}")
    if not cfg.sites:
        problems.append("sites: at least one site required")
    if len({s.site_id for s in cfg.sites}) != len(cfg.sites):
        problems.append("sites: site_id values must be unique")
    for i, site in enumerate(cfg.sites):
        base = f"sites[{i}]"
        if not is_plain_name(site.site_id):
            problems.append(f"{base}.site_id: {site.site_id!r} is not a plain name")
        if not site.case_rate > 0:
            problems.append(f"{base}.case_rate: must be positive")
        elif _latest_second(i, cfg.n_studies, site.case_rate) > _CALENDAR_END_S:
            problems.append(f"{base}.case_rate: {site.case_rate!r} is too low to date "
                            f"{cfg.n_studies} studies before the year 10000")
        prof = site.radiologist
        _check_rates(problems, f"{base}.radiologist.sensitivity", prof.sensitivity)
        _check_prob(problems, f"{base}.radiologist.hyperlink_rate", prof.hyperlink_rate)
        _check_prob(problems, f"{base}.radiologist.representative_only",
                    prof.representative_only)
        _check_prob(problems, f"{base}.radiologist.negation_mention_rate",
                    prof.negation_mention_rate)
    if len({(a.algorithm_id, a.version) for a in cfg.algorithms}) != len(cfg.algorithms):
        problems.append("algorithms: (algorithm_id, version) must be unique")
    for i, alg in enumerate(cfg.algorithms):
        base = f"algorithms[{i}]"
        for name in ("algorithm_id", "version"):
            if not is_plain_name(getattr(alg, name)):
                problems.append(f"{base}.{name}: {getattr(alg, name)!r} is not a plain name")
        _check_rates(problems, f"{base}.profile.sensitivity", alg.profile.sensitivity)
        if alg.profile.fp_per_study < 0:
            problems.append(f"{base}.profile.fp_per_study: must be >= 0")
        if alg.profile.localization_sigma < 0:
            problems.append(f"{base}.profile.localization_sigma: must be >= 0")
    _check_rates(problems, "case_mix", cfg.case_mix)
    known_algs = {a.algorithm_id for a in cfg.algorithms}
    for i, ev in enumerate(cfg.drift_events):
        base = f"drift_events[{i}]"
        if not (0 <= ev.at_study < cfg.n_studies):
            problems.append(f"{base}.at_study: {ev.at_study} outside scenario length")
        if ev.kind not in DriftKind.ALL:
            problems.append(f"{base}.kind: unknown kind {ev.kind!r}")
        elif ev.kind == DriftKind.SENSITIVITY_DROP:
            if ev.new_sensitivity is None:
                problems.append(f"{base}.new_sensitivity: required")
            else:
                _check_prob(problems, f"{base}.new_sensitivity", ev.new_sensitivity)
        elif ev.kind == DriftKind.PREVALENCE_SHIFT:
            if ev.code not in FindingCode.__members__:
                problems.append(f"{base}.code: unknown finding code {ev.code!r}")
            if ev.new_probability is None:
                problems.append(f"{base}.new_probability: required")
            else:
                _check_prob(problems, f"{base}.new_probability", ev.new_probability)
        elif ev.kind == DriftKind.LOCALIZATION_DEGRADE:
            if ev.new_sigma is None or ev.new_sigma < 0:
                problems.append(f"{base}.new_sigma: required and >= 0")
        if ev.algorithm_id is not None and ev.algorithm_id not in known_algs:
            problems.append(f"{base}.algorithm_id: unknown algorithm {ev.algorithm_id!r}")
    a = cfg.assertions
    if a.alert_within_events is not None and a.alert_within_events <= 0:
        problems.append("assertions.alert_within_events: must be positive")
    return problems


def save_scenario(cfg: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(canonical_encode(cfg) + "\n", encoding="utf-8")


def load_scenario(path: str | Path) -> ScenarioConfig:
    line = Path(path).read_text(encoding="utf-8").strip()
    return canonical_decode(line, ScenarioConfig)


def make_scenario(seed: int = 424242, n_sites: int = 3, n_algorithms: int = 2,
                  n_studies: int = 2000, drift: bool = True) -> ScenarioConfig:
    """The reference multi-site scenario; drift degrades the first algorithm
    at per-site study 500."""
    mix = {"NODULE": 0.3, "EFFUSION": 0.2, "FRACTURE": 0.15,
           "PNEUMOTHORAX": 0.1, "HEMORRHAGE": 0.08, "ANEURYSM": 0.05}
    radiologist = RadiologistProfile(
        sensitivity={c: 0.92 for c in FindingCode.__members__},
        hyperlink_rate=0.85,
        representative_only=0.3,
        negation_mention_rate=0.25,
    )
    sites = [SiteConfig(f"site{chr(ord('A') + i)}", case_rate=48.0,
                        radiologist=radiologist)
             for i in range(n_sites)]
    algorithms = [
        AlgorithmSpec(
            algorithm_id=f"cad-{i + 1}",
            version="2.1.0",
            mode=DeploymentMode.CENTRAL if i % 2 == 0 else DeploymentMode.BOTH,
            profile=AlgorithmProfile(
                sensitivity={c: 0.9 for c in FindingCode.__members__},
                fp_per_study=0.25,
                localization_sigma=4.0,
            ),
        )
        for i in range(n_algorithms)
    ]
    events = []
    assertions = ScenarioAssertions()
    if drift:
        events.append(DriftEvent(at_study=500, kind=DriftKind.SENSITIVITY_DROP,
                                 algorithm_id="cad-1", new_sensitivity=0.45))
        assertions = ScenarioAssertions(alert_within_events=300)
    return ScenarioConfig(seed=seed, n_studies=n_studies, sites=sites,
                          algorithms=algorithms, case_mix=mix,
                          drift_events=events, assertions=assertions)


# ---------------------------------------------------------------------------
# case generation


@dataclass(frozen=True)
class TruthLesion:
    finding: FindingCode
    region: Region
    measurement: Measurement | None


@dataclass
class _Patient:
    name: str
    patient_id: str
    birth_date: date


class _SiteState:
    """Mutable per-site world: patient pool, serials, drifted profiles."""

    def __init__(self, cfg: ScenarioConfig, site: SiteConfig, ordinal: int):
        self.site = site
        self.ordinal = ordinal
        self.case_mix = dict(cfg.case_mix)
        self.alg_profiles = {(a.algorithm_id, a.version): a.profile
                             for a in cfg.algorithms}
        self.patients: list[_Patient] = []
        self.serial = 0
        self.study_serial = 0
        self.step_seconds = _step_seconds(site.case_rate)

    def study_time(self, index: int) -> datetime:
        return T0 + timedelta(
            seconds=self.ordinal * _SITE_OFFSET_S + index * self.step_seconds)


def _new_patient(state: _SiteState, rng: random.Random) -> _Patient:
    state.serial += 1
    name = f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"
    # ids always contain a 0, which the base32 pseudonym alphabet lacks, so a
    # raw id can never appear by chance inside a pseudonym
    patient = _Patient(
        name=name,
        patient_id=f"P0{state.serial:05d}",
        birth_date=date(rng.randint(1940, 2005), rng.randint(1, 12),
                        rng.randint(1, 28)),
    )
    state.patients.append(patient)
    return patient


def generate_case(rng: random.Random, case_mix: dict[str, float],
                  state: _SiteState) -> tuple[StudyRecord, list[TruthLesion]]:
    state.study_serial += 1
    idx = state.study_serial
    site_id = state.site.site_id

    if state.patients and rng.random() < 0.15:
        patient = rng.choice(state.patients)  # revisit
    else:
        patient = _new_patient(state, rng)

    side = rng.choice((512, 768, 1024))
    image = ImageRef(f"IMG-{site_id}-{idx:06d}", side, side,
                     frame_count=rng.randint(20, 120))

    truth: list[TruthLesion] = []
    for code in FindingCode:
        if rng.random() >= case_mix.get(code.name, 0.0):
            continue
        for _ in range(rng.randint(1, 3)):
            w = rng.randint(12, 120)
            h = rng.randint(12, 120)
            x0 = rng.randint(0, side - w - 1)
            y0 = rng.randint(0, side - h - 1)
            meas = None
            if rng.random() < 0.6:
                meas = Measurement(round(rng.uniform(3.0, 45.0), 1), Unit.mm)
            truth.append(TruthLesion(code, box(x0, y0, x0 + w, y0 + h), meas))

    accession = f"A0{idx:06d}"
    study = StudyRecord(
        study_uid=f"S-{site_id}-{idx:06d}",
        site_id=site_id,
        identity=IdentityBlock(
            patient_name=patient.name,
            patient_id=patient.patient_id,
            birth_date=patient.birth_date,
            accession_number=accession,
            phi_tokens=[patient.name, patient.patient_id, accession],
        ),
        images=[image],
        modality=rng.choice(list(Modality)),
        acquired_at=state.study_time(idx - 1),
        order_text=f"{patient.name} referred for cross-sectional imaging.",
    )
    return study, truth


# ---------------------------------------------------------------------------
# report rendering (the parser oracle)


def _article(phrase: str) -> str:
    return "An" if phrase[0] in "aeiou" else "A"


def render_report(truth: list[TruthLesion], profile: RadiologistProfile,
                  rng: random.Random, study: StudyRecord,
                  report_uid: str, author_id: str,
                  ) -> tuple[InteractiveReport, list[ExtractedLabel]]:
    """Write the body sentence by sentence, recording for each one exactly the
    labels the extractor must produce for it."""
    image = study.images[0]
    sentences: list[str] = []
    intents: list[ExtractedLabel] = []

    def intent(code, polarity, strength, region=None, measurement=None):
        intents.append(ExtractedLabel(
            report_uid=report_uid, study_uid=study.study_uid, finding=code,
            polarity=polarity, strength=strength,
            sentence_index=len(sentences), region=region,
            image_uid=image.image_uid if region is not None else None,
            measurement=measurement,
        ))

    sentences.append(
        f"Patient {study.identity.patient_name} returns for follow-up imaging.")

    by_code: dict[FindingCode, list[TruthLesion]] = {}
    for lesion in truth:
        by_code.setdefault(lesion.finding, []).append(lesion)

    for code in FindingCode:
        lesions = by_code.get(code)
        if not lesions:
            continue
        detected = [l for l in lesions
                    if rng.random() < profile.sensitivity.get(code.name, 0.0)]
        if not detected:
            continue
        singular, plural = LEXICON[code][0], LEXICON[code][1]
        anchored = rng.random() < profile.hyperlink_rate
        representative = (anchored and len(detected) > 1
                          and rng.random() < profile.representative_only)

        def anchor_for(lesion: TruthLesion) -> str:
            frame = rng.randint(1, image.frame_count)
            token = format_anchor(image.image_uid, frame, lesion.region,
                                  lesion.measurement)
            intent(code, Polarity.POSITIVE, LabelStrength.HYPERLINKED,
                   region=lesion.region, measurement=lesion.measurement)
            return token

        if representative:
            sentences.append(
                f"Multiple {plural} are noted {anchor_for(detected[0])}, "
                f"representative lesion marked.")
        elif anchored and len(detected) > 1:
            tokens = " ".join(anchor_for(l) for l in detected)
            sentences.append(f"Multiple {plural} are seen {tokens}.")
        elif anchored:
            sentences.append(
                f"{_article(singular)} {singular} is seen "
                f"{anchor_for(detected[0])} in the {rng.choice(LOCATIONS)}.")
        else:
            noun = singular if len(detected) == 1 else plural
            lead = _article(singular) if len(detected) == 1 else "Multiple"
            intent(code, Polarity.POSITIVE, LabelStrength.TEXT_ONLY)
            sentences.append(
                f"{lead} {noun} {'is' if len(detected) == 1 else 'are'} "
                f"seen in the {rng.choice(LOCATIONS)}.")

    for code in FindingCode:
        if code in by_code:
            continue
        if rng.random() < profile.negation_mention_rate:
            intent(code, Polarity.NEGATIVE, LabelStrength.TEXT_ONLY)
            sentences.append(
                rng.choice(NEGATION_TEMPLATES).format(phrase=LEXICON[code][0]))

    sentences.append("Findings were communicated to the referring service.")
    report = InteractiveReport(
        report_uid=report_uid,
        study_uid=study.study_uid,
        body=" ".join(sentences),
        authored_at=study.acquired_at + timedelta(seconds=1800),
        author_id=author_id,
    )
    return report, intents


# ---------------------------------------------------------------------------
# algorithm simulation


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def _jitter_box(region: Region, sigma: float, side: int,
                rng: random.Random) -> Region:
    if sigma <= 0:
        return region
    x0 = region.x0 + round(rng.gauss(0.0, sigma))
    y0 = region.y0 + round(rng.gauss(0.0, sigma))
    x1 = region.x1 + round(rng.gauss(0.0, sigma))
    y1 = region.y1 + round(rng.gauss(0.0, sigma))
    x0 = max(0, min(x0, side - 2))
    y0 = max(0, min(y0, side - 2))
    x1 = max(x0 + 1, min(x1, side))
    y1 = max(y0 + 1, min(y1, side))
    return box(x0, y0, x1, y1)


def simulate_algorithm(truth: list[TruthLesion], profile: AlgorithmProfile,
                       rng: random.Random, study_uid: str, side: int,
                       algorithm_id: str, version: str,
                       executed: ExecutionMode) -> AlgorithmOutput:
    detections: list[Detection] = []
    for lesion in truth:
        if rng.random() >= profile.sensitivity.get(lesion.finding.name, 0.0):
            continue
        region = _jitter_box(lesion.region, profile.localization_sigma, side, rng)
        detections.append(Detection(lesion.finding, region,
                                    round(rng.uniform(0.5, 0.99), 4)))
    for _ in range(_poisson(rng, profile.fp_per_study)):
        code = rng.choice(list(FindingCode))
        w = rng.randint(12, 100)
        h = rng.randint(12, 100)
        x0 = rng.randint(0, side - w - 1)
        y0 = rng.randint(0, side - h - 1)
        detections.append(Detection(code, box(x0, y0, x0 + w, y0 + h),
                                    round(rng.uniform(0.05, 0.9), 4)))
    return AlgorithmOutput(study_uid=study_uid, algorithm_id=algorithm_id,
                           version=version, executed=executed,
                           detections=detections)


# ---------------------------------------------------------------------------
# the driver


@dataclass(frozen=True)
class IngestSummary:
    site_id: str
    accepted: int
    duplicates: int
    rejected: int


@dataclass
class DelayRow:
    site_id: str
    algorithm_id: str
    version: str
    kind: str
    change_index: int | None
    alert_index: int | None
    delay: int | None
    false_alarms: int


@dataclass
class MetricsBundle:
    ledger: list  # LedgerRow, sorted
    alerts: list[Alert]
    recipients: dict[str, list[str]]  # alert_id -> recipient list
    delays: list[DelayRow]
    audit_verdict: str

    LEDGER_HEADER = "site_id,algorithm_id,version,tp,fp,fn,unverified,sensitivity,ppv"
    ALERTS_HEADER = ("alert_id,kind,site_id,algorithm_id,version,severity,"
                     "statistic,threshold,event_index,raised_at,recipients")
    DELAYS_HEADER = ("site_id,algorithm_id,version,kind,change_event_index,"
                     "alert_event_index,delay_events,detected,false_alarms")

    def write(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        opt = lambda v: "" if v is None else (
            format_float(v) if isinstance(v, float) else str(v))

        lines = [self.LEDGER_HEADER]
        for row in self.ledger:
            lines.append(",".join([
                row.site_id, row.algorithm_id, row.version, str(row.tp),
                str(row.fp), str(row.fn), str(row.unverified),
                opt(row.sensitivity), opt(row.ppv)]))
        write_lines(out / "ledger.csv", lines)

        lines = [self.ALERTS_HEADER]
        for a in self.alerts:
            lines.append(",".join([
                a.alert_id, a.kind.name, a.site_id, a.algorithm_id, a.version,
                a.severity.name, format_float(a.evidence.statistic),
                format_float(a.evidence.threshold),
                str(a.evidence.event_index),
                format_datetime(a.raised_at),
                ";".join(self.recipients.get(a.alert_id, []))]))
        write_lines(out / "alerts.csv", lines)

        lines = [self.DELAYS_HEADER]
        for d in self.delays:
            lines.append(",".join([
                d.site_id, d.algorithm_id, d.version, d.kind,
                opt(d.change_index), opt(d.alert_index), opt(d.delay),
                "yes" if d.delay is not None else "no",
                str(d.false_alarms)]))
        write_lines(out / "delays.csv", lines)

        write_lines(out / "alerts.log",
                    [canonical_encode(a) for a in self.alerts])
        write_lines(out / "audit.verdict", [self.audit_verdict])


@dataclass
class ScenarioResult:
    bundle: MetricsBundle
    hub: Hub
    registry: Registry
    monitoring: MonitoringEngine
    agreements: list[StudyAgreement]
    phi_tokens: list[str]
    notifications: list[Notification]
    assertion_failures: list[str]


def _master_secret(seed: int) -> bytes:
    if os.environ.get(SECRET_ENV_VAR):
        return secret_from_env()
    # synthetic data only; derived so unseeded runs still never share secrets
    return hashlib.sha256(f"labelloop-master:{seed}".encode()).digest()


def _site_secret(master: bytes, site_id: str) -> bytes:
    return hmac.new(master, site_id.encode("utf-8"), hashlib.sha256).digest()


@dataclass
class _Study:
    """What the stages of one study hand to each other. From the deidentify
    stage on, ``study`` and ``report`` hold only the de-identified records."""
    state: _SiteState
    sid: str
    index: int
    at: datetime | None = None
    study: StudyRecord | None = None
    truth: list[TruthLesion] | None = None
    report: InteractiveReport | None = None
    labels: list[ExtractedLabel] | None = None
    outputs: list[AlgorithmOutput] = field(default_factory=list)
    agreements: list[StudyAgreement] = field(default_factory=list)
    alerts: list[Alert] = field(default_factory=list)


class _Run:
    """The state a scenario run carries across studies; one method per stage.
    Stages look up their callees in this module's globals at call time, so
    patching ``labelloop.harness`` reaches every call."""

    STAGES = ("drift", "generate", "report", "deidentify", "extract",
              "submit", "execute", "feedback", "monitoring", "propagation")

    def __init__(self, cfg: ScenarioConfig, h: float):
        self.cfg = cfg
        self.registry = registry = Registry()
        self.hub = Hub()
        self.client = InProcessClient(self.hub)
        self.engine = MonitoringEngine(h)
        master = _master_secret(cfg.seed)

        for alg in cfg.algorithms:
            registry.register_version(ModelRecord(
                algorithm_id=alg.algorithm_id, version=alg.version,
                weights_digest=digest_text(f"{alg.algorithm_id}:{alg.version}:weights"),
                status=ModelStatus.CANDIDATE, registered_at=T0), at=T0)
            registry.set_status(alg.algorithm_id, alg.version,
                                ModelStatus.APPROVED, at=T0)
            registry.set_status(alg.algorithm_id, alg.version,
                                ModelStatus.DEPLOYED, at=T0)
            for site in cfg.sites:
                registry.assign_deployment(DeploymentAssignment(
                    site_id=site.site_id, algorithm_id=alg.algorithm_id,
                    version=alg.version, mode=alg.mode, active=True), at=T0)

        self.states = [_SiteState(cfg, site, i) for i, site in enumerate(cfg.sites)]
        self.rngs = rngs = {}
        for site in cfg.sites:
            sid = site.site_id
            rngs[sid, "case"] = random.Random(f"{cfg.seed}|case|{sid}")
            rngs[sid, "report"] = random.Random(f"{cfg.seed}|report|{sid}")
            for alg in cfg.algorithms:
                rngs[sid, "alg", alg.algorithm_id, alg.version] = random.Random(
                    f"{cfg.seed}|alg|{sid}|{alg.algorithm_id}|{alg.version}")

        self.policies = {s.site_id: default_policy(_site_secret(master, s.site_id))
                         for s in cfg.sites}
        self.phi_tokens: list[str] = []
        self.agreements: list[StudyAgreement] = []
        self.alerts: list[Alert] = []
        self.recipients: dict[str, list[str]] = {}
        self.notifications: list[Notification] = []
        self.change_points: dict[tuple[str, str, str], int] = {}
        self.external_changes: dict[str, int] = {}
        self.counts = {s.site_id: {"accepted": 0, "duplicates": 0, "rejected": 0}
                       for s in cfg.sites}

    def _send(self, site_id: str, kind: EnvelopeKind, record, at: datetime) -> None:
        # a site's at-least-once submission, as over TCP
        [ack] = submit_batch(self.client, [make_envelope(site_id, kind, record, at)])
        self.counts[site_id][_ACK_BUCKETS[ack.status]] += 1
        if ack.status is AckStatus.REJECTED:
            raise ScenarioError(f"hub rejected {kind.name}: {ack.reason}")

    def drift(self, s: _Study) -> None:
        for ev in self.cfg.drift_events:
            if ev.at_study != s.index:
                continue
            if ev.kind == DriftKind.PREVALENCE_SHIFT:
                s.state.case_mix[ev.code] = ev.new_probability
                self.external_changes.setdefault(
                    s.sid, self.engine.profile(s.sid).study_count)
                continue
            for (alg_id, ver), prof in list(s.state.alg_profiles.items()):
                if ev.algorithm_id is not None and ev.algorithm_id != alg_id:
                    continue
                if ev.kind == DriftKind.SENSITIVITY_DROP:
                    prof = replace(prof, sensitivity={
                        c: ev.new_sensitivity for c in prof.sensitivity})
                else:
                    prof = replace(prof, localization_sigma=ev.new_sigma)
                s.state.alg_profiles[(alg_id, ver)] = prof
                self.change_points.setdefault(
                    (s.sid, alg_id, ver),
                    self.engine.stream(s.sid, alg_id, ver).event_count)

    def generate(self, s: _Study) -> None:
        s.study, s.truth = generate_case(self.rngs[s.sid, "case"],
                                         s.state.case_mix, s.state)
        s.at = s.study.acquired_at + timedelta(seconds=_REPORT_DELAY_S)
        self.phi_tokens.extend(s.study.identity.phi_tokens)

    def report(self, s: _Study) -> None:
        serial = s.state.study_serial
        s.report, _intents = render_report(
            s.truth, s.state.site.radiologist, self.rngs[s.sid, "report"],
            s.study, report_uid=f"R-{s.sid}-{serial:06d}",
            author_id=f"rad-{s.sid}-{1 + serial % 3}")

    def deidentify(self, s: _Study) -> None:
        s.study, reports, _receipt = deidentify_study(
            s.study, [s.report], self.policies[s.sid], now=s.at)
        s.report = reports[0]

    def extract(self, s: _Study) -> None:
        s.labels, _diags = extract_labels(parse_body(s.report, s.study))

    def submit(self, s: _Study) -> None:
        labelset = LabelSet(report_uid=s.report.report_uid,
                            study_uid=s.study.study_uid, labels=s.labels)
        self._send(s.sid, EnvelopeKind.STUDY, s.study, s.at)
        self._send(s.sid, EnvelopeKind.REPORT, s.report, s.at)
        self._send(s.sid, EnvelopeKind.LABELSET, labelset, s.at)

    def execute(self, s: _Study) -> None:
        side = s.study.images[0].width
        for alg in self.cfg.algorithms:
            output = simulate_algorithm(
                s.truth, s.state.alg_profiles[(alg.algorithm_id, alg.version)],
                self.rngs[s.sid, "alg", alg.algorithm_id, alg.version],
                s.study.study_uid, side, alg.algorithm_id, alg.version,
                executed=ExecutionMode.CENTRAL)
            if alg.mode in (DeploymentMode.CENTRAL, DeploymentMode.BOTH):
                self._send(s.sid, EnvelopeKind.ALG_OUTPUT, output, s.at)
            if alg.mode in (DeploymentMode.LOCAL, DeploymentMode.BOTH):
                # the site ran the same weights on the same pixels; only the
                # execution tier differs on the wire
                local = replace(output, executed=ExecutionMode.LOCAL)
                self._send(s.sid, EnvelopeKind.ALG_OUTPUT, local, s.at)
                if alg.mode is DeploymentMode.LOCAL:
                    output = local
            s.outputs.append(output)

    def feedback(self, s: _Study) -> None:
        for output in s.outputs:
            match = match_detections(output, s.labels)
            s.agreements.append(score_study(match, s.sid))
        self.agreements.extend(s.agreements)

    def monitoring(self, s: _Study) -> None:
        for agreement in s.agreements:
            s.alerts += self.engine.observe_agreement(agreement, s.at)
        positive = {l.finding for l in s.labels if l.polarity is Polarity.POSITIVE}
        s.alerts += self.engine.observe_labels(s.sid, positive, s.at)

    def propagation(self, s: _Study) -> None:
        for alert in s.alerts:
            self.alerts.append(alert)
            notes = self.engine.propagate(alert, self.registry, s.at)
            self.notifications.extend(notes)
            self.recipients[alert.alert_id] = [n.recipient for n in notes]
            for note in notes:
                if note.recipient == "developer":
                    continue
                self._send(note.recipient, EnvelopeKind.ALERT_ACK,
                           AlertAck(alert.alert_id, note.recipient, s.at), s.at)

    def result(self, last: _Study) -> ScenarioResult:
        cfg, registry = self.cfg, self.registry
        end = last.at + timedelta(seconds=60)
        for sid, counts in self.counts.items():
            registry.append_audit(AuditAction.INGEST_SUMMARY, "hub",
                                  canonical_digest(IngestSummary(sid, **counts)),
                                  at=end)
        broken = registry.verify()
        verdict = "ok" if broken is None else f"broken at seq {broken}"
        ledger_rows = [row for _, row in
                       sorted(aggregate_metrics(self.agreements).items())]
        delays = _delay_rows(self.engine, self.alerts, self.change_points,
                             self.external_changes)
        bundle = MetricsBundle(ledger=ledger_rows, alerts=self.alerts,
                               recipients=self.recipients, delays=delays,
                               audit_verdict=verdict)
        failures = _check_assertions(cfg, bundle, self.change_points)
        return ScenarioResult(bundle=bundle, hub=self.hub, registry=registry,
                              monitoring=self.engine, agreements=self.agreements,
                              phi_tokens=sorted(set(self.phi_tokens)),
                              notifications=self.notifications,
                              assertion_failures=failures)


def run_scenario(cfg: ScenarioConfig, h: float = DEFAULT_CUSUM_H) -> ScenarioResult:
    """Run every stage for each study of each site; ``h`` is the CUSUM
    decision interval of every agreement stream."""
    problems = validate_scenario(cfg)
    if problems:
        raise ScenarioError("invalid scenario: " + "; ".join(problems))

    run = _Run(cfg, h)
    stages = [(name, getattr(run, name)) for name in _Run.STAGES]
    for index in range(cfg.n_studies):
        for state in run.states:
            study = _Study(state, state.site.site_id, index)
            for name, stage in stages:
                try:
                    stage(study)
                except ScenarioError:
                    raise  # a hub rejection names itself
                except Exception as err:
                    raise ScenarioError(f"site {study.sid} study {index} "
                                        f"stage {name}: {err}") from err
    return run.result(study)


def _delay_rows(engine, alerts, change_points, external_changes):
    # a row per stream, then a row per site profile under NO_ALGORITHM
    fires = {}
    for a in alerts:
        fires.setdefault((a.kind, a.site_id, a.algorithm_id, a.version),
                         []).append(a.evidence.event_index)
    groups = ([(AlertKind.INTERNAL_DRIFT, key, change_points.get(key))
               for key in sorted(engine.streams)]
              + [(AlertKind.EXTERNAL_DRIFT, (site, NO_ALGORITHM, NO_ALGORITHM),
                  external_changes.get(site)) for site in sorted(engine.profiles)])
    rows = []
    for kind, (site, alg, ver), change in groups:
        got = fires.get((kind, site, alg, ver), [])
        post = [] if change is None else [f for f in got if f > change]
        first = post[0] if post else None
        rows.append(DelayRow(site, alg, ver, kind.name, change, first,
                             None if first is None else first - change,
                             len(got) - len(post)))
    return rows


def _check_assertions(cfg: ScenarioConfig, bundle: MetricsBundle,
                      change_points) -> list[str]:
    failures = []
    a = cfg.assertions
    if a.expect_no_alerts and bundle.alerts:
        failures.append(f"expected no alerts, got {len(bundle.alerts)}")
    if a.alert_within_events is not None:
        budget = a.alert_within_events
        for key in sorted(change_points):
            row = next((d for d in bundle.delays
                        if (d.site_id, d.algorithm_id, d.version) == key), None)
            if row is None or row.delay is None:
                failures.append(
                    f"no alert after drift on {'/'.join(key)}")
            elif row.delay > budget:
                failures.append(
                    f"alert on {'/'.join(key)} took {row.delay} events, "
                    f"budget {budget}")
    return failures
