"""Streaming drift surveillance over agreement events.

Internal drift. Every study agreement decomposes into Bernoulli events:
each matched pair contributes a 1, each false positive and false negative a 0,
and unverified detections contribute nothing (an unmentioned finding is not
evidence either way). A per-(site, algorithm, version) stream calibrates its
own baseline rate p0 from its first ``n0`` events, then runs a one-sided
Bernoulli CUSUM on the remainder:

    s_plus' = max(0, s_plus + (p0 - x) - k)      fires when s_plus' > h

and resets to zero on every fire, with p0 floored at ``P0_FLOOR`` = 0.01. The
slack k = ``CUSUM_K`` = 0.05 absorbs in-control jitter. The decision interval
h trades detection delay against false alarms; the configured default
h = 10.0 was set by the replay harness: a 0.9 -> 0.6 agreement drop is caught
within ~60 events while in-control streams of 10,000 events (p0 estimated, 20
seeds) average 0.05 false alarms (at h = 2.0 the in-control average run
length is about 117 events, which is unusable, and h = 8.0 still averages
0.45 against estimation noise).

Alert severity grades on the agreement rate observed over the excursion that
fired (the events since s_plus last left zero): CRITICAL when that rate has
fallen to p0 - ``CRITICAL_DROP`` (0.2) or below, WARN otherwise. The
trailing 200-event window is kept as context in the evidence but is
deliberately not the severity basis, because detection is far faster than
the window drains.

External drift. Per site, each study contributes its set of positively
labeled codes to a histogram (one no-finding bin for studies without any).
After a 1,000-study calibration, every tumbling 200-study window is compared
to the calibration by Pearson chi-square over the six code bins plus
no-finding, pooling bins with expected count below 5, firing above
``CHI2_THRESHOLD`` = 24.32. The calibration is five windows long on purpose:
expected counts are estimated, not known, which inflates the one-sample
statistic by roughly (1 + window/calibration); at 200/200 that factor is 2
and the nominal 0.001 tail becomes ~6% per window, while at 200/1000 the
measured null rate is ~0.15% per window with the 24.32 threshold intact.

Alerts are value objects with the triggering statistic and threshold embedded,
and their ids are pure functions of the evidence, so replaying a stream from
its event log regenerates byte-identical alerts. The four named constants
are fixed; ``MonitorConfig`` holds h and the calibration and window lengths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from typing import Iterable

from .canon import canonical_digest, digest_text
from .feedback import InputError, StudyAgreement
from .model import FindingCode
from .registry import AuditAction

__all__ = [
    "AlertKind", "AlertSeverity", "CusumState", "MonitorConfig", "Alert",
    "AlertEvidence", "Notification", "AgreementStream", "PrevalenceProfile",
    "MonitoringEngine", "cusum_step", "prevalence_shift_check",
    "propagate_alert", "replay_events", "events_of",
]

NO_FINDING_BIN = "NO_FINDING"
DEVELOPER_CHANNEL = "developer"
NO_ALGORITHM = "-"
CUSUM_K = 0.05
P0_FLOOR = 0.01
CRITICAL_DROP = 0.2
CHI2_THRESHOLD = 24.32


class AlertKind(Enum):
    INTERNAL_DRIFT = "INTERNAL_DRIFT"
    EXTERNAL_DRIFT = "EXTERNAL_DRIFT"


class AlertSeverity(Enum):
    WARN = "WARN"
    CRITICAL = "CRITICAL"


@dataclass(frozen=True)
class MonitorConfig:
    h: float = 10.0  # retuned from 2.0; see module docstring
    n0: int = 500
    window: int = 200
    prevalence_calibration: int = 1000  # see module docstring
    prevalence_window: int = 200


@dataclass(frozen=True)
class CusumState:
    s_plus: float
    k: float
    h: float


def cusum_step(state: CusumState, x: int, p0: float) -> tuple[CusumState, bool]:
    """One detector update. x is the Bernoulli agreement outcome {0,1}."""
    if x not in (0, 1):
        raise ValueError(f"event must be 0 or 1, got {x!r}")
    s = max(0.0, state.s_plus + (p0 - x) - state.k)
    fired = s > state.h
    return replace(state, s_plus=0.0 if fired else s), fired


@dataclass(frozen=True)
class AlertEvidence:
    statistic: float
    threshold: float
    event_index: int
    p0: float | None = None
    observed_rate: float | None = None  # over the excursion that fired
    window_rate: float | None = None  # trailing ring, context only


@dataclass(frozen=True)
class Alert:
    alert_id: str
    kind: AlertKind
    site_id: str
    algorithm_id: str
    version: str
    severity: AlertSeverity
    evidence: AlertEvidence
    raised_at: datetime


@dataclass(frozen=True)
class Notification:
    alert_id: str
    recipient: str
    delivered_at: datetime


def _alert_id(kind: AlertKind, site: str, alg: str, ver: str, event_index: int) -> str:
    return digest_text(f"{kind.name}|{site}|{alg}|{ver}|{event_index}")[:16]


class AgreementStream:
    """Per-(site, algorithm, version) agreement surveillance."""

    def __init__(self, site_id: str, algorithm_id: str, version: str,
                 config: MonitorConfig = MonitorConfig()):
        self.key = (site_id, algorithm_id, version)
        self.config = config
        self.event_count = 0
        self._calibration_ones = 0
        self.p0: float | None = None
        self.cusum = CusumState(0.0, CUSUM_K, config.h)
        self.window = deque(maxlen=config.window)
        self._excursion_ones = 0
        self._excursion_len = 0

    def observe_event(self, x: int, raised_at: datetime) -> Alert | None:
        cfg = self.config
        self.event_count += 1
        self.window.append(x)
        if self.p0 is None:
            self._calibration_ones += x
            if self.event_count >= cfg.n0:
                self.p0 = max(self._calibration_ones / cfg.n0, P0_FLOOR)
            return None
        if self.cusum.s_plus == 0.0:
            self._excursion_ones = 0
            self._excursion_len = 0
        self._excursion_ones += x
        self._excursion_len += 1
        before_reset = self.cusum.s_plus + (self.p0 - x) - CUSUM_K
        state, fired = cusum_step(self.cusum, x, self.p0)
        self.cusum = state
        if not fired:
            return None
        excursion_rate = self._excursion_ones / self._excursion_len
        window_rate = sum(self.window) / len(self.window)
        severity = (AlertSeverity.CRITICAL
                    if excursion_rate <= self.p0 - CRITICAL_DROP
                    else AlertSeverity.WARN)
        site, alg, ver = self.key
        return Alert(
            alert_id=_alert_id(AlertKind.INTERNAL_DRIFT, site, alg, ver,
                               self.event_count),
            kind=AlertKind.INTERNAL_DRIFT,
            site_id=site, algorithm_id=alg, version=ver,
            severity=severity,
            evidence=AlertEvidence(
                statistic=before_reset, threshold=cfg.h,
                event_index=self.event_count, p0=self.p0,
                observed_rate=excursion_rate, window_rate=window_rate),
            raised_at=raised_at,
        )

    def observe_study(self, agreement: StudyAgreement,
                      raised_at: datetime) -> list[Alert]:
        if (agreement.site_id, agreement.algorithm_id, agreement.version) != self.key:
            raise InputError(
                f"agreement keyed {agreement.site_id}/{agreement.algorithm_id}"
                f"/{agreement.version} fed to stream {'/'.join(self.key)}")
        alerts = []
        for x in events_of(agreement):
            alert = self.observe_event(x, raised_at)
            if alert is not None:
                alerts.append(alert)
        return alerts


def events_of(agreement: StudyAgreement) -> list[int]:
    """Bernoulli decomposition: pair -> 1, fp -> 0, fn -> 0; unverified gone."""
    return [1] * agreement.tp + [0] * (agreement.fp + agreement.fn)


class PrevalenceProfile:
    """Per-site case-mix surveillance over positively labeled codes."""

    def __init__(self, site_id: str, config: MonitorConfig = MonitorConfig()):
        self.site_id = site_id
        self.config = config
        self.study_count = 0
        self.calibration: dict[str, int] = {}
        self.window_counts: dict[str, int] = {}
        self.window_studies = 0
        self.checks_run = 0

    def _bins_for(self, codes: set[FindingCode]) -> list[str]:
        return [c.name for c in codes] if codes else [NO_FINDING_BIN]

    def observe(self, codes: set[FindingCode], raised_at: datetime) -> Alert | None:
        cfg = self.config
        self.study_count += 1
        if self.study_count <= cfg.prevalence_calibration:
            for b in self._bins_for(codes):
                self.calibration[b] = self.calibration.get(b, 0) + 1
            return None
        for b in self._bins_for(codes):
            self.window_counts[b] = self.window_counts.get(b, 0) + 1
        self.window_studies += 1
        if self.window_studies < cfg.prevalence_window:
            return None
        alert = prevalence_shift_check(self, raised_at)
        self.window_counts = {}
        self.window_studies = 0
        self.checks_run += 1
        return alert


def _chi_square(observed: dict[str, int], calibration: dict[str, int]) -> float:
    bins = sorted(set(FindingCode.__members__) | {NO_FINDING_BIN})
    calib_total = sum(calibration.values())
    window_total = sum(observed.values())
    if calib_total == 0 or window_total == 0:
        return 0.0
    pooled_obs = 0.0
    pooled_exp = 0.0
    stat = 0.0
    for b in bins:
        o = observed.get(b, 0)
        e = calibration.get(b, 0) / calib_total * window_total
        if e < 5.0:
            pooled_obs += o
            pooled_exp += e
        else:
            stat += (o - e) ** 2 / e
    if pooled_exp > 0:
        stat += (pooled_obs - pooled_exp) ** 2 / pooled_exp
    return stat


def prevalence_shift_check(profile: PrevalenceProfile,
                           raised_at: datetime) -> Alert | None:
    stat = _chi_square(profile.window_counts, profile.calibration)
    if stat <= CHI2_THRESHOLD:
        return None
    severity = (AlertSeverity.CRITICAL if stat > 2 * CHI2_THRESHOLD
                else AlertSeverity.WARN)
    return Alert(
        alert_id=_alert_id(AlertKind.EXTERNAL_DRIFT, profile.site_id,
                           NO_ALGORITHM, NO_ALGORITHM, profile.study_count),
        kind=AlertKind.EXTERNAL_DRIFT,
        site_id=profile.site_id,
        algorithm_id=NO_ALGORITHM,
        version=NO_ALGORITHM,
        severity=severity,
        evidence=AlertEvidence(statistic=stat, threshold=CHI2_THRESHOLD,
                               event_index=profile.study_count),
        raised_at=raised_at,
    )


def propagate_alert(alert: Alert, registry,
                    delivered_at: datetime) -> list[Notification]:
    """Fan an alert out to every site actively running the implicated version
    plus the developer channel; ``MonitoringEngine.propagate`` makes this
    idempotent per alert_id."""
    if alert.algorithm_id == NO_ALGORITHM:
        sites = {alert.site_id}  # data drift implicates no algorithm
    else:
        sites = registry.list_sites_running(alert.algorithm_id, alert.version)
    recipients = sorted(sites) + [DEVELOPER_CHANNEL]
    registry.append_audit(AuditAction.ALERT, "monitoring", canonical_digest(alert),
                          at=delivered_at)
    return [Notification(alert.alert_id, r, delivered_at) for r in recipients]


class MonitoringEngine:
    """Owns every stream and profile plus the propagation dedup set."""

    def __init__(self, config: MonitorConfig = MonitorConfig()):
        self.config = config
        self.streams: dict[tuple[str, str, str], AgreementStream] = {}
        self.profiles: dict[str, PrevalenceProfile] = {}
        self.propagated: set[str] = set()

    def stream(self, site_id: str, algorithm_id: str, version: str) -> AgreementStream:
        key = (site_id, algorithm_id, version)
        if key not in self.streams:
            self.streams[key] = AgreementStream(*key, config=self.config)
        return self.streams[key]

    def profile(self, site_id: str) -> PrevalenceProfile:
        if site_id not in self.profiles:
            self.profiles[site_id] = PrevalenceProfile(site_id, self.config)
        return self.profiles[site_id]

    def observe_agreement(self, agreement: StudyAgreement,
                          raised_at: datetime) -> list[Alert]:
        stream = self.stream(agreement.site_id, agreement.algorithm_id,
                             agreement.version)
        return stream.observe_study(agreement, raised_at)

    def observe_labels(self, site_id: str, codes: set[FindingCode],
                       raised_at: datetime) -> list[Alert]:
        alert = self.profile(site_id).observe(codes, raised_at)
        return [alert] if alert is not None else []

    def propagate(self, alert: Alert, registry,
                  delivered_at: datetime) -> list[Notification]:
        """Propagate each alert_id once; a repeat returns no notifications."""
        if alert.alert_id in self.propagated:
            return []
        self.propagated.add(alert.alert_id)
        return propagate_alert(alert, registry, delivered_at)


def replay_events(events: Iterable[int],
                  config: MonitorConfig = MonitorConfig()) -> list[int]:
    """Drive a raw 0/1 stream through the real calibration + CUSUM path and
    return the 1-based event indices at which the detector fired. The loop
    never calls it: it is the h tuning harness behind criterion 5 and
    the numbers in this module's docstring."""
    stream = AgreementStream("replay", "alg", "1", config)
    at = datetime(2024, 1, 1, tzinfo=timezone.utc)
    fires = []
    for x in events:
        alert = stream.observe_event(x, at)
        if alert is not None:
            fires.append(stream.event_count)
    return fires
