"""Streaming drift surveillance over agreement events.

Internal drift. Every study agreement decomposes into Bernoulli events:
each matched pair contributes a 1, each false positive and false negative a 0,
and unverified detections contribute nothing (an unmentioned finding is not
evidence either way). A per-(site, algorithm, version) stream calibrates its
own baseline rate p0 from its first ``N0`` = 500 events, then runs a
one-sided Bernoulli CUSUM on the remainder:

    s_plus' = max(0, s_plus + (p0 - x) - k)      fires when s_plus' > h

and resets to zero on every fire, with p0 floored at ``P0_FLOOR`` = 0.01. The
slack k = ``CUSUM_K`` = 0.05 absorbs in-control jitter. The decision interval
h is the detector's one setting (``labelloop simulate --cusum-h`` or
``LABELLOOP_CUSUM_H``, finite and > 0); it trades detection delay against
false alarms. The default h = ``DEFAULT_CUSUM_H`` = 10.0 was set by
replaying raw 0/1 streams through an ``AgreementStream`` (``replay_events``
in ``tests/support.py``): a 0.9 -> 0.6 agreement drop is caught within ~60
events while in-control streams of 10,000 events (p0 estimated, 20 seeds)
average 0.05 false alarms (at h = 2.0 the in-control average run length is
about 117 events, which is unusable, and h = 8.0 still averages 0.45 against
estimation noise).

Alert severity grades on the agreement rate observed over the excursion that
fired (the events since s_plus last left zero): CRITICAL when that rate has
fallen to p0 - ``CRITICAL_DROP`` (0.2) or below, WARN otherwise. The
trailing ``AGREEMENT_WINDOW`` = 200-event window is kept as context in the
evidence but is deliberately not the severity basis, because detection is
far faster than the window drains.

External drift. Per site, each study contributes its set of positively
labeled codes to a histogram (one no-finding bin for studies without any).
After a ``PREVALENCE_CALIBRATION`` = 1,000-study calibration, every tumbling
``PREVALENCE_WINDOW`` = 200-study window is compared to the calibration by
Pearson chi-square over the six code bins plus no-finding, pooling bins with
expected count below 5, firing above ``CHI2_THRESHOLD`` = 24.32. The
calibration is five windows long on purpose: expected counts are estimated,
not known, which inflates the one-sample statistic by roughly
(1 + window/calibration); at 200/200 that factor is 2 and the nominal 0.001
tail becomes ~6% per window, while at 200/1000 the measured null rate is
~0.15% per window with the 24.32 threshold intact.

Alerts are value objects with the triggering statistic and threshold embedded,
and their ids are pure functions of the evidence, so replaying a stream from
its event log regenerates byte-identical alerts. Every named constant is
fixed; h is passed as a plain float from the CLI through ``run_scenario``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from datetime import datetime
from enum import Enum

from .canon import canonical_digest, digest_text
from .feedback import StudyAgreement
from .model import FindingCode
from .registry import AuditAction

__all__ = [
    "AlertKind", "AlertSeverity", "Alert", "AlertEvidence", "Notification",
    "AgreementStream", "PrevalenceProfile", "MonitoringEngine", "cusum_step",
    "events_of",
]

NO_FINDING_BIN = "NO_FINDING"
DEVELOPER_CHANNEL = "developer"
NO_ALGORITHM = "-"
DEFAULT_CUSUM_H = 10.0  # retuned from 2.0; see module docstring
CUSUM_K = 0.05
N0 = 500
AGREEMENT_WINDOW = 200
PREVALENCE_CALIBRATION = 1000  # see module docstring
PREVALENCE_WINDOW = 200
P0_FLOOR = 0.01
CRITICAL_DROP = 0.2
CHI2_THRESHOLD = 24.32


class AlertKind(Enum):
    INTERNAL_DRIFT = "INTERNAL_DRIFT"
    EXTERNAL_DRIFT = "EXTERNAL_DRIFT"


class AlertSeverity(Enum):
    WARN = "WARN"
    CRITICAL = "CRITICAL"


def cusum_step(s_plus: float, x: int, p0: float,
               h: float) -> tuple[float, float | None]:
    """One detector update. x is the Bernoulli agreement outcome {0,1}.
    Returns the next s_plus and, when the update fires, the statistic that
    crossed h; a fire restarts s_plus from zero."""
    if x not in (0, 1):
        raise ValueError(f"event must be 0 or 1, got {x!r}")
    s = max(0.0, s_plus + (p0 - x) - CUSUM_K)
    if s > h:
        return 0.0, s
    return s, None


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
                 h: float = DEFAULT_CUSUM_H):
        self.key = (site_id, algorithm_id, version)
        self.h = h
        self.event_count = 0
        self._calibration_ones = 0
        self.p0: float | None = None
        self.s_plus = 0.0
        self.window = deque(maxlen=AGREEMENT_WINDOW)
        self._excursion_ones = 0
        self._excursion_len = 0

    def observe_event(self, x: int, raised_at: datetime) -> Alert | None:
        self.event_count += 1
        self.window.append(x)
        if self.p0 is None:
            self._calibration_ones += x
            if self.event_count >= N0:
                self.p0 = max(self._calibration_ones / N0, P0_FLOOR)
            return None
        if self.s_plus == 0.0:
            self._excursion_ones = 0
            self._excursion_len = 0
        self._excursion_ones += x
        self._excursion_len += 1
        self.s_plus, statistic = cusum_step(self.s_plus, x, self.p0, self.h)
        if statistic is None:
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
                statistic=statistic, threshold=self.h,
                event_index=self.event_count, p0=self.p0,
                observed_rate=excursion_rate, window_rate=window_rate),
            raised_at=raised_at,
        )


def events_of(agreement: StudyAgreement) -> list[int]:
    """Bernoulli decomposition: pair -> 1, fp -> 0, fn -> 0; unverified gone."""
    return [1] * agreement.tp + [0] * (agreement.fp + agreement.fn)


class PrevalenceProfile:
    """Per-site case-mix surveillance over positively labeled codes."""

    def __init__(self, site_id: str):
        self.site_id = site_id
        self.study_count = 0
        self.calibration: dict[str, int] = {}
        self.window_counts: dict[str, int] = {}
        self.window_studies = 0

    def observe(self, codes: set[FindingCode], raised_at: datetime) -> Alert | None:
        self.study_count += 1
        bins = [c.name for c in codes] if codes else [NO_FINDING_BIN]
        if self.study_count <= PREVALENCE_CALIBRATION:
            for b in bins:
                self.calibration[b] = self.calibration.get(b, 0) + 1
            return None
        for b in bins:
            self.window_counts[b] = self.window_counts.get(b, 0) + 1
        self.window_studies += 1
        if self.window_studies < PREVALENCE_WINDOW:
            return None
        stat = _chi_square(self.window_counts, self.calibration)
        self.window_counts = {}
        self.window_studies = 0
        if stat <= CHI2_THRESHOLD:
            return None
        severity = (AlertSeverity.CRITICAL if stat > 2 * CHI2_THRESHOLD
                    else AlertSeverity.WARN)
        return Alert(
            alert_id=_alert_id(AlertKind.EXTERNAL_DRIFT, self.site_id,
                               NO_ALGORITHM, NO_ALGORITHM, self.study_count),
            kind=AlertKind.EXTERNAL_DRIFT,
            site_id=self.site_id,
            algorithm_id=NO_ALGORITHM,
            version=NO_ALGORITHM,
            severity=severity,
            evidence=AlertEvidence(statistic=stat, threshold=CHI2_THRESHOLD,
                                   event_index=self.study_count),
            raised_at=raised_at,
        )


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


class MonitoringEngine:
    """Owns every stream and profile plus the propagation dedup set."""

    def __init__(self, h: float = DEFAULT_CUSUM_H):
        self.h = h
        self.streams: dict[tuple[str, str, str], AgreementStream] = {}
        self.profiles: dict[str, PrevalenceProfile] = {}
        self.propagated: set[str] = set()

    def stream(self, site_id: str, algorithm_id: str, version: str) -> AgreementStream:
        key = (site_id, algorithm_id, version)
        if key not in self.streams:
            self.streams[key] = AgreementStream(*key, h=self.h)
        return self.streams[key]

    def profile(self, site_id: str) -> PrevalenceProfile:
        if site_id not in self.profiles:
            self.profiles[site_id] = PrevalenceProfile(site_id)
        return self.profiles[site_id]

    def observe_agreement(self, agreement: StudyAgreement,
                          raised_at: datetime) -> list[Alert]:
        stream = self.stream(agreement.site_id, agreement.algorithm_id,
                             agreement.version)
        alerts = []
        for x in events_of(agreement):
            alert = stream.observe_event(x, raised_at)
            if alert is not None:
                alerts.append(alert)
        return alerts

    def observe_labels(self, site_id: str, codes: set[FindingCode],
                       raised_at: datetime) -> list[Alert]:
        alert = self.profile(site_id).observe(codes, raised_at)
        return [alert] if alert is not None else []

    def propagate(self, alert: Alert, registry,
                  delivered_at: datetime) -> list[Notification]:
        """Fan an alert out to every site actively running the implicated
        version plus the developer channel, once per alert_id; a repeat
        returns no notifications and writes no audit entry."""
        if alert.alert_id in self.propagated:
            return []
        self.propagated.add(alert.alert_id)
        if alert.algorithm_id == NO_ALGORITHM:
            sites = {alert.site_id}  # data drift implicates no algorithm
        else:
            sites = registry.list_sites_running(alert.algorithm_id, alert.version)
        recipients = sorted(sites) + [DEVELOPER_CHANNEL]
        registry.append_audit(AuditAction.ALERT, "monitoring", canonical_digest(alert),
                              at=delivered_at)
        return [Notification(alert.alert_id, r, delivered_at) for r in recipients]

