"""Detection-to-label matching and agreement scoring.

Candidate pairs are per finding code. A detection box and a hyperlinked BOX
label are eligible when IoU >= ``DEFAULT_TAU`` = 0.3 (pointer-grade anchors
do not localize tightly). A POINT label is eligible when it falls inside the
detection box and scores 1.0. Selection is greedy by descending score with
ties broken by lower detection index, then lower label index. TEXT_ONLY
positive labels then soak up any same-code detection still unpaired, at code
level, with no IoU recorded.

Scoring buckets per study:
    tp          matched pairs
    fn          unpaired POSITIVE labels
    fp          unpaired detections whose code the report mentions somewhere
    unverified  unpaired detections whose code is never mentioned at all

The unverified bucket exists because an unmentioned finding is not evidence of
absence; those detections are withheld from both fp and the monitoring stream.
Representative-lesion demotion is always on: extra same-code detections in a
study that already has a matched pair of that code also land in unverified
rather than fp, since readers often mark only one lesion of several.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .model import FindingCode, Region, RegionKind, region_iou
from .reports import ExtractedLabel, LabelStrength, Polarity

__all__ = [
    "ExecutionMode", "Detection", "AlgorithmOutput", "MatchPair",
    "MatchResult", "StudyAgreement", "LedgerRow",
    "InputError", "DEFAULT_TAU", "match_detections", "score_study",
    "aggregate_metrics", "greedy_select",
]

DEFAULT_TAU = 0.3


class ExecutionMode(Enum):
    LOCAL = "LOCAL"
    CENTRAL = "CENTRAL"


class InputError(ValueError):
    pass


@dataclass(frozen=True)
class Detection:
    finding: FindingCode
    region: Region
    confidence: float


@dataclass(frozen=True)
class AlgorithmOutput:
    study_uid: str
    algorithm_id: str
    version: str
    executed: ExecutionMode
    detections: list[Detection] = field(default_factory=list)


@dataclass(frozen=True)
class MatchPair:
    detection_index: int
    label_index: int
    iou: float | None  # None for code-level (TEXT_ONLY) matches


@dataclass(frozen=True)
class MatchResult:
    output: AlgorithmOutput
    labels: list[ExtractedLabel]
    pairs: list[MatchPair]


@dataclass(frozen=True)
class StudyAgreement:
    study_uid: str
    algorithm_id: str
    version: str
    site_id: str
    tp: int
    fp: int
    fn: int
    unverified: int


@dataclass(frozen=True)
class LedgerRow:
    site_id: str
    algorithm_id: str
    version: str
    tp: int
    fp: int
    fn: int
    unverified: int
    sensitivity: float | None
    ppv: float | None


def _pair_score(det: Detection, label: ExtractedLabel) -> float | None:
    """Eligibility score for a geometric pair, or None when ineligible."""
    if label.finding is not det.finding:
        return None
    r = label.region
    if r is None:
        return None
    if r.kind is RegionKind.BOX:
        v = region_iou(det.region, r)
        return v if v >= DEFAULT_TAU else None
    if det.region.contains_point(r.x0, r.y0):
        return 1.0
    return None


def greedy_select(scored: list[tuple[int, int, float]]) -> list[tuple[int, int, float]]:
    """Greedy one-to-one selection: descending score, ties by lower detection
    index then lower label index. Input tuples are (det_idx, label_idx, score)."""
    chosen = []
    used_d: set[int] = set()
    used_l: set[int] = set()
    for d, l, s in sorted(scored, key=lambda t: (-t[2], t[0], t[1])):
        if d not in used_d and l not in used_l:
            chosen.append((d, l, s))
            used_d.add(d)
            used_l.add(l)
    return chosen


def match_detections(out: AlgorithmOutput,
                     labels: list[ExtractedLabel]) -> MatchResult:
    for lab in labels:
        if lab.study_uid != out.study_uid:
            raise InputError(
                f"label for study {lab.study_uid!r} given with output for {out.study_uid!r}")

    scored: list[tuple[int, int, float]] = []
    for li, lab in enumerate(labels):
        if lab.polarity is not Polarity.POSITIVE or lab.strength is not LabelStrength.HYPERLINKED:
            continue
        for di, det in enumerate(out.detections):
            s = _pair_score(det, lab)
            if s is not None:
                scored.append((di, li, s))

    pairs = [MatchPair(d, l, s) for d, l, s in greedy_select(scored)]
    used_d = {p.detection_index for p in pairs}
    used_l = {p.label_index for p in pairs}

    # code-level fallback: TEXT_ONLY positives take any unpaired same-code detection
    for li, lab in enumerate(labels):
        if li in used_l or lab.polarity is not Polarity.POSITIVE:
            continue
        if lab.strength is not LabelStrength.TEXT_ONLY:
            continue
        for di, det in enumerate(out.detections):
            if di not in used_d and det.finding is lab.finding:
                pairs.append(MatchPair(di, li, None))
                used_d.add(di)
                used_l.add(li)
                break

    return MatchResult(out, list(labels), pairs)


def score_study(match: MatchResult, site_id: str) -> StudyAgreement:
    out, labels = match.output, match.labels
    used_d = {p.detection_index for p in match.pairs}
    used_l = {p.label_index for p in match.pairs}
    mentioned = {lab.finding for lab in labels}
    matched_codes = {out.detections[p.detection_index].finding for p in match.pairs}

    fn = sum(1 for i, lab in enumerate(labels)
             if i not in used_l and lab.polarity is Polarity.POSITIVE)
    fp = unverified = 0
    for i, det in enumerate(out.detections):
        if i in used_d:
            continue
        if det.finding not in mentioned or det.finding in matched_codes:
            unverified += 1
        else:
            fp += 1
    return StudyAgreement(
        study_uid=out.study_uid,
        algorithm_id=out.algorithm_id,
        version=out.version,
        site_id=site_id,
        tp=len(match.pairs),
        fp=fp,
        fn=fn,
        unverified=unverified,
    )


def aggregate_metrics(agreements) -> dict[tuple[str, str, str], LedgerRow]:
    """Pure fold into per-(site, algorithm, version) rows. Ratios with a zero
    denominator are absent, never 0 or 1."""
    sums: dict[tuple[str, str, str], list[int]] = {}
    for a in agreements:
        key = (a.site_id, a.algorithm_id, a.version)
        row = sums.setdefault(key, [0, 0, 0, 0])
        row[0] += a.tp
        row[1] += a.fp
        row[2] += a.fn
        row[3] += a.unverified
    ledger = {}
    for key in sorted(sums):
        tp, fp, fn, unverified = sums[key]
        ledger[key] = LedgerRow(
            site_id=key[0], algorithm_id=key[1], version=key[2],
            tp=tp, fp=fp, fn=fn, unverified=unverified,
            sensitivity=tp / (tp + fn) if tp + fn else None,
            ppv=tp / (tp + fp) if tp + fp else None,
        )
    return ledger
