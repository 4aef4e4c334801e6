"""Interactive report parsing: anchors, sentences, mentions, labels.

A report body is plain text with inline anchor tokens of the form

    {{link|image=IMG2|frame=34|region=120,88,150,118|meas=5.2mm}}

``region`` may alternatively be ``point=<x>,<y>`` and the ``meas`` part is
optional. Anchors are atomic: sentence segmentation and phrase matching never
look inside them. Labels come out one per (sentence, finding code), negated
when a cue precedes the mention in its sentence, HYPERLINKED when an anchor is
bound to the mention (one label per anchor), TEXT_ONLY otherwise. A code that
is never mentioned yields nothing at all; downstream treats that silence as
unknown rather than as a negative.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum

from .canon import format_float
from .model import (
    FindingCode, LEXICON, Measurement, PHRASE_TO_CODE, Region, RegionKind,
    StudyRecord, Unit, box, point,
)

__all__ = [
    "Polarity", "LabelStrength", "DiagnosticKind", "InteractiveReport",
    "HyperlinkAnchor", "ExtractedLabel", "LabelSet", "Diagnostic",
    "ParseError", "ReferentialError", "parse_body", "bind_anchors",
    "extract_labels", "format_anchor", "NEGATION_CUES",
]


class Polarity(Enum):
    POSITIVE = "POSITIVE"
    NEGATIVE = "NEGATIVE"


class LabelStrength(Enum):
    HYPERLINKED = "HYPERLINKED"
    TEXT_ONLY = "TEXT_ONLY"


class DiagnosticKind(Enum):
    UNBOUND_ANCHOR = "UNBOUND_ANCHOR"
    CONFLICTING_POLARITY = "CONFLICTING_POLARITY"


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class ReferentialError(ValueError):
    pass


NEGATION_CUES = ("no", "without", "negative for", "resolved", "absent")

_ANCHOR_RE = re.compile(
    r"\{\{link"
    r"\|image=(?P<image>[A-Za-z0-9._:-]+)"
    r"\|frame=(?P<frame>[0-9]+)"
    r"\|(?:region=(?P<bx0>[0-9]+),(?P<by0>[0-9]+),(?P<bx1>[0-9]+),(?P<by1>[0-9]+)"
    r"|point=(?P<px>[0-9]+),(?P<py>[0-9]+))"
    r"(?:\|meas=(?P<meas>[0-9]+(?:\.[0-9]+)?)(?P<unit>mm|cm))?"
    r"\}\}"
)
_SENTENCE_END_RE = re.compile(r"[.!?](?=\s|$)")
_PHRASES_LONGEST_FIRST = sorted(
    (p for ps in LEXICON.values() for p in ps), key=len, reverse=True)
_MENTION_RE = re.compile(
    r"\b(?:" + "|".join(re.escape(p) for p in _PHRASES_LONGEST_FIRST) + r")\b",
    re.IGNORECASE)
_CUE_RE = re.compile(
    r"\b(?:" + "|".join(re.escape(c) for c in NEGATION_CUES) + r")\b",
    re.IGNORECASE)


@dataclass(frozen=True)
class InteractiveReport:
    report_uid: str
    study_uid: str
    body: str
    authored_at: datetime
    author_id: str


@dataclass(frozen=True)
class HyperlinkAnchor:
    image_uid: str
    frame: int
    region: Region
    measurement: Measurement | None
    char_span: tuple[int, int]


@dataclass(frozen=True)
class ExtractedLabel:
    report_uid: str
    study_uid: str
    finding: FindingCode
    polarity: Polarity
    strength: LabelStrength
    sentence_index: int
    region: Region | None = None
    image_uid: str | None = None
    measurement: Measurement | None = None


@dataclass(frozen=True)
class LabelSet:
    """The wire record carrying one report's extracted labels."""
    report_uid: str
    study_uid: str
    labels: list[ExtractedLabel] = field(default_factory=list)


@dataclass(frozen=True)
class Diagnostic:
    kind: DiagnosticKind
    sentence_index: int
    detail: str


@dataclass(frozen=True)
class _Sentence:
    index: int
    start: int
    end: int


@dataclass(frozen=True)
class _Mention:
    code: FindingCode
    sentence: int
    start: int
    end: int
    negated: bool


@dataclass(frozen=True)
class ParsedReport:
    report: InteractiveReport
    anchors: list[HyperlinkAnchor]
    sentences: list[_Sentence]
    mentions: list[_Mention]


def format_anchor(image_uid: str, frame: int, region: Region,
                  measurement: Measurement | None = None) -> str:
    if region.kind is RegionKind.BOX:
        loc = f"region={region.x0},{region.y0},{region.x1},{region.y1}"
    else:
        loc = f"point={region.x0},{region.y0}"
    meas = ""
    if measurement is not None:
        meas = f"|meas={format_float(measurement.value)}{measurement.unit.name}"
    return f"{{{{link|image={image_uid}|frame={frame}|{loc}{meas}}}}}"


def _scan_anchors(body: str) -> list[HyperlinkAnchor]:
    anchors = []
    pos = 0
    while True:
        start = body.find("{{", pos)
        if start < 0:
            break
        m = _ANCHOR_RE.match(body, start)
        if m is None:
            raise ParseError("malformed anchor", start)
        try:
            frame = int(m.group("frame"))
            if m.group("bx0") is not None:
                region = box(int(m.group("bx0")), int(m.group("by0")),
                             int(m.group("bx1")), int(m.group("by1")))
            else:
                region = point(int(m.group("px")), int(m.group("py")))
            meas = None
            if m.group("meas") is not None:
                meas = Measurement(float(m.group("meas")), Unit[m.group("unit")])
        except ValueError:  # int() refuses a digit run past CPython's limit
            raise ParseError("anchor number out of range", start) from None
        if meas is not None and not math.isfinite(meas.value):
            raise ParseError("anchor measurement out of range", start)
        anchors.append(HyperlinkAnchor(m.group("image"), frame, region, meas,
                                       char_span=(start, m.end())))
        pos = m.end()
    return anchors


def _check_references(anchors: list[HyperlinkAnchor], study: StudyRecord) -> None:
    images = {img.image_uid: img for img in study.images}
    for a in anchors:
        img = images.get(a.image_uid)
        if img is None:
            raise ReferentialError(
                f"anchor cites unknown image {a.image_uid!r} for study {study.study_uid}")
        if not (1 <= a.frame <= img.frame_count):
            raise ReferentialError(
                f"anchor frame {a.frame} outside 1..{img.frame_count} of {a.image_uid}")
        r = a.region
        if not r.is_well_formed():
            raise ReferentialError(f"anchor region degenerate on {a.image_uid}")
        x_max = r.x1 if r.kind is RegionKind.BOX else r.x0 + 1
        y_max = r.y1 if r.kind is RegionKind.BOX else r.y0 + 1
        if x_max > img.width or y_max > img.height:
            raise ReferentialError(
                f"anchor region exceeds {img.width}x{img.height} bounds of {a.image_uid}")


def _mask_anchors(body: str, anchors: list[HyperlinkAnchor]) -> str:
    # same-length substitution keeps every char offset valid
    out = body
    for a in anchors:
        s, e = a.char_span
        out = out[:s] + "\x00" * (e - s) + out[e:]
    return out


def _split_sentences(masked: str) -> list[_Sentence]:
    sentences = []
    prev = 0
    for m in _SENTENCE_END_RE.finditer(masked):
        end = m.end()
        if masked[prev:end].strip("\x00 \t\n"):
            sentences.append(_Sentence(len(sentences), prev, end))
        prev = end
    if masked[prev:].strip("\x00 \t\n"):
        sentences.append(_Sentence(len(sentences), prev, len(masked)))
    return sentences


def _find_mentions(masked: str, sentences: list[_Sentence]) -> list[_Mention]:
    mentions = []
    for sent in sentences:
        text = masked[sent.start:sent.end]
        cue_positions = [c.start() for c in _CUE_RE.finditer(text)]
        for m in _MENTION_RE.finditer(text):
            mentions.append(_Mention(
                code=PHRASE_TO_CODE[m.group(0).lower()],
                sentence=sent.index,
                start=sent.start + m.start(),
                end=sent.start + m.end(),
                negated=any(c < m.start() for c in cue_positions),
            ))
    return mentions


def parse_body(report: InteractiveReport, study: StudyRecord) -> ParsedReport:
    """Locate anchors, sentences and mentions; body is preserved verbatim."""
    if report.study_uid != study.study_uid:
        raise ReferentialError(
            f"report names study {report.study_uid!r}, got {study.study_uid!r}")
    anchors = _scan_anchors(report.body)
    _check_references(anchors, study)
    masked = _mask_anchors(report.body, anchors)
    sentences = _split_sentences(masked)
    mentions = _find_mentions(masked, sentences)
    return ParsedReport(report, anchors, sentences, mentions)


def _sentence_of(anchor: HyperlinkAnchor, sentences: list[_Sentence]) -> int:
    start = anchor.char_span[0]
    for s in sentences:
        if s.start <= start < s.end:
            return s.index
    return sentences[-1].index if sentences else 0


def bind_anchors(parsed: ParsedReport) -> list[tuple[HyperlinkAnchor, int, _Mention | None]]:
    """Bind each anchor to the nearest mention on its left within the
    sentence, falling back to the nearest on the right; None when the
    sentence has no mention."""
    out = []
    for a in parsed.anchors:
        sidx = _sentence_of(a, parsed.sentences)
        in_sentence = [m for m in parsed.mentions if m.sentence == sidx]
        lefts = [m for m in in_sentence if m.end <= a.char_span[0]]
        rights = [m for m in in_sentence if m.start >= a.char_span[1]]
        if lefts:
            chosen = min(lefts, key=lambda m: a.char_span[0] - m.end)
        elif rights:
            chosen = min(rights, key=lambda m: m.start - a.char_span[1])
        else:
            chosen = None
        out.append((a, sidx, chosen))
    return out


def extract_labels(parsed: ParsedReport) -> tuple[list[ExtractedLabel], list[Diagnostic]]:
    """One label per (sentence, finding) mention; anomalies surface as
    diagnostics and are never silently dropped."""
    report = parsed.report
    diagnostics: list[Diagnostic] = []

    groups: dict[tuple[int, FindingCode], list[_Mention]] = {}
    for m in parsed.mentions:
        groups.setdefault((m.sentence, m.code), []).append(m)

    anchors_by_group: dict[tuple[int, FindingCode], list[HyperlinkAnchor]] = {}
    for anchor, sidx, mention in bind_anchors(parsed):
        if mention is None:
            diagnostics.append(Diagnostic(
                DiagnosticKind.UNBOUND_ANCHOR, sidx,
                "anchor has no finding mention in its sentence"))
            continue
        if mention.negated:
            # anchors never attach to negated mentions; surfaced, not guessed
            diagnostics.append(Diagnostic(
                DiagnosticKind.UNBOUND_ANCHOR, sidx,
                "nearest mention is negated"))
            continue
        anchors_by_group.setdefault((sidx, mention.code), []).append(anchor)

    labels: list[ExtractedLabel] = []
    for (sidx, code), mentions in sorted(
            groups.items(), key=lambda kv: (kv[0][0], min(m.start for m in kv[1]))):
        negated = [m.negated for m in mentions]
        if any(negated) and not all(negated):
            diagnostics.append(Diagnostic(
                DiagnosticKind.CONFLICTING_POLARITY, sidx,
                f"{code.name} mentioned both negated and affirmed"))
        polarity = Polarity.NEGATIVE if all(negated) else Polarity.POSITIVE
        bound = anchors_by_group.get((sidx, code), [])
        if bound and polarity is Polarity.POSITIVE:
            for a in bound:
                labels.append(ExtractedLabel(
                    report_uid=report.report_uid,
                    study_uid=report.study_uid,
                    finding=code,
                    polarity=polarity,
                    strength=LabelStrength.HYPERLINKED,
                    sentence_index=sidx,
                    region=a.region,
                    image_uid=a.image_uid,
                    measurement=a.measurement,
                ))
        else:
            labels.append(ExtractedLabel(
                report_uid=report.report_uid,
                study_uid=report.study_uid,
                finding=code,
                polarity=polarity,
                strength=LabelStrength.TEXT_ONLY,
                sentence_index=sidx,
            ))
    return labels, diagnostics
