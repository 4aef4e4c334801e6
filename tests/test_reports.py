"""Anchor grammar, sentence binding, polarity, and label extraction."""

import dataclasses
from datetime import date, datetime, timezone

import pytest

from labelloop.model import (
    FindingCode, IdentityBlock, ImageRef, Measurement, Modality, Region,
    RegionKind, StudyRecord, Unit,
)
from labelloop.reports import (
    Diagnostic, DiagnosticKind, ExtractedLabel, InteractiveReport,
    LabelStrength, ParseError, Polarity, ReferentialError, bind_anchors,
    extract_labels, format_anchor, parse_body,
)

WHEN = datetime(2024, 3, 1, 9, 30, tzinfo=timezone.utc)


def study_with_images() -> StudyRecord:
    return StudyRecord(
        study_uid="ST7",
        site_id="siteA",
        identity=IdentityBlock("Ann Park", "P77", date(1980, 4, 4), "A77",
                               ["Ann Park", "P77"]),
        images=[ImageRef("IMG1", 512, 512, 1), ImageRef("IMG2", 1024, 1024, 60)],
        modality=Modality.CT,
        acquired_at=WHEN,
        order_text="CT angio",
    )


def report_of(body: str) -> InteractiveReport:
    return InteractiveReport("R1", "ST7", body, WHEN, "rad1")


def labels_of(body: str):
    parsed = parse_body(report_of(body), study_with_images())
    return extract_labels(parsed)


def test_zero_anchor_body():
    parsed = parse_body(report_of("Technically adequate exam."), study_with_images())
    assert parsed.anchors == []


def test_aneurysm_sentence_with_measurement():
    body = ("There is an aneurysm "
            "{{link|image=IMG2|frame=34|region=120,88,150,118|meas=5.2mm}} "
            "of the basilar tip.")
    parsed = parse_body(report_of(body), study_with_images())
    assert len(parsed.anchors) == 1
    a = parsed.anchors[0]
    assert a.image_uid == "IMG2"
    assert a.frame == 34
    assert (a.region.x1 - a.region.x0, a.region.y1 - a.region.y0) == (30, 30)
    assert a.measurement == Measurement(5.2, Unit.mm)

    labels, diags = extract_labels(parsed)
    assert diags == []
    assert labels == [ExtractedLabel(
        report_uid="R1", study_uid="ST7", finding=FindingCode.ANEURYSM,
        polarity=Polarity.POSITIVE, strength=LabelStrength.HYPERLINKED,
        sentence_index=0, region=Region(RegionKind.BOX, 120, 88, 150, 118),
        image_uid="IMG2", measurement=Measurement(5.2, Unit.mm))]


def test_unknown_image_is_referential_error():
    body = "Nodule {{link|image=NOPE|frame=1|region=1,1,5,5}} seen."
    with pytest.raises(ReferentialError, match="unknown image"):
        parse_body(report_of(body), study_with_images())


def test_frame_beyond_count_rejected():
    body = "Nodule {{link|image=IMG1|frame=2|region=1,1,5,5}} seen."
    with pytest.raises(ReferentialError, match="frame"):
        parse_body(report_of(body), study_with_images())


def test_region_outside_image_rejected():
    body = "Nodule {{link|image=IMG1|frame=1|region=0,0,513,100}} seen."
    with pytest.raises(ReferentialError, match="bounds"):
        parse_body(report_of(body), study_with_images())


def test_malformed_anchor_reports_offset():
    body = "Text before {{link|image=IMG1|frame=x}} after."
    with pytest.raises(ParseError) as exc:
        parse_body(report_of(body), study_with_images())
    assert exc.value.offset == body.index("{{")


def test_binding_prefers_nearest_left_mention():
    body = "Fracture and nodule {{link|image=IMG1|frame=1|region=1,1,9,9}} noted."
    parsed = parse_body(report_of(body), study_with_images())
    [(_, sidx, mention)] = bind_anchors(parsed)
    assert sidx == 0
    assert mention is not None and mention.code is FindingCode.NODULE


def test_binding_falls_back_to_right():
    body = "Seen {{link|image=IMG1|frame=1|region=1,1,9,9}} fracture here."
    parsed = parse_body(report_of(body), study_with_images())
    [(_, _, mention)] = bind_anchors(parsed)
    assert mention is not None and mention.code is FindingCode.FRACTURE


def test_anchor_without_mention_is_unbound_diagnostic():
    body = "Measured {{link|image=IMG1|frame=1|region=1,1,9,9}} today."
    labels, diags = labels_of(body)
    assert labels == []
    assert [d.kind for d in diags] == [DiagnosticKind.UNBOUND_ANCHOR]


def test_negated_mention_text_only():
    labels, diags = labels_of("No intracranial hemorrhage.")
    assert diags == []
    assert len(labels) == 1
    lab = labels[0]
    assert (lab.finding, lab.polarity, lab.strength) == (
        FindingCode.HEMORRHAGE, Polarity.NEGATIVE, LabelStrength.TEXT_ONLY)
    assert lab.region is None and lab.image_uid is None


def test_negation_cue_is_word_bounded():
    # "nodular" must not fire the lexicon, and a name like "Noah" is not "no"
    labels, _ = labels_of("Noah Chan dictated this nodule sentence.")
    assert len(labels) == 1
    assert labels[0].polarity is Polarity.POSITIVE


def test_each_cue_form_negates():
    for body, code in [
        ("Without hemorrhage.", FindingCode.HEMORRHAGE),
        ("Negative for pneumothorax.", FindingCode.PNEUMOTHORAX),
        ("Resolved effusion.", FindingCode.EFFUSION),
        ("Absent fracture.", FindingCode.FRACTURE),
    ]:
        labels, _ = labels_of(body)
        assert labels[0].polarity is Polarity.NEGATIVE, body
        assert labels[0].finding is code


def test_negation_scopes_to_remainder_of_sentence():
    labels, _ = labels_of("No fracture. There is an effusion.")
    by_code = {l.finding: l for l in labels}
    assert by_code[FindingCode.FRACTURE].polarity is Polarity.NEGATIVE
    assert by_code[FindingCode.EFFUSION].polarity is Polarity.POSITIVE
    assert by_code[FindingCode.FRACTURE].sentence_index == 0
    assert by_code[FindingCode.EFFUSION].sentence_index == 1


def test_multiple_anchors_one_mention_yield_multiple_labels():
    body = ("Two nodules {{link|image=IMG1|frame=1|region=1,1,9,9}} "
            "{{link|image=IMG1|frame=1|region=20,20,30,30}} are seen.")
    labels, diags = labels_of(body)
    assert diags == []
    assert len(labels) == 2
    assert all(l.strength is LabelStrength.HYPERLINKED for l in labels)
    assert {(-1 if l.region is None else l.region.x0) for l in labels} == {1, 20}


def test_anchor_on_negated_mention_becomes_diagnostic():
    body = "No hemorrhage {{link|image=IMG1|frame=1|region=1,1,9,9}} seen."
    labels, diags = labels_of(body)
    assert [d.kind for d in diags] == [DiagnosticKind.UNBOUND_ANCHOR]
    assert "negated" in diags[0].detail
    assert len(labels) == 1 and labels[0].strength is LabelStrength.TEXT_ONLY


def test_conflicting_polarity_diagnostic():
    body = "Fracture is seen today, no fracture on the prior exam."
    labels, diags = labels_of(body)
    assert [d.kind for d in diags] == [DiagnosticKind.CONFLICTING_POLARITY]
    assert len(labels) == 1
    assert labels[0].polarity is Polarity.POSITIVE


def test_point_anchor():
    body = "Effusion {{link|image=IMG1|frame=1|point=44,55}} here."
    labels, diags = labels_of(body)
    assert diags == []
    assert labels[0].region == Region(RegionKind.POINT, 44, 55)


def test_anchor_conservation():
    body = ("Nodule {{link|image=IMG1|frame=1|region=1,1,9,9}} and "
            "stray {{link|image=IMG1|frame=1|point=3,3}} mark. "
            "No hemorrhage {{link|image=IMG2|frame=5|region=5,5,9,9}} left.")
    parsed = parse_body(report_of(body), study_with_images())
    labels, diags = extract_labels(parsed)
    hyperlinked = sum(1 for l in labels if l.strength is LabelStrength.HYPERLINKED)
    unbound = sum(1 for d in diags if d.kind is DiagnosticKind.UNBOUND_ANCHOR)
    assert hyperlinked + unbound == len(parsed.anchors) == 3


def test_body_preserved_verbatim():
    body = "Odd   spacing\tand {{link|image=IMG1|frame=1|point=1,2}} unicode: café."
    parsed = parse_body(report_of(body), study_with_images())
    assert parsed.report.body == body


def test_corpus_header_must_match_study():
    report = dataclasses.replace(report_of("Body here."), study_uid="WRONG")
    with pytest.raises(ReferentialError, match="WRONG"):
        parse_body(report, study_with_images())


def test_extraction_deterministic():
    body = ("No effusion. Two nodules {{link|image=IMG1|frame=1|region=1,1,9,9}} "
            "{{link|image=IMG2|frame=2|region=7,7,20,20|meas=1.5cm}} and a fracture.")
    first = labels_of(body)
    for _ in range(3):
        assert labels_of(body) == first
