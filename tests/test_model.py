"""Geometry, lexicon integrity, and study validation."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from labelloop.model import (
    FindingCode, IdentityBlock, ImageRef, KindMismatchError, LEXICON,
    PHRASE_TO_CODE, box, point, region_iou, validate_study,
)


def test_iou_identity():
    assert region_iou(box(0, 0, 10, 10), box(0, 0, 10, 10)) == 1.0


def test_iou_disjoint():
    assert region_iou(box(0, 0, 10, 10), box(20, 20, 30, 30)) == 0.0


def test_iou_half_overlap_worked_example():
    # pixel enumeration gives inter=50, union=150
    got = region_iou(box(0, 0, 10, 10), box(5, 0, 15, 10))
    assert got == pytest.approx(1 / 3)


def test_iou_rejects_points():
    with pytest.raises(KindMismatchError):
        region_iou(point(1, 1), box(0, 0, 10, 10))


def test_touching_boxes_are_disjoint():
    # inclusive-exclusive semantics: sharing an edge means zero intersection
    assert region_iou(box(0, 0, 10, 10), box(10, 0, 20, 10)) == 0.0


def test_containment_is_half_open():
    b = box(0, 0, 10, 10)
    assert b.contains_point(0, 0)
    assert b.contains_point(9, 9)
    assert not b.contains_point(10, 5)
    assert not b.contains_point(5, 10)


boxes = st.builds(
    lambda x0, y0, w, h: box(x0, y0, x0 + w, y0 + h),
    st.integers(0, 500), st.integers(0, 500),
    st.integers(1, 300), st.integers(1, 300),
)


@given(boxes, boxes)
def test_iou_symmetric(a, b):
    assert region_iou(a, b) == region_iou(b, a)


@given(boxes)
def test_iou_self_is_one(a):
    assert region_iou(a, a) == 1.0


@given(boxes, boxes)
def test_iou_bounded(a, b):
    v = region_iou(a, b)
    assert 0.0 <= v <= 1.0


def test_lexicon_phrases_unique_lowercase():
    seen = set()
    for code, phrases in LEXICON.items():
        for p in phrases:
            assert p == p.lower()
            assert p not in seen
            seen.add(p)
            assert PHRASE_TO_CODE[p] is code
    assert set(LEXICON) == set(FindingCode)


def test_validate_ok(fixture_study):
    assert validate_study(fixture_study) == []


def test_validate_empty_images(fixture_study):
    s = dataclasses.replace(fixture_study, images=[])
    assert "images nonempty" in validate_study(s)


def test_validate_duplicate_image_uid(fixture_study):
    s = dataclasses.replace(
        fixture_study,
        images=[ImageRef("IMG1", 512, 512, 1), ImageRef("IMG1", 256, 256, 1)])
    assert any("duplicate image_uid" in v for v in validate_study(s))


def test_validate_phi_tokens_cover_identity(fixture_study):
    ident = dataclasses.replace(fixture_study.identity, phi_tokens=["P001"])
    s = dataclasses.replace(fixture_study, identity=ident)
    assert "phi_tokens missing patient_name" in validate_study(s)


def test_validate_blank_name_exempt_from_phi_rule(fixture_study):
    # de-identified records have patient_name removed; that is not a violation
    ident = IdentityBlock("", "TOKEN123", fixture_study.identity.birth_date,
                          "ACCTOK", ["TOKEN123"])
    s = dataclasses.replace(fixture_study, identity=ident)
    assert validate_study(s) == []
