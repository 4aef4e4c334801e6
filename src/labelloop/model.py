"""Shared domain types: studies, images, regions, findings, validation.

All types are immutable values. Coordinates are integer pixels in image space
with inclusive-exclusive box semantics ([x0,x1) x [y0,y1)), which keeps area
arithmetic exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime
from enum import Enum

__all__ = [
    "Modality", "RegionKind", "FindingCode", "Unit", "Measurement", "Region",
    "ImageRef", "IdentityBlock", "StudyRecord", "LEXICON", "PHRASE_TO_CODE",
    "KindMismatchError", "region_iou", "validate_study",
]


class Modality(Enum):
    CR = "CR"
    CT = "CT"
    MR = "MR"
    US = "US"


class RegionKind(Enum):
    POINT = "POINT"
    BOX = "BOX"


class FindingCode(Enum):
    ANEURYSM = "ANEURYSM"
    HEMORRHAGE = "HEMORRHAGE"
    NODULE = "NODULE"
    PNEUMOTHORAX = "PNEUMOTHORAX"
    FRACTURE = "FRACTURE"
    EFFUSION = "EFFUSION"


class Unit(Enum):
    mm = "mm"
    cm = "cm"


# Surface phrases per code. Lowercase, unique, one code per phrase; matching
# is word-boundary based so the singular never fires inside the plural.
LEXICON: dict[FindingCode, tuple[str, ...]] = {
    FindingCode.ANEURYSM: ("aneurysm", "aneurysms"),
    FindingCode.HEMORRHAGE: ("hemorrhage", "hemorrhages"),
    FindingCode.NODULE: ("nodule", "nodules"),
    FindingCode.PNEUMOTHORAX: ("pneumothorax", "pneumothoraces"),
    FindingCode.FRACTURE: ("fracture", "fractures"),
    FindingCode.EFFUSION: ("effusion", "effusions"),
}

PHRASE_TO_CODE: dict[str, FindingCode] = {}
for _code, _phrases in LEXICON.items():
    for _p in _phrases:
        if _p != _p.lower() or _p in PHRASE_TO_CODE:
            raise AssertionError(f"lexicon phrase {_p!r} violates uniqueness")
        PHRASE_TO_CODE[_p] = _code


class KindMismatchError(TypeError):
    """A geometry operation was applied to the wrong Region kind."""


@dataclass(frozen=True)
class Measurement:
    value: float
    unit: Unit


@dataclass(frozen=True)
class Region:
    kind: RegionKind
    x0: int
    y0: int
    x1: int | None = None
    y1: int | None = None

    def is_well_formed(self) -> bool:
        if self.kind is RegionKind.POINT:
            return self.x1 is None and self.y1 is None and self.x0 >= 0 and self.y0 >= 0
        return (self.x1 is not None and self.y1 is not None
                and 0 <= self.x0 < self.x1 and 0 <= self.y0 < self.y1)

    def area(self) -> int:
        if self.kind is not RegionKind.BOX:
            raise KindMismatchError("area is defined for BOX regions only")
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def contains_point(self, x: int, y: int) -> bool:
        if self.kind is not RegionKind.BOX:
            raise KindMismatchError("containment is defined for BOX regions only")
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1


def box(x0: int, y0: int, x1: int, y1: int) -> Region:
    return Region(RegionKind.BOX, x0, y0, x1, y1)


def point(x: int, y: int) -> Region:
    return Region(RegionKind.POINT, x, y)


def region_iou(a: Region, b: Region) -> float:
    """Intersection over union of two well-formed boxes. Symmetric, 0 when
    disjoint, exactly 1.0 for identical boxes."""
    if a.kind is not RegionKind.BOX or b.kind is not RegionKind.BOX:
        raise KindMismatchError("region_iou takes two BOX regions")
    ix0 = max(a.x0, b.x0)
    iy0 = max(a.y0, b.y0)
    ix1 = min(a.x1, b.x1)
    iy1 = min(a.y1, b.y1)
    if ix0 >= ix1 or iy0 >= iy1:
        return 0.0
    inter = (ix1 - ix0) * (iy1 - iy0)
    union = a.area() + b.area() - inter
    return inter / union


@dataclass(frozen=True)
class ImageRef:
    image_uid: str
    width: int
    height: int
    frame_count: int


@dataclass(frozen=True)
class IdentityBlock:
    patient_name: str
    patient_id: str
    birth_date: date
    accession_number: str
    phi_tokens: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class StudyRecord:
    study_uid: str
    site_id: str
    identity: IdentityBlock
    images: list[ImageRef]
    modality: Modality
    acquired_at: datetime
    order_text: str


def validate_study(s: StudyRecord) -> list[str]:
    """Collect every violated invariant; an empty list means the study is ok."""
    violations: list[str] = []
    if not s.study_uid:
        violations.append("study_uid empty")
    if not s.site_id:
        violations.append("site_id empty")
    if not s.images:
        violations.append("images nonempty")
    seen_uids = set()
    for img in s.images:
        if img.image_uid in seen_uids:
            violations.append(f"duplicate image_uid {img.image_uid}")
        seen_uids.add(img.image_uid)
        if img.width <= 0 or img.height <= 0:
            violations.append(f"image {img.image_uid}: nonpositive dimensions")
        if img.frame_count < 1:
            violations.append(f"image {img.image_uid}: frame_count < 1")
    # phi_tokens must cover every identifying string that can appear in text;
    # fields already blanked by de-identification are exempt.
    ident = s.identity
    for label, value in (("patient_name", ident.patient_name),
                         ("patient_id", ident.patient_id)):
        if value and value not in ident.phi_tokens:
            violations.append(f"phi_tokens missing {label}")
    return violations
