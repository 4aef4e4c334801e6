from datetime import date, datetime, timezone

import pytest

from labelloop.model import (
    IdentityBlock, ImageRef, Modality, StudyRecord,
)


@pytest.fixture
def fixture_study() -> StudyRecord:
    return StudyRecord(
        study_uid="S1",
        site_id="siteA",
        identity=IdentityBlock(
            patient_name="John Doe",
            patient_id="P001",
            birth_date=date(1970, 1, 2),
            accession_number="ACC9",
            phi_tokens=["John Doe", "P001"],
        ),
        images=[ImageRef("IMG1", 512, 512, 1)],
        modality=Modality.CT,
        acquired_at=datetime(2024, 1, 1, tzinfo=timezone.utc),
        order_text="CT head",
    )
