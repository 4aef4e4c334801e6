import pathlib
import threading
from contextlib import contextmanager
from datetime import date, datetime, timezone

import pytest

from labelloop.model import (
    IdentityBlock, ImageRef, Modality, StudyRecord,
)
from labelloop.protocol import Hub, HubServer

# how long a hub's loop may take to stop before the test fails
STOP_TIMEOUT_S = 10

GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text().rstrip("\n")


def join_or_fail(thread: threading.Thread, what: str) -> None:
    thread.join(timeout=STOP_TIMEOUT_S)
    assert not thread.is_alive(), f"{what} did not stop"


@contextmanager
def served(hub: Hub):
    """``hub`` behind a HubServer on a free port, serving in the background;
    yields its address. A loop that does not stop fails the test instead of
    hanging the suite."""
    server = HubServer(("127.0.0.1", 0), hub)
    loop = server.serve_in_background()
    try:
        yield server.server_address
    finally:
        threading.Thread(target=server.shutdown, daemon=True).start()
        try:
            join_or_fail(loop, "the hub's loop")
        finally:
            server.server_close()


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
