"""Helpers the tests share. Each is a plain function or context manager,
imported as ``from support import …``; ``conftest.py`` keeps the fixtures."""

import pathlib
import threading
from contextlib import contextmanager
from datetime import datetime, timezone
from typing import Iterable

from labelloop.canon import canonical_decode
from labelloop.monitoring import DEFAULT_CUSUM_H, AgreementStream
from labelloop.protocol import _KINDS, EnvelopeKind, Hub, HubServer, _frame_size

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


def records(hub: Hub, kind: EnvelopeKind) -> list:
    """The hub's store read back as typed records of ``kind``, in acceptance
    order."""
    return [canonical_decode(e.payload, _KINDS[kind].payload)
            for e in hub.envelopes() if e.kind is kind]


def unframe(frame: bytes) -> str:
    """The line inside one whole frame, as the hub's loop reads it."""
    assert _frame_size(frame) == len(frame)
    return frame[4:].decode("utf-8")


def replay_events(events: Iterable[int], h: float = DEFAULT_CUSUM_H) -> list[int]:
    """Drive a raw 0/1 stream through the real calibration + CUSUM path and
    return the 1-based event indices at which the detector fired: the h
    tuning harness behind criterion 5 and the numbers in ``monitoring``'s
    docstring."""
    stream = AgreementStream("replay", "alg", "1", h)
    at = datetime(2024, 1, 1, tzinfo=timezone.utc)
    fires = []
    for x in events:
        if stream.observe_event(x, at) is not None:
            fires.append(stream.event_count)
    return fires
