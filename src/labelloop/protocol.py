"""Site-to-hub wire contract: typed envelopes, idempotent ingestion, retries.

Transport framing is a 4-byte big-endian length, at most
``MAX_FRAME_BYTES``, followed by one UTF-8 JSON body (the envelope's
canonical line, which ``envelope_from_line`` reads back and checks). The
same line, unframed, is what spool files (`*.env.jsonl`) carry, one envelope
per line, when ``labelloop hub --spool`` keeps the accepted envelopes.
``HubServer`` serves every peer from one thread, at most ``MAX_CONNECTIONS``
at once, and closes a peer that completes no frame for ``IDLE_TIMEOUT_S``.

Ingestion semantics per idempotency_key:
    first presentation             -> ACCEPTED, payload persisted
    re-presentation, same envelope -> DUPLICATE from the store, nothing
                                      hashed, decoded or written again
    re-presentation, same digest   -> DUPLICATE, no second write
    re-presentation, new digest    -> REJECTED "idempotency conflict"
"Same envelope" means the stored one's site, kind, schema version, payload
bytes and digest: the gate's verdict depends on nothing else, and the stored
envelope passed it. Any other envelope goes through the gate. The hub
derives the key from the envelope's site, kind and payload uid. It needs the
site id, and the algorithm id and version inside an ALG_OUTPUT uid, to be
plain names (``is_plain_name``), a record that names a site to name the
envelope's own, and the payload to be its record's canonical line, so that
one record has one wire form. Those faults, a claimed key that differs, and
every other fault in a frame or an envelope (size, version, digest, payload
shape or content) are answered by a REJECTED ack that names it;
``Hub.ingest`` raises only ``TransientStoreError``, which the client retries.
Records are evidence; corrections must arrive under a new uid, never as an
overwrite. The ACCEPTED/DUPLICATE decision is linearizable (single winner
under a lock), so any number of concurrent submitters stores exactly one copy.
"""

from __future__ import annotations

import re
import selectors
import socket
import sys
import threading
import time
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .canon import CanonError, canonical_decode, canonical_encode, digest_text
from .feedback import AlgorithmOutput
from .model import RegionKind, StudyRecord, validate_study
from .reports import (
    InteractiveReport, LabelSet, LabelStrength, ParseError, Polarity,
    _scan_anchors,
)

__all__ = [
    "SCHEMA_VERSION", "MAX_FRAME_BYTES", "MAX_CONNECTIONS", "IDLE_TIMEOUT_S",
    "MAX_UNSENT_ACK_BYTES", "EnvelopeKind", "AckStatus", "Envelope",
    "Ack", "AlertAck", "FrameError", "IntegrityError", "VersionError",
    "TransientStoreError", "DeliveryError", "make_envelope", "encode_envelope",
    "envelope_from_line", "Hub", "submit_batch", "InProcessClient", "TcpClient",
    "HubServer", "write_spool", "is_plain_name", "RETRY_BASE_SECONDS",
    "RETRY_FACTOR", "RETRY_MAX_ATTEMPTS",
]

SCHEMA_VERSION = 1
MAX_FRAME_BYTES = 1 << 20
# peers a HubServer serves at once, far above any real site count; a
# connection beyond them is closed unread
MAX_CONNECTIONS = 64
# a peer that completes no frame for this long after its accept or its last
# complete frame is closed, so that silent connections cannot hold the cap;
# the loop looks for such peers once per quarter of it
IDLE_TIMEOUT_S = 30.0
# a peer is not read while more of its acks than this wait to be sent; as
# every complete frame is answered after each recv, its input buffer never
# holds more than one frame and one recv
MAX_UNSENT_ACK_BYTES = 1 << 16
_RECV_BYTES = 1 << 16
RETRY_BASE_SECONDS = 0.1
RETRY_FACTOR = 2
RETRY_MAX_ATTEMPTS = 5
_PLAIN_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


class EnvelopeKind(Enum):
    STUDY = "STUDY"
    REPORT = "REPORT"
    LABELSET = "LABELSET"
    ALG_OUTPUT = "ALG_OUTPUT"
    ALERT_ACK = "ALERT_ACK"


class AckStatus(Enum):
    ACCEPTED = "ACCEPTED"
    DUPLICATE = "DUPLICATE"
    REJECTED = "REJECTED"


@dataclass(frozen=True)
class Envelope:
    envelope_id: str
    site_id: str
    kind: EnvelopeKind
    schema_version: int
    idempotency_key: str
    payload: str
    payload_digest: str
    created_at: datetime


@dataclass(frozen=True)
class Ack:
    envelope_id: str
    status: AckStatus
    reason: str | None = None


@dataclass(frozen=True)
class AlertAck:
    """A site's acknowledgment that it received an alert notification."""
    alert_id: str
    site_id: str
    acked_at: datetime


class FrameError(ValueError):
    """An input fault in a frame or an envelope; the hub answers it REJECTED."""


class IntegrityError(FrameError):
    pass


class VersionError(FrameError):
    pass


class TransientStoreError(RuntimeError):
    """Storage hiccup; the client should retry the same envelope."""


class DeliveryError(RuntimeError):
    def __init__(self, undelivered: list[str]):
        super().__init__(f"undelivered envelopes: {', '.join(undelivered)}")
        self.undelivered = undelivered


def is_plain_name(name: str) -> bool:
    """Whether ``name`` may be a site id, an algorithm id or a version: an
    ASCII letter or digit followed by ASCII letters, digits, ``.``, ``_`` or
    ``-``. Such a name is a file name of its own, never a path, and holds no
    ``:`` or ``/`` to blur the parts of an idempotency key."""
    return isinstance(name, str) and _PLAIN_NAME.fullmatch(name) is not None


def _idempotency_key(site_id: str, kind: EnvelopeKind, record) -> str:
    return f"{site_id}/{kind.name}/{_KINDS[kind].uid(record)}"


def make_envelope(site_id: str, kind: EnvelopeKind, record,
                  created_at: datetime) -> Envelope:
    payload = canonical_encode(record)
    digest = digest_text(payload)
    key = _idempotency_key(site_id, kind, record)
    return Envelope(
        envelope_id=digest_text(key + "|" + digest)[:16],
        site_id=site_id,
        kind=kind,
        schema_version=SCHEMA_VERSION,
        idempotency_key=key,
        payload=payload,
        payload_digest=digest,
        created_at=created_at,
    )


def _check_envelope(e: Envelope) -> None:
    if e.schema_version != SCHEMA_VERSION:
        raise VersionError(f"unsupported schema_version {e.schema_version}")
    try:
        digest = digest_text(e.payload)
    except UnicodeEncodeError:
        raise IntegrityError("payload is not UTF-8 text") from None
    if digest != e.payload_digest:
        raise IntegrityError("payload digest mismatch")


def envelope_from_line(line: str) -> Envelope:
    try:
        e = canonical_decode(line, Envelope)
    except CanonError as err:
        raise FrameError(str(err)) from None
    _check_envelope(e)
    return e


def _frame(line: str) -> bytes:
    body = line.encode("utf-8")
    return len(body).to_bytes(4, "big") + body


def _frame_size(header: bytes | bytearray) -> int:
    """The size, prefix included, of the frame whose first 4 or more bytes
    are ``header``; ``FrameError`` if it declares over ``MAX_FRAME_BYTES``."""
    n = int.from_bytes(header[:4], "big")
    if n > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {n} exceeds the {MAX_FRAME_BYTES}-byte limit")
    return 4 + n


def encode_envelope(e: Envelope) -> bytes:
    return _frame(canonical_encode(e))


# ---------------------------------------------------------------------------
# payload validation at the hub boundary


def _validate_labelset(ls: LabelSet) -> list[str]:
    problems = []
    for i, lab in enumerate(ls.labels):
        if lab.report_uid != ls.report_uid or lab.study_uid != ls.study_uid:
            problems.append(f"labels[{i}] does not belong to this set")
        if lab.strength is LabelStrength.HYPERLINKED:
            if lab.region is None or lab.image_uid is None:
                problems.append(f"labels[{i}] hyperlinked without region/image")
            elif not lab.region.is_well_formed():
                problems.append(f"labels[{i}] degenerate region")
        if lab.polarity is Polarity.NEGATIVE and lab.strength is LabelStrength.HYPERLINKED:
            problems.append(f"labels[{i}] negative labels are never hyperlinked")
    return problems


def _validate_alg_output(out: AlgorithmOutput) -> list[str]:
    problems = [f"{name} {value!r} is not a plain name"
                for name, value in (("algorithm_id", out.algorithm_id),
                                    ("version", out.version))
                if not is_plain_name(value)]
    for i, det in enumerate(out.detections):
        if not (0.0 <= det.confidence <= 1.0):
            problems.append(f"detections[{i}] confidence outside [0,1]")
        if det.region.kind is not RegionKind.BOX:
            problems.append(f"detections[{i}] region is not a BOX")
        elif not det.region.is_well_formed():
            problems.append(f"detections[{i}] degenerate box")
    return problems


def _validate_report(rep: InteractiveReport) -> list[str]:
    try:
        _scan_anchors(rep.body)
    except ParseError as err:
        return [str(err)]
    return []


class _Kind(NamedTuple):
    payload: type
    uid: Callable[[object], str]  # the record's part of the idempotency key
    site: Callable[[object], str | None]  # the site the record names, if any
    validate: Callable[[object], list[str]]


# validate_study is looked up per call, so that a patched module binding is used
_KINDS = {
    EnvelopeKind.STUDY: _Kind(StudyRecord, lambda r: r.study_uid,
                              lambda r: r.site_id, lambda r: validate_study(r)),
    EnvelopeKind.REPORT: _Kind(InteractiveReport, lambda r: r.report_uid,
                               lambda r: None, _validate_report),
    EnvelopeKind.LABELSET: _Kind(LabelSet, lambda r: r.report_uid,
                                 lambda r: None, _validate_labelset),
    # executed mode is part of the identity: dual execution (LOCAL and
    # CENTRAL) must land under distinct keys, flagged downstream
    EnvelopeKind.ALG_OUTPUT: _Kind(
        AlgorithmOutput,
        lambda r: f"{r.study_uid}:{r.algorithm_id}:{r.version}:{r.executed.name}",
        lambda r: None, _validate_alg_output),
    EnvelopeKind.ALERT_ACK: _Kind(AlertAck, lambda r: f"{r.alert_id}:{r.site_id}",
                                  lambda r: r.site_id, lambda r: []),
}


# ---------------------------------------------------------------------------
# the hub


class Hub:
    """Idempotent envelope store with an at-ingest validation gate. It keeps
    one envelope per idempotency key and drops the record it decoded to
    validate it. With a ``spool_dir`` (``labelloop hub --spool``), each
    accepted envelope is also appended to its site's spool file, under the
    key lock and before the store: a failed write stores nothing and raises
    ``TransientStoreError``, so the client gets no ack and retries."""

    def __init__(self, spool_dir: str | Path | None = None):
        self._lock = threading.Lock()
        self._envelopes: dict[str, Envelope] = {}
        self._spool_dir = spool_dir

    def ingest(self, e: Envelope) -> Ack:
        if isinstance(e.idempotency_key, str):
            with self._lock:
                known = self._envelopes.get(e.idempotency_key)
                # every check of the gate below is a pure function of these
                # fields, and the stored envelope passed them all
                if (known is not None and known.payload == e.payload
                        and known.payload_digest == e.payload_digest
                        and known.site_id == e.site_id and known.kind is e.kind
                        and known.schema_version == e.schema_version):
                    return Ack(e.envelope_id, AckStatus.DUPLICATE)
        if not is_plain_name(e.site_id):
            return Ack(e.envelope_id, AckStatus.REJECTED,
                       f"site_id {e.site_id!r} is not a plain name")
        kind = _KINDS[e.kind]
        try:
            _check_envelope(e)
            record = canonical_decode(e.payload, kind.payload)
            if canonical_encode(record) != e.payload:
                raise IntegrityError("payload is not the canonical line of its record")
        except FrameError as err:
            return Ack(e.envelope_id, AckStatus.REJECTED, str(err))
        except CanonError as err:
            return Ack(e.envelope_id, AckStatus.REJECTED, f"undecodable payload: {err}")
        named = kind.site(record)
        if named is not None and named != e.site_id:
            return Ack(e.envelope_id, AckStatus.REJECTED,
                       f"record site_id {named!r} is not the envelope's {e.site_id!r}")
        key = _idempotency_key(e.site_id, e.kind, record)
        if e.idempotency_key != key:
            return Ack(e.envelope_id, AckStatus.REJECTED,
                       f"idempotency_key {e.idempotency_key!r} is not {key!r}")
        problems = kind.validate(record)
        if problems:
            return Ack(e.envelope_id, AckStatus.REJECTED, "; ".join(problems))
        with self._lock:
            known = self._envelopes.get(e.idempotency_key)
            if known is not None:
                if known.payload_digest == e.payload_digest:
                    return Ack(e.envelope_id, AckStatus.DUPLICATE)
                return Ack(e.envelope_id, AckStatus.REJECTED, "idempotency conflict")
            if self._spool_dir is not None:
                try:
                    write_spool(self._spool_dir, e.site_id, [e])
                except OSError as err:
                    raise TransientStoreError(f"spool write failed: {err}") from None
            self._envelopes[e.idempotency_key] = e
        return Ack(e.envelope_id, AckStatus.ACCEPTED)

    def stored_count(self) -> int:
        with self._lock:
            return len(self._envelopes)

    def envelopes(self) -> list[Envelope]:
        with self._lock:
            return list(self._envelopes.values())


def write_spool(spool_dir: str | Path, name: str, envelopes: Iterable[Envelope]) -> Path:
    path = Path(spool_dir) / f"{name}.env.jsonl"
    with open(path, "a", encoding="utf-8") as f:
        for e in envelopes:
            f.write(canonical_encode(e) + "\n")
    return path


# ---------------------------------------------------------------------------
# clients


class InProcessClient:
    def __init__(self, hub: Hub):
        self._hub = hub

    def submit(self, e: Envelope) -> Ack:
        return self._hub.ingest(e)


class TcpClient:
    """One connection per batch; framing identical to the server's."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self._addr = (host, port)
        self._timeout = timeout
        self._sock: socket.socket | None = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def submit(self, e: Envelope) -> Ack:
        try:
            if self._sock is None:
                self._sock = socket.create_connection(self._addr, self._timeout)
                self._sock.settimeout(self._timeout)
            self._sock.sendall(encode_envelope(e))
            frame = _read_frame(self._sock)
        except OSError as err:
            self.close()
            raise TransientStoreError(f"transport failure: {err}") from None
        return canonical_decode(frame[4:].decode("utf-8"), Ack)


def _read_frame(sock: socket.socket) -> bytes:
    """One frame, length prefix included; ``ConnectionError`` if the peer
    closes, ``FrameError`` unread if it declares over ``MAX_FRAME_BYTES``."""
    buf = bytearray()
    _read_exact(sock, buf, 4)
    _read_exact(sock, buf, _frame_size(buf))
    return bytes(buf)


def _read_exact(sock: socket.socket, buf: bytearray, n: int) -> None:
    """Receive into ``buf`` until it holds ``n`` bytes."""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        buf += chunk


def submit_batch(client, envelopes: list[Envelope],
                 sleep: Callable[[float], None] = time.sleep) -> list[Ack]:
    """At-least-once submission with exponential backoff (base 100 ms,
    factor 2, at most 5 attempts per envelope). Ack order matches input
    order. Safe to rerun wholesale because ingestion is idempotent."""
    acks: list[Ack] = []
    for i, e in enumerate(envelopes):
        delay = RETRY_BASE_SECONDS
        for attempt in range(1, RETRY_MAX_ATTEMPTS + 1):
            try:
                acks.append(client.submit(e))
                break
            except TransientStoreError:
                if attempt == RETRY_MAX_ATTEMPTS:
                    raise DeliveryError([env.envelope_id for env in envelopes[i:]])
                sleep(delay)
                delay *= RETRY_FACTOR
    return acks


# ---------------------------------------------------------------------------
# TCP server


class _Peer:
    """One connection of the serving loop."""

    __slots__ = ("sock", "addr", "inbox", "outbox", "closing", "events", "deadline")

    def __init__(self, sock: socket.socket, addr, deadline: float):
        self.sock = sock
        self.addr = addr
        self.deadline = deadline  # closed if no frame completes before it
        self.inbox = bytearray()  # received bytes not yet answered
        self.outbox = bytearray()  # acks not yet sent
        self.closing = False  # serves no more frames; closed once the outbox is sent
        self.events = selectors.EVENT_READ


class HubServer:
    """The hub's TCP endpoint: one ``selectors`` loop on one thread serves
    every peer, at most ``MAX_CONNECTIONS`` at once. It closes a connection
    beyond them unread, and a peer that completes no frame within
    ``IDLE_TIMEOUT_S`` of its accept or of its last frame. Each frame is
    answered in order with one ack, and a peer is not read while more than
    ``MAX_UNSENT_ACK_BYTES`` of its acks wait to be sent. A frame over
    ``MAX_FRAME_BYTES`` is answered REJECTED and its connection closed
    unread; a ``TransientStoreError`` closes the connection without an ack,
    so the client retries; an unexpected error is printed to stderr and
    closes that connection only."""

    def __init__(self, addr: tuple[str, int], hub: Hub):
        self.hub = hub
        # create_server sets SO_REUSEADDR and raises OSError if the bind fails
        self._listener = socket.create_server(addr)
        self._listener.setblocking(False)
        self.server_address = self._listener.getsockname()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        self._stop = False
        self._idle = threading.Event()
        self._idle.set()

    def serve_forever(self) -> None:
        """Serve until ``shutdown``; the connections still open are then closed."""
        self._idle.clear()
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(self._listener, selectors.EVENT_READ)
                sel.register(self._wake_r, selectors.EVENT_READ)
                try:
                    now = sweep_at = time.monotonic()
                    while not self._stop:
                        ready = sel.select(max(0.0, sweep_at - now))
                        now = time.monotonic()
                        for key, mask in ready:
                            if key.data is not None:
                                self._serve(sel, key.data, mask & selectors.EVENT_READ, now)
                            elif key.fileobj is self._listener:
                                self._accept(sel, now)
                            else:
                                self._wake_r.recv(_RECV_BYTES)
                        if now >= sweep_at:
                            self._close_idle(sel, now)
                            sweep_at = now + IDLE_TIMEOUT_S / 4
                finally:
                    for key in list(sel.get_map().values()):
                        if key.data is not None:
                            key.data.sock.close()
        finally:
            self._stop = False
            self._idle.set()

    def serve_in_background(self) -> threading.Thread:
        self._idle.clear()  # shutdown from here on waits for the loop
        t = threading.Thread(target=self.serve_forever, daemon=True)
        t.start()
        return t

    def shutdown(self) -> None:
        """Stop ``serve_forever`` and return once it has; safe from any
        thread and more than once."""
        self._stop = True
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # closed by server_close, or already full of wake-ups
        self._idle.wait()

    def server_close(self) -> None:
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()

    def _accept(self, sel: selectors.BaseSelector, now: float) -> None:
        try:
            sock, addr = self._listener.accept()
        except OSError:
            return  # the peer gave up before it was accepted
        # the listener and the wake-up socket are registered too
        if len(sel.get_map()) - 2 >= MAX_CONNECTIONS:
            sock.close()
            return
        sock.setblocking(False)
        sel.register(sock, selectors.EVENT_READ, _Peer(sock, addr, now + IDLE_TIMEOUT_S))

    @staticmethod
    def _close_idle(sel: selectors.BaseSelector, now: float) -> None:
        for key in list(sel.get_map().values()):
            if key.data is not None and key.data.deadline <= now:
                sel.unregister(key.fileobj)
                key.data.sock.close()

    def _serve(self, sel: selectors.BaseSelector, peer: _Peer, readable: int,
               now: float) -> None:
        """Read what the peer sent, answer its complete frames and send the
        acks, as far as each can go without blocking."""
        try:
            if readable:
                try:
                    data = peer.sock.recv(_RECV_BYTES)
                except BlockingIOError:
                    data = None
                except OSError:  # reset by the peer, which takes no acks either
                    data = b""
                    peer.outbox.clear()
                if data == b"":
                    peer.closing = True  # acks already due are still sent
                elif data:
                    peer.inbox += data
                    self._answer(peer, now)
            self._flush(peer)
        except Exception:
            # sys.excepthook prints the traceback to stderr and, unlike the
            # traceback and logging modules, adds no import to the hub's start
            print(f"hub: closing the connection from {peer.addr}", file=sys.stderr)
            sys.excepthook(*sys.exc_info())
            peer.closing = True
            peer.outbox.clear()
        if peer.closing and not peer.outbox:
            sel.unregister(peer.sock)
            peer.sock.close()
            return
        events = selectors.EVENT_WRITE if peer.outbox else 0
        if not peer.closing and len(peer.outbox) <= MAX_UNSENT_ACK_BYTES:
            events |= selectors.EVENT_READ
        if events != peer.events:
            sel.modify(peer.sock, events, peer)
            peer.events = events

    def _answer(self, peer: _Peer, now: float) -> None:
        """Answer the complete frames in the peer's inbox, in order."""
        inbox = peer.inbox
        while not peer.closing and len(inbox) >= 4:
            try:
                end = _frame_size(inbox)
            except FrameError as err:  # its body is never read
                ack = Ack("", AckStatus.REJECTED, str(err))
                peer.closing = True
            else:
                if len(inbox) < end:
                    return
                body = inbox[4:end]
                del inbox[:end]
                peer.deadline = now + IDLE_TIMEOUT_S
                try:
                    ack = self.hub.ingest(envelope_from_line(body.decode("utf-8")))
                except TransientStoreError:
                    peer.closing = True  # no ack: the client retries on a new connection
                    return
                except UnicodeDecodeError as err:  # ingest raises only TransientStoreError
                    ack = Ack("", AckStatus.REJECTED, f"frame body is not UTF-8: {err}")
                except FrameError as err:
                    ack = Ack("", AckStatus.REJECTED, str(err))
            peer.outbox += _frame(canonical_encode(ack))

    @staticmethod
    def _flush(peer: _Peer) -> None:
        """Send what the socket takes of the outbox."""
        if peer.outbox:
            try:
                del peer.outbox[:peer.sock.send(peer.outbox)]
            except BlockingIOError:
                pass
            except OSError:  # the peer is gone
                peer.closing = True
                peer.outbox.clear()
