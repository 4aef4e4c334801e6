"""Versioned model records, deployment assignments, and the audit chain.

The registry is the control ledger of the hub: which algorithm versions
exist, where each is actively deployed, and a hash-chained audit log whose
head is persisted separately so that truncating the log to a prefix is as
detectable as editing it. Weights never enter the system; a version carries
only the digest of its opaque weights blob.

Each audit entry commits to its predecessor:

    entry_hash = sha256("{seq}|{timestamp}|{actor}|{action}|{payload_digest}|{prev_hash}")

with the timestamp rendered exactly as ``audit.log`` stores it
(``canon.format_datetime``, microseconds included) and the genesis prev_hash
of 64 zeros. Appending is the only mutation the log supports. The registry
reads no clock: each mutation stamps its entry with the time its caller
passes, and lifecycle and deployment entries name the actor ``hub``.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, replace
from datetime import datetime
from enum import Enum
from pathlib import Path
from typing import Iterable

from .canon import (
    canonical_decode, canonical_digest, canonical_encode, format_datetime,
    write_lines,
)

__all__ = [
    "ModelStatus", "DeploymentMode", "AuditAction", "ModelRecord",
    "DeploymentAssignment", "AuditEntry", "ChainHead", "Registry",
    "ConflictError", "StateError", "ChainDecodeError", "entry_hash_of",
    "verify_audit_chain", "GENESIS_HASH",
]

GENESIS_HASH = "0" * 64


class ModelStatus(Enum):
    CANDIDATE = "CANDIDATE"
    APPROVED = "APPROVED"
    DEPLOYED = "DEPLOYED"
    SUSPENDED = "SUSPENDED"


# forward edges only, plus the deploy/suspend toggle
_ALLOWED_TRANSITIONS = {
    (ModelStatus.CANDIDATE, ModelStatus.APPROVED),
    (ModelStatus.APPROVED, ModelStatus.DEPLOYED),
    (ModelStatus.DEPLOYED, ModelStatus.SUSPENDED),
    (ModelStatus.SUSPENDED, ModelStatus.DEPLOYED),
}


class DeploymentMode(Enum):
    LOCAL = "LOCAL"
    CENTRAL = "CENTRAL"
    BOTH = "BOTH"


class AuditAction(Enum):
    REGISTER = "REGISTER"
    STATUS_CHANGE = "STATUS_CHANGE"
    ASSIGN = "ASSIGN"
    ALERT = "ALERT"
    INGEST_SUMMARY = "INGEST_SUMMARY"


class ConflictError(ValueError):
    pass


class StateError(ValueError):
    pass


class ChainDecodeError(ValueError):
    """A stored audit record that does not decode; the chain breaks at ``seq``."""
    def __init__(self, seq: int, reason: str):
        super().__init__(f"seq {seq}: {reason}")
        self.seq = seq


@dataclass(frozen=True)
class ModelRecord:
    algorithm_id: str
    version: str
    weights_digest: str
    status: ModelStatus
    registered_at: datetime


@dataclass(frozen=True)
class DeploymentAssignment:
    site_id: str
    algorithm_id: str
    version: str
    mode: DeploymentMode
    active: bool


@dataclass(frozen=True)
class AuditEntry:
    seq: int
    timestamp: datetime
    actor: str
    action: AuditAction
    payload_digest: str
    prev_hash: str
    entry_hash: str


@dataclass(frozen=True)
class ChainHead:
    seq: int
    entry_hash: str


def entry_hash_of(seq: int, timestamp: datetime, actor: str,
                  action: AuditAction, payload_digest: str,
                  prev_hash: str) -> str:
    material = "|".join([
        str(seq), format_datetime(timestamp), actor, action.name,
        payload_digest, prev_hash,
    ])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def verify_audit_chain(entries: Iterable[AuditEntry],
                       head: ChainHead | None = None) -> int | None:
    """Recompute every hash and linkage. Returns None when intact, else the
    earliest broken seq (position-based, so renumbering cannot hide)."""
    entries = list(entries)
    prev = GENESIS_HASH
    for i, entry in enumerate(entries):
        seq = i + 1
        if entry.seq != seq or entry.prev_hash != prev:
            return seq
        expected = entry_hash_of(seq, entry.timestamp, entry.actor,
                                 entry.action, entry.payload_digest, prev)
        if entry.entry_hash != expected:
            return seq
        prev = entry.entry_hash
    if head is not None:
        if head.seq > len(entries):
            return len(entries) + 1  # log lost its tail
        if head.seq < len(entries):
            return head.seq + 1  # entries the head never committed to
        if head.seq and head.entry_hash != entries[-1].entry_hash:
            return head.seq
    return None


class Registry:
    """Single-writer control ledger; every mutation appends one audit entry."""

    MODELS_LOG = "models.log"
    ASSIGNMENTS_LOG = "assignments.log"
    AUDIT_LOG = "audit.log"
    AUDIT_HEAD = "audit.head"

    def __init__(self):
        self._lock = threading.Lock()
        self.models: dict[tuple[str, str], ModelRecord] = {}
        self.assignments: list[DeploymentAssignment] = []
        self.audit: list[AuditEntry] = []

    # -- audit chain ---------------------------------------------------

    def append_audit(self, action: AuditAction, actor: str,
                     payload_digest: str, at: datetime) -> AuditEntry:
        with self._lock:
            return self._append_audit_locked(action, actor, payload_digest, at)

    def _append_audit_locked(self, action: AuditAction, actor: str,
                             payload_digest: str, at: datetime) -> AuditEntry:
        seq = len(self.audit) + 1
        prev = self.audit[-1].entry_hash if self.audit else GENESIS_HASH
        entry = AuditEntry(
            seq=seq, timestamp=at, actor=actor, action=action,
            payload_digest=payload_digest, prev_hash=prev,
            entry_hash=entry_hash_of(seq, at, actor, action,
                                     payload_digest, prev),
        )
        self.audit.append(entry)
        return entry

    def head(self) -> ChainHead | None:
        if not self.audit:
            return None
        return ChainHead(self.audit[-1].seq, self.audit[-1].entry_hash)

    def verify(self) -> int | None:
        return verify_audit_chain(self.audit, self.head())

    # -- model lifecycle -----------------------------------------------

    def register_version(self, rec: ModelRecord, at: datetime) -> AuditEntry:
        if rec.status is not ModelStatus.CANDIDATE:
            raise StateError("versions register as CANDIDATE")
        key = (rec.algorithm_id, rec.version)
        with self._lock:
            if key in self.models:
                raise ConflictError(
                    f"version {rec.algorithm_id} {rec.version} already registered")
            self.models[key] = rec
            return self._append_audit_locked(
                AuditAction.REGISTER, "hub", canonical_digest(rec), at)

    def set_status(self, algorithm_id: str, version: str,
                   status: ModelStatus, at: datetime) -> AuditEntry:
        with self._lock:
            rec = self.models.get((algorithm_id, version))
            if rec is None:
                raise StateError(f"unknown version {algorithm_id} {version}")
            if (rec.status, status) not in _ALLOWED_TRANSITIONS:
                raise StateError(
                    f"illegal transition {rec.status.name} -> {status.name}")
            updated = replace(rec, status=status)
            self.models[(algorithm_id, version)] = updated
            return self._append_audit_locked(
                AuditAction.STATUS_CHANGE, "hub", canonical_digest(updated), at)

    # -- deployments ----------------------------------------------------

    def assign_deployment(self, assignment: DeploymentAssignment,
                          at: datetime) -> AuditEntry:
        with self._lock:
            rec = self.models.get((assignment.algorithm_id, assignment.version))
            if rec is None or rec.status is not ModelStatus.DEPLOYED:
                raise StateError(
                    f"{assignment.algorithm_id} {assignment.version} is not DEPLOYED")
            refreshed = []
            for a in self.assignments:
                if (a.active and a.site_id == assignment.site_id
                        and a.algorithm_id == assignment.algorithm_id):
                    a = replace(a, active=False)
                refreshed.append(a)
            self.assignments = refreshed
            self.assignments.append(replace(assignment, active=True))
            return self._append_audit_locked(
                AuditAction.ASSIGN, "hub", canonical_digest(assignment), at)

    def list_sites_running(self, algorithm_id: str, version: str) -> set[str]:
        # an active assignment of a SUSPENDED version is not "running"
        rec = self.models.get((algorithm_id, version))
        if rec is None or rec.status is not ModelStatus.DEPLOYED:
            return set()
        return {a.site_id for a in self.assignments
                if a.active and a.algorithm_id == algorithm_id
                and a.version == version}

    # -- persistence ----------------------------------------------------

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self._lock:
            write_lines(directory / self.MODELS_LOG,
                        (canonical_encode(m) for m in
                         sorted(self.models.values(),
                                key=lambda m: (m.algorithm_id, m.version))))
            write_lines(directory / self.ASSIGNMENTS_LOG,
                        (canonical_encode(a) for a in self.assignments))
            write_lines(directory / self.AUDIT_LOG,
                        (canonical_encode(e) for e in self.audit))
            head = self.head()
            write_lines(directory / self.AUDIT_HEAD,
                        [canonical_encode(head)] if head else [])

    @staticmethod
    def load_chain(path: str | Path) -> tuple[list[AuditEntry], ChainHead | None]:
        """Read an audit chain, unverified, from an ``audit.log`` path or a
        directory holding one, and its head from ``audit.head`` beside it. An
        undecodable log line raises ``ChainDecodeError`` with its 1-based seq;
        a missing or undecodable head, with seq ``max(1, len(entries))``, since
        ``save`` always writes one. Other read failures raise ``OSError``."""
        path = Path(path)
        if path.is_dir():
            path = path / Registry.AUDIT_LOG
        entries = [_decode_stored(line, AuditEntry, seq)
                   for seq, line in enumerate(_read_lines(path), 1)]
        last = max(1, len(entries))
        try:
            head_lines = _read_lines(path.parent / Registry.AUDIT_HEAD)
        except FileNotFoundError as err:
            raise ChainDecodeError(last, f"no head: {err}") from err
        head = _decode_stored(head_lines[0], ChainHead, last) if head_lines else None
        return entries, head


def _decode_stored(line: bytes, cls: type, seq: int):
    try:
        # a line that is not UTF-8 raises UnicodeDecodeError, a ValueError
        return canonical_decode(line.decode("utf-8"), cls)
    except (ValueError, TypeError, KeyError) as err:
        raise ChainDecodeError(seq, str(err)) from err


def _read_lines(path: Path) -> list[bytes]:
    # undecoded, so that a line that is not UTF-8 fails with its own seq
    with open(path, "rb") as f:
        return [line.rstrip(b"\n") for line in f if line.strip()]
