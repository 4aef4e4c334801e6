"""Site-side de-identification: pseudonyms, date shifting, text scrubbing.

The site secret never leaves the site process. It arrives through the
`LABELLOOP_SITE_SECRET` environment variable (hex) in service use, is held
only in memory, and is excluded from every serialized form. Pseudonyms are
deterministic per (secret, scope, value) so records of one patient stay
linkable after de-identification without being reversible. All dates of a
patient move by one secret-derived offset, so intervals between studies are
preserved.

Free text (the order text and every report body) is scrubbed of the study's
PHI tokens: the leftmost match wins, the longest token wins at that
position, matching ignores case, and each match becomes ``REDACTION``. When
the tokens and the text are all ASCII, the scrubber works on ``str.lower``
and ``str.find`` and compiles no regex; otherwise it uses one
case-insensitive alternation, because Unicode case folding also matches
some non-ASCII letters to ASCII ones (KELVIN SIGN to ``k``, LONG S to ``s``,
dotted and dotless I to ``i``).

The transforms are fixed: the patient name is removed, patient, accession,
study, report and author ids become pseudonyms, dates shift, and the order
text and report bodies are scrubbed. ``DeidPolicy`` carries only the site
secret, kept out of ``repr`` and out of every canonical encoding. The
receipt records which fields were transformed and when, at the time the
caller passes in; it holds no record, so no PHI.
"""

from __future__ import annotations

import hmac
import os
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta

from .model import IdentityBlock, StudyRecord
from .reports import InteractiveReport

__all__ = [
    "DeidPolicy", "DeidReceipt", "PolicyError", "Leak",
    "pseudonymize", "date_shift_days", "default_policy", "deidentify_study",
    "verify_deidentified", "secret_from_env", "SECRET_ENV_VAR", "REDACTION",
    "MAX_DATE_SHIFT_DAYS",
]

SECRET_ENV_VAR = "LABELLOOP_SITE_SECRET"
REDACTION = "[REDACTED]"
MAX_DATE_SHIFT_DAYS = 182


class PolicyError(ValueError):
    pass


# what every receipt lists as transformed, sorted
_FIELDS_TRANSFORMED = ("accession_number", "acquired_at", "birth_date", "body",
                       "order_text", "patient_id", "patient_name")


@dataclass(frozen=True)
class DeidPolicy:
    site_secret: bytes = field(metadata={"canon": "exclude"}, repr=False)

    def validate(self) -> None:
        if not self.site_secret:
            raise PolicyError("site_secret is empty")


@dataclass(frozen=True)
class DeidReceipt:
    """What one de-identification did."""
    fields_transformed: list[str]
    performed_at: datetime


@dataclass(frozen=True)
class Leak:
    field_path: str
    offset: int
    token: str


def default_policy(site_secret: bytes) -> DeidPolicy:
    return DeidPolicy(site_secret)


def secret_from_env() -> bytes:
    raw = os.environ.get(SECRET_ENV_VAR, "")
    if not raw:
        raise PolicyError(f"{SECRET_ENV_VAR} is not set")
    try:
        return bytes.fromhex(raw)
    except ValueError:
        raise PolicyError(f"{SECRET_ENV_VAR} must be hex") from None


# base64.b32encode is pure Python on CPython 3.11, so pseudonyms render each
# 10-bit group as its two RFC 4648 base32 characters from one table
_B32_PAIRS = [a + b for a in "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"
              for b in "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"]


def _b32_of_10_bytes(b: bytes) -> str:
    """``base64.b32encode(b).decode("ascii")`` for exactly 10 bytes."""
    n = int.from_bytes(b, "big")
    return "".join([_B32_PAIRS[(n >> s) & 0x3FF] for s in range(70, -1, -10)])


def pseudonymize(site_secret: bytes, scope: str, value: str) -> str:
    """First 16 chars of base32(HMAC-SHA256(secret, scope || 0x1F || value)).

    The 0x1F separator keeps ("ab","c") and ("a","bc") apart; the scope keeps
    the same raw value from colliding across uses (patient vs accession).
    """
    if not site_secret:
        raise PolicyError("site_secret is empty")
    if not value:
        raise ValueError("cannot pseudonymize an empty value")
    message = scope.encode("utf-8") + b"\x1f" + value.encode("utf-8")
    return _b32_of_10_bytes(hmac.digest(site_secret, message, "sha256")[:10])


def date_shift_days(site_secret: bytes, patient_id: str) -> int:
    """Per-patient constant offset in [-182, +182] days."""
    mac = hmac.digest(site_secret, patient_id.encode("utf-8"), "sha256")
    span = 2 * MAX_DATE_SHIFT_DAYS + 1
    return int.from_bytes(mac[:4], "big") % span - MAX_DATE_SHIFT_DAYS


def _regex_scrubber(tokens: set[str]):
    # longest first so "John Doe" wins over a bare "John"
    ordered = sorted(tokens, key=len, reverse=True)
    pattern = re.compile("|".join(re.escape(t) for t in ordered), re.IGNORECASE)
    return lambda text: pattern.sub(REDACTION, text)


def _scrub_ascii(text: str, needles: list[str]) -> str:
    """Scrub ASCII ``text`` of ASCII ``needles`` (lower-case, distinct,
    longest first). Each needle's next hit is kept and searched again only
    once the scan has passed it, so the work stays linear in the text however
    many matches it holds."""
    folded = text.lower()
    hits = [folded.find(n) for n in needles]
    if max(hits) < 0:
        return text
    parts = []
    pos = 0
    while True:
        at = -1
        for i, needle in enumerate(needles):
            hit = hits[i]
            if 0 <= hit < pos:
                hit = hits[i] = folded.find(needle, pos)
            # strict: at a tie the earlier, longer needle keeps the position
            if hit >= 0 and (at < 0 or hit < at):
                at, width = hit, len(needle)
        if at < 0:
            break
        parts.append(text[pos:at])
        parts.append(REDACTION)
        pos = at + width
    parts.append(text[pos:])
    return "".join(parts)


def _scrubber(phi_tokens: list[str]):
    tokens = {t for t in phi_tokens if t}
    if not tokens:
        return lambda text: text
    if not all(t.isascii() for t in tokens):
        return _regex_scrubber(tokens)
    needles = sorted({t.lower() for t in tokens}, key=len, reverse=True)

    def scrub(text: str) -> str:
        if text.isascii():
            return _scrub_ascii(text, needles)
        return _regex_scrubber(tokens)(text)
    return scrub


def deidentify_study(
    s: StudyRecord,
    reports: list[InteractiveReport],
    policy: DeidPolicy,
    now: datetime,
) -> tuple[StudyRecord, list[InteractiveReport], DeidReceipt]:
    policy.validate()
    for t in s.identity.phi_tokens:
        if not t:
            raise PolicyError("phi_tokens must be nonempty strings")
    secret = policy.site_secret
    offset = timedelta(days=date_shift_days(secret, s.identity.patient_id))
    scrub = _scrubber(s.identity.phi_tokens)
    pseud = lambda scope, v: pseudonymize(secret, scope, v)

    new_patient_id = pseud("patient", s.identity.patient_id)
    identity = IdentityBlock(
        patient_name="",
        patient_id=new_patient_id,
        birth_date=s.identity.birth_date + offset,
        accession_number=pseud("accession", s.identity.accession_number),
        phi_tokens=[new_patient_id],
    )
    study = StudyRecord(
        study_uid=pseud("study", s.study_uid),
        site_id=s.site_id,
        identity=identity,
        images=s.images,
        modality=s.modality,
        acquired_at=s.acquired_at + offset,
        order_text=scrub(s.order_text),
    )
    out_reports = []
    for r in reports:
        if r.study_uid != s.study_uid:
            raise PolicyError(f"report {r.report_uid} does not belong to {s.study_uid}")
        out_reports.append(InteractiveReport(
            report_uid=pseud("report", r.report_uid),
            study_uid=study.study_uid,
            body=scrub(r.body),
            authored_at=r.authored_at + offset,
            author_id=pseud("author", r.author_id),
        ))
    receipt = DeidReceipt(
        fields_transformed=list(_FIELDS_TRANSFORMED),
        performed_at=now,
    )
    return study, out_reports, receipt


def _scan(text: str, path: str, needles: list[tuple[str, str]], out: list[Leak]) -> None:
    folded = text.casefold()
    for original, needle in needles:
        pos = folded.find(needle)
        if pos >= 0:
            out.append(Leak(path, pos, original))


def verify_deidentified(
    study: StudyRecord,
    reports: list[InteractiveReport],
    phi_tokens: list[str],
) -> list[Leak]:
    """Independent post-check: substring-scan every text field for any of the
    original phi_tokens, case-insensitively. Empty result means clean."""
    needles = [(t, t.casefold()) for t in phi_tokens if t]
    leaks: list[Leak] = []
    ident = study.identity
    _scan(study.study_uid, "study.study_uid", needles, leaks)
    _scan(study.site_id, "study.site_id", needles, leaks)
    _scan(ident.patient_name, "study.identity.patient_name", needles, leaks)
    _scan(ident.patient_id, "study.identity.patient_id", needles, leaks)
    _scan(ident.accession_number, "study.identity.accession_number", needles, leaks)
    for i, t in enumerate(ident.phi_tokens):
        _scan(t, f"study.identity.phi_tokens[{i}]", needles, leaks)
    _scan(study.order_text, "study.order_text", needles, leaks)
    for img in study.images:
        _scan(img.image_uid, f"study.images[{img.image_uid}]", needles, leaks)
    for r in reports:
        _scan(r.report_uid, f"report[{r.report_uid}].report_uid", needles, leaks)
        _scan(r.author_id, f"report[{r.report_uid}].author_id", needles, leaks)
        _scan(r.body, f"report[{r.report_uid}].body", needles, leaks)
    return leaks
