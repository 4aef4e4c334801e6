"""Pseudonyms, date shifting, scrubbing, and the independent leak check."""

import base64
import dataclasses
import re
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from labelloop.canon import canonical_encode
from labelloop.deid import (
    REDACTION, DeidPolicy, PolicyError, _b32_of_10_bytes, _scrubber,
    date_shift_days, default_policy, deidentify_study, pseudonymize,
    verify_deidentified,
)
from labelloop.model import (
    IdentityBlock, ImageRef, Modality, StudyRecord,
)
from labelloop.reports import InteractiveReport, extract_labels, parse_body

from support import golden_text

SECRET = b"k"
WHEN = datetime(2024, 6, 1, 12, 0, tzinfo=timezone.utc)


def make_study(name="John Doe", pid="P001", body_extra="") -> tuple[StudyRecord, InteractiveReport]:
    study = StudyRecord(
        study_uid="S9",
        site_id="siteA",
        identity=IdentityBlock(name, pid, date(1970, 5, 5), "ACC1", [name, pid]),
        images=[ImageRef("IMG1", 512, 512, 10)],
        modality=Modality.MR,
        acquired_at=WHEN,
        order_text=f"MR brain for {name} ({pid})",
    )
    report = InteractiveReport(
        report_uid="R9", study_uid="S9",
        body=f"Mr. {name} presents with headache. No hemorrhage.{body_extra}",
        authored_at=WHEN + timedelta(hours=2), author_id="rad7",
    )
    return study, report


def test_pseudonym_matches_independent_hmac_oracle():
    assert pseudonymize(SECRET, "patient", "P001") == golden_text(
        "pseudonym_patient_P001.txt")


def test_pseudonym_scope_separates():
    assert pseudonymize(SECRET, "accession", "P001") == golden_text(
        "pseudonym_accession_P001.txt")
    assert (pseudonymize(SECRET, "patient", "P001")
            != pseudonymize(SECRET, "accession", "P001"))


def test_pseudonym_deterministic():
    a = pseudonymize(b"\x01\x02", "study", "S1")
    b = pseudonymize(b"\x01\x02", "study", "S1")
    assert a == b and len(a) == 16


@given(st.binary(min_size=10, max_size=10))
def test_pseudonym_base32_matches_stdlib(mac_prefix):
    assert _b32_of_10_bytes(mac_prefix) == base64.b32encode(mac_prefix).decode("ascii")


def test_pseudonym_rejects_empty_value():
    with pytest.raises(ValueError):
        pseudonymize(SECRET, "patient", "")


def test_date_shift_matches_oracle():
    assert date_shift_days(SECRET, "P001") == int(golden_text("date_shift_P001.txt"))


@given(pid=st.text(min_size=1, max_size=12))
def test_date_shift_range(pid):
    off = date_shift_days(b"secret", pid)
    assert -182 <= off <= 182


def test_literal_replacement_in_body():
    study, report = make_study()
    policy = default_policy(SECRET)
    _, [r2], _ = deidentify_study(study, [report], policy, now=WHEN)
    assert r2.body.startswith("Mr. [REDACTED] presents")
    assert "John Doe" not in r2.body


def test_relative_time_between_studies_preserved():
    policy = default_policy(SECRET)
    s1, _ = make_study()
    s2 = dataclasses.replace(s1, study_uid="S10",
                             acquired_at=WHEN + timedelta(days=30))
    d1, _, _ = deidentify_study(s1, [], policy, now=WHEN)
    d2, _, _ = deidentify_study(s2, [], policy, now=WHEN)
    assert d2.acquired_at - d1.acquired_at == timedelta(days=30)


def test_same_patient_same_pseudonym_across_batches():
    policy = default_policy(SECRET)
    s1, _ = make_study()
    s2 = dataclasses.replace(s1, study_uid="S10")
    d1, _, _ = deidentify_study(s1, [], policy, now=WHEN)
    d2, _, _ = deidentify_study(s2, [], policy, now=WHEN)
    assert d1.identity.patient_id == d2.identity.patient_id
    assert d1.study_uid != d2.study_uid


def test_fixture_study_has_zero_leaks():
    study, report = make_study()
    policy = default_policy(SECRET)
    s2, rs2, _ = deidentify_study(study, [report], policy, now=WHEN)
    assert verify_deidentified(s2, rs2, study.identity.phi_tokens) == []


def test_verifier_catches_planted_leak():
    study, report = make_study()
    policy = default_policy(SECRET)
    s2, rs2, _ = deidentify_study(study, [report], policy, now=WHEN)
    dirty = dataclasses.replace(rs2[0], body=rs2[0].body + " signed john doe")
    leaks = verify_deidentified(s2, [dirty], study.identity.phi_tokens)
    assert len(leaks) == 1
    assert leaks[0].field_path.endswith(".body")
    assert leaks[0].token == "John Doe"


def test_referential_integrity_survives():
    study, report = make_study()
    s2, [r2], _ = deidentify_study(study, [report], default_policy(SECRET), now=WHEN)
    assert r2.study_uid == s2.study_uid


def test_anchors_survive_scrubbing():
    body_extra = (" Nodule {{link|image=IMG1|frame=3|region=10,10,40,40|meas=6mm}}"
                  " present.")
    study, report = make_study(body_extra=body_extra)
    s2, [r2], _ = deidentify_study(study, [report], default_policy(SECRET), now=WHEN)
    parsed = parse_body(r2, s2)
    assert len(parsed.anchors) == 1
    labels, _ = extract_labels(parsed)
    hyperlinked = [l for l in labels if l.region is not None]
    assert len(hyperlinked) == 1
    assert hyperlinked[0].region.x0 == 10


def test_policy_keeps_the_secret_out_of_repr_and_canon():
    policy = default_policy(b"site-secret-bytes")
    policy.validate()
    assert "site-secret" not in repr(policy) + canonical_encode(policy)
    with pytest.raises(PolicyError, match="site_secret"):
        DeidPolicy(b"").validate()
    study, report = make_study()
    with pytest.raises(PolicyError, match="site_secret"):
        deidentify_study(study, [report], DeidPolicy(b""), now=WHEN)


names = st.sampled_from([
    "Ann Park", "Liam Reyes", "Sofia Marsh", "Omar Webb", "Ivy Lowe",
    "Noah Chan", "Mara Quinn", "Eli Vogel",
])
pids = st.from_regex(r"P[0-9]{3,6}", fullmatch=True)


@settings(max_examples=60, deadline=None)
@given(name=names, pid=pids, days=st.integers(0, 900),
       secret=st.binary(min_size=1, max_size=32))
def test_deidentify_then_verify_always_clean(name, pid, days, secret):
    study, report = make_study(name=name, pid=pid)
    study = dataclasses.replace(study, acquired_at=WHEN + timedelta(days=days))
    s2, rs2, _ = deidentify_study(study, [report], default_policy(secret), now=WHEN)
    assert verify_deidentified(s2, rs2, [name, pid]) == []


def _regex_scrub(tokens: list[str], text: str) -> str:
    """The reference: one case-insensitive alternation, longest token first."""
    ordered = sorted({t for t in tokens if t}, key=len, reverse=True)
    if not ordered:
        return text
    pattern = re.compile("|".join(re.escape(t) for t in ordered), re.IGNORECASE)
    return pattern.sub(REDACTION, text)


# ASCII letters beside the non-ASCII letters that Unicode case folding
# matches to them: KELVIN SIGN, LONG S, dotted and dotless I
_ASCII = "aAkKsSiIn .|"
_MIXED = _ASCII + "\u212a\u017f\u0130\u0131"


@settings(max_examples=400, deadline=None)
@given(data=st.data(), alphabet=st.sampled_from([_ASCII, _MIXED]),
       text_alphabet=st.sampled_from([_ASCII, _MIXED]))
def test_scrubber_matches_regex_reference(data, alphabet, text_alphabet):
    tokens = data.draw(st.lists(st.text(alphabet, max_size=4), max_size=5))
    text = data.draw(st.text(text_alphabet, max_size=40))
    if tokens and data.draw(st.booleans()):
        planted = data.draw(st.sampled_from(tokens))
        text += planted.swapcase() * 3 + text
    assert _scrubber(tokens)(text) == _regex_scrub(tokens, text)


def test_ascii_study_compiles_no_regex(monkeypatch):
    compiled = []
    real = re.compile

    def counting(*args, **kwargs):
        compiled.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(re, "compile", counting)
    study, report = make_study()
    _, [r2], _ = deidentify_study(study, [report], default_policy(SECRET), now=WHEN)
    assert compiled == []
    assert r2.body.startswith("Mr. [REDACTED] presents")
    # a non-ASCII text still scrubs, through the regex
    s3, _, _ = deidentify_study(
        dataclasses.replace(study, order_text="MR for JOHN DOE \u00e9"), [],
        default_policy(SECRET), now=WHEN)
    assert s3.order_text == "MR for [REDACTED] \u00e9"
    assert len(compiled) == 1


def test_receipt_holds_no_phi():
    study, report = make_study()
    policy = default_policy(SECRET)
    _, _, receipt = deidentify_study(study, [report], policy, now=WHEN)
    assert [f.name for f in dataclasses.fields(receipt)] == [
        "fields_transformed", "performed_at"]
    assert receipt.fields_transformed == [
        "accession_number", "acquired_at", "birth_date", "body", "order_text",
        "patient_id", "patient_name"]
    assert receipt.performed_at == WHEN
    shown = repr(receipt) + canonical_encode(receipt)
    for token in study.identity.phi_tokens + [study.identity.accession_number]:
        assert token not in shown
