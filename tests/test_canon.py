"""Canonical serialization: goldens, round trips, digest determinism."""

import dataclasses
import json
import re
import subprocess
import sys
import threading
import typing
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from enum import Enum, IntEnum
from pathlib import Path
from typing import Any, Optional, Union

import pytest
from hypothesis import given, strategies as st

from labelloop import canon
from labelloop.canon import (
    CanonError, canonical_decode, canonical_digest, canonical_encode,
    digest_text,
)
from labelloop.model import IdentityBlock, ImageRef, Modality, StudyRecord
from labelloop.protocol import Envelope, EnvelopeKind, make_envelope

from support import golden_text


class Color(Enum):
    RED = "RED"
    BLUE = "BLUE"


@dataclass(frozen=True)
class Inner:
    name: str
    score: float


@dataclass(frozen=True)
class Sample:
    uid: str
    n: int
    ratio: float
    color: Color
    when: datetime
    born: date
    tags: list[str]
    weights: dict[str, float]
    inner: Inner
    note: Optional[str] = None
    secret: bytes = field(default=b"", metadata={"canon": "exclude"})


def make_sample(**overrides) -> Sample:
    base = dict(
        uid="u1",
        n=3,
        ratio=0.5,
        color=Color.RED,
        when=datetime(2024, 5, 6, 7, 8, 9, tzinfo=timezone.utc),
        born=date(1990, 12, 31),
        tags=["b", "a"],
        weights={"z": 1.0, "a": 0.25},
        inner=Inner("x", 2.5),
    )
    base.update(overrides)
    return Sample(**base)


def test_golden_study_line(fixture_study):
    assert canonical_encode(fixture_study) == golden_text("study.line")


def test_golden_study_digest(fixture_study):
    assert canonical_digest(fixture_study) == golden_text("study.digest")


def test_keys_sorted_and_compact():
    line = canonical_encode(make_sample())
    assert " " not in line.replace('"b", "a"', "")  # no pretty-print whitespace
    keys = [k.split('"')[1] for k in line.split(",")
            if k.lstrip("{").startswith('"') and ":" in k]
    # object keys appear in sorted order at the top level
    top = ["born", "color", "inner", "n", "ratio", "tags", "uid", "weights", "when"]
    for a, b in zip(top, top[1:]):
        assert line.index(f'"{a}"') < line.index(f'"{b}"')


def test_floats_have_no_trailing_zeros():
    line = canonical_encode(make_sample(ratio=1.0))
    assert '"ratio":1,' in line or line.endswith('"ratio":1}')
    line = canonical_encode(make_sample(ratio=0.30))
    assert '"ratio":0.3' in line


def test_none_fields_omitted():
    assert '"note"' not in canonical_encode(make_sample(note=None))
    assert '"note":"hi"' in canonical_encode(make_sample(note="hi"))


def test_excluded_field_never_serialized():
    line = canonical_encode(make_sample(secret=b"\x01\x02"))
    assert "secret" not in line


def test_timestamp_rendering():
    s = make_sample(when=datetime(2024, 1, 2, 3, 4, 5, 120000, tzinfo=timezone.utc))
    assert '"when":"2024-01-02T03:04:05.12Z"' in canonical_encode(s)


@pytest.mark.parametrize("year", [1, 999, 1000, 9999])
def test_years_render_four_digits_and_round_trip(year):
    s = make_sample(when=datetime(year, 1, 2, 3, 4, 5, 600, tzinfo=timezone.utc),
                    born=date(year, 12, 31))
    line = canonical_encode(s)
    assert f'"when":"{year:04d}-01-02T03:04:05.0006Z"' in line
    assert f'"born":"{year:04d}-12-31"' in line
    assert canonical_decode(line, Sample) == s


@pytest.mark.parametrize("when", [
    datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=5))),
    datetime(9999, 12, 31, 23, tzinfo=timezone(timedelta(hours=-5))),
])
def test_instant_outside_utc_year_range_rejected(when):
    with pytest.raises(CanonError, match="outside years 1-9999 in UTC"):
        canonical_encode(make_sample(when=when))


def test_naive_datetime_rejected():
    with pytest.raises(CanonError):
        canonical_encode(make_sample(when=datetime(2024, 1, 1)))


def test_non_finite_float_rejected():
    with pytest.raises(CanonError):
        canonical_encode(make_sample(ratio=float("nan")))


def test_round_trip_equality():
    s = make_sample(note="keep")
    line = canonical_encode(s)
    back = canonical_decode(line, Sample)
    assert back == s
    assert canonical_encode(back) == line


def test_decode_rejects_unknown_field():
    with pytest.raises(CanonError, match="unknown field"):
        canonical_decode('{"uid":"u","bogus":1}', Inner)


def test_decode_rejects_missing_field():
    with pytest.raises(CanonError, match="missing field"):
        canonical_decode('{"name":"x"}', Inner)


@dataclass(frozen=True)
class Either:
    value: int | str


@dataclass(frozen=True)
class MaybeEither:
    value: Union[int, str, None] = None


def _sample_line(**fields) -> str:
    obj = json.loads(canonical_encode(make_sample()))
    obj.update(fields)
    return json.dumps(obj)


@pytest.mark.parametrize("fields, message", [
    ({"n": True}, "expected integer, got bool"),
    ({"n": 1.5}, "expected integer, got float"),
    ({"ratio": "0.5"}, "expected number, got str"),
    ({"ratio": False}, "expected number, got bool"),
    ({"uid": 7}, "expected string, got int"),
    ({"tags": ["a", None]}, "missing value for non-optional <class 'str'>"),
    ({"color": "GREEN"}, "unknown Color member 'GREEN'"),
    ({"when": "2024-05-06 07:08:09Z"}, "bad timestamp '2024-05-06 07:08:09Z'"),
    ({"when": "2024-05-06T07:08:09"}, "bad timestamp '2024-05-06T07:08:09'"),
    ({"born": "1990/12/31"}, "bad date '1990/12/31'"),
    ({"inner": ["x", 2.5]}, "expected object for Inner"),
    ({"uid": None}, "missing value for non-optional <class 'str'>"),
    ({"inner": None}, f"missing value for non-optional {Inner}"),
    ({"weights": {"a": "heavy"}}, "expected number, got str"),
])
def test_decode_rejection_messages(fields, message):
    with pytest.raises(CanonError, match=f"^{re.escape(message)}$"):
        canonical_decode(_sample_line(**fields), Sample)


@pytest.mark.parametrize("fields, message", [
    ({"tags": "ab"}, "expected array, got str"),
    ({"tags": 5}, "expected array, got int"),
    ({"weights": [1]}, "expected object, got list"),
    ({"color": ["RED"]}, "unknown Color member ['RED']"),
    ({"when": 5}, "bad timestamp 5"),
    ({"when": "2024-02-30T00:00:00Z"}, "bad timestamp '2024-02-30T00:00:00Z'"),
    ({"born": 19901231}, "bad date 19901231"),
    ({"born": "1990-13-01"}, "bad date '1990-13-01'"),
])
def test_decode_rejects_malformed_shapes(fields, message):
    # each of these once escaped as TypeError, AttributeError or a bare
    # ValueError, which the hub does not turn into a REJECTED ack
    with pytest.raises(CanonError, match=f"^{re.escape(message)}$"):
        canonical_decode(_sample_line(**fields), Sample)


@pytest.mark.parametrize("fields, message", [
    ({"when": "2024-05-06T07:08:09Z\n"}, "bad timestamp '2024-05-06T07:08:09Z\\n'"),
    ({"born": "1990-12-31\n"}, "bad date '1990-12-31\\n'"),
    ({"born": "\u0661\u0669\u0669\u0660-12-31"},
     "bad date '\u0661\u0669\u0669\u0660-12-31'"),
    ({"ratio": 10 ** 400}, "integer too large for a float"),
])
def test_decode_rejects_second_wire_forms_and_overflow(fields, message):
    # a trailing newline or non-ASCII digits once decoded to the same instant
    # as the canonical text; a huge integer once escaped as OverflowError
    with pytest.raises(CanonError, match=f"^{re.escape(message)}$"):
        canonical_decode(_sample_line(**fields), Sample)


@pytest.mark.parametrize("line", [
    "[" * 100_000,
    '{"name":"x","score":1' + "0" * 5000 + "}",
], ids=["deep-nesting", "5000-digit-integer"])
def test_decode_maps_parser_limits_to_canon_error(line):
    # json.loads raises RecursionError on deep nesting and a bare ValueError
    # on an integer past the interpreter's digit limit
    with pytest.raises(CanonError, match="^not a canonical record: "):
        canonical_decode(line, Inner)


def test_decode_null_optional_is_none():
    assert canonical_decode(_sample_line(note=None), Sample).note is None


def test_decode_rejects_ambiguous_union():
    with pytest.raises(CanonError, match=r"^ambiguous union int \| str$"):
        canonical_decode('{"value":1}', Either)
    with pytest.raises(
            CanonError,
            match=f"^{re.escape('ambiguous union typing.Union[int, str, NoneType]')}$"):
        canonical_decode('{"value":1}', MaybeEither)
    # an absent or null optional never reaches the ambiguity
    assert canonical_decode('{}', MaybeEither) == MaybeEither()
    assert canonical_decode('{"value":null}', MaybeEither) == MaybeEither()


def test_decode_rejects_non_json():
    with pytest.raises(CanonError, match="^not a canonical record: "):
        canonical_decode('{"name":', Inner)


class Level(IntEnum):
    LOW = 1


@dataclass(frozen=True)
class Loose:
    a: Any
    b: Any
    c: Any


def test_encode_precedence_bool_then_enum_then_int():
    assert canonical_encode(Loose(True, Level.LOW, 1)) == '{"a":true,"b":"LOW","c":1}'
    # the per-type encoder cache must not let one type's encoder leak to another
    assert canonical_encode(Loose(1, True, Level.LOW)) == '{"a":1,"b":true,"c":"LOW"}'


def _studies(n: int) -> list[StudyRecord]:
    return [StudyRecord(
        study_uid=f"S{i}", site_id="siteA",
        identity=IdentityBlock(f"Pat {i}", f"P{i:04d}", date(1970, 1, 1 + i % 28),
                               f"ACC{i}", [f"Pat {i}", f"P{i:04d}"]),
        images=[ImageRef(f"IMG{i}.{j}", 512, 512, 1 + j) for j in range(2)],
        modality=Modality.CT,
        acquired_at=datetime(2024, 1, 1, 0, 0, i % 60, tzinfo=timezone.utc),
        order_text=f"CT head \u00e9 {i}",
    ) for i in range(n)]


def _envelope_lines(n: int) -> list[str]:
    when = datetime(2024, 2, 2, tzinfo=timezone.utc)
    return [canonical_encode(make_envelope("siteA", EnvelopeKind.STUDY, s, when))
            for s in _studies(n)]


def _decode_all(lines: list[str]) -> list[tuple[Envelope, StudyRecord]]:
    out = []
    for line in lines:
        e = canonical_decode(line, Envelope)
        out.append((e, canonical_decode(e.payload, StudyRecord)))
    return out


@pytest.fixture
def fresh_plans(monkeypatch):
    for cache in ("_VALUE_ENCODERS", "_RECORD_ENCODERS", "_RECORD_DECODERS"):
        monkeypatch.setattr(canon, cache, {})


def test_plans_resolve_hints_once_per_class(fresh_plans, monkeypatch):
    resolved = Counter()
    real = typing.get_type_hints

    def counting(obj, *args, **kwargs):
        resolved[obj] += 1
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(typing, "get_type_hints", counting)
    lines = _envelope_lines(1000)
    decoded = _decode_all(lines)
    assert [canonical_encode(e) for e, _ in decoded] == lines
    assert all(canonical_encode(s) == e.payload for e, s in decoded)
    assert set(resolved) == {Envelope, StudyRecord, IdentityBlock, ImageRef}
    assert max(resolved.values()) == 1


def test_threads_racing_to_build_plans_agree(fresh_plans):
    lines = _envelope_lines(200)
    expected = _decode_all(lines)
    canon._RECORD_DECODERS.clear()
    barrier = threading.Barrier(4)
    results: list = [None] * 4

    def work(k: int) -> None:
        barrier.wait()
        results[k] = _decode_all(lines)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so the builds interleave
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)


def test_digest_changes_with_one_character(fixture_study):
    line = golden_text("study.line")
    mutated = line.replace("siteA", "siteB")
    assert digest_text(line) != digest_text(mutated)


def test_digest_independent_of_construction_order(fixture_study):
    # build the same record twice with differently ordered collections
    a = make_sample(weights={"a": 0.25, "z": 1.0})
    b = make_sample(weights={"z": 1.0, "a": 0.25})
    assert canonical_digest(a) == canonical_digest(b)


def test_study_round_trip(fixture_study):
    line = canonical_encode(fixture_study)
    back = canonical_decode(line, StudyRecord)
    assert back == fixture_study
    assert canonical_encode(back) == line


text_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20)


@given(
    uid=text_strategy,
    n=st.integers(min_value=-10**9, max_value=10**9),
    ratio=st.floats(allow_nan=False, allow_infinity=False, width=64),
    tags=st.lists(text_strategy, max_size=5),
    weights=st.dictionaries(text_strategy, st.floats(0, 1, allow_nan=False), max_size=4),
    note=st.none() | text_strategy,
)
def test_round_trip_property(uid, n, ratio, tags, weights, note):
    s = make_sample(uid=uid, n=n, ratio=ratio, tags=tags, weights=weights, note=note)
    line = canonical_encode(s)
    back = canonical_decode(line, Sample)
    assert canonical_encode(back) == line
    assert back.n == s.n and back.tags == s.tags and back.note == s.note


@given(name=text_strategy)
def test_string_rendering_matches_json(name):
    expected = '{"name":' + json.dumps(name, ensure_ascii=False) + ',"score":0.5}'
    assert canonical_encode(Inner(name, 0.5)) == expected


class Name(str):
    pass


# each line as the closure-walk encoder that preceded the generated one wrote
# it: a value whose runtime type is not its declared type renders by its
# runtime type, and a None field is left out whether optional or not
SAMPLE_TAIL = '"uid":"u1","weights":{"a":0.25,"z":1},"when":"2024-05-06T07:08:09Z"}'
RUNTIME_TYPE_LINES = {
    "bool-in-float": (
        make_sample(ratio=True),
        '{"born":"1990-12-31","color":"RED","inner":{"name":"x","score":2.5},'
        '"n":3,"ratio":true,"tags":["b","a"],' + SAMPLE_TAIL),
    "int-in-float": (
        make_sample(ratio=3),
        '{"born":"1990-12-31","color":"RED","inner":{"name":"x","score":2.5},'
        '"n":3,"ratio":3,"tags":["b","a"],' + SAMPLE_TAIL),
    "bool-in-nested-float": (
        make_sample(inner=Inner("x", False)),
        '{"born":"1990-12-31","color":"RED","inner":{"name":"x","score":false},'
        '"n":3,"ratio":0.5,"tags":["b","a"],' + SAMPLE_TAIL),
    "str-subclass": (
        make_sample(uid=Name('ué"1'), tags=[Name("t")]),
        '{"born":"1990-12-31","color":"RED","inner":{"name":"x","score":2.5},'
        '"n":3,"ratio":0.5,"tags":["t"],"uid":"ué\\"1",'
        '"weights":{"a":0.25,"z":1},"when":"2024-05-06T07:08:09Z"}'),
    "int-enum-in-int": (
        make_sample(n=Level.LOW),
        '{"born":"1990-12-31","color":"RED","inner":{"name":"x","score":2.5},'
        '"n":"LOW","ratio":0.5,"tags":["b","a"],' + SAMPLE_TAIL),
    "tuple-for-list": (
        make_sample(tags=("b", "a")),
        '{"born":"1990-12-31","color":"RED","inner":{"name":"x","score":2.5},'
        '"n":3,"ratio":0.5,"tags":["b","a"],' + SAMPLE_TAIL),
    "none-in-non-optional": (
        make_sample(uid=None, inner=None),
        '{"born":"1990-12-31","color":"RED","n":3,"ratio":0.5,"tags":["b","a"],'
        '"weights":{"a":0.25,"z":1},"when":"2024-05-06T07:08:09Z"}'),
}


@pytest.mark.parametrize("record, line", RUNTIME_TYPE_LINES.values(),
                         ids=RUNTIME_TYPE_LINES)
def test_a_value_of_another_runtime_type_renders_as_before(record, line):
    assert canonical_encode(record) == line


def test_importing_the_cli_generates_no_record_function():
    # plans are built on first use, so setup never pays for exec
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import labelloop.cli; from labelloop import canon; "
            "print(len(canon._RECORD_ENCODERS), len(canon._RECORD_DECODERS), "
            "len(canon._VALUE_ENCODERS))")
    src = str(Path(canon.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-E", "-s", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == ["0", "0", "0"]


def walked_line(record) -> str:
    """The record rendered field by field through the dispatch on each
    value's runtime type, as the encoder before the generated ones did."""
    values = [(f.name, getattr(record, f.name))
              for f in sorted(dataclasses.fields(record), key=lambda f: f.name)
              if f.metadata.get("canon") != "exclude"]
    return "{" + ",".join(json.dumps(name) + ":" + canon._encode_value(v)
                          for name, v in values if v is not None) + "}"


finite = st.floats(allow_nan=False, allow_infinity=False)
names = text_strategy | st.builds(Name, text_strategy)


@given(
    uid=st.none() | names,
    n=st.integers() | st.booleans() | st.just(Level.LOW),
    ratio=finite | st.integers() | st.booleans(),
    color=st.sampled_from(Color) | st.just(Level.LOW),
    tags=st.lists(names, max_size=3) | st.lists(names, max_size=3).map(tuple),
    inner=st.none() | st.builds(Inner, names, finite | st.integers() | st.booleans()),
    note=st.none() | names,
)
def test_generated_encoder_matches_the_runtime_type_dispatch(uid, n, ratio, color,
                                                             tags, inner, note):
    s = make_sample(uid=uid, n=n, ratio=ratio, color=color, tags=tags, inner=inner,
                    note=note)
    assert canonical_encode(s) == walked_line(s)


@dataclass(frozen=True)
class Node:
    value: int
    child: Optional["Node"] = None


def test_a_record_that_nests_its_own_class_round_trips(fresh_plans):
    tree = Node(1, Node(2, Node(3)))
    line = canonical_encode(tree)
    assert line == '{"child":{"child":{"value":3},"value":2},"value":1}'
    assert canonical_decode(line, Node) == tree
