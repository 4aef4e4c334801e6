"""Canonical record serialization and content digests.

Every persisted or transmitted record in this package has exactly one byte
representation: a single UTF-8 line holding a JSON object whose keys are the
record's field names sorted lexicographically. Nested records are inlined as
objects, enums are rendered by name, timestamps as RFC 3339 UTC, and decimal
values carry no trailing zeros. Digests are SHA-256 over that line, so two
in-memory records that are equal always hash equal regardless of construction
order.

Fields can opt out of the canonical form (secrets, derived caches) by
declaring ``metadata={"canon": "exclude"}`` on the dataclass field.

The codec reflects on a record class once, on its first use, and caches the
result by class:

* the encode plan holds the class's sorted, non-excluded field names, each
  with its ``"name":`` key rendered once; field values are rendered by an
  encoder memoized per concrete value type;
* the decode plan holds the class's type hints, resolved once and compiled
  into one decoder per field, along with the allowed field set and the
  value each absent field takes.

A plan is a pure function of its class, so threads that race to build the
same one publish equal copies and the caches need no lock.

``format_float``, ``format_datetime`` and ``parse_datetime`` are the single
rendering authority for numbers and timestamps outside JSON lines too
(report anchors, CSV bundles, the audit hash); ``write_lines`` writes every
log and bundle file.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import re
import types
import typing
from datetime import date, datetime, timezone
from json.encoder import encode_basestring, encode_basestring_ascii

__all__ = [
    "CanonError", "canonical_encode", "canonical_decode", "canonical_digest",
    "digest_bytes", "digest_text", "format_float", "format_datetime",
    "parse_datetime", "write_lines",
]


class CanonError(ValueError):
    """Raised when a value cannot be canonically encoded or decoded."""


# matched with fullmatch, and ASCII digits only: a trailing newline or a
# non-ASCII digit would give one instant a second accepted wire form
_TS_RE = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})"
    r"(?:\.([0-9]{1,6}))?Z")
_DATE_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})")

_Encoder = typing.Callable[[typing.Any], str]
_Decoder = typing.Callable[[typing.Any], typing.Any]


def format_float(x: float) -> str:
    """Shortest round-tripping decimal, without a trailing ``.0``."""
    if math.isnan(x) or math.isinf(x):
        raise CanonError("non-finite float has no canonical form")
    if x == 0.0:
        return "0"  # fold -0.0 so encode/decode/encode is byte-stable
    s = repr(float(x))
    if s.endswith(".0"):
        s = s[:-2]
    return s


def format_datetime(dt: datetime) -> str:
    """RFC 3339 UTC with a ``Z`` suffix; fractional seconds only when nonzero."""
    if dt.tzinfo is None:
        raise CanonError("naive datetime has no canonical form; attach UTC")
    try:
        dt = dt.astimezone(timezone.utc)
    except OverflowError:
        raise CanonError(f"{dt.isoformat()} is outside years 1-9999 in UTC") from None
    # isoformat pads the year to four digits, which strftime does not for
    # years below 1000; it ends in +00:00 here, which is cut off
    text = dt.isoformat()
    if dt.microsecond:
        return text[:26].rstrip("0") + "Z"
    return text[:19] + "Z"


def parse_datetime(s: str) -> datetime:
    """Inverse of :func:`format_datetime`; the result is UTC-aware."""
    m = _TS_RE.fullmatch(s) if isinstance(s, str) else None
    if m:
        y, mo, d, hh, mm, ss, frac = m.groups()
        micro = int((frac or "").ljust(6, "0") or 0)
        try:
            return datetime(int(y), int(mo), int(d), int(hh), int(mm), int(ss),
                            micro, tzinfo=timezone.utc)
        except ValueError:
            pass  # shaped like a timestamp, but no such instant
    raise CanonError(f"bad timestamp {s!r}")


def _parse_date(s: str) -> date:
    m = _DATE_RE.fullmatch(s) if isinstance(s, str) else None
    if m:
        try:
            return date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
        except ValueError:
            pass
    raise CanonError(f"bad date {s!r}")


# ---------------------------------------------------------------------------
# encoding

# concrete value type -> its encoder; record classes -> their plan's encoder
_VALUE_ENCODERS: dict[type, _Encoder] = {}
_RECORD_ENCODERS: dict[type, _Encoder] = {}


def _encode_value(value: typing.Any) -> str:
    tp = type(value)
    return (_VALUE_ENCODERS.get(tp) or _value_encoder(tp))(value)


def _raising(message: str) -> _Encoder:
    def encode(value: typing.Any) -> str:
        raise CanonError(message)
    return encode


def _encode_bool(value: bool) -> str:
    return "true" if value else "false"


def _encode_enum(value: enum.Enum) -> str:
    # _name_ is what .name returns, without the cost of the property
    return encode_basestring_ascii(value._name_)


def _encode_datetime(value: datetime) -> str:
    return '"' + format_datetime(value) + '"'


def _encode_date(value: date) -> str:
    return '"' + value.isoformat() + '"'


def _encode_sequence(values: list | tuple) -> str:
    return "[" + ",".join([_encode_value(v) for v in values]) + "]"


def _encode_mapping(mapping: dict) -> str:
    items = []
    for k in sorted(mapping):
        if not isinstance(k, str):
            raise CanonError(f"map keys must be strings, got {type(k).__name__}")
        items.append(encode_basestring(k) + ":" + _encode_value(mapping[k]))
    return "{" + ",".join(items) + "}"


def _value_encoder(tp: type) -> _Encoder:
    # bool before Enum before int: bool is an int, and so is an IntEnum
    if issubclass(tp, bool):
        encode = _encode_bool
    elif issubclass(tp, enum.Enum):
        encode = _encode_enum
    elif issubclass(tp, int):
        encode = str
    elif issubclass(tp, float):
        encode = format_float
    elif issubclass(tp, str):
        encode = encode_basestring  # == json.dumps(s, ensure_ascii=False)
    elif issubclass(tp, datetime):
        encode = _encode_datetime
    elif issubclass(tp, date):
        encode = _encode_date
    elif issubclass(tp, bytes):
        encode = _raising("raw bytes are never serialized")
    elif dataclasses.is_dataclass(tp):
        encode = _RECORD_ENCODERS.get(tp) or _record_encoder(tp)
    elif issubclass(tp, (list, tuple)):
        encode = _encode_sequence
    elif issubclass(tp, dict):
        encode = _encode_mapping
    elif tp is type(None):
        encode = _raising("None reaches the encoder only through a bug")
    else:
        encode = _raising(f"no canonical form for {tp.__name__}")
    _VALUE_ENCODERS[tp] = encode
    return encode


def _record_encoder(cls: type) -> _Encoder:
    """Build and cache the encode plan of a dataclass."""
    plan = tuple(
        (f.name, json.dumps(f.name) + ":")
        for f in sorted(dataclasses.fields(cls), key=lambda f: f.name)
        if f.metadata.get("canon") != "exclude")

    def encode(record: typing.Any) -> str:
        parts = []
        for name, key in plan:
            v = getattr(record, name)
            if v is not None:
                parts.append(key + (_VALUE_ENCODERS.get(type(v))
                                    or _value_encoder(type(v)))(v))
        return "{" + ",".join(parts) + "}"

    _RECORD_ENCODERS[cls] = encode
    return encode


def canonical_encode(record: typing.Any) -> str:
    """Render a dataclass record as its single canonical line (no newline)."""
    encode = _RECORD_ENCODERS.get(type(record))
    if encode is None:
        if not dataclasses.is_dataclass(record) or isinstance(record, type):
            raise CanonError("canonical_encode takes a dataclass instance")
        encode = _record_encoder(type(record))
    return encode(record)


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_text(text: str) -> str:
    return digest_bytes(text.encode("utf-8"))


def canonical_digest(record: typing.Any) -> str:
    """SHA-256 hex digest of the record's canonical line."""
    return digest_text(canonical_encode(record))


def write_lines(path, lines: typing.Iterable[str]) -> None:
    """Write each line as UTF-8 followed by ``\n``, whatever the platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in lines:
            f.write(line + "\n")


# ---------------------------------------------------------------------------
# decoding

# record class -> its decode plan, compiled into one function
_RECORD_DECODERS: dict[type, _Decoder] = {}


def _is_union(origin) -> bool:
    return origin is typing.Union or origin is types.UnionType


def _is_optional(hint: typing.Any) -> bool:
    return _is_union(typing.get_origin(hint)) and type(None) in typing.get_args(hint)


def _compile(hint: typing.Any) -> _Decoder:
    """One decoder for values of ``hint``. Every check happens when a value
    is decoded, never here, so a field that is never present costs nothing
    and cannot fail."""
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if _is_union(origin):
        members = [a for a in args if a is not type(None)]
        if len(members) != 1:
            ambiguous = f"ambiguous union {hint}"

            def decode_union(value):
                if value is None:
                    return None
                raise CanonError(ambiguous)
            return decode_union
        decode_member = _compile(members[0])

        def decode_optional(value):
            return None if value is None else decode_member(value)
        return decode_optional

    missing = f"missing value for non-optional {hint}"

    def rejection(value, message: str) -> CanonError:
        return CanonError(missing if value is None else message)

    if origin in (list, tuple) and args:
        decode_item = _compile(args[0])
        as_tuple = origin is tuple

        def decode_sequence(value):
            if not isinstance(value, list):
                raise rejection(value, f"expected array, got {type(value).__name__}")
            out = [decode_item(v) for v in value]
            return tuple(out) if as_tuple else out
        return decode_sequence
    if origin is dict and len(args) == 2:
        if args[0] is not str:
            def decode_bad_map(value):
                raise rejection(value, "map keys must be strings")
            return decode_bad_map
        decode_item = _compile(args[1])

        def decode_mapping(value):
            if not isinstance(value, dict):
                raise rejection(value, f"expected object, got {type(value).__name__}")
            return {k: decode_item(v) for k, v in value.items()}
        return decode_mapping
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        members_by_name = dict(hint.__members__)

        def decode_enum(value):
            try:
                return members_by_name[value]
            except (KeyError, TypeError):
                raise rejection(
                    value, f"unknown {hint.__name__} member {value!r}") from None
        return decode_enum
    if hint is datetime or hint is date:
        parse = parse_datetime if hint is datetime else _parse_date

        def decode_instant(value):
            if value is None:
                raise CanonError(missing)
            return parse(value)
        return decode_instant
    if hint is float:
        def decode_float(value):
            if isinstance(value, float):
                if math.isfinite(value):  # json.loads reads NaN, Infinity, 1e400
                    return value
                raise CanonError("non-finite float has no canonical form")
            if isinstance(value, int) and not isinstance(value, bool):
                try:
                    return float(value)
                except OverflowError:
                    raise CanonError("integer too large for a float") from None
            raise rejection(value, f"expected number, got {type(value).__name__}")
        return decode_float
    if hint is int:
        def decode_int(value):
            if isinstance(value, int) and not isinstance(value, bool):
                return value
            raise rejection(value, f"expected integer, got {type(value).__name__}")
        return decode_int
    if hint is bool:
        def decode_bool(value):
            if isinstance(value, bool):
                return value
            raise rejection(value, f"expected bool, got {type(value).__name__}")
        return decode_bool
    if hint is str:
        def decode_str(value):
            if isinstance(value, str):
                return value
            raise rejection(value, f"expected string, got {type(value).__name__}")
        return decode_str
    if dataclasses.is_dataclass(hint):
        # looked up per call, so a class may nest itself
        def decode_record(value):
            if value is None:
                raise CanonError(missing)
            return (_RECORD_DECODERS.get(hint) or _record_decoder(hint))(value)
        return decode_record

    def decode_unknown(value):
        raise rejection(value, f"no decoder for type hint {hint!r}")
    return decode_unknown


def _absent_default(value: typing.Any) -> typing.Callable[[], typing.Any]:
    return lambda: value


def _record_decoder(cls: type) -> _Decoder:
    """Build and cache the decode plan of a dataclass."""
    hints = typing.get_type_hints(cls)
    name = cls.__name__
    fields = [f for f in dataclasses.fields(cls)
              if f.metadata.get("canon") != "exclude"]
    allowed = frozenset(f.name for f in fields)
    plan = []
    for f in fields:
        hint = hints[f.name]
        if f.default is not dataclasses.MISSING:
            absent = _absent_default(f.default)
        elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            absent = f.default_factory  # type: ignore[misc]
        elif _is_optional(hint):
            absent = _absent_default(None)
        else:
            def absent(field_name=f.name):
                raise CanonError(f"missing field {field_name!r} for {name}")
        plan.append((f.name, _compile(hint), absent))

    def decode(obj: typing.Any) -> typing.Any:
        if not isinstance(obj, dict):
            raise CanonError(f"expected object for {name}")
        if not allowed.issuperset(obj):
            unknown = set(obj) - allowed
            raise CanonError(f"unknown field(s) for {name}: {sorted(unknown)}")
        kwargs = {}
        for field_name, decode_field, absent in plan:
            if field_name in obj:
                kwargs[field_name] = decode_field(obj[field_name])
            else:
                kwargs[field_name] = absent()
        return cls(**kwargs)

    _RECORD_DECODERS[cls] = decode
    return decode


def canonical_decode(line: str, cls: type) -> typing.Any:
    """Parse one canonical line back into an instance of ``cls``."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, an integer past int's digit limit, or nesting
        # deeper than the interpreter's recursion limit
        raise CanonError(f"not a canonical record: {e}") from None
    # only an escape can put a lone surrogate, which UTF-8 cannot hold, into
    # text that was read as UTF-8
    if "\\u" in line:
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise CanonError("lone surrogate escape has no UTF-8 form") from None
    return (_RECORD_DECODERS.get(cls) or _record_decoder(cls))(obj)
