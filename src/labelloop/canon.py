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

The codec reflects on a record class once, on its first use: it resolves the
class's type hints and generates, with ``exec``, one encode and one decode
function for it, cached by class (the plans). Importing the package builds
none.

* The encode function reads the non-excluded fields in name order. When
  each holds None or a value of exactly its declared type, it renders every
  value inline by that type's rule and builds the line in one step; otherwise
  each value goes through an encoder memoized per concrete value type. Both
  give the same bytes, as the rendering follows the runtime type.
* The decode function checks that the object is one with no unknown field,
  then decodes each field in declaration order: inline when the JSON value
  has the type that a valid value of the declared type has, and through a
  checked per-field decoder otherwise, which raises every ``CanonError``.
  Nested records go through their own generated functions, and the record
  is made by the class's own ``__init__``.

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
        encode = _RECORD_ENCODERS.get(tp) or _build_plans(tp)[0]
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


def canonical_encode(record: typing.Any) -> str:
    """Render a dataclass record as its single canonical line (no newline)."""
    encode = _RECORD_ENCODERS.get(type(record))
    if encode is None:
        if not dataclasses.is_dataclass(record) or isinstance(record, type):
            raise CanonError("canonical_encode takes a dataclass instance")
        encode = _build_plans(type(record))[0]
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
            return (_RECORD_DECODERS.get(hint) or _build_plans(hint)[1])(value)
        return decode_record

    def decode_unknown(value):
        raise rejection(value, f"no decoder for type hint {hint!r}")
    return decode_unknown


# ---------------------------------------------------------------------------
# generated record functions


class _Source:
    """The text of one generated function and the values it closes over."""

    def __init__(self):
        self.lines: list[str] = []
        self._names: dict[int, str] = {}
        self._values: dict[str, typing.Any] = {}
        self._vars = 0

    def ref(self, value: typing.Any) -> str:
        """The name under which the function sees ``value``."""
        name = self._names.get(id(value))
        if name is None:
            name = self._names[id(value)] = f"_{len(self._values)}"
            self._values[name] = value
        return name

    def var(self) -> str:
        """A fresh local name, for a comprehension's item."""
        self._vars += 1
        return f"x{self._vars}"

    def build(self, filename: str) -> typing.Callable:
        # the values become closure cells of a factory, which the body reads
        # as fast as locals
        text = (f"def make({', '.join(self._values)}):\n"
                + "".join(f"    {line}\n" for line in self.lines)
                + "    return f\n")
        namespace: dict[str, typing.Any] = {}
        exec(compile(text, filename, "exec"), namespace)
        return namespace["make"](**self._values)


def _is_record(tp: typing.Any) -> bool:
    return isinstance(tp, type) and dataclasses.is_dataclass(tp)


def _encode_shortcut(hint: typing.Any, var: str, src: _Source,
                     building: tuple) -> tuple[str, str] | None:
    """For a value ``var`` declared as ``hint``: the exact type on which it
    can skip ``_encode_value``'s dispatch, and the expression that renders it
    then, exactly as that dispatch would; None if the hint offers none."""
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if _is_union(origin):
        members = [a for a in args if a is not type(None)]
        return (_encode_shortcut(members[0], var, src, building)
                if len(members) == 1 else None)
    if origin in (list, tuple):
        item = src.var()
        render = f"{src.ref(_encode_value)}({item})"
        shortcut = _encode_shortcut(args[0], item, src, building) if args else None
        if shortcut is not None:
            render = f"{shortcut[1]} if type({item}) is {shortcut[0]} else {render}"
        return (src.ref(origin),
                f"'[' + ','.join([{render} for {item} in {var}]) + ']'")
    if not isinstance(hint, type):
        return None
    # the order of _value_encoder: bool before Enum before int
    if hint is bool:
        return src.ref(bool), f"('true' if {var} else 'false')"
    if issubclass(hint, enum.Enum):
        return src.ref(hint), f"{src.ref(encode_basestring_ascii)}({var}._name_)"
    if hint is int:
        return src.ref(int), f"str({var})"
    if hint is float:
        return src.ref(float), f"{src.ref(format_float)}({var})"
    if hint is str:
        return src.ref(str), f"{src.ref(encode_basestring)}({var})"
    if hint is datetime:
        return src.ref(datetime), f"'\"' + {src.ref(format_datetime)}({var}) + '\"'"
    if hint is date:
        return src.ref(date), f"'\"' + {var}.isoformat() + '\"'"
    if _is_record(hint) and not issubclass(hint, (int, float, str, date, bytes)):
        return src.ref(hint), f"{src.ref(_nested(hint, building)[0])}({var})"
    return None


def _decode_shortcut(hint: typing.Any, var: str, src: _Source, building: tuple) -> str:
    """An expression for the decoded value of the JSON value ``var``: a
    shortcut when ``var`` has the JSON type a valid value of ``hint`` has, and
    ``_compile``'s checked decoder otherwise, so that every fault raises the
    same ``CanonError``."""
    checked = f"{src.ref(_compile(hint))}({var})"
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if _is_union(origin):
        members = [a for a in args if a is not type(None)]
        if len(members) != 1:
            return checked
        return f"(None if {var} is None else {_decode_shortcut(members[0], var, src, building)})"
    if origin is list and args:
        item = src.var()
        items = f"[{_decode_shortcut(args[0], item, src, building)} for {item} in {var}]"
        return f"({items} if type({var}) is list else {checked})"
    if not isinstance(hint, type):
        return checked
    # the order of _compile: Enum before the scalar types
    if issubclass(hint, enum.Enum):
        members = src.ref(dict(hint.__members__))
        return f"({members}[{var}] if type({var}) is str and {var} in {members} else {checked})"
    if hint is datetime or hint is date:
        parse = src.ref(parse_datetime if hint is datetime else _parse_date)
        return f"({parse}({var}) if type({var}) is str else {checked})"
    if hint is float:  # json.loads reads NaN, Infinity and 1e400 as floats
        return f"({var} if type({var}) is float and {src.ref(math.isfinite)}({var}) else {checked})"
    if hint is int or hint is bool or hint is str:
        return f"({var} if type({var}) is {src.ref(hint)} else {checked})"
    if _is_record(hint):
        return f"({src.ref(_nested(hint, building)[1])}({var}) if type({var}) is dict else {checked})"
    return checked


def _canon_fields(cls: type) -> list[dataclasses.Field]:
    return [f for f in dataclasses.fields(cls) if f.metadata.get("canon") != "exclude"]


def _generate_encoder(cls: type, hints: dict, building: tuple) -> _Encoder:
    """One function that renders a ``cls`` record: its fields in name order,
    None fields left out. When every field holds None or a value of exactly
    its declared type, one string is built from the declared types'
    shortcuts; otherwise each value goes through ``_encode_value``."""
    src = _Source()
    fields = sorted(_canon_fields(cls), key=lambda f: f.name)
    encode_value = src.ref(_encode_value)
    src.lines.append("def f(r):")
    checks, pieces, text = [], [], ""
    for i, f in enumerate(fields):
        v, s, key = f"v{i}", f"s{i}", json.dumps(f.name) + ":"
        src.lines.append(f"    {v} = r.{f.name}")
        shortcut = _encode_shortcut(hints[f.name], v, src, building)
        if shortcut is None:
            render = f"{encode_value}({v})"
        else:
            render = shortcut[1]
            checks.append(f"type({v}) is {shortcut[0]}")
        if shortcut is not None and not _is_optional(hints[f.name]):
            pieces.append(f"{s} = {render}")
            text += f",{key}{{{s}}}"
        else:  # a field that may be None, and is then left out
            if shortcut is not None:
                checks[-1] = f"({checks[-1]} or {v} is None)"
            pieces.append(f"{s} = '' if {v} is None else {',' + key!r} + {render}")
            text += f"{{{s}}}"
    src.lines.append(f"    if {' and '.join(checks) or 'True'}:")
    src.lines += [f"        {piece}" for piece in pieces]
    # every field's text starts with a comma, and the first one's is dropped
    if text.startswith(","):  # the first field is never left out
        src.lines.append(f"        return f{'{{' + text[1:] + '}}'!r}")
    else:
        src.lines.append(f"        return '{{' + f{text!r}[1:] + '}}'")
    src.lines.append("    parts = []")
    for i, f in enumerate(fields):
        src.lines += [f"    if v{i} is not None:",
                      f"        parts.append({json.dumps(f.name) + ':'!r} + {encode_value}(v{i}))"]
    src.lines.append("    return '{' + ','.join(parts) + '}'")
    return src.build(f"<canon encoder of {cls.__qualname__}>")


def _generate_decoder(cls: type, hints: dict, building: tuple) -> _Decoder:
    """One function that builds a ``cls`` record from a parsed JSON object:
    the object's shape is checked, then each field is decoded in declaration
    order, and the record is made by the class's own ``__init__``."""
    name = cls.__name__
    fields = _canon_fields(cls)
    src = _Source()
    error = src.ref(CanonError)
    allowed = src.ref(frozenset(f.name for f in fields))
    src.lines += [
        "def f(obj):",
        "    if not isinstance(obj, dict):",
        f"        raise {error}({f'expected object for {name}'!r})",
        f"    if not {allowed}.issuperset(obj):",
        f"        raise {error}({f'unknown field(s) for {name}: '!r}"
        f" + str(sorted(set(obj) - {allowed})))",
    ]
    local = {}
    for i, f in enumerate(fields):
        hint = hints[f.name]
        local[f.name] = target = f"a{i}"
        if f.default is not dataclasses.MISSING:
            absent = f"{target} = {src.ref(f.default)}"
        elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            absent = f"{target} = {src.ref(f.default_factory)}()"  # type: ignore[misc]
        elif _is_optional(hint):
            absent = f"{target} = None"
        else:
            absent = f"raise {error}({f'missing field {f.name!r} for {name}'!r})"
        src.lines += [f"    if {f.name!r} in obj:",
                      f"        v = obj[{f.name!r}]",
                      f"        {target} = {_decode_shortcut(hint, 'v', src, building)}",
                      "    else:",
                      f"        {absent}"]
    # positional where the dataclass __init__ takes the field in that place
    positional, keyword = [], []
    in_place = cls.__dataclass_params__.init  # type: ignore[attr-defined]
    for f in dataclasses.fields(cls):
        if f.name not in local:  # excluded: its parameter keeps its default
            in_place = in_place and (not f.init or f.kw_only)
        elif in_place and f.init and not f.kw_only:
            positional.append(local[f.name])
        else:
            keyword.append(f"{f.name}={local[f.name]}")
    src.lines.append(f"    return {src.ref(cls)}({', '.join(positional + keyword)})")
    return src.build(f"<canon decoder of {cls.__qualname__}>")


def _build_plans(cls: type, building: tuple = ()) -> tuple[_Encoder, _Decoder]:
    """Generate and publish the encode and the decode function of a record
    class; ``building`` holds the classes whose functions are being
    generated further up, which a nested field reaches by lookup per call."""
    hints = typing.get_type_hints(cls)
    building += (cls,)
    encode = _generate_encoder(cls, hints, building)
    decode = _generate_decoder(cls, hints, building)
    _RECORD_ENCODERS[cls] = encode
    _RECORD_DECODERS[cls] = decode
    return encode, decode


def _nested(cls: type, building: tuple) -> tuple[_Encoder, _Decoder]:
    """The encode and decode function a field of record class ``cls`` calls."""
    if cls in building:  # a class that nests itself
        def encode(record):
            return (_RECORD_ENCODERS.get(cls) or _build_plans(cls)[0])(record)

        def decode(obj):
            return (_RECORD_DECODERS.get(cls) or _build_plans(cls)[1])(obj)
        return encode, decode
    encode, decode = _RECORD_ENCODERS.get(cls), _RECORD_DECODERS.get(cls)
    if encode is None or decode is None:
        encode, decode = _build_plans(cls, building)
    return encode, decode


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
    return (_RECORD_DECODERS.get(cls) or _build_plans(cls)[1])(obj)
