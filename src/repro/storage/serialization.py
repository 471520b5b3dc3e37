"""The value codec: one tag-prefixed binary encoding for stored records
and for REPB frames.

Records written to the log are Python dictionaries whose values are drawn
from a closed set of storable types: ``None``, ``bool``, ``int``, ``float``,
``str``, ``bytes``, :class:`~repro.core.identity.OidRef`, ``datetime.date``,
``datetime.datetime``, and (recursively) ``list``, ``tuple`` and ``dict``
of those.  Anything else raises :class:`~repro.errors.SerializationError`
rather than silently pickling arbitrary objects — the store never executes
code on load.

Each value is one tag byte and a payload.  Integers are a zigzag
unsigned LEB128 varint; strings (UTF-8), bytes and dates (ISO-8601
text) are a varint length and the bytes; containers are a varint count
and their items, a dict's as (tagged str key, value) pairs::

    0x00 None   0x01 True    0x02 False   0x03 int     0x04 float (>d)
    0x05 str    0x06 bytes   0x07 list    0x08 dict    0x09 OidRef
    0x0A date   0x0B datetime             0x0C tuple

The REPB wire frame (:mod:`repro.engine.wire`) carries the same bytes
for the JSON-able subset.  ``jsonable=True`` selects three rules that
keep ``decode(encode(x)) == json.loads(json.dumps(x))``: tuples encode
as lists, non-string dict keys are coerced the way ``json.dumps``
coerces them, and the OID, date, datetime and tuple tags are refused —
by the encoder, and by the decoder when they arrive from outside.

The decoder refuses malformed input with :class:`SerializationError`
and nothing else: truncation, trailing bytes, an unknown tag, nesting
deeper than :data:`MAX_DEPTH` containers, a varint longer than
:data:`MAX_VARINT_BYTES`, a count larger than the bytes left, a
non-string key, invalid UTF-8 and unparsable date text.  The record
encoder refuses the same trees, so whatever the log holds, recovery
reads back; a frame's encoder leaves the nesting bound to its receiver.
"""

from __future__ import annotations

import datetime as _dt
import struct
from sys import intern
from typing import Any

from ..core.identity import OidRef
from ..errors import SerializationError

# Tag bytes.
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_DICT = 0x08
_T_OID = 0x09
_T_DATE = 0x0A
_T_DATETIME = 0x0B
_T_TUPLE = 0x0C

#: Most containers one value may nest (the outermost counts as one).
MAX_DEPTH = 64
#: Longest varint accepted (518 bits): room for any realistic integer,
#: while a corrupt run of continuation bytes stops here.
MAX_VARINT_BYTES = 74

_FLOAT = struct.Struct(">d")
_CONSTANTS = (None, True, False)
# Tag + one-byte length/value heads, prebuilt for the common short case.
_STR_HEAD = [bytes((_T_STR, n)) for n in range(0x80)]
_INT_HEAD = [bytes((_T_INT, z)) for z in range(0x80)]


def _write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value.bit_length() > 7 * MAX_VARINT_BYTES:
        raise SerializationError(
            f"integer needs a varint longer than {MAX_VARINT_BYTES} bytes"
        )
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _open(
    out: bytearray, tag: int, count: int, depth: int, jsonable: bool
) -> None:
    """Write a container's tag and count."""
    if depth == MAX_DEPTH and not jsonable:
        raise SerializationError(
            f"value nests deeper than {MAX_DEPTH} containers"
        )
    out.append(tag)
    _write_varint(out, count)


def _key(key: Any, jsonable: bool) -> str:
    """A dict key as a str: coerced the way ``json.dumps`` would when
    ``jsonable``, else refused unless it is one."""
    if isinstance(key, str):
        return str.__str__(key)
    if not jsonable:
        raise SerializationError(
            f"record dict keys must be str, got {type(key).__name__}"
        )
    if key is None or key is True or key is False:
        return "null" if key is None else "true" if key else "false"
    if isinstance(key, (int, float)):
        return repr(key)
    raise SerializationError(f"dict key {key!r} is not JSON-encodable")


def _encode(out: bytearray, value: Any, depth: int, jsonable: bool) -> None:
    cls = type(value)
    if cls is str:
        data = value.encode()
        n = len(data)
        if n < 0x80:
            out += _STR_HEAD[n]
        else:
            out.append(_T_STR)
            _write_varint(out, n)
        out += data
    elif cls is int:
        z = (value << 1) if value >= 0 else (~value << 1) | 1  # zigzag
        if z < 0x80:
            out += _INT_HEAD[z]
        else:
            out.append(_T_INT)
            _write_varint(out, z)
    elif value is None or value is True or value is False:
        out.append(_T_NONE if value is None else _T_TRUE if value else _T_FALSE)
    elif isinstance(value, dict):
        _open(out, _T_DICT, len(value), depth, jsonable)
        depth += 1
        for key, item in value.items():
            _encode(out, key if type(key) is str else _key(key, jsonable),
                    depth, jsonable)
            _encode(out, item, depth, jsonable)
    elif isinstance(value, (list, tuple)):
        as_tuple = not jsonable and not isinstance(value, list)
        _open(out, _T_TUPLE if as_tuple else _T_LIST, len(value), depth,
              jsonable)
        for item in value:
            _encode(out, item, depth + 1, jsonable)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _FLOAT.pack(value)
    elif isinstance(value, str):
        _encode(out, str.__str__(value), depth, jsonable)
    elif isinstance(value, int):
        _encode(out, int(value), depth, jsonable)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out.append(_T_BYTES)
        _write_varint(out, len(data))
        out += data
    elif jsonable:
        raise SerializationError(
            f"type {type(value).__name__} is not JSON-able"
        )
    elif isinstance(value, OidRef):
        out.append(_T_OID)
        _write_varint(out, value.oid)
    elif isinstance(value, _dt.date):
        out.append(_T_DATETIME if isinstance(value, _dt.datetime) else _T_DATE)
        data = value.isoformat().encode("ascii")
        _write_varint(out, len(data))
        out += data
    else:
        raise SerializationError(
            f"type {type(value).__name__} is not storable"
        )


def encode(value: Any, jsonable: bool = False) -> bytes:
    """Encode one value tree.

    Raises:
        SerializationError: for a value outside the storable types (the
            JSON-able ones with ``jsonable``), a non-string key of a
            record, or a record the decoder would refuse.
    """
    out = bytearray()
    _encode(out, value, 0, jsonable)
    return bytes(out)


def _varint_tail(buf: bytes, pos: int, first: int) -> tuple[int, int]:
    """Finish a varint whose first byte ``first`` had its high bit set;
    ``pos`` is just past it.  Returns (value, new_pos)."""
    value = first & 0x7F
    shift = 7
    while True:
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift == 7 * MAX_VARINT_BYTES:
            raise SerializationError(
                f"varint longer than {MAX_VARINT_BYTES} bytes"
            )


def _decode(
    buf: bytes, pos: int, depth: int, jsonable: bool
) -> tuple[Any, int]:
    """Decode the value at ``pos``; returns (value, new_pos).

    Running off the end of ``buf`` raises IndexError (or struct.error),
    which :func:`decode` reports as truncation.
    """
    tag = buf[pos]
    if tag <= _T_FALSE:
        return _CONSTANTS[tag], pos + 1
    if tag == _T_FLOAT:
        return _FLOAT.unpack_from(buf, pos + 1)[0], pos + 9
    if tag > _T_TUPLE:
        raise SerializationError(f"unknown tag byte 0x{tag:02x}")
    if jsonable and tag >= _T_OID:
        raise SerializationError(f"tag byte 0x{tag:02x} is not JSON-able")
    # Every other tag is followed by a varint: the value, a length or
    # a count.
    n = buf[pos + 1]
    pos += 2
    if n & 0x80:
        n, pos = _varint_tail(buf, pos, n)
    if tag == _T_INT:
        return (n >> 1) ^ -(n & 1), pos  # zigzag
    if tag == _T_OID:
        return OidRef(n), pos
    if n > len(buf) - pos:
        # A length past the end, or a count of items that cannot fit
        # (each takes a byte): corruption, not a huge allocation.
        raise SerializationError(f"length or count {n} exceeds the bytes left")
    if tag == _T_STR:
        return buf[pos:pos + n].decode(), pos + n
    if tag == _T_BYTES:
        return buf[pos:pos + n], pos + n
    if tag == _T_DATE or tag == _T_DATETIME:
        text = buf[pos:pos + n].decode("ascii")
        kind = _dt.date if tag == _T_DATE else _dt.datetime
        return kind.fromisoformat(text), pos + n
    if depth == MAX_DEPTH:
        raise SerializationError(
            f"value nests deeper than {MAX_DEPTH} containers"
        )
    depth += 1
    if tag == _T_DICT:
        result: dict[str, Any] = {}
        for _ in range(n):
            if buf[pos] != _T_STR:
                raise SerializationError(
                    f"dict key has tag byte 0x{buf[pos]:02x}, not a string"
                )
            end = pos + 2 + buf[pos + 1]
            if buf[pos + 1] < 0x80 and end <= len(buf):  # a short key
                key, pos = buf[pos + 2:end].decode(), end
            else:
                key, pos = _decode(buf, pos, depth, jsonable)
            # Keys are field names, a small closed set: without interning
            # every decoded record (and the version chain holding it)
            # keeps its own copy of every name.
            result[intern(key)], pos = _decode(buf, pos, depth, jsonable)
        return result, pos
    items = []
    for _ in range(n):
        item, pos = _decode(buf, pos, depth, jsonable)
        items.append(item)
    return (items if tag == _T_LIST else tuple(items)), pos


def decode(data: bytes, start: int = 0, jsonable: bool = False) -> Any:
    """Decode the one value that fills ``data[start:]``.

    Raises:
        SerializationError: for any malformed input — and only that.
    """
    try:
        value, pos = _decode(data, start, 0, jsonable)
    except (IndexError, struct.error):
        raise SerializationError("truncated value") from None
    except UnicodeDecodeError as exc:
        raise SerializationError(f"invalid UTF-8 in string: {exc}") from None
    except ValueError as exc:  # date text fromisoformat cannot parse
        raise SerializationError(f"invalid date text: {exc}") from None
    if pos != len(data):
        raise SerializationError(
            f"trailing garbage: {len(data) - pos} unread bytes"
        )
    return value


def encode_record(record: dict[str, Any]) -> bytes:
    """Serialize a record dict to bytes.

    Raises:
        SerializationError: if the record contains a non-storable value.
    """
    if not isinstance(record, dict):
        raise SerializationError("a record must be a dict")
    return encode(record)


def decode_record(data: bytes | memoryview) -> dict[str, Any]:
    """Deserialize bytes previously produced by :func:`encode_record`."""
    value = decode(data if type(data) is bytes else bytes(data))
    if not isinstance(value, dict):
        raise SerializationError("top-level value is not a record dict")
    return value
