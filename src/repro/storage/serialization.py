"""Compact tag-prefixed binary serialization for stored records.

Records written to the log are Python dictionaries whose values are drawn
from a closed set of storable types: ``None``, ``bool``, ``int``, ``float``,
``str``, ``bytes``, :class:`~repro.core.identity.OidRef`, ``datetime.date``,
``datetime.datetime``, and (recursively) ``list``, ``tuple`` and ``dict``
of those.  Anything else raises :class:`~repro.errors.SerializationError`
rather than silently pickling arbitrary objects — the store never executes
code on load.

Wire format: each value is one tag byte followed by a fixed or
length-prefixed payload.  Integers use a zig-zag varint; strings are UTF-8
with a varint length; containers are a varint count followed by their
elements.  The format is self-describing and versioned via
:data:`FORMAT_VERSION` stored in the log header.
"""

from __future__ import annotations

import datetime as _dt
import struct
from sys import intern
from typing import Any

from ..core.identity import OidRef
from ..errors import SerializationError

FORMAT_VERSION = 1

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

_FLOAT_STRUCT = struct.Struct(">d")


def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63) if -(1 << 63) <= n < (1 << 63) else _zigzag_big(n)


def _zigzag_big(n: int) -> int:
    # Arbitrary-precision zig-zag: same transform without the 64-bit clamp.
    return (n << 1) if n >= 0 else ((-n << 1) - 1)


def _unzigzag(z: int) -> int:
    return (z >> 1) if (z & 1) == 0 else -((z + 1) >> 1)


def _write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise SerializationError(f"varint must be unsigned, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(buf: bytes | memoryview, pos: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; return (value, new_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise SerializationError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 1024:
            raise SerializationError("varint too long")


def _encode_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        _write_varint(out, _zigzag_big(value))
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _FLOAT_STRUCT.pack(value)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(_T_STR)
        _write_varint(out, len(data))
        out += data
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out.append(_T_BYTES)
        _write_varint(out, len(data))
        out += data
    elif isinstance(value, OidRef):
        out.append(_T_OID)
        _write_varint(out, value.oid)
    elif isinstance(value, _dt.datetime):
        out.append(_T_DATETIME)
        data = value.isoformat().encode("ascii")
        _write_varint(out, len(data))
        out += data
    elif isinstance(value, _dt.date):
        out.append(_T_DATE)
        data = value.isoformat().encode("ascii")
        _write_varint(out, len(data))
        out += data
    elif isinstance(value, list):
        out.append(_T_LIST)
        _write_varint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, tuple):
        out.append(_T_TUPLE)
        _write_varint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        _write_varint(out, len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(
                    f"record dict keys must be str, got {type(key).__name__}"
                )
            _encode_value(out, key)
            _encode_value(out, item)
    else:
        raise SerializationError(
            f"type {type(value).__name__} is not storable"
        )


def _decode_value(buf: bytes | memoryview, pos: int) -> tuple[Any, int]:
    if pos >= len(buf):
        raise SerializationError("truncated record")
    tag = buf[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        z, pos = _read_varint(buf, pos)
        return _unzigzag(z), pos
    if tag == _T_FLOAT:
        end = pos + 8
        if end > len(buf):
            raise SerializationError("truncated float")
        return _FLOAT_STRUCT.unpack(bytes(buf[pos:end]))[0], end
    if tag == _T_STR:
        length, pos = _read_varint(buf, pos)
        end = pos + length
        if end > len(buf):
            raise SerializationError("truncated string")
        return bytes(buf[pos:end]).decode("utf-8"), end
    if tag == _T_BYTES:
        length, pos = _read_varint(buf, pos)
        end = pos + length
        if end > len(buf):
            raise SerializationError("truncated bytes")
        return bytes(buf[pos:end]), end
    if tag == _T_OID:
        oid, pos = _read_varint(buf, pos)
        return OidRef(oid), pos
    if tag == _T_DATETIME:
        length, pos = _read_varint(buf, pos)
        end = pos + length
        text = bytes(buf[pos:end]).decode("ascii")
        return _dt.datetime.fromisoformat(text), end
    if tag == _T_DATE:
        length, pos = _read_varint(buf, pos)
        end = pos + length
        text = bytes(buf[pos:end]).decode("ascii")
        return _dt.date.fromisoformat(text), end
    if tag in (_T_LIST, _T_TUPLE):
        count, pos = _read_varint(buf, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_value(buf, pos)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_DICT:
        count, pos = _read_varint(buf, pos)
        result: dict[str, Any] = {}
        for _ in range(count):
            key, pos = _decode_value(buf, pos)
            value, pos = _decode_value(buf, pos)
            # Keys are field names, a small closed set: without this
            # every decoded record (and the version chain holding it)
            # keeps its own copy of every attribute name.
            result[intern(key) if type(key) is str else key] = value
        return result, pos
    raise SerializationError(f"unknown tag byte 0x{tag:02x}")


def encode_record(record: dict[str, Any]) -> bytes:
    """Serialize a record dict to bytes.

    Raises:
        SerializationError: if the record contains a non-storable value.
    """
    if not isinstance(record, dict):
        raise SerializationError("a record must be a dict")
    out = bytearray()
    _encode_value(out, record)
    return bytes(out)


def decode_record(data: bytes | memoryview) -> dict[str, Any]:
    """Deserialize bytes previously produced by :func:`encode_record`."""
    value, pos = _decode_value(data, 0)
    if pos != len(data):
        raise SerializationError(
            f"trailing garbage: {len(data) - pos} unread bytes"
        )
    if not isinstance(value, dict):
        raise SerializationError("top-level value is not a record dict")
    return value
