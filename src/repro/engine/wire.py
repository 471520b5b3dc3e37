"""REPB v1 — the compact binary wire codec of the HTTP access layer.

JSON is the server's lingua franca, but serializing (and parsing) text
dominates the cost of a hot read once the engine itself is fast.  REPB
is the negotiated alternative: the *same* JSON-able payload tree (the
output of :func:`repro.engine.handlers.jsonable` — ``None``/``bool``/
``int``/``float``/``str``/``bytes``/``list``/``dict``) encoded as a
length-prefixed, checksummed binary frame, typically 2-4x smaller and
much cheaper to decode.

Frame layout (all integers big-endian, like the PLSB replication
frames it is modelled on)::

    magic(4 = b"REPB") | version(1) | flags(1) |
    payload_len(4) | crc32(payload)(4) | payload

``flags`` is reserved (must be 0 in v1).  The payload is one encoded
value:

======  =======================================================
tag     encoding
======  =======================================================
0x00    None
0x01    False
0x02    True
0x03    int — zigzag + unsigned LEB128 varint
0x04    float — 8-byte IEEE-754 double
0x05    str — varint byte length + UTF-8 bytes
0x06    bytes — varint length + raw bytes
0x07    list — varint count + encoded items
0x08    dict — varint count + (str key, value) pairs
======  =======================================================

Dict keys must be strings; non-string keys are coerced exactly the way
``json.dumps`` coerces them (``True`` → ``"true"``, ``None`` →
``"null"``, numbers → their ``str``), so a payload decodes to the same
tree whichever codec carried it.  Encoding is deterministic (dict
insertion order is preserved), which is what lets the differential
suite compare frames byte-for-byte between the handler core and the
served front end.

Negotiation is standard HTTP content negotiation: a client sends
``Accept: application/x-repb`` to receive REPB response bodies and/or
``Content-Type: application/x-repb`` to submit a REPB request body.
See ``docs/SERVER.md``.

:func:`decode_frame` rejects — with :class:`~repro.errors.WireError`,
never a crash or a wrong value — truncated frames, trailing garbage,
bit flips (CRC), oversized declarations, bad magic, and unknown
versions/tags.  The conformance suite
(``tests/engine/test_wire_protocol.py``) fuzzes all of these.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any

from ..errors import WireError

MAGIC = b"REPB"
VERSION = 1
CONTENT_TYPE = "application/x-repb"

_HEAD = struct.Struct(">4sBBII")  # magic, version, flags, length, crc
HEADER_SIZE = _HEAD.size

#: Hard ceiling on one frame's payload (declared *or* actual): a
#: corrupt length field must never cause a multi-gigabyte allocation.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_LIST = 0x07
_TAG_DICT = 0x08

_FLOAT = struct.Struct(">d")


def _write_varint(out: bytearray, value: int) -> None:
    """Unsigned LEB128."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _zigzag(value: int) -> int:
    # Arbitrary-precision zigzag (ints beyond 63 bits still round-trip).
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _json_key(key: Any) -> str:
    """Coerce a dict key the way ``json.dumps`` would."""
    if isinstance(key, str):
        return key
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, (int, float)):
        return repr(key)
    raise WireError(f"dict key {key!r} is not JSON-encodable")


def _encode_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        _write_varint(out, _zigzag(value))
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += _FLOAT.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        _write_varint(out, len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        _write_varint(out, len(value))
        out += value
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        _write_varint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        _write_varint(out, len(value))
        for key, item in value.items():
            raw = _json_key(key).encode("utf-8")
            _write_varint(out, len(raw))
            out += raw
            _encode_value(out, item)
    else:
        raise WireError(
            f"value of type {type(value).__name__} is not REPB-encodable"
        )


class _Reader:
    """Bounds-checked cursor over one frame payload."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, start: int, end: int) -> None:
        self.data = data
        self.pos = start
        self.end = end

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > self.end:
            raise WireError("truncated payload (value runs past frame end)")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def byte(self) -> int:
        if self.pos >= self.end:
            raise WireError("truncated payload (value runs past frame end)")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def varint(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self.byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            # JSON ints are arbitrary precision, so allow wide varints,
            # but bound the loop: past 512 bits it's corruption, not data.
            if shift > 512:
                raise WireError("varint too long (corrupt payload)")


def _decode_value(reader: _Reader, depth: int = 0) -> Any:
    if depth > 64:
        raise WireError("payload nests deeper than 64 levels")
    tag = reader.byte()
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        raw = reader.varint()
        return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)
    if tag == _TAG_FLOAT:
        return _FLOAT.unpack(reader.take(8))[0]
    if tag == _TAG_STR:
        raw = reader.take(reader.varint())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"invalid UTF-8 in string: {exc}") from None
    if tag == _TAG_BYTES:
        return reader.take(reader.varint())
    if tag == _TAG_LIST:
        count = reader.varint()
        if count > reader.end - reader.pos:
            # Each item needs at least one tag byte: an impossible count
            # is a corrupt frame, not a huge allocation.
            raise WireError(f"list count {count} exceeds payload size")
        return [_decode_value(reader, depth + 1) for _ in range(count)]
    if tag == _TAG_DICT:
        count = reader.varint()
        if count > reader.end - reader.pos:
            raise WireError(f"dict count {count} exceeds payload size")
        result: dict[str, Any] = {}
        for _ in range(count):
            raw = reader.take(reader.varint())
            try:
                key = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise WireError(f"invalid UTF-8 in key: {exc}") from None
            result[key] = _decode_value(reader, depth + 1)
        return result
    raise WireError(f"unknown value tag 0x{tag:02x}")


def encode_frame(value: Any) -> bytes:
    """Encode one JSON-able value as a complete REPB v1 frame."""
    payload = bytearray()
    _encode_value(payload, value)
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise WireError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame ceiling"
        )
    return (
        _HEAD.pack(MAGIC, VERSION, 0, len(payload), zlib.crc32(payload))
        + bytes(payload)
    )


def decode_frame(data: bytes) -> Any:
    """Validate and decode one REPB v1 frame back to its value.

    Raises :class:`~repro.errors.WireError` on any structural problem;
    a torn or bit-flipped frame never produces a wrong value.
    """
    if len(data) < HEADER_SIZE:
        raise WireError(
            f"short frame: {len(data)} < {HEADER_SIZE} header bytes"
        )
    magic, version, flags, length, crc = _HEAD.unpack(data[:HEADER_SIZE])
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported frame version {version}")
    if flags != 0:
        raise WireError(f"unknown frame flags 0x{flags:02x}")
    if length > MAX_PAYLOAD_BYTES:
        raise WireError(
            f"declared payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame ceiling"
        )
    if len(data) - HEADER_SIZE != length:
        raise WireError(
            f"frame length mismatch: {len(data) - HEADER_SIZE} payload "
            f"bytes, header declares {length}"
        )
    if zlib.crc32(memoryview(data)[HEADER_SIZE:]) != crc:
        raise WireError("frame checksum mismatch (torn or bit-flipped)")
    reader = _Reader(data, HEADER_SIZE, len(data))
    value = _decode_value(reader)
    if reader.pos != reader.end:
        raise WireError(
            f"{reader.end - reader.pos} trailing garbage bytes after value"
        )
    return value


def accepts_repb(accept_header: str | None) -> bool:
    """Does this ``Accept`` header ask for REPB response bodies?"""
    return bool(accept_header) and CONTENT_TYPE in accept_header


def is_repb(content_type: str | None) -> bool:
    """Is this ``Content-Type`` header a REPB request body?"""
    return bool(content_type) and content_type.split(";")[0].strip() == (
        CONTENT_TYPE
    )
