"""REPB v2 — the compact binary wire frame of the HTTP access layer.

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

``flags`` is reserved (must be 0).  The payload is one value in the
record codec of :mod:`repro.storage.serialization` — the bytes the log
stores — restricted to its JSON-able subset: tuples travel as lists,
non-string dict keys are coerced exactly the way ``json.dumps`` coerces
them (``True`` → ``"true"``, ``None`` → ``"null"``, numbers → their
``str``), and a frame carrying the OID, date, datetime or tuple tag is
refused, so a payload decodes to the same tree whichever of JSON and
REPB carried it.  Encoding is deterministic (dict insertion order is
preserved), which is what lets the differential suite compare frames
byte-for-byte between the handler core and the served front end.

Negotiation is standard HTTP content negotiation: a client sends
``Accept: application/x-repb`` to receive REPB response bodies and/or
``Content-Type: application/x-repb`` to submit a REPB request body.
See ``docs/SERVER.md``.

:func:`decode_frame` rejects — with :class:`~repro.errors.WireError`,
never a crash or a wrong value — truncated frames, trailing garbage,
bit flips (CRC), oversized declarations, bad magic, unknown versions,
and every payload the record codec refuses (unknown tags, nesting
deeper than 64, impossible counts, runaway varints, bad UTF-8).  The
conformance suite (``tests/engine/test_wire_protocol.py``) fuzzes all
of these.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any

from ..errors import SerializationError, WireError
from ..storage.serialization import decode, encode

MAGIC = b"REPB"
VERSION = 2
CONTENT_TYPE = "application/x-repb"

_HEAD = struct.Struct(">4sBBII")  # magic, version, flags, length, crc
HEADER_SIZE = _HEAD.size

#: Hard ceiling on one frame's payload (declared *or* actual): a
#: corrupt length field must never cause a multi-gigabyte allocation.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024


def encode_frame(value: Any) -> bytes:
    """Encode one JSON-able value as a complete REPB frame."""
    try:
        payload = encode(value, jsonable=True)
    except SerializationError as exc:
        raise WireError(f"value is not REPB-encodable: {exc}") from None
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise WireError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame ceiling"
        )
    return (
        _HEAD.pack(MAGIC, VERSION, 0, len(payload), zlib.crc32(payload))
        + payload
    )


def decode_frame(data: bytes) -> Any:
    """Validate and decode one REPB frame back to its value.

    Raises :class:`~repro.errors.WireError` on any structural problem;
    a torn or bit-flipped frame never produces a wrong value.
    """
    if len(data) < HEADER_SIZE:
        raise WireError(
            f"short frame: {len(data)} < {HEADER_SIZE} header bytes"
        )
    magic, version, flags, length, crc = _HEAD.unpack_from(data)
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
    try:
        return decode(bytes(data), HEADER_SIZE, jsonable=True)
    except SerializationError as exc:
        raise WireError(f"bad frame payload: {exc}") from None


def accepts_repb(accept_header: str | None) -> bool:
    """Does this ``Accept`` header ask for REPB response bodies?"""
    return bool(accept_header) and CONTENT_TYPE in accept_header


def is_repb(content_type: str | None) -> bool:
    """Is this ``Content-Type`` header a REPB request body?"""
    return bool(content_type) and content_type.split(";")[0].strip() == (
        CONTENT_TYPE
    )
