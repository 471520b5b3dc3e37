"""REPB v2 wire-codec conformance: fuzz round-trips + frame rejection.

Mirrors the PLSB frame tests' stance: a frame either decodes to the
exact value that was encoded, or raises :class:`WireError` — a torn,
bit-flipped, oversized or fabricated frame must never crash the
decoder or, worse, produce a plausible wrong value.
"""

import json
import random
import struct

import pytest

from repro.engine import wire
from repro.errors import WireError

FIXED_SEEDS = (11, 23, 47)
CASES_PER_SEED = 120


# ---------------------------------------------------------------------------
# seeded fuzz generator: arbitrary JSON-able payload trees
# ---------------------------------------------------------------------------

def _fuzz_scalar(rng: random.Random):
    kind = rng.randrange(8)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        # Wide spread, including > 64-bit ints (JSON is arbitrary
        # precision; the varint must keep up).
        magnitude = rng.choice((8, 16, 32, 63, 64, 80, 128))
        value = rng.getrandbits(magnitude)
        return -value if rng.random() < 0.5 else value
    if kind == 3:
        return rng.uniform(-1e15, 1e15)
    if kind == 4:
        return rng.choice((0.0, -0.0, 1e-300, 1e300, 3.141592653589793))
    if kind == 5:
        length = rng.randrange(0, 40)
        return "".join(
            rng.choice("abcλπ雪 \t\"\\/∅😀") for _ in range(length)
        )
    if kind == 6:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(24)))
    return rng.randrange(-5, 5)


def _fuzz_value(rng: random.Random, depth: int = 0):
    if depth < 4 and rng.random() < 0.4:
        if rng.random() < 0.5:
            return [
                _fuzz_value(rng, depth + 1)
                for _ in range(rng.randrange(0, 6))
            ]
        return {
            f"k{idx}_{rng.randrange(1000)}": _fuzz_value(rng, depth + 1)
            for idx in range(rng.randrange(0, 6))
        }
    return _fuzz_scalar(rng)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", FIXED_SEEDS)
    def test_seeded_fuzz_round_trip(self, seed):
        rng = random.Random(seed)
        for case in range(CASES_PER_SEED):
            value = _fuzz_value(rng)
            frame = wire.encode_frame(value)
            decoded = wire.decode_frame(frame)
            assert decoded == value, (
                f"seed {seed} case {case}: {value!r} -> {decoded!r}"
            )

    def test_round_trips_every_json_type(self):
        value = {
            "none": None,
            "bools": [True, False],
            "ints": [0, -1, 2**80, -(2**80), 127, -128],
            "floats": [0.5, -2.25e100],
            "str": "naïve λ 雪",
            "bytes": b"\x00\xff raw",
            "nested": {"list": [{"deep": [1, [2, [3]]]}]},
            "empty": {"list": [], "dict": {}},
        }
        assert wire.decode_frame(wire.encode_frame(value)) == value

    def test_deterministic_encoding(self):
        value = {"b": 1, "a": [2, {"z": None}]}
        assert wire.encode_frame(value) == wire.encode_frame(value)

    def test_dict_key_coercion_matches_json(self):
        # json.dumps coerces non-string keys; REPB must agree so the
        # same payload decodes identically from either codec.
        value = {1: "one", True: "yes", None: "nothing", 2.5: "x"}
        decoded = wire.decode_frame(wire.encode_frame(value))
        assert decoded == json.loads(json.dumps(value))

    def test_insertion_order_preserved(self):
        value = {"z": 1, "a": 2, "m": 3}
        assert list(wire.decode_frame(wire.encode_frame(value))) == [
            "z", "a", "m",
        ]

    def test_compact_vs_json(self):
        value = {"result": list(range(100))}
        frame = wire.encode_frame(value)
        text = json.dumps(value, indent=2).encode()
        assert len(frame) < len(text)

    def test_unencodable_value_rejected(self):
        with pytest.raises(WireError, match="not REPB-encodable"):
            wire.encode_frame({"bad": object()})
        with pytest.raises(WireError, match="not JSON-encodable"):
            wire.encode_frame({object(): 1})


class TestFrameRejection:
    def test_short_frame(self):
        with pytest.raises(WireError, match="short frame"):
            wire.decode_frame(b"REPB")

    def test_bad_magic(self):
        frame = bytearray(wire.encode_frame({"a": 1}))
        frame[0] ^= 0xFF
        with pytest.raises(WireError, match="magic"):
            wire.decode_frame(bytes(frame))

    def test_unsupported_version(self):
        frame = bytearray(wire.encode_frame({"a": 1}))
        frame[4] = 99
        with pytest.raises(WireError, match="version"):
            wire.decode_frame(bytes(frame))

    def test_unknown_flags(self):
        frame = bytearray(wire.encode_frame({"a": 1}))
        frame[5] = 0x01
        with pytest.raises(WireError, match="flags"):
            wire.decode_frame(bytes(frame))

    @pytest.mark.parametrize("seed", FIXED_SEEDS)
    def test_truncation_at_every_boundary(self, seed):
        rng = random.Random(seed)
        frame = wire.encode_frame(_fuzz_value(rng))
        for cut in range(len(frame)):
            with pytest.raises(WireError):
                wire.decode_frame(frame[:cut])

    @pytest.mark.parametrize("seed", FIXED_SEEDS)
    def test_single_bit_flips_detected(self, seed):
        rng = random.Random(seed)
        frame = wire.encode_frame(
            {"payload": [rng.randrange(1000) for _ in range(20)]}
        )
        original = wire.decode_frame(frame)
        for _ in range(200):
            position = rng.randrange(len(frame))
            bit = 1 << rng.randrange(8)
            corrupt = bytearray(frame)
            corrupt[position] ^= bit
            # Either rejected outright, or (flips that cancel inside the
            # header's own redundancy cannot exist: any payload flip
            # breaks the CRC, any header flip breaks a declared field)
            # never a silently different value.
            with pytest.raises(WireError):
                wire.decode_frame(bytes(corrupt))
            assert wire.decode_frame(frame) == original

    @pytest.mark.parametrize("seed", FIXED_SEEDS)
    def test_garbage_never_crashes(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            blob = bytes(
                rng.randrange(256) for _ in range(rng.randrange(0, 64))
            )
            with pytest.raises(WireError):
                wire.decode_frame(blob)

    def test_garbage_with_valid_header_shape(self):
        # Plausible header, random payload: CRC or structure rejects it.
        rng = random.Random(7)
        for _ in range(100):
            payload = bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 40))
            )
            frame = struct.pack(
                ">4sBBII", b"REPB", wire.VERSION, 0, len(payload), rng.getrandbits(32)
            ) + payload
            with pytest.raises(WireError):
                wire.decode_frame(frame)

    def test_oversized_declared_length(self):
        # A corrupt length field must be rejected before any allocation.
        frame = struct.pack(
            ">4sBBII", b"REPB", wire.VERSION, 0, wire.MAX_PAYLOAD_BYTES + 1, 0
        )
        with pytest.raises(WireError, match="ceiling"):
            wire.decode_frame(frame)

    def test_length_mismatch(self):
        good = wire.encode_frame([1, 2, 3])
        with pytest.raises(WireError, match="length mismatch"):
            wire.decode_frame(good + b"extra")

    def test_trailing_garbage_inside_declared_payload(self):
        # Valid value, then junk bytes, with length and CRC "fixed up":
        # the decoder must still notice the unconsumed tail.
        import zlib

        inner = wire.encode_frame(42)[wire.HEADER_SIZE:]
        payload = inner + b"\x00\x00"
        frame = struct.pack(
            ">4sBBII", b"REPB", wire.VERSION, 0, len(payload), zlib.crc32(payload)
        ) + payload
        with pytest.raises(WireError, match="trailing"):
            wire.decode_frame(frame)

    def test_impossible_collection_count(self):
        import zlib

        # list tag + varint count far beyond the remaining bytes
        payload = b"\x07\xff\xff\xff\x7f"
        frame = struct.pack(
            ">4sBBII", b"REPB", wire.VERSION, 0, len(payload), zlib.crc32(payload)
        ) + payload
        with pytest.raises(WireError, match="count"):
            wire.decode_frame(frame)

    def test_unknown_tag(self):
        import zlib

        payload = b"\x7f"
        frame = struct.pack(
            ">4sBBII", b"REPB", wire.VERSION, 0, len(payload), zlib.crc32(payload)
        ) + payload
        with pytest.raises(WireError, match="tag"):
            wire.decode_frame(frame)

    def test_nesting_depth_bounded(self):
        value = 1
        for _ in range(80):
            value = [value]
        frame = wire.encode_frame(value)
        with pytest.raises(WireError, match="nests deeper"):
            wire.decode_frame(frame)

    def test_runaway_varint_bounded(self):
        import zlib

        payload = b"\x03" + b"\x80" * 100 + b"\x01"
        frame = struct.pack(
            ">4sBBII", b"REPB", wire.VERSION, 0, len(payload), zlib.crc32(payload)
        ) + payload
        with pytest.raises(WireError, match="varint"):
            wire.decode_frame(frame)

    def test_invalid_utf8_in_string(self):
        import zlib

        payload = b"\x05\x02\xff\xfe"
        frame = struct.pack(
            ">4sBBII", b"REPB", wire.VERSION, 0, len(payload), zlib.crc32(payload)
        ) + payload
        with pytest.raises(WireError, match="UTF-8"):
            wire.decode_frame(frame)


class TestNegotiation:
    def test_accept_header(self):
        assert wire.accepts_repb("application/x-repb")
        assert wire.accepts_repb("application/json, application/x-repb")
        assert not wire.accepts_repb("application/json")
        assert not wire.accepts_repb(None)
        assert not wire.accepts_repb("")

    def test_content_type_header(self):
        assert wire.is_repb("application/x-repb")
        assert wire.is_repb("application/x-repb; charset=binary")
        assert not wire.is_repb("application/json")
        assert not wire.is_repb(None)
