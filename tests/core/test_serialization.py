"""Record serialization: round-trips, edge cases, corruption."""

import datetime as dt

import pytest
from hypothesis import given, strategies as st

from repro.core.identity import OidRef
from repro.errors import SerializationError
from repro.storage.serialization import decode_record, encode_record


class TestRoundTrips:
    def test_empty_record(self):
        assert decode_record(encode_record({})) == {}

    def test_scalars(self):
        record = {
            "none": None,
            "true": True,
            "false": False,
            "int": 42,
            "neg": -17,
            "big": 2**100,
            "negbig": -(2**100),
            "float": 3.14159,
            "str": "Apium graveolens",
            "unicode": "ὗς — ŭrsus 植物",
            "bytes": b"\x00\xff\x7f",
        }
        assert decode_record(encode_record(record)) == record

    def test_containers(self):
        record = {
            "list": [1, "two", None, [3, 4]],
            "tuple": (1, 2),
            "dict": {"nested": {"deep": [True]}},
        }
        decoded = decode_record(encode_record(record))
        assert decoded["list"] == [1, "two", None, [3, 4]]
        assert decoded["tuple"] == (1, 2)
        assert decoded["dict"] == {"nested": {"deep": [True]}}

    def test_tuple_preserved_as_tuple(self):
        decoded = decode_record(encode_record({"t": (1, (2, 3))}))
        assert decoded["t"] == (1, (2, 3))
        assert isinstance(decoded["t"], tuple)

    def test_oid_refs(self):
        record = {"ref": OidRef(12345), "null_ref": OidRef(0)}
        decoded = decode_record(encode_record(record))
        assert decoded["ref"] == OidRef(12345)
        assert decoded["null_ref"] == OidRef(0)

    def test_dates(self):
        record = {
            "date": dt.date(1753, 5, 1),
            "datetime": dt.datetime(2000, 1, 2, 3, 4, 5, 678),
        }
        decoded = decode_record(encode_record(record))
        assert decoded == record
        assert isinstance(decoded["date"], dt.date)
        assert not isinstance(decoded["date"], dt.datetime)

    def test_float_precision(self):
        for value in (0.0, -0.0, 1e-300, 1e300, float("inf"), -float("inf")):
            assert decode_record(encode_record({"f": value}))["f"] == value

    def test_nan(self):
        decoded = decode_record(encode_record({"f": float("nan")}))
        assert decoded["f"] != decoded["f"]

    def test_bool_not_confused_with_int(self):
        decoded = decode_record(encode_record({"b": True, "i": 1}))
        assert decoded["b"] is True
        assert decoded["i"] == 1
        assert not isinstance(decoded["i"], bool)

    def test_golden_bytes(self):
        # One record with every storable type, pinned to the exact bytes
        # stores already on disk hold: the log format must not drift.
        record = {
            "none": None, "true": True, "false": False,
            "int": 300, "neg": -65, "big": 2**70, "float": -2.5,
            "str": "Apium \u03bb", "bytes": b"\x00\xff", "ref": OidRef(129),
            "date": dt.date(1753, 5, 1),
            "datetime": dt.datetime(2000, 1, 2, 3, 4, 5, 678),
            "list": [1, "two"], "tuple": (3, (4,)), "dict": {"k": {}},
        }
        golden = bytes.fromhex(
            "080f05046e6f6e650005047472756501050566616c7365020503696e7403"
            "d80405036e656703810105036269670380808080808080808080020505666c"
            "6f617404c00400000000000005037374720508417069756d20cebb050562"
            "79746573060200ff05037265660981010504646174650a0a313735332d30"
            "352d303105086461746574696d650b1a323030302d30312d30325430333a"
            "30343a30352e30303036373805046c69737407020302050374776f050574"
            "75706c650c0203060c010308050464696374080105016b0800"
        )
        assert encode_record(record) == golden
        assert decode_record(golden) == record


class TestErrors:
    def test_non_dict_top_level(self):
        with pytest.raises(SerializationError):
            encode_record([1, 2])  # type: ignore[arg-type]

    def test_unstorable_type(self):
        with pytest.raises(SerializationError):
            encode_record({"x": object()})

    def test_non_string_keys(self):
        with pytest.raises(SerializationError):
            encode_record({1: "x"})  # type: ignore[dict-item]

    def test_truncated_data(self):
        data = encode_record({"key": "value"})
        with pytest.raises(SerializationError):
            decode_record(data[: len(data) // 2])

    def test_trailing_garbage(self):
        data = encode_record({"key": "value"})
        with pytest.raises(SerializationError):
            decode_record(data + b"\x00")

    def test_unknown_tag(self):
        with pytest.raises(SerializationError):
            decode_record(b"\xfe")

    # A payload the log's CRC vouches for can still be malformed (a bug,
    # or a writer other than this codec): each one is refused as a
    # SerializationError, never a UnicodeDecodeError, ValueError,
    # RecursionError or a wrong value.
    @pytest.mark.parametrize(
        "payload",
        [
            # {"s": <0xff 0xfe>}: bad UTF-8 in a string value
            b"\x08\x01\x05\x01s\x05\x02\xff\xfe",
            # {<0xff>: None}: bad UTF-8 in a key
            b"\x08\x01\x05\x01\xff\x00",
            # {"d": datetime "not-a-date"} and {"d": date "2001-13-45"}
            b"\x08\x01\x05\x01d\x0b\x0anot-a-date",
            b"\x08\x01\x05\x01d\x0a\x0a2001-13-45",
            # {"l": [[[...80 deep...]]]}
            b"\x08\x01\x05\x01l" + b"\x07\x01" * 80 + b"\x00",
            # {1: None}: a non-string key
            b"\x08\x01\x03\x02\x00",
            # {"i": int with a 100-byte varint}
            b"\x08\x01\x05\x01i\x03" + b"\x80" * 100 + b"\x01",
        ],
        ids=[
            "utf8-string", "utf8-key", "datetime-text", "date-text",
            "nesting-80", "int-key", "runaway-varint",
        ],
    )
    def test_malformed_payload_is_refused(self, payload):
        with pytest.raises(SerializationError):
            decode_record(payload)

    def test_impossible_count_refused_before_reading_items(self):
        # {"l": list claiming 2**28 items}: refused on the count alone
        with pytest.raises(SerializationError, match="count"):
            decode_record(b"\x08\x01\x05\x01l\x07\xff\xff\xff\x7f")

    def test_encoder_refuses_what_decoder_would(self):
        value: object = None
        for _ in range(80):
            value = [value]
        with pytest.raises(SerializationError):
            encode_record({"deep": value})
        with pytest.raises(SerializationError):
            encode_record({"huge": 1 << 600})


# Storable-value strategy for property-based round-trips.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
    st.builds(OidRef, st.integers(min_value=0, max_value=2**40)),
    st.dates(),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


@given(st.dictionaries(st.text(max_size=10), _values, max_size=6))
def test_property_roundtrip(record):
    assert decode_record(encode_record(record)) == record
