"""MessagePack codec: spec golden bytes + round-trip properties."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.serde import pack, unpack
from repro.util.errors import SerdeError


class TestGoldenBytes:
    """Wire-format checks against the MessagePack specification."""

    @pytest.mark.parametrize(
        "obj,expected",
        [
            (None, b"\xc0"),
            (False, b"\xc2"),
            (True, b"\xc3"),
            (0, b"\x00"),
            (127, b"\x7f"),
            (-1, b"\xff"),
            (-32, b"\xe0"),
            (128, b"\xcc\x80"),
            (256, b"\xcd\x01\x00"),
            (65536, b"\xce\x00\x01\x00\x00"),
            (-33, b"\xd0\xdf"),
            (-129, b"\xd1\xff\x7f"),
            ("", b"\xa0"),
            ("abc", b"\xa3abc"),
            ([], b"\x90"),
            ([1, 2], b"\x92\x01\x02"),
            ({}, b"\x80"),
            ({"a": 1}, b"\x81\xa1a\x01"),
            (b"\x01\x02", b"\xc4\x02\x01\x02"),
        ],
    )
    def test_encoding(self, obj, expected):
        assert pack(obj) == expected

    def test_float64_encoding(self):
        import struct

        assert pack(1.5) == b"\xcb" + struct.pack(">d", 1.5)
        assert unpack(pack(1.5)) == 1.5

    def test_str8(self):
        s = "x" * 40
        data = pack(s)
        assert data[0] == 0xD9 and data[1] == 40

    def test_str16(self):
        s = "x" * 300
        assert pack(s)[0] == 0xDA

    def test_array16(self):
        data = pack(list(range(20)))
        assert data[0] == 0xDC

    def test_map16(self):
        data = pack({f"k{i}": i for i in range(20)})
        assert data[0] == 0xDE

    def test_uint64(self):
        v = 2**63
        assert unpack(pack(v)) == v

    def test_int64_min(self):
        v = -(2**63)
        assert unpack(pack(v)) == v


class TestErrors:
    def test_trailing_bytes_rejected(self):
        with pytest.raises(SerdeError):
            unpack(pack(1) + b"\x00")

    def test_truncated_rejected(self):
        with pytest.raises(SerdeError):
            unpack(b"\xa5ab")

    def test_unsupported_type_rejected(self):
        with pytest.raises(SerdeError):
            pack(object())

    def test_out_of_range_int_rejected(self):
        with pytest.raises(SerdeError):
            pack(2**64)

    def test_ext_tag_rejected(self):
        with pytest.raises(SerdeError):
            unpack(b"\xc1")

    @pytest.mark.parametrize(
        "data",
        [b"\xa1\xff", b"\x81\x90\x01", b"\x91" * 5000 + b"\xc0"],
        ids=["invalid-utf8", "array-map-key", "too-deep"],
    )
    def test_malformed_payload_is_serde_error(self, data):
        with pytest.raises(SerdeError, match="malformed"):
            unpack(data)


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=60),
    st.binary(max_size=60),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=10), children, max_size=6),
    ),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(_values)
def test_round_trip(obj):
    back = unpack(pack(obj))
    assert back == obj


@settings(max_examples=60, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_float_round_trip_bitexact(x):
    back = unpack(pack(x))
    assert (math.isnan(x) and math.isnan(back)) or back == x
