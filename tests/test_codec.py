"""The shared binary reader and the bit-flip helper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assured.codec import Reader, flip_bit
from assured.errors import ParseError


def test_integers_are_big_endian_and_advance():
    reader = Reader(bytes(range(1, 16)))
    assert reader.u8("a") == 0x01
    assert reader.u16("b") == 0x0203
    assert reader.u32("c") == 0x04050607
    assert reader.u64("d") == 0x08090A0B0C0D0E0F
    assert reader.offset == 15
    reader.end("input")


@pytest.mark.parametrize("method", ["u8", "u16", "u32", "u64", "flag"])
def test_truncated_field_is_parse_error_at_its_offset(method):
    reader = Reader(b"\x00\x00\x00\x01", offset=4)
    with pytest.raises(ParseError) as excinfo:
        getattr(reader, method)("field")
    assert excinfo.value.position == 4


def test_text_shorter_than_its_length_is_parse_error():
    with pytest.raises(ParseError) as excinfo:
        Reader(b"\x00\x05abc").text("name")
    assert excinfo.value.position == 2


def test_flag_admits_only_zero_and_one():
    assert Reader(b"\x00").flag("f") is False
    assert Reader(b"\x01").flag("f") is True
    for value in range(2, 256):
        with pytest.raises(ParseError) as excinfo:
            Reader(b"\x00" + bytes([value]), offset=1).flag("f")
        assert excinfo.value.position == 1


def test_text_round_trips_utf8_and_rejects_the_rest():
    name = "fw-ünïcode"
    encoded = name.encode("utf-8")
    reader = Reader(len(encoded).to_bytes(2, "big") + encoded + b"!")
    assert reader.text("name") == name
    assert reader.offset == 2 + len(encoded)
    with pytest.raises(ParseError) as excinfo:
        Reader(b"\x00\x03ab\xff").text("name")
    assert excinfo.value.position == 4


def test_end_rejects_trailing_bytes():
    reader = Reader(b"\x01\x02")
    reader.u8("a")
    with pytest.raises(ParseError) as excinfo:
        reader.end("record")
    assert excinfo.value.position == 1


def test_flip_bit_inverts_one_bit_modulo_the_length():
    assert flip_bit(b"\x00\x00", 0) == b"\x01\x00"
    assert flip_bit(b"\x00\x00", 15) == b"\x00\x80"
    assert flip_bit(b"\x00\x00", 16) == b"\x01\x00"


@pytest.mark.parametrize("offset", [0, 7, 12345])
def test_flip_bit_leaves_empty_input_unchanged(offset):
    assert flip_bit(b"", offset) == b""


@given(data=st.binary(min_size=1, max_size=64), offset=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100)
def test_flip_bit_changes_exactly_one_bit_and_is_its_own_inverse(data, offset):
    flipped = flip_bit(data, offset)
    assert sum(bin(a ^ b).count("1") for a, b in zip(data, flipped)) == 1
    assert flip_bit(flipped, offset) == data
