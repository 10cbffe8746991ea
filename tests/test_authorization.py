"""Token issuance/encoding/verification, constraint evaluation, envelopes."""

import itertools
import struct
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assured import crypto
from assured.authorization import (
    CONSTRAINTS_LEN,
    ENVELOPE_HEADER_LEN,
    TOKEN_LEN,
    AuthorizationToken,
    Constraints,
    build_envelope,
    decode_token,
    encode_token,
    evaluate_constraints,
    issue_token,
    parse_envelope,
    serialize_envelope,
    verify_token,
)
from assured.errors import ConstraintViolation, InvalidConstraints, ParseError, TokenRejected

ARTIFACT = bytes(range(256))


@pytest.fixture
def token(oem_key):
    return issue_token(oem_key, ARTIFACT, Constraints(device_model=5, device_id=9, new_version=2))


def test_issue_then_verify_round_trip(oem_key, token):
    verify_token(oem_key.public, ARTIFACT, token)


def test_encoded_length_exactly_136(token):
    assert len(encode_token(token)) == TOKEN_LEN == 136


def test_constraints_encoded_width():
    assert len(Constraints(new_version=1).encode()) == CONSTRAINTS_LEN == 32


def test_appended_byte_is_size_mismatch(oem_key, token):
    # hash is checked first, so extend with content that keeps the prefix digest... it
    # cannot: any appended byte changes the hash, which is checked before size.
    with pytest.raises(TokenRejected) as excinfo:
        verify_token(oem_key.public, ARTIFACT + b"\x00", token)
    assert excinfo.value.reason == TokenRejected.HASH_MISMATCH


def test_size_mismatch_distinct(oem_key, token):
    # a same-hash different-size artifact cannot be constructed, so forge the
    # size field (bytes 32..40) in the token's bytes
    raw = encode_token(token)
    forged = decode_token(raw[:32] + struct.pack(">Q", token.artifact_size + 1) + raw[40:])
    assert forged.artifact_size == len(ARTIFACT) + 1
    with pytest.raises(TokenRejected) as excinfo:
        verify_token(oem_key.public, ARTIFACT, forged)
    assert excinfo.value.reason == TokenRejected.SIZE_MISMATCH


def test_token_layout_offsets(oem_key):
    constraints = Constraints(device_model=0x0A, device_id=0x0B, required_prev_version=2, new_version=3)
    token = issue_token(oem_key, ARTIFACT, constraints)
    encoded = encode_token(token)
    hand_assembled = (
        crypto.hash_data(ARTIFACT)
        + struct.pack(">Q", len(ARTIFACT))
        + struct.pack(">QQQQ", 0x0A, 0x0B, 2, 3)
        + token.signature
    )
    assert encoded == hand_assembled
    assert encoded[72:136] == token.signature
    decoded = decode_token(hand_assembled)
    assert decoded == token


@pytest.mark.parametrize("length", [0, 135, 137, 272])
def test_wrong_length_is_malformed(length):
    with pytest.raises(ParseError):
        decode_token(bytes(length))


@given(st.binary(min_size=TOKEN_LEN, max_size=TOKEN_LEN))
@settings(max_examples=200)
def test_encode_decode_identity(data):
    token = decode_token(data)
    assert encode_token(token) == data
    digest, size, model, device, prev, new, signature = struct.unpack(">32sQQQQQ64s", data)
    assert token.artifact_hash == digest
    assert token.artifact_size == size
    assert token.constraints == Constraints(
        device_model=model, device_id=device, required_prev_version=prev, new_version=new
    )
    assert token.signature == signature
    assert token.signed_region() == data[:72]


def test_token_holds_exactly_its_bytes():
    assert [f.name for f in fields(AuthorizationToken)] == ["raw"]
    with pytest.raises(ParseError):
        AuthorizationToken(bytes(TOKEN_LEN - 1))


class TestVerifyToken:
    def test_artifact_bit_flips_all_hash_mismatch(self, oem_key, token):
        for bit in range(0, len(ARTIFACT) * 8, 7):  # sampled; the acceptance suite sweeps all
            mutant = bytearray(ARTIFACT)
            mutant[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(TokenRejected) as excinfo:
                verify_token(oem_key.public, bytes(mutant), token)
            assert excinfo.value.reason == TokenRejected.HASH_MISMATCH

    def test_non_oem_key_is_bad_signature(self, oem_key, token):
        rogue = crypto.signing_key_from_seed(b"\x99" * 32)
        forged = issue_token(rogue, ARTIFACT, token.constraints)
        with pytest.raises(TokenRejected) as excinfo:
            verify_token(oem_key.public, ARTIFACT, forged)
        assert excinfo.value.reason == TokenRejected.BAD_SIGNATURE

    def test_exactly_one_public_key_operation(self, oem_key, token):
        before = crypto.VERIFY_COUNTER.read()
        verify_token(oem_key.public, ARTIFACT, token)
        assert crypto.VERIFY_COUNTER.read() == before + 1

    def test_hash_mismatch_costs_no_public_key_operation(self, oem_key, token):
        before = crypto.VERIFY_COUNTER.read()
        with pytest.raises(TokenRejected):
            verify_token(oem_key.public, b"different", token)
        assert crypto.VERIFY_COUNTER.read() == before


class TestConstraints:
    def test_wildcards_accept(self):
        evaluate_constraints(Constraints(new_version=2), device_model=7, device_id=3, installed_version=1)

    def test_equal_version_blocked(self):
        with pytest.raises(ConstraintViolation) as excinfo:
            evaluate_constraints(Constraints(new_version=2), 7, 3, installed_version=2)
        assert excinfo.value.reason == ConstraintViolation.VERSION_NOT_MONOTONIC

    def test_patch_order(self):
        c = Constraints(required_prev_version=3, new_version=4)
        with pytest.raises(ConstraintViolation) as excinfo:
            evaluate_constraints(c, 7, 3, installed_version=2)
        assert excinfo.value.reason == ConstraintViolation.PATCH_ORDER_VIOLATION

    def test_wrong_model_and_device_distinct(self):
        with pytest.raises(ConstraintViolation) as excinfo:
            evaluate_constraints(Constraints(device_model=1, new_version=9), 2, 3, 0)
        assert excinfo.value.reason == ConstraintViolation.WRONG_MODEL
        with pytest.raises(ConstraintViolation) as excinfo:
            evaluate_constraints(Constraints(device_id=4, new_version=9), 2, 3, 0)
        assert excinfo.value.reason == ConstraintViolation.WRONG_DEVICE

    def test_predicate_matches_conjunction_by_brute_force(self):
        values = range(0, 4)
        for model_c, id_c, prev_c, new_c, model, dev, installed in itertools.product(
            values, values, values, values, values, values, values
        ):
            c = Constraints(
                device_model=model_c, device_id=id_c, required_prev_version=prev_c, new_version=new_c
            )
            expected = (
                (model_c == 0 or model_c == model)
                and (id_c == 0 or id_c == dev)
                and new_c > installed
                and (prev_c == 0 or prev_c == installed)
            )
            try:
                evaluate_constraints(c, model, dev, installed)
                accepted = True
            except ConstraintViolation:
                accepted = False
            assert accepted == expected, (c, model, dev, installed)

    def test_issue_rejects_invalid_constraints(self, oem_key):
        with pytest.raises(InvalidConstraints):
            issue_token(oem_key, b"x", Constraints(new_version=0))
        with pytest.raises(InvalidConstraints):
            issue_token(oem_key, b"x", Constraints(required_prev_version=5, new_version=5))


class TestEnvelope:
    def test_round_trip(self, oem_key, token):
        envelope = build_envelope(token, ARTIFACT)
        assert parse_envelope(serialize_envelope(envelope)) == envelope

    def test_header_overhead_148(self, token):
        data = serialize_envelope(build_envelope(token, ARTIFACT))
        assert len(data) - len(ARTIFACT) == ENVELOPE_HEADER_LEN == 148

    def test_truncated_artifact_region(self, token):
        data = serialize_envelope(build_envelope(token, ARTIFACT))
        with pytest.raises(ParseError):
            parse_envelope(data[:-1])

    def test_bad_magic(self, token):
        data = serialize_envelope(build_envelope(token, ARTIFACT))
        with pytest.raises(ParseError):
            parse_envelope(b"XXXX" + data[4:])

    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    def test_arbitrary_bytes_never_crash(self, data):
        try:
            parse_envelope(data)
        except ParseError:
            pass
