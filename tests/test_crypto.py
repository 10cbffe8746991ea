"""Primitive layer: known-answer vectors, determinism, bit-flip rejection,
session-key derivation, channel framing, and the shared channel end."""

import hashlib
import hmac
import struct

import pytest
from cryptography.hazmat.primitives.asymmetric import ed25519
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assured import crypto
from assured.errors import AuthFailure, ChannelError, MalformedFrame, ReplayOrReorder

# Published SHA-256 test vectors.
SHA256_EMPTY = bytes.fromhex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
SHA256_ABC = bytes.fromhex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")

# Published Ed25519 test vectors (seed, public, message, signature).
ED25519_VECTORS = [
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
    (
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
        "af82",
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
    ),
]

# Published HMAC-SHA256 test vectors (key, data, tag).
HMAC_VECTORS = [
    (
        bytes.fromhex("0b" * 20),
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
]


# Frames sealed under derive_session_keys(b"\x07" * 32, b"\x0c" * 16, b"\x0d" * 16):
# (sequence, plaintext, frame).
FRAME_VECTORS = [
    (
        0x0102030405060708,
        b"ab",
        "010203040506070800000002b40cda17ba37f408846834a9f0433681a12e0ffa3d9fbc5d38a895b64ace070683ac",
    ),
    (
        0,
        bytes(range(17)),
        "000000000000000000000011c7ae93a11ea0b848393488b898a1ee6576e47751dcd04476f37ec5455129f7c643872dbd2f3efe3cd3494c38bf4372e01f",
    ),
]


def session_keys(master: bytes = bytes(32)) -> crypto.SessionKeys:
    return crypto.derive_session_keys(master, bytes(16), b"\x01" * 16)


def reference_frame(keys: crypto.SessionKeys, sequence: int, plaintext: bytes) -> bytes:
    """The frame from a fresh AES-CTR cipher at counter block sequence || 0^8
    and a fresh HMAC over header || ciphertext."""
    header = struct.pack(">QI", sequence, len(plaintext))
    encryptor = Cipher(algorithms.AES(keys.enc_key), modes.CTR(struct.pack(">Q", sequence) + bytes(8))).encryptor()
    ciphertext = encryptor.update(plaintext) + encryptor.finalize()
    return header + ciphertext + crypto.mac(keys.mac_key, header + ciphertext)


class TestHash:
    def test_empty_vector(self):
        assert crypto.hash_data(b"") == SHA256_EMPTY

    def test_abc_vector(self):
        assert crypto.hash_data(b"abc") == SHA256_ABC

    def test_deterministic(self):
        assert crypto.hash_data(b"same") == crypto.hash_data(b"same")

    def test_single_bit_flips_change_digest(self):
        base = bytes(range(64))
        digest = crypto.hash_data(base)
        for bit in range(64 * 8):
            mutant = bytearray(base)
            mutant[bit // 8] ^= 1 << (bit % 8)
            assert crypto.hash_data(bytes(mutant)) != digest


class TestSignatures:
    @pytest.mark.parametrize("seed,public,message,signature", ED25519_VECTORS)
    def test_known_answers(self, seed, public, message, signature):
        key = crypto.signing_key_from_seed(bytes.fromhex(seed))
        assert key.public == bytes.fromhex(public)
        assert crypto.sign(key, bytes.fromhex(message)) == bytes.fromhex(signature)
        assert crypto.verify(key.public, bytes.fromhex(message), bytes.fromhex(signature))

    def test_round_trip(self, oem_key):
        sig = crypto.sign(oem_key, b"message")
        assert len(sig) == crypto.SIGNATURE_LEN
        assert crypto.verify(oem_key.public, b"message", sig)

    def test_binding_to_message(self, oem_key):
        sig = crypto.sign(oem_key, b"message")
        assert not crypto.verify(oem_key.public, b"message2", sig)

    def test_wrong_public_key(self, oem_key):
        other = crypto.signing_key_from_seed(bytes(32))
        sig = crypto.sign(oem_key, b"message")
        assert not crypto.verify(other.public, b"message", sig)

    def test_every_signature_bit_flip_rejected(self, oem_key):
        message = b"fixed message"
        sig = crypto.sign(oem_key, message)
        for bit in range(crypto.SIGNATURE_LEN * 8):
            mutant = bytearray(sig)
            mutant[bit // 8] ^= 1 << (bit % 8)
            assert not crypto.verify(oem_key.public, message, bytes(mutant))

    def test_malformed_encodings_reject_not_crash(self, oem_key):
        sig = crypto.sign(oem_key, b"m")
        assert not crypto.verify(b"\xff" * 32, b"m", sig)
        assert not crypto.verify(b"short", b"m", sig)
        assert not crypto.verify(oem_key.public, b"m", b"short")

    @given(st.binary(max_size=512))
    @settings(max_examples=50)
    def test_sign_verify_property(self, message):
        key = crypto.signing_key_from_seed(bytes(31) + b"\x07")
        assert crypto.verify(key.public, message, crypto.sign(key, message))

    @given(st.binary(min_size=32, max_size=32), st.lists(st.binary(max_size=256), min_size=1, max_size=4))
    @settings(max_examples=50)
    def test_sign_equals_a_freshly_loaded_key(self, seed, messages):
        key = crypto.signing_key_from_seed(seed)
        for message in messages:
            assert crypto.sign(key, message) == ed25519.Ed25519PrivateKey.from_private_bytes(key.private).sign(message)

    def test_key_pairs_from_one_seed_are_equal_whether_or_not_they_signed(self, oem_key):
        first, second = crypto.signing_key_from_seed(oem_key.private), crypto.signing_key_from_seed(oem_key.private)
        for signer in (None, first, second):
            if signer is not None:
                crypto.sign(signer, b"m")
            assert first == second and hash(first) == hash(second) and repr(first) == repr(second)

    def test_counter_increments_and_resets(self, oem_key):
        sig = crypto.sign(oem_key, b"x")
        before = crypto.VERIFY_COUNTER.read()
        crypto.verify(oem_key.public, b"x", sig)
        crypto.verify(oem_key.public, b"y", sig)  # rejects, still counted
        assert crypto.VERIFY_COUNTER.read() == before + 2
        crypto.VERIFY_COUNTER.reset()
        assert crypto.VERIFY_COUNTER.read() == 0


class TestMac:
    @pytest.mark.parametrize("key,data,tag", HMAC_VECTORS)
    def test_known_answers(self, key, data, tag):
        assert crypto.mac(key, data) == bytes.fromhex(tag)

    def test_deterministic(self):
        assert crypto.mac(b"k" * 32, b"msg") == crypto.mac(b"k" * 32, b"msg")

    def test_distinct_keys_distinct_tags(self, rng):
        message = b"fixed"
        tags = {crypto.mac(rng.randbytes(32), message) for _ in range(100)}
        assert len(tags) == 100

    @given(st.binary(max_size=200), st.binary(max_size=5000))
    @example(b"k" * 64, b"")  # a key of exactly one block
    @example(b"k" * 65, b"m")  # a key longer than the block, hashed first
    @settings(max_examples=200)
    def test_equals_the_hmac_object_path(self, key, message):
        assert crypto.mac(key, message) == hmac.new(key, message, hashlib.sha256).digest()


class TestSessionKeys:
    def test_deterministic(self):
        a = crypto.derive_session_keys(b"m" * 32, bytes(16), b"\x01" * 16)
        b = crypto.derive_session_keys(b"m" * 32, bytes(16), b"\x01" * 16)
        assert a == b

    def test_enc_and_mac_never_equal(self, rng):
        for _ in range(1000):
            keys = crypto.derive_session_keys(rng.randbytes(32), rng.randbytes(16), rng.randbytes(16))
            assert keys.enc_key != keys.mac_key

    def test_nonce_order_matters(self, rng):
        for _ in range(100):
            master, a, b = rng.randbytes(32), rng.randbytes(16), rng.randbytes(16)
            assert crypto.derive_session_keys(master, a, b) != crypto.derive_session_keys(master, b, a)

    @pytest.mark.parametrize("controller,device", [(b"", bytes(16)), (bytes(16), bytes(15)), (bytes(17), bytes(16))])
    def test_wrong_nonce_length(self, controller, device):
        with pytest.raises(ChannelError, match="16 bytes"):
            crypto.derive_session_keys(bytes(32), controller, device)


class TestChannelFrames:
    def test_round_trip(self):
        keys = session_keys()
        frame = crypto.seal(keys, 3, b"payload bytes")
        assert crypto.open_frame(keys, 3, frame) == b"payload bytes"

    def test_frame_layout(self):
        keys = session_keys()
        frame = crypto.seal(keys, 0x0102030405060708, b"ab")
        assert frame[:8] == bytes.fromhex("0102030405060708")
        assert frame[8:12] == (2).to_bytes(4, "big")
        assert len(frame) == crypto.FRAME_OVERHEAD + 2

    def test_replay_detected(self):
        keys = session_keys()
        frame = crypto.seal(keys, 0, b"x")
        assert crypto.open_frame(keys, 0, frame) == b"x"
        with pytest.raises(ReplayOrReorder):
            crypto.open_frame(keys, 1, frame)

    def test_truncated_frame(self):
        keys = session_keys()
        frame = crypto.seal(keys, 0, b"")
        with pytest.raises(MalformedFrame):
            crypto.open_frame(keys, 0, frame[: crypto.FRAME_OVERHEAD - 1])

    def test_every_bit_flip_is_auth_failure(self):
        keys = session_keys()
        frame = crypto.seal(keys, 7, b"small frame")
        for bit in range(len(frame) * 8):
            mutant = bytearray(frame)
            mutant[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(AuthFailure):
                crypto.open_frame(keys, 7, bytes(mutant))

    def test_wrong_keys_rejected(self):
        frame = crypto.seal(session_keys(), 0, b"x")
        with pytest.raises(AuthFailure):
            crypto.open_frame(session_keys(b"\x01" * 32), 0, frame)

    @given(st.binary(max_size=2048), st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=100)
    def test_seal_open_identity(self, payload, sequence):
        keys = session_keys()
        assert crypto.open_frame(keys, sequence, crypto.seal(keys, sequence, payload)) == payload

    @pytest.mark.parametrize("sequence,plaintext,frame", FRAME_VECTORS)
    def test_known_answer_frames(self, sequence, plaintext, frame):
        keys = crypto.derive_session_keys(b"\x07" * 32, b"\x0c" * 16, b"\x0d" * 16)
        assert crypto.seal(keys, sequence, plaintext) == bytes.fromhex(frame)
        assert crypto.open_frame(keys, sequence, bytes.fromhex(frame)) == plaintext

    @given(
        st.binary(min_size=32, max_size=32),
        st.tuples(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16)),
        st.lists(
            st.tuples(
                st.one_of(st.just(2**64 - 1), st.integers(min_value=0, max_value=2**64 - 1)),
                st.one_of(st.sampled_from([15, 16, 17]), st.integers(min_value=0, max_value=5000)),
                st.sampled_from(["none", "flip", "replay", "truncate"]),
                st.integers(min_value=0, max_value=2**32),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @example(
        bytes(32),
        (bytes(16), b"\x01" * 16),
        [(2**64 - 1, 15, "flip", 3), (0, 16, "replay", 0), (5, 17, "truncate", 40), (2**64 - 1, 17, "none", 0)],
    )
    @settings(max_examples=100)
    def test_one_key_object_seals_and_opens_frames_as_fresh_ones_would(self, master, nonces, steps):
        keys = crypto.derive_session_keys(master, *nonces)
        for sequence, length, failure, pick in steps:
            plaintext = (bytes(range(256)) * 21)[pick % 256 : pick % 256 + length]
            frame = crypto.seal(keys, sequence, plaintext)
            assert frame == reference_frame(keys, sequence, plaintext)
            if failure == "flip":
                mutant = bytearray(frame)
                mutant[pick % len(frame)] ^= 1 << (pick % 8)
                with pytest.raises(AuthFailure):
                    crypto.open_frame(keys, sequence, bytes(mutant))
            elif failure == "replay":
                assert crypto.open_frame(keys, sequence, frame) == plaintext
                with pytest.raises(ReplayOrReorder):
                    crypto.open_frame(keys, sequence + 1, frame)
            elif failure == "truncate":
                with pytest.raises((AuthFailure, MalformedFrame)):
                    crypto.open_frame(keys, sequence, frame[: pick % len(frame)])
            assert crypto.open_frame(keys, sequence, frame) == plaintext


def channel_ends(master: bytes = b"\x07" * 32) -> tuple[crypto.Channel, crypto.Channel]:
    nonces = (b"\x0c" * 16, b"\x0d" * 16)
    return crypto.Channel(master, 9, *nonces, controller=True), crypto.Channel(master, 9, *nonces, controller=False)


class TestChannel:
    def test_both_ends_share_the_transcript(self):
        controller, device = channel_ends()
        assert controller.transcript == device.transcript == crypto.hash_data(
            (9).to_bytes(8, "big") + b"\x0c" * 16 + b"\x0d" * 16
        )

    def test_each_direction_opens_in_order(self):
        controller, device = channel_ends()
        for i in range(3):
            assert device.open(controller.seal(crypto.MSG_CHUNK, bytes([i]))) == (crypto.MSG_CHUNK, bytes([i]))
        assert controller.open(device.seal(crypto.MSG_STATUS, b"ok")) == (crypto.MSG_STATUS, b"ok")

    def test_frames_carry_the_direction_keys_and_counter(self):
        controller, _ = channel_ends()
        keys = crypto.derive_session_keys(b"\x07" * 32, b"\x0c" * 16, b"\x0d" * 16)
        controller.seal(crypto.MSG_CONFIRM, b"")
        frame = controller.seal(crypto.MSG_CHUNK, b"xy")
        assert crypto.open_frame(keys, 1, frame) == bytes([crypto.MSG_CHUNK]) + b"xy"

    def test_replay_and_reflection_are_rejected(self):
        controller, device = channel_ends()
        frame = controller.seal(crypto.MSG_CHUNK, b"")
        device.open(frame)
        with pytest.raises(ReplayOrReorder):
            device.open(frame)
        with pytest.raises(AuthFailure):
            controller.open(controller.seal(crypto.MSG_CHUNK, b""))

    def test_a_rejected_frame_does_not_advance_the_counter(self):
        controller, device = channel_ends()
        with pytest.raises(AuthFailure):
            device.open(channel_ends(b"\x08" * 32)[0].seal(crypto.MSG_CHUNK, b""))
        assert device.open(controller.seal(crypto.MSG_CHUNK, b"")) == (crypto.MSG_CHUNK, b"")

    @pytest.mark.parametrize("controller_nonce,device_nonce", [(bytes(15), bytes(16)), (bytes(16), bytes(17))])
    def test_wrong_nonce_length_is_a_channel_error(self, controller_nonce, device_nonce):
        with pytest.raises(ChannelError, match="16 bytes"):
            crypto.Channel(bytes(32), 9, controller_nonce, device_nonce, controller=False)

    def test_frame_without_a_kind_byte_is_a_channel_error(self):
        _, device = channel_ends()
        keys = crypto.derive_session_keys(b"\x07" * 32, b"\x0c" * 16, b"\x0d" * 16)
        with pytest.raises(ChannelError, match="empty frame payload"):
            device.open(crypto.seal(keys, 0, b""))

