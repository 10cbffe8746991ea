"""Cryptographic primitive layer: hashing, signatures, MACs, session-key
derivation, authenticated channel framing, and the controller<->device
channel both ends share.

Everything above this module is algorithm-agnostic against this interface.
Fixed algorithm suite: SHA-256, Ed25519, HMAC-SHA256, and AES-CTR in an
encrypt-then-MAC composition.

Frame layout (byte-exact wire contract):

    8-byte big-endian sequence || 4-byte big-endian payload length
    || ciphertext || 32-byte HMAC tag over everything before the tag

Every channel plaintext is one kind byte (``MSG_*``) and its payload. A
frame's tag is one HMAC-SHA256 over ``header || ciphertext`` under the
direction's ``mac_key``. Only the AES-CTR context is kept per direction: each
direction's ``SessionKeys`` keys it once, and a frame resets it to its counter
block ``sequence || 0^8``, so a frame's bytes are those of a fresh cipher
under the same key. A key object belongs to one channel end.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import struct
import threading
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ed25519
from cryptography.hazmat.primitives.ciphers import Cipher, modes
# bound once: every lookup through the ``algorithms`` module costs a deprecation check
from cryptography.hazmat.primitives.ciphers.algorithms import AES

from .codec import cached
from .errors import AuthFailure, ChannelError, MalformedFrame, ReplayOrReorder

DIGEST_LEN = 32
KEY_LEN = 32
PUBLIC_KEY_LEN = 32
SIGNATURE_LEN = 64
TAG_LEN = 32
NONCE_LEN = 16

FRAME_SEQ_LEN = 8
FRAME_LEN_FIELD = 4
FRAME_HEADER_LEN = FRAME_SEQ_LEN + FRAME_LEN_FIELD
FRAME_OVERHEAD = FRAME_HEADER_LEN + TAG_LEN

# sealed payload kinds
MSG_CONFIRM = 0x01
MSG_CHUNK = 0x02
MSG_FINAL_CHUNK = 0x03
MSG_STATUS = 0x04

_ENC_LABEL = b"ASSURED-ENC"
_MAC_LABEL = b"ASSURED-MAC"


def hash_data(data: bytes) -> bytes:
    """SHA-256 digest of ``data`` (32 bytes, deterministic)."""
    return hashlib.sha256(data).digest()


def mac(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 tag of ``message`` under ``key`` (32 bytes)."""
    return _hmac.digest(key, message, "sha256")


def mac_equal(a: bytes, b: bytes) -> bool:
    return _hmac.compare_digest(a, b)


# --- signatures ---------------------------------------------------------------

@dataclass(frozen=True)
class SigningKeyPair:
    """Ed25519 key pair; ``private`` is the 32-byte seed."""

    private: bytes
    public: bytes

    def __post_init__(self) -> None:
        if len(self.private) != KEY_LEN or len(self.public) != PUBLIC_KEY_LEN:
            raise ValueError("signing key material must be 32 bytes each")

    @cached
    def signer(self) -> ed25519.Ed25519PrivateKey:
        """The private key loaded from ``private``, once, on first use."""
        return ed25519.Ed25519PrivateKey.from_private_bytes(self.private)


def signing_key_from_seed(seed: bytes) -> SigningKeyPair:
    if len(seed) != KEY_LEN:
        raise ValueError("Ed25519 seed must be 32 bytes")
    private = ed25519.Ed25519PrivateKey.from_private_bytes(seed)
    return SigningKeyPair(private=seed, public=private.public_key().public_bytes_raw())


def sign(key: SigningKeyPair, message: bytes) -> bytes:
    return key.signer.sign(message)


class VerificationCounter:
    """Counts public-key verifications; the bench module reads deltas.

    A single instance is shared process-wide so the TUF and token paths are
    measured identically.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0

    def increment(self) -> None:
        with self._lock:
            self._count += 1

    def read(self) -> int:
        with self._lock:
            return self._count

    def reset(self) -> None:
        with self._lock:
            self._count = 0


VERIFY_COUNTER = VerificationCounter()


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` is valid for ``message`` under ``public``.

    Malformed key or signature encodings reject rather than raise. Every
    call increments the process-wide verification counter.
    """
    VERIFY_COUNTER.increment()
    if len(public) != PUBLIC_KEY_LEN or len(signature) != SIGNATURE_LEN:
        return False
    try:
        ed25519.Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True


def key_id(public: bytes) -> bytes:
    """Identifier of a public key: its SHA-256 digest."""
    return hash_data(public)


# --- session keys and channel frames -------------------------------------------

# a mode object is an immutable value, so every context starts from this one
_CTR_MODE = modes.CTR(bytes(16))


@dataclass(frozen=True)
class SessionKeys:
    """One direction's keys, and the AES-CTR context keyed from ``enc_key``
    once, on first use.

    Sealing and opening reset the context, so a key object is mutable state:
    it belongs to one channel end and is not shared across threads.
    """

    enc_key: bytes
    mac_key: bytes

    @cached
    def ctr(self):
        """AES-CTR encryptor under ``enc_key``; every frame resets its counter block."""
        return Cipher(AES(self.enc_key), _CTR_MODE).encryptor()


def derive_session_keys(master: bytes, controller_nonce: bytes, device_nonce: bytes) -> SessionKeys:
    """Derive (enc, mac) keys from the pre-shared master and both nonces.

    Labeled HMAC derivation gives determinism and domain separation;
    enc_key != mac_key for all inputs.
    """
    if len(controller_nonce) != NONCE_LEN or len(device_nonce) != NONCE_LEN:
        raise ChannelError("channel nonces must be exactly 16 bytes")
    suffix = controller_nonce + device_nonce
    return SessionKeys(
        enc_key=mac(master, _ENC_LABEL + suffix),
        mac_key=mac(master, _MAC_LABEL + suffix),
    )


_FRAME_HEADER = struct.Struct(">QI")
# CTR initial block is the frame sequence; sequences never repeat within a
# direction, so counter blocks never collide. The reset also drops any
# keystream left over from the previous frame's partial block.
_COUNTER_BLOCK = struct.Struct(">Q8x")


def seal(keys: SessionKeys, sequence: int, plaintext: bytes) -> bytes:
    """Encrypt-then-MAC ``plaintext`` into a framed message."""
    keys.ctr.reset_nonce(_COUNTER_BLOCK.pack(sequence))
    signed = _FRAME_HEADER.pack(sequence, len(plaintext)) + keys.ctr.update(plaintext)
    return signed + mac(keys.mac_key, signed)


def open_frame(keys: SessionKeys, expected_sequence: int, frame: bytes) -> bytes:
    """Authenticate and decrypt one frame.

    The tag is checked before anything in the header is trusted, so any
    single-bit corruption anywhere in the frame (sequence, length field,
    ciphertext, or tag) surfaces as AuthFailure; a genuine replay of an
    intact frame surfaces as ReplayOrReorder. Only truncation below the
    fixed overhead is Malformed.
    """
    if len(frame) < FRAME_OVERHEAD:
        raise MalformedFrame(f"frame of {len(frame)} bytes is shorter than the fixed overhead")
    signed = frame[:-TAG_LEN]
    if not mac_equal(frame[-TAG_LEN:], mac(keys.mac_key, signed)):
        raise AuthFailure("frame tag mismatch")
    sequence, length = _FRAME_HEADER.unpack_from(signed)
    body = signed[FRAME_HEADER_LEN:]
    if len(body) != length:
        raise MalformedFrame(f"payload length field {length} != {len(body)} actual")
    if sequence != expected_sequence:
        raise ReplayOrReorder(expected_sequence, sequence)
    keys.ctr.reset_nonce(_COUNTER_BLOCK.pack(sequence))
    return keys.ctr.update(body)


class Channel:
    """One end of the controller<->device channel, keyed by the device's
    pre-shared attestation key and both handshake nonces.

    The controller-to-device direction is keyed with the nonces in
    (controller, device) order and the reply direction with them swapped, so
    both sequence counters start at zero without keystream reuse and a frame
    sent back to the end that sealed it fails its tag. ``transcript`` is the
    handshake hash each end confirms to the other.
    """

    def __init__(
        self, master: bytes, device_id: int, controller_nonce: bytes, device_nonce: bytes, controller: bool
    ) -> None:
        to_device = derive_session_keys(master, controller_nonce, device_nonce)
        to_controller = derive_session_keys(master, device_nonce, controller_nonce)
        self._send, self._receive = (to_device, to_controller) if controller else (to_controller, to_device)
        self._sent = 0
        self._received = 0
        self.transcript = hash_data(struct.pack(">Q", device_id) + controller_nonce + device_nonce)

    def seal(self, kind: int, payload: bytes) -> bytes:
        frame = seal(self._send, self._sent, bytes([kind]) + payload)
        self._sent += 1
        return frame

    def open(self, frame: bytes) -> tuple[int, bytes]:
        """The next frame's (kind, payload); a channel failure raises."""
        plaintext = open_frame(self._receive, self._received, frame)
        self._received += 1
        if not plaintext:
            raise ChannelError("empty frame payload")
        return plaintext[0], plaintext[1:]


def attestation_tag(key: bytes, device_id: int, nonce: bytes, measurement: bytes) -> bytes:
    """MAC of an attestation report: device id (u64) || nonce || measurement."""
    return mac(key, struct.pack(">Q", device_id) + nonce + measurement)
