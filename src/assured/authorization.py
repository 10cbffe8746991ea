"""OEM authorization tokens and update envelopes.

A token binds an artifact's hash and size plus install constraints under the
OEM signing key, in a fixed 136-byte encoding a constrained device can parse
without a general-purpose decoder:

    artifact_hash(32) || artifact_size(8) || device_model(8) || device_id(8)
    || required_prev_version(8) || new_version(8) || signature(64)

All integers big-endian. The signature covers bytes 0..72 exactly as encoded,
so there is no canonicalization step on the device. Envelopes wrap a token
together with its artifact for transport through untrusted mirrors:

    "ASRD"(4) || token(136) || artifact_length(8) || artifact
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from . import crypto
from .codec import Reader
from .errors import ConstraintViolation, InvalidConstraints, ParseError, TokenRejected

TOKEN_LEN = 136
CONSTRAINTS_LEN = 32
ENVELOPE_MAGIC = b"ASRD"
ENVELOPE_HEADER_LEN = len(ENVELOPE_MAGIC) + TOKEN_LEN + 8  # 148

WILDCARD = 0  # matches any model / device id; version 0 = factory/none

_U64_MAX = 2**64 - 1
# artifact_hash, artifact_size, the four constraints, signature
_TOKEN_LAYOUT = struct.Struct(">32sQQQQQ64s")
_SIGNED_LEN = TOKEN_LEN - crypto.SIGNATURE_LEN  # the signature covers bytes 0..72


@dataclass(frozen=True)
class Constraints:
    """Install constraints carried inside a token.

    Zero is the wildcard for model/id and "no ordering requirement" for
    required_prev_version. A nonzero required_prev_version pins the exact
    installed version an artifact (e.g. a differential patch) applies on
    top of.
    """

    device_model: int = WILDCARD
    device_id: int = WILDCARD
    required_prev_version: int = WILDCARD
    new_version: int = 1

    def validate(self) -> None:
        for name in ("device_model", "device_id", "required_prev_version", "new_version"):
            value = getattr(self, name)
            if not 0 <= value <= _U64_MAX:
                raise InvalidConstraints(f"{name} out of u64 range: {value}")
        if self.new_version < 1:
            raise InvalidConstraints("new_version must be >= 1")
        if self.required_prev_version and self.new_version <= self.required_prev_version:
            raise InvalidConstraints("new_version must exceed required_prev_version")

    def encode(self) -> bytes:
        return struct.pack(
            ">QQQQ",
            self.device_model,
            self.device_id,
            self.required_prev_version,
            self.new_version,
        )


@dataclass(frozen=True)
class AuthorizationToken:
    """The 136 issued-and-signed bytes. Every field is a read-only view
    through ``_TOKEN_LAYOUT``, so a token is its own encoding: there is no
    field that could hold a value the layout cannot."""

    raw: bytes

    def __post_init__(self) -> None:
        if len(self.raw) != TOKEN_LEN:
            raise ParseError(f"token must be exactly {TOKEN_LEN} bytes, got {len(self.raw)}", position=len(self.raw))

    @property
    def artifact_hash(self) -> bytes:
        return _TOKEN_LAYOUT.unpack(self.raw)[0]

    @property
    def artifact_size(self) -> int:
        return _TOKEN_LAYOUT.unpack(self.raw)[1]

    @property
    def constraints(self) -> Constraints:
        return Constraints(*_TOKEN_LAYOUT.unpack(self.raw)[2:6])

    @property
    def signature(self) -> bytes:
        return _TOKEN_LAYOUT.unpack(self.raw)[6]

    def signed_region(self) -> bytes:
        return self.raw[:_SIGNED_LEN]


def issue_token(oem_key: crypto.SigningKeyPair, artifact: bytes, constraints: Constraints) -> AuthorizationToken:
    """Sign an artifact's hash, size, and constraints under the OEM key."""
    constraints.validate()
    region = crypto.hash_data(artifact) + struct.pack(">Q", len(artifact)) + constraints.encode()
    return AuthorizationToken(region + crypto.sign(oem_key, region))


def encode_token(token: AuthorizationToken) -> bytes:
    return token.raw


def decode_token(data: bytes) -> AuthorizationToken:
    """Wrap a 136-byte token; its length is the only structural check, so
    adversarial tokens decode and verification rejects them with a typed
    error."""
    return AuthorizationToken(bytes(data))


def verify_token(oem_public: bytes, artifact: bytes, token: AuthorizationToken) -> None:
    """Accept iff hash, size, and OEM signature all match; else raise.

    Exactly one public-key verification on the accepting path; hash and
    size mismatches reject before any signature work.
    """
    if crypto.hash_data(artifact) != token.artifact_hash:
        raise TokenRejected(TokenRejected.HASH_MISMATCH)
    if len(artifact) != token.artifact_size:
        raise TokenRejected(TokenRejected.SIZE_MISMATCH)
    if not crypto.verify(oem_public, token.signed_region(), token.signature):
        raise TokenRejected(TokenRejected.BAD_SIGNATURE)


def check_identity(c: Constraints, device_model: int, device_id: int) -> None:
    """The clauses that bind a token to a device, which install and boot
    both check: model, then id, each matching or wildcarded."""
    if c.device_model != WILDCARD and c.device_model != device_model:
        raise ConstraintViolation(ConstraintViolation.WRONG_MODEL)
    if c.device_id != WILDCARD and c.device_id != device_id:
        raise ConstraintViolation(ConstraintViolation.WRONG_DEVICE)


def evaluate_constraints(
    c: Constraints, device_model: int, device_id: int, installed_version: int
) -> None:
    """Pure predicate over (constraints, identity, installed version).

    Accepts iff model and id match (or are wildcarded), new_version is
    strictly greater than what is installed, and any pinned previous
    version equals the installed one. First failing clause wins.
    """
    check_identity(c, device_model, device_id)
    if c.new_version <= installed_version:
        raise ConstraintViolation(ConstraintViolation.VERSION_NOT_MONOTONIC)
    if c.required_prev_version != WILDCARD and c.required_prev_version != installed_version:
        raise ConstraintViolation(ConstraintViolation.PATCH_ORDER_VIOLATION)


# --- update envelopes -----------------------------------------------------------

@dataclass(frozen=True)
class UpdateEnvelope:
    """Token + artifact as one unit; carries no validity guarantee of its own."""

    token: AuthorizationToken
    artifact: bytes


def build_envelope(token: AuthorizationToken, artifact: bytes) -> UpdateEnvelope:
    return UpdateEnvelope(token=token, artifact=artifact)


def serialize_envelope(envelope: UpdateEnvelope) -> bytes:
    return (
        ENVELOPE_MAGIC
        + envelope.token.raw
        + struct.pack(">Q", len(envelope.artifact))
        + envelope.artifact
    )


def parse_envelope(data: bytes) -> UpdateEnvelope:
    reader = Reader(data)
    if reader.take(len(ENVELOPE_MAGIC), "envelope magic") != ENVELOPE_MAGIC:
        raise ParseError("bad envelope magic", position=0)
    token = decode_token(reader.take(TOKEN_LEN, "token"))
    artifact = reader.take(reader.u64("artifact length"), "artifact")
    reader.end("envelope")
    return UpdateEnvelope(token=token, artifact=artifact)
