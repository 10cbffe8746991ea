"""Typed failure taxonomy shared by all protocol layers.

Every rejection in the delivery pipeline surfaces as one of these, never as
a bare ValueError/KeyError: the fuzzing and adversary suites treat anything
outside this hierarchy as a crash.
"""

from __future__ import annotations


class AssuredError(Exception):
    """Base class for every protocol-level rejection."""


# --- authenticated channel -------------------------------------------------

class ChannelError(AssuredError):
    pass


class AuthFailure(ChannelError):
    """Frame tag did not verify (corruption or wrong session keys)."""


class ReplayOrReorder(ChannelError):
    """Frame sequence number differs from the expected counter."""

    def __init__(self, expected: int, got: int) -> None:
        super().__init__(f"expected sequence {expected}, got {got}")
        self.expected = expected
        self.got = got


class MalformedFrame(ChannelError):
    """Frame too short or internally inconsistent lengths."""


# --- serialization ----------------------------------------------------------

class ParseError(AssuredError):
    """Malformed metadata/token/envelope input.

    ``position`` is a byte offset for binary inputs or a field path for JSON.
    """

    def __init__(self, message: str, position: int | str = 0) -> None:
        super().__init__(f"{message} (at {position})")
        self.position = position


# --- role-metadata verification ---------------------------------------------

class MetadataError(AssuredError):
    def __init__(self, role: "str", detail: str = "") -> None:
        super().__init__(f"{role}: {detail}" if detail else role)
        self.role = role


class ThresholdNotMet(MetadataError):
    pass


class Expired(MetadataError):
    pass


class VersionRollback(MetadataError):
    pass


class BindingMismatch(MetadataError):
    pass


# --- authorization tokens / constraints --------------------------------------

class TokenRejected(AssuredError):
    """Token failed verification against an artifact.

    ``reason`` is one of HASH_MISMATCH / SIZE_MISMATCH / BAD_SIGNATURE.
    """

    HASH_MISMATCH = "hash_mismatch"
    SIZE_MISMATCH = "size_mismatch"
    BAD_SIGNATURE = "bad_signature"

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class ConstraintViolation(AssuredError):
    """Constraints did not admit this device/version combination."""

    WRONG_MODEL = "wrong_model"
    WRONG_DEVICE = "wrong_device"
    VERSION_NOT_MONOTONIC = "version_not_monotonic"
    PATCH_ORDER_VIOLATION = "patch_order_violation"

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# --- repository / controller -------------------------------------------------

class PublishRejected(AssuredError):
    pass


class NotFound(AssuredError):
    pass


class EnvelopeMismatch(AssuredError):
    """Fetched envelope disagrees with its signed targets record."""


class PolicyDeferred(AssuredError):
    OUTSIDE_WINDOW = "outside_window"
    MODEL_BLOCKED = "model_blocked"

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class DeliveryFailed(AssuredError):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class NotVerifiedBySync(AssuredError):
    """Attempt to deliver an envelope that did not come out of sync()."""


class NonceCollision(AssuredError):
    """The controller drew an attestation nonce it has already used."""


class AttestationRefused(AssuredError):
    """Device refused to serve an attestation nonce (replay)."""


_CHANNEL_REASON_TOKENS = {
    AuthFailure: "auth_failure",
    ReplayOrReorder: "replay_or_reorder",
    MalformedFrame: "malformed_frame",
    ChannelError: "channel_error",
}


def channel_reason(exc: ChannelError) -> str:
    """Stable short token for a channel failure, for transcripts and acks."""
    for cls in type(exc).__mro__:
        if cls in _CHANNEL_REASON_TOKENS:
            return _CHANNEL_REASON_TOKENS[cls]
    return "channel_error"
