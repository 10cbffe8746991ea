"""Typed failure taxonomy shared by all protocol layers.

Every rejection in the delivery pipeline surfaces as one of these, never as
a bare ValueError/KeyError: the fuzzing and adversary suites treat anything
outside this hierarchy as a crash.
"""

from __future__ import annotations


class AssuredError(Exception):
    """Base class for every protocol-level rejection."""


class Rejection(AssuredError):
    """A rejection whose message is the ``reason`` token it is raised with."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# --- authenticated channel -------------------------------------------------

class ChannelError(AssuredError):
    """A channel failure; its reason token is its class's ``reason``."""

    reason = "channel_error"


class AuthFailure(ChannelError):
    """Frame tag did not verify (corruption or wrong session keys)."""

    reason = "auth_failure"


class ReplayOrReorder(ChannelError):
    """Frame sequence number differs from the expected counter."""

    reason = "replay_or_reorder"

    def __init__(self, expected: int, got: int) -> None:
        super().__init__(f"expected sequence {expected}, got {got}")
        self.expected = expected
        self.got = got


class MalformedFrame(ChannelError):
    """Frame too short or internally inconsistent lengths."""

    reason = "malformed_frame"


# --- serialization and files ------------------------------------------------

class ParseError(AssuredError):
    """Malformed metadata/token/envelope input.

    ``position`` is a byte offset for binary inputs or a field path for JSON.
    """

    def __init__(self, message: str, position: int | str = 0) -> None:
        super().__init__(f"{message} (at {position})")
        self.position = position


class WriteFailed(AssuredError):
    """A file could not be replaced; the file at its path is left as it was."""


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

class TokenRejected(Rejection):
    """Token failed verification against an artifact.

    ``reason`` is one of HASH_MISMATCH / SIZE_MISMATCH / BAD_SIGNATURE.
    """

    HASH_MISMATCH = "hash_mismatch"
    SIZE_MISMATCH = "size_mismatch"
    BAD_SIGNATURE = "bad_signature"


class InvalidConstraints(AssuredError):
    """Constraints no token may carry, refused before signing."""


class ConstraintViolation(Rejection):
    """Constraints did not admit this device/version combination."""

    WRONG_MODEL = "wrong_model"
    WRONG_DEVICE = "wrong_device"
    VERSION_NOT_MONOTONIC = "version_not_monotonic"
    PATCH_ORDER_VIOLATION = "patch_order_violation"


# --- repository / controller -------------------------------------------------

class PublishRejected(AssuredError):
    pass


class NotFound(AssuredError):
    pass


class EnvelopeMismatch(AssuredError):
    """Fetched envelope disagrees with its signed targets record."""


class PolicyDeferred(Rejection):
    OUTSIDE_WINDOW = "outside_window"
    MODEL_BLOCKED = "model_blocked"


class DeliveryFailed(Rejection):
    pass


class NotVerifiedBySync(AssuredError):
    """Attempt to deliver an envelope that did not come out of sync()."""


class NonceCollision(AssuredError):
    """The controller drew an attestation nonce that is still in its window
    of the last NONCE_WINDOW attestation nonces."""


class AttestationRefused(AssuredError):
    """Device refused an attestation nonce that is not NONCE_LEN bytes."""
