"""Simulated resource-constrained device.

The security architecture of a real device (microkernel isolation or a
trusted-execution zone) is modeled as a module boundary: the OEM trust anchor
and the attestation master key live in name-mangled private fields, banks are
written only by this module's operations, and the public API exposes nothing
but handshake bytes, install outcomes, boot results, and attestation reports.

Install regimes:

* DUAL_BANK (default): the inactive bank is staged and revalidated, then the
  active-bank pointer flips atomically; the previous firmware stays intact
  for fallback.
* SINGLE_BANK: the active bank is overwritten as the update streams in and
  validated only afterwards; a failed validation leaves the device pending a
  replacement image.

TUF comparison mode (``receive_update_tuf``): the device runs the same TUF
client as the controller (metadata.TrustedState) on metadata blobs handed to
it, the baseline the token path is measured against.

Fault-injection hooks (power loss between writes, flash corruption, a lying
installer) simulate hardware faults and compromised software below the
security boundary; they are not part of the device's protocol surface.
"""

from __future__ import annotations

import enum
import random
import struct
from dataclasses import dataclass, field

from . import crypto
from .authorization import (
    TOKEN_LEN,
    AuthorizationToken,
    UpdateEnvelope,
    check_identity,
    decode_token,
    evaluate_constraints,
    parse_envelope,
    verify_token,
)
from .codec import Reader, flip_bit, read_file, write_file
from .errors import (
    AssuredError,
    AttestationRefused,
    ChannelError,
    ConstraintViolation,
    ParseError,
    TokenRejected,
)
from .metadata import Mode, RoleKind, RoleMetadata, TrustedState

BANK_WRITE_CHUNK = 64  # granularity of simulated flash writes


class InstallMode(enum.Enum):
    DUAL_BANK = "dual"
    SINGLE_BANK = "single"


class SimulatedPowerLoss(RuntimeError):
    """Raised by the fault hooks mid-install; not a protocol rejection."""


@dataclass
class Bank:
    artifact: bytes | None = None
    version: int = 0
    token: AuthorizationToken | None = None

    def clear(self) -> None:
        self.artifact = None
        self.version = 0
        self.token = None


@dataclass(frozen=True)
class AttestationReport:
    device_id: int
    nonce: bytes
    measurement: bytes
    tag: bytes


@dataclass(frozen=True)
class InstallOutcome:
    status: str  # installed | rejected | rolled_back
    version: int = 0
    reason: str = ""

    INSTALLED = "installed"
    REJECTED = "rejected"
    ROLLED_BACK = "rolled_back"
    STATUSES = (INSTALLED, REJECTED, ROLLED_BACK)

    def __post_init__(self) -> None:
        if self.status not in self.STATUSES:
            raise ValueError(f"unknown install status {self.status!r}")

    def encode(self) -> bytes:
        """status index(1) || version(8) || reason (u16-length UTF-8)"""
        reason = self.reason.encode("utf-8")
        return struct.pack(">BQH", self.STATUSES.index(self.status), self.version, len(reason)) + reason

    @classmethod
    def decode(cls, data: bytes) -> "InstallOutcome":
        reader = Reader(data)
        index = reader.u8("install status")
        if index >= len(cls.STATUSES):
            raise ParseError(f"unknown install status {index}", position=0)
        outcome = cls(cls.STATUSES[index], reader.u64("installed version"), reader.text("reason"))
        reader.end("install status")
        return outcome


@dataclass(frozen=True)
class BootResult:
    running: bool
    version: int = 0
    reason: str = ""


@dataclass
class FaultHooks:
    """Simulated hardware/software faults, settable by the harness only."""

    fail_after_writes: int | None = None
    suppress_install: bool = False


@dataclass
class _Session:
    channel: crypto.Channel
    confirmed: bool = False
    chunks: list[bytes] = field(default_factory=list)


class Device:
    """One simulated device; strictly single-threaded like an MCU main loop."""

    def __init__(
        self,
        device_model: int,
        device_id: int,
        oem_public: bytes,
        attestation_key: bytes,
        install_mode: InstallMode = InstallMode.DUAL_BANK,
        rng: random.Random | None = None,
    ) -> None:
        self.device_model = device_model
        self.device_id = device_id
        self.__oem_public = oem_public
        self.__attestation_key = attestation_key
        self.install_mode = install_mode
        self.faults = FaultHooks()
        self.needs_replacement = False
        self._rng = rng or random.Random()
        self._banks = [Bank(), Bank()]
        self._active = 0
        self._installed_version = 0
        self._session: _Session | None = None
        self._served_nonces: set[bytes] = set()
        self._writes_done = 0
        self._trust: TrustedState | None = None  # the TUF client, in comparison mode only

    # --- provisioning (manufacture time) ---------------------------------------

    def provision_firmware(self, artifact: bytes, token: AuthorizationToken) -> None:
        """Factory-install an image; validates the token like secure boot would."""
        verify_token(self.__oem_public, artifact, token)
        bank = self._banks[self._active]
        bank.artifact = artifact
        bank.version = token.constraints.new_version
        bank.token = token
        self._installed_version = bank.version

    def provision_trusted_root(self, root: RoleMetadata) -> None:
        """Install the repository trust anchor (TUF-comparison mode only)."""
        self._trust = TrustedState(root)

    # --- introspection ------------------------------------------------------------

    @property
    def installed_version(self) -> int:
        return self._installed_version

    @property
    def active_bank(self) -> int:
        return self._active

    def bank_version(self, index: int) -> int:
        return self._banks[index].version

    # --- authenticated channel ------------------------------------------------------

    def channel_accept(self, controller_nonce: bytes) -> bytes:
        """Answer a channel open: return a fresh device nonce and start a new session."""
        device_nonce = self._rng.randbytes(crypto.NONCE_LEN)
        self._session = _Session(
            crypto.Channel(self.__attestation_key, self.device_id, controller_nonce, device_nonce, controller=False)
        )
        return device_nonce

    def channel_receive(self, frames: list[bytes]) -> list[bytes]:
        """Process a batch of sealed frames, returning sealed responses.

        Channel failures raise before any flash write; protocol-level
        rejections come back as a sealed status frame.
        """
        if self._session is None:
            raise ChannelError("no active session")
        session = self._session
        channel = session.channel
        replies: list[bytes] = []
        envelope_complete = False
        for frame in frames:
            kind, payload = channel.open(frame)
            if kind == crypto.MSG_CONFIRM:
                if session.confirmed or payload != channel.transcript:
                    raise ChannelError("handshake transcript mismatch")
                session.confirmed = True
                replies.append(channel.seal(crypto.MSG_CONFIRM, channel.transcript))
            elif kind in (crypto.MSG_CHUNK, crypto.MSG_FINAL_CHUNK):
                if not session.confirmed:
                    raise ChannelError("envelope frame before handshake confirmation")
                session.chunks.append(payload)
                if kind == crypto.MSG_FINAL_CHUNK:
                    envelope_complete = True
            else:
                raise ChannelError(f"unexpected frame kind {kind}")
        if envelope_complete:
            envelope_bytes = b"".join(session.chunks)
            session.chunks = []
            outcome = self._install_from_bytes(envelope_bytes)
            replies.append(channel.seal(crypto.MSG_STATUS, outcome.encode()))
        return replies

    def receive_unsealed(self, envelope_bytes: bytes) -> InstallOutcome:
        """An envelope arriving outside the channel carries no controller
        approval; always rejected regardless of its content."""
        return InstallOutcome(InstallOutcome.REJECTED, reason="no_implicit_auth")

    # --- installation ------------------------------------------------------------------

    def _write(self, action) -> None:
        if self.faults.fail_after_writes is not None and self._writes_done >= self.faults.fail_after_writes:
            raise SimulatedPowerLoss(f"power loss after {self._writes_done} writes")
        action()
        self._writes_done += 1

    def _write_artifact(self, bank: Bank, artifact: bytes) -> None:
        """Stage an image: one write starts it, then one write per
        BANK_WRITE_CHUNK bytes, each a point where power can fail. The chunks
        the fault budget still allows are applied as a single copy, so the
        bank and the write count end exactly where a chunk-by-chunk loop
        would stop."""
        self._write(lambda: setattr(bank, "artifact", b""))
        chunks = -(-len(artifact) // BANK_WRITE_CHUNK)
        budget = self.faults.fail_after_writes
        allowed = chunks if budget is None else min(chunks, budget - self._writes_done)
        bank.artifact = artifact[: allowed * BANK_WRITE_CHUNK]
        self._writes_done += allowed
        if allowed < chunks:
            raise SimulatedPowerLoss(f"power loss after {self._writes_done} writes")

    def _stage(self, bank: Bank, artifact: bytes, token: AuthorizationToken | None, version: int) -> None:
        """Write an image into ``bank``: clear it, the image, the token and the
        version, each a write step."""
        self._write(bank.clear)
        self._write_artifact(bank, artifact)
        self._write(lambda: setattr(bank, "token", token))
        self._write(lambda: setattr(bank, "version", version))

    def _flip(self) -> None:
        """The dual-bank pointer flip (a write step): the staged bank becomes
        the active one and its version the installed one."""
        self._active = 1 - self._active
        self._installed_version = self._banks[self._active].version

    def _bank_consistent(self, bank: Bank) -> bool:
        """Write-integrity recheck of a staged bank against its token:
        hash and size only, no public-key work."""
        if bank.artifact is None or bank.token is None:
            return False
        return (
            crypto.hash_data(bank.artifact) == bank.token.artifact_hash
            and len(bank.artifact) == bank.token.artifact_size
            and bank.version == bank.token.constraints.new_version
        )

    def _install_from_bytes(self, envelope_bytes: bytes) -> InstallOutcome:
        try:
            envelope = parse_envelope(envelope_bytes)
        except ParseError as exc:
            return InstallOutcome(InstallOutcome.REJECTED, reason=f"malformed_envelope:{exc.position}")
        if self.faults.suppress_install:
            # compromised installer: claims success, writes nothing
            return InstallOutcome(InstallOutcome.INSTALLED, version=envelope.token.constraints.new_version)
        if self.install_mode is InstallMode.DUAL_BANK:
            return self._install_dual_bank(envelope)
        return self._install_single_bank(envelope)

    def _install_dual_bank(self, envelope: UpdateEnvelope) -> InstallOutcome:
        token = envelope.token
        try:
            verify_token(self.__oem_public, envelope.artifact, token)
            evaluate_constraints(token.constraints, self.device_model, self.device_id, self._installed_version)
        except (TokenRejected, ConstraintViolation) as exc:
            return InstallOutcome(InstallOutcome.REJECTED, reason=exc.reason)
        staging = self._banks[1 - self._active]
        self._stage(staging, envelope.artifact, token, token.constraints.new_version)
        if not self._bank_consistent(staging):
            staging.clear()
            return InstallOutcome(InstallOutcome.REJECTED, reason="bank_revalidation_failed")
        self._write(self._flip)
        return InstallOutcome(InstallOutcome.INSTALLED, version=self._installed_version)

    def _install_single_bank(self, envelope: UpdateEnvelope) -> InstallOutcome:
        token = envelope.token
        try:
            # identity/order gates read only the fixed token fields, so they
            # run before the overwrite; crypto validation must wait until the
            # image is in flash (there is no room to stage it)
            evaluate_constraints(token.constraints, self.device_model, self.device_id, self._installed_version)
        except ConstraintViolation as exc:
            return InstallOutcome(InstallOutcome.REJECTED, reason=exc.reason)
        bank = self._banks[self._active]
        previous_version = self._installed_version
        self._stage(bank, envelope.artifact, token, token.constraints.new_version)
        try:
            verify_token(self.__oem_public, bank.artifact or b"", token)
        except TokenRejected as exc:
            self.needs_replacement = True
            return InstallOutcome(
                InstallOutcome.ROLLED_BACK,
                version=previous_version,
                reason=f"validation_after_write_failed:{exc.reason}",
            )
        self._installed_version = token.constraints.new_version
        return InstallOutcome(InstallOutcome.INSTALLED, version=self._installed_version)

    def receive_update_tuf(
        self, blobs: dict[RoleKind, bytes], name: str, artifact: bytes, mode: Mode, now: int = 0
    ) -> InstallOutcome:
        """Comparison mode: the device itself runs TUF's client workflow, the
        controller's metadata.TrustedState, on ``blobs`` (six public-key
        operations at the standard thresholds, one if the timestamp pins the
        set it holds) and installs the named record's artifact."""
        if self._trust is None:
            raise AssuredError("device has no trusted root installed")
        try:
            metadata_set = self._trust.update(blobs.__getitem__, mode, now)
        except AssuredError as exc:
            return InstallOutcome(InstallOutcome.REJECTED, reason=str(exc))
        if metadata_set is None:
            metadata_set = self._trust.held
        else:
            self._trust.commit(metadata_set)
        record = metadata_set.targets.body.find(name)
        if record is None:
            return InstallOutcome(InstallOutcome.REJECTED, reason="unknown_target")
        if crypto.hash_data(artifact) != record.hash or len(artifact) != record.size:
            return InstallOutcome(InstallOutcome.REJECTED, reason="artifact_mismatch")
        new_version = metadata_set.targets.version
        if new_version <= self._installed_version:
            return InstallOutcome(InstallOutcome.REJECTED, reason="version_not_monotonic")
        self._stage(self._banks[1 - self._active], artifact, None, new_version)
        self._write(self._flip)
        return InstallOutcome(InstallOutcome.INSTALLED, version=new_version)

    # --- boot and attestation -------------------------------------------------------------

    def _bank_boots(self, bank: Bank) -> bool:
        if bank.artifact is None or bank.token is None:
            return False
        try:
            verify_token(self.__oem_public, bank.artifact, bank.token)
            check_identity(bank.token.constraints, self.device_model, self.device_id)
        except (TokenRejected, ConstraintViolation):
            return False
        return True

    def boot(self) -> BootResult:
        """Secure-boot check: revalidate the active image, falling back to
        the other bank (dual-bank mode) when the active one fails."""
        if self.needs_replacement:
            return BootResult(running=False, reason="pending_replacement")
        active = self._banks[self._active]
        if self._bank_boots(active):
            return BootResult(running=True, version=active.version)
        if self.install_mode is InstallMode.DUAL_BANK:
            other = self._banks[1 - self._active]
            if self._bank_boots(other):
                self._active = 1 - self._active
                self._installed_version = other.version
                return BootResult(running=True, version=other.version, reason="fallback")
        return BootResult(running=False, reason="no_valid_bank")

    def attest(self, nonce: bytes) -> AttestationReport:
        """MAC over (device id, verifier nonce, active-image measurement).

        Nonces are single-use; freshness needs no device clock.
        """
        if len(nonce) != crypto.NONCE_LEN:
            raise AttestationRefused(f"attestation nonce must be {crypto.NONCE_LEN} bytes")
        if nonce in self._served_nonces:
            raise AttestationRefused("nonce already served")
        self._served_nonces.add(nonce)
        artifact = self._banks[self._active].artifact or b""
        measurement = crypto.hash_data(artifact)
        tag = crypto.attestation_tag(self.__attestation_key, self.device_id, nonce, measurement)
        return AttestationReport(
            device_id=self.device_id, nonce=nonce, measurement=measurement, tag=tag
        )

    def _secure_store(self) -> tuple[bytes, bytes]:
        """Module-internal: (oem_public, attestation_key) for flash persistence."""
        return self.__oem_public, self.__attestation_key

    # --- fault injection (harness only) -----------------------------------------------------

    def simulate_flash_corruption(self, bank_index: int, bit_offset: int) -> None:
        """Hardware-fault model: flip one bit in a stored image."""
        bank = self._banks[bank_index]
        if bank.artifact is not None:
            bank.artifact = flip_bit(bank.artifact, bit_offset)

    def reset_write_counter(self) -> None:
        self._writes_done = 0


# --- flash persistence ---------------------------------------------------------------

_FLASH_MAGIC = b"ASFL"


def _pack_bank(bank: Bank) -> bytes:
    if bank.artifact is None:
        return b"\x00"
    return (
        b"\x01"
        + struct.pack(">QB", bank.version, 1 if bank.token else 0)
        + (bank.token.raw if bank.token else bytes(TOKEN_LEN))
        + struct.pack(">Q", len(bank.artifact))
        + bank.artifact
    )


def _unpack_bank(reader: Reader) -> Bank:
    if not reader.flag("bank flag"):
        return Bank()
    version = reader.u64("bank version")
    has_token = reader.flag("token flag")
    token_at = reader.offset
    token_bytes = reader.take(TOKEN_LEN, "bank token")
    if not has_token and token_bytes != bytes(TOKEN_LEN):
        raise ParseError("bank without a token has a non-zero token field", position=token_at)
    token = decode_token(token_bytes) if has_token else None
    artifact = reader.take(reader.u64("artifact length"), "artifact")
    return Bank(artifact=artifact, version=version, token=token)


def save_flash(device: Device, path: str) -> None:
    """Persist device state as one flat binary file (simulated flash)."""
    write_file(path, encode_flash(device))


def load_flash(path: str, rng: random.Random | None = None) -> Device:
    return decode_flash(read_file(path), rng)


def encode_flash(device: Device) -> bytes:
    """The flash image of ``device``, as save_flash writes it."""
    out = bytearray(_FLASH_MAGIC)
    out += struct.pack(
        ">QQBQBB",
        device.device_model,
        device.device_id,
        device._active,
        device._installed_version,
        0 if device.install_mode is InstallMode.DUAL_BANK else 1,
        1 if device.needs_replacement else 0,
    )
    for bank in device._banks:
        out += _pack_bank(bank)
    oem_public, attestation_key = device._secure_store()
    out += oem_public
    out += attestation_key
    nonces = sorted(device._served_nonces)
    out += struct.pack(">I", len(nonces))
    for nonce in nonces:
        out += nonce
    return bytes(out)


def decode_flash(data: bytes, rng: random.Random | None = None) -> Device:
    """Inverse of encode_flash; anything else is a ParseError."""
    if data[:4] != _FLASH_MAGIC:
        raise ParseError("bad flash magic", position=0)
    reader = Reader(data, offset=4)
    model = reader.u64("model")
    device_id = reader.u64("device id")
    active = int(reader.flag("active bank"))
    installed = reader.u64("installed version")
    install_mode = InstallMode.SINGLE_BANK if reader.flag("install mode flag") else InstallMode.DUAL_BANK
    needs_replacement = reader.flag("replacement flag")
    banks = [_unpack_bank(reader), _unpack_bank(reader)]
    oem_public = reader.take(32, "oem public key")
    attestation_key = reader.take(32, "attestation key")
    nonces = set(reader.increasing(reader.u32("nonce count"), lambda what: reader.take(16, what), "nonce"))
    reader.end("flash image")
    device = Device(
        device_model=model,
        device_id=device_id,
        oem_public=oem_public,
        attestation_key=attestation_key,
        install_mode=install_mode,
        rng=rng,
    )
    device._banks = banks
    device._active = active
    device._installed_version = installed
    device.needs_replacement = needs_replacement
    device._served_nonces = nonces
    return device
