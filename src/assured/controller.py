"""Domain controller: verifies repository metadata on behalf of devices
through TUF's client workflow (metadata.TrustedState), applies local
policy, delivers approved envelopes over the authenticated channel, and
verifies attestation of installation.

The controller never re-verifies the OEM token signature — the device does
that — but it does check the fetched envelope against the signed targets
record (the artifact by its hash and size, the token by its SHA-256 digest),
so nothing unvetted can be wrapped for delivery.
Delivery only accepts VerifiedEnvelope values, which sync() alone produces.
"""

from __future__ import annotations

import random
import struct
from collections import deque
from dataclasses import dataclass

from . import crypto
from .authorization import UpdateEnvelope, parse_envelope, serialize_envelope
from .codec import Reader, read_file, write_file
from .device import InstallOutcome
from .errors import (
    ChannelError,
    DeliveryFailed,
    EnvelopeMismatch,
    NonceCollision,
    NotVerifiedBySync,
    ParseError,
    PolicyDeferred,
)
from .metadata import (
    ROLE_TAGS,
    Mode,
    RoleMetadata,
    TrustedState,
    parse,
    read_role,
    serialize_canonical,
)

FRAME_PAYLOAD = 4096  # envelope bytes per sealed frame
NONCE_WINDOW = 64  # attestation nonces the controller keeps, and refuses to draw again: 1 KiB


@dataclass(frozen=True)
class LocalPolicy:
    """Deployment policy: a maintenance window in logical ticks (None means
    always) and an optional model allow-list (None means all models)."""

    window: tuple[int, int] | None = None
    allowed_models: frozenset[int] | None = None

    def __post_init__(self) -> None:  # the state file stores each bound and model as a u64
        if self.window is not None and not 0 <= self.window[0] <= self.window[1] < 2**64:
            raise ValueError(f"maintenance window {self.window} is not 0 <= start <= end < 2**64")
        if self.allowed_models is not None and not all(0 <= model < 2**64 for model in self.allowed_models):
            raise ValueError("allowed models must each be a u64")


@dataclass
class DeviceRecord:
    attestation_key: bytes
    device_model: int
    expected_version: int
    expected_digest: bytes


@dataclass(frozen=True)
class VerifiedEnvelope:
    """An envelope that passed full-chain metadata verification plus the
    cross-check against its signed targets record. Only sync() makes these."""

    name: str
    envelope: UpdateEnvelope


@dataclass
class ChannelSession:
    """An open channel to one device, for one delivery: ``confirm`` is the
    controller's sealed transcript confirmation, which leads that
    delivery's batch."""

    device_id: int
    port: object  # DevicePort
    channel: crypto.Channel
    confirm: bytes


@dataclass(frozen=True)
class AttestOutcome:
    verified: bool
    reason: str = ""

    BAD_TAG = "bad_tag"
    WRONG_NONCE = "wrong_nonce"
    WRONG_MEASUREMENT = "wrong_measurement"
    MISSING = "missing"


class Controller:
    def __init__(
        self,
        trusted_root: RoleMetadata,
        mode: Mode = Mode.JSON,
        policy: LocalPolicy | None = None,
        clock: int = 0,
        rng: random.Random | None = None,
    ) -> None:
        self.trust = TrustedState(trusted_root)
        self.mode = mode
        self.policy = policy or LocalPolicy()
        self.clock = clock
        self.rng = rng or random.Random()
        self.registry: dict[int, DeviceRecord] = {}
        self.seen_targets: dict[str, bytes] = {}
        self.nonces_drawn = 0  # handshake and attestation nonces alike; a seeded rng restarts from it
        self.nonce_log: deque[bytes] = deque(maxlen=NONCE_WINDOW)  # the last attestation nonces

    # --- fleet management -----------------------------------------------------------

    def enroll(
        self,
        device_id: int,
        device_model: int,
        attestation_key: bytes,
        installed_version: int,
        installed_digest: bytes,
    ) -> None:
        """Register a device and its pre-shared attestation master key."""
        self.registry[device_id] = DeviceRecord(
            attestation_key=attestation_key,
            device_model=device_model,
            expected_version=installed_version,
            expected_digest=installed_digest,
        )

    def advance_clock(self, ticks: int) -> None:
        self.clock += ticks

    # --- repository polling -----------------------------------------------------------

    def sync(self, repo) -> list[VerifiedEnvelope]:
        """Update the trusted state from the repository (TrustedState.update:
        one verification if the timestamp pins the held set, which returns
        [], else a full-chain verification), then fetch and cross-check every
        new envelope against its signed record: the artifact has the record's
        hash and size, the token hashes to the record's token digest, and the
        token names the record's hash and size.

        Only the records that are not the held set's record objects are
        looked at: every held token record was checked and entered in the
        seen targets when its set was committed. Without a held set (a
        controller loaded from its state file) every record is.

        The trusted state and the seen targets commit only if the entire
        batch validates.
        """
        held = self.trust.held
        metadata_set = self.trust.update(repo.fetch_roles, self.mode, self.clock)
        if metadata_set is None:
            return []
        verified: list[VerifiedEnvelope] = []
        seen_updates: dict[str, bytes] = {}
        for record in metadata_set.targets.body.fresh(None if held is None else held.targets.body):
            if record.token_digest is None:
                continue  # plain-TUF record; nothing to deliver on this path
            if self.seen_targets.get(record.name) == record.hash:
                continue
            envelope_bytes = repo.fetch_envelope(record.name)
            try:
                envelope = parse_envelope(envelope_bytes)
            except ParseError as exc:
                raise EnvelopeMismatch(f"envelope {record.name!r} does not parse: {exc}") from exc
            if crypto.hash_data(envelope.artifact) != record.hash:
                raise EnvelopeMismatch(f"envelope {record.name!r} artifact hash != signed record")
            if len(envelope.artifact) != record.size:
                raise EnvelopeMismatch(f"envelope {record.name!r} artifact size != signed record")
            token = envelope.token
            if crypto.hash_data(token.raw) != record.token_digest:
                raise EnvelopeMismatch(f"envelope {record.name!r} token != signed record token")
            if token.artifact_hash != record.hash or token.artifact_size != record.size:
                raise EnvelopeMismatch(f"envelope {record.name!r} token artifact hash/size != signed record")
            seen_updates[record.name] = record.hash
            verified.append(VerifiedEnvelope(name=record.name, envelope=envelope))
        self.trust.commit(metadata_set)
        self.seen_targets.update(seen_updates)
        return verified

    # --- local policy ---------------------------------------------------------------------

    def policy_gate(self, envelope: UpdateEnvelope, now: int | None = None) -> None:
        """Approve or defer per maintenance window and model allow-list."""
        now = self.clock if now is None else now
        if self.policy.window is not None:
            start, end = self.policy.window
            if not start <= now <= end:
                raise PolicyDeferred(PolicyDeferred.OUTSIDE_WINDOW)
        model = envelope.token.constraints.device_model
        if self.policy.allowed_models is not None and model not in self.policy.allowed_models:
            raise PolicyDeferred(PolicyDeferred.MODEL_BLOCKED)

    # --- authenticated channel ---------------------------------------------------------------

    def _draw_nonce(self) -> bytes:
        self.nonces_drawn += 1
        return self.rng.randbytes(crypto.NONCE_LEN)

    def open_channel(self, device_port, device_id: int) -> ChannelSession:
        """Two-message nonce exchange (one round trip); the controller's
        transcript confirmation is sealed here and sent by deliver()."""
        record = self.registry[device_id]
        controller_nonce = self._draw_nonce()
        channel = crypto.Channel(
            record.attestation_key, device_id, controller_nonce, device_port.hello(controller_nonce), controller=True
        )
        confirm = channel.seal(crypto.MSG_CONFIRM, channel.transcript)
        return ChannelSession(device_id=device_id, port=device_port, channel=channel, confirm=confirm)

    def deliver(self, session: ChannelSession, verified: VerifiedEnvelope) -> InstallOutcome:
        """Seal the envelope frame-by-frame and send it in one batch behind
        the session's transcript confirmation; the sealed delivery itself is
        the controller's implicit approval. The device answers with its own
        confirmation, checked first, then its sealed install status, which
        is returned."""
        if not isinstance(verified, VerifiedEnvelope):
            raise NotVerifiedBySync("deliver() accepts only envelopes produced by sync()")
        self.policy_gate(verified.envelope)
        payload = serialize_envelope(verified.envelope)
        chunks = [payload[i : i + FRAME_PAYLOAD] for i in range(0, len(payload), FRAME_PAYLOAD)] or [b""]
        frames = [
            session.channel.seal(crypto.MSG_FINAL_CHUNK if i == len(chunks) - 1 else crypto.MSG_CHUNK, chunk)
            for i, chunk in enumerate(chunks)
        ]
        try:
            replies = session.port.exchange([session.confirm, *frames])
            if not replies:
                raise DeliveryFailed(AttestOutcome.MISSING)
            if session.channel.open(replies[0]) != (crypto.MSG_CONFIRM, session.channel.transcript):
                raise ChannelError("device transcript confirmation mismatch")
            if len(replies) != 2:
                raise ChannelError(f"expected a confirmation and a status frame, got {len(replies)} frames")
            kind, status = session.channel.open(replies[1])
        except ChannelError as exc:
            raise DeliveryFailed(exc.reason) from exc
        if kind != crypto.MSG_STATUS:
            raise DeliveryFailed("device reply is not a status frame")
        outcome = InstallOutcome.decode(status)
        if outcome.status == InstallOutcome.INSTALLED:
            record = self.registry[session.device_id]
            record.expected_version = outcome.version
            # sync() checked hash(artifact) == record.hash == token.artifact_hash
            record.expected_digest = verified.envelope.token.artifact_hash
        return outcome

    # --- attestation --------------------------------------------------------------------------

    def request_attestation(
        self, device_port, device_id: int, expected_digest: bytes | None = None
    ) -> AttestOutcome:
        """Challenge the device with a fresh nonce and check the MAC'd report
        against the expected measurement. A nonce that is one of the last
        NONCE_WINDOW drawn for attestation is a NonceCollision."""
        record = self.registry[device_id]
        expected = record.expected_digest if expected_digest is None else expected_digest
        nonce = self._draw_nonce()
        if nonce in self.nonce_log:
            raise NonceCollision(f"attestation nonce {nonce.hex()} drawn twice")
        self.nonce_log.append(nonce)
        report = device_port.attest(nonce)
        if report is None:
            return AttestOutcome(verified=False, reason=AttestOutcome.MISSING)
        expected_tag = crypto.attestation_tag(record.attestation_key, device_id, report.nonce, report.measurement)
        if not crypto.mac_equal(report.tag, expected_tag):
            return AttestOutcome(verified=False, reason=AttestOutcome.BAD_TAG)
        if report.nonce != nonce:
            return AttestOutcome(verified=False, reason=AttestOutcome.WRONG_NONCE)
        if report.measurement != expected:
            return AttestOutcome(verified=False, reason=AttestOutcome.WRONG_MEASUREMENT)
        return AttestOutcome(verified=True)


# --- persistence (single binary state file) ---------------------------------------------

_STATE_MAGIC = b"ASCS"


def save_controller(ctrl: Controller, path: str) -> None:
    write_file(path, encode_controller(ctrl))


def load_controller(path: str, rng: random.Random | None = None) -> Controller:
    return decode_controller(read_file(path), rng)


def encode_controller(ctrl: Controller) -> bytes:
    """Fixed-width binary persistence of trusted root, version floors,
    device registry, policy, the count of nonces drawn and, last, the
    attestation nonce log: the last NONCE_WINDOW attestation nonces, oldest
    first."""
    out = bytearray(_STATE_MAGIC)
    out += struct.pack(">QB", ctrl.clock, 0 if ctrl.mode is Mode.JSON else 1)
    root_blob = serialize_canonical(ctrl.trust.root, Mode.FIXED_BINARY)
    out += struct.pack(">I", len(root_blob)) + root_blob
    out += struct.pack(">B", len(ctrl.trust.last_seen))
    for role, version in sorted(ctrl.trust.last_seen.items(), key=lambda kv: ROLE_TAGS[kv[0]]):
        out += struct.pack(">BQ", ROLE_TAGS[role], version)
    out += struct.pack(">I", len(ctrl.registry))
    for device_id in sorted(ctrl.registry):
        record = ctrl.registry[device_id]
        out += struct.pack(">QQ", device_id, record.device_model)
        out += record.attestation_key
        out += struct.pack(">Q", record.expected_version)
        out += record.expected_digest
    out += struct.pack(">I", len(ctrl.seen_targets))
    for name in sorted(ctrl.seen_targets):
        encoded = name.encode("utf-8")
        out += struct.pack(">H", len(encoded)) + encoded + ctrl.seen_targets[name]
    if ctrl.policy.window is None:
        out += b"\x00"
    else:
        out += b"\x01" + struct.pack(">QQ", *ctrl.policy.window)
    if ctrl.policy.allowed_models is None:
        out += b"\x00"
    else:
        out += b"\x01" + struct.pack(">I", len(ctrl.policy.allowed_models))
        for model in sorted(ctrl.policy.allowed_models):
            out += struct.pack(">Q", model)
    out += struct.pack(">QI", ctrl.nonces_drawn, len(ctrl.nonce_log))
    for nonce in ctrl.nonce_log:
        out += nonce
    return bytes(out)


def decode_controller(data: bytes, rng: random.Random | None = None) -> Controller:
    """Inverse of encode_controller; anything else is a ParseError."""
    if data[:4] != _STATE_MAGIC:
        raise ParseError("bad controller state magic", position=0)
    reader = Reader(data, offset=4)
    clock = reader.u64("clock")
    mode = Mode.FIXED_BINARY if reader.flag("mode flag") else Mode.JSON
    trusted_root = parse(reader.take(reader.u32("root length"), "trusted root"), Mode.FIXED_BINARY)
    last_seen = {}
    for role in reader.increasing(reader.u8("last-seen count"), lambda _: read_role(reader), "role tag", ROLE_TAGS.get):
        last_seen[role] = reader.u64("version")
    registry = {}
    for device_id in reader.increasing(reader.u32("registry count"), reader.u64, "device id"):
        registry[device_id] = DeviceRecord(  # keyword arguments in file order
            device_model=reader.u64("model"),
            attestation_key=reader.take(32, "attestation key"),
            expected_version=reader.u64("expected version"),
            expected_digest=reader.take(32, "expected digest"),
        )
    seen = {}
    for name in reader.increasing(reader.u32("seen count"), reader.text, "target name"):
        seen[name] = reader.take(32, "hash")
    window = None
    if reader.flag("window flag"):
        window = (reader.u64("window start"), reader.u64("window end"))
    allowed = None
    if reader.flag("allow-list flag"):
        allowed = frozenset(reader.increasing(reader.u32("allow-list count"), reader.u64, "model"))
    nonces_drawn = reader.u64("nonces drawn")
    nonces_at = reader.offset
    count = reader.u32("nonce count")
    if count > NONCE_WINDOW:
        raise ParseError(f"{count} logged nonces, more than the {NONCE_WINDOW} kept", position=nonces_at)
    nonce_log = [reader.take(16, "nonce") for _ in range(count)]
    reader.end("controller state")
    if nonces_drawn < count:
        raise ParseError(f"{count} logged nonces but {nonces_drawn} drawn", position=nonces_at)
    if len(set(nonce_log)) != count:
        raise ParseError("attestation nonce log repeats a nonce", position=nonces_at)
    try:
        ctrl = Controller(trusted_root=trusted_root, mode=mode, policy=LocalPolicy(window=window, allowed_models=allowed), clock=clock, rng=rng)
    except ValueError as exc:  # a non-root trusted root or an inverted window
        raise ParseError(str(exc), position=reader.offset) from exc
    ctrl.trust.last_seen = last_seen
    ctrl.registry = registry
    ctrl.seen_targets = seen
    ctrl.nonces_drawn = nonces_drawn
    ctrl.nonce_log.extend(nonce_log)
    return ctrl
