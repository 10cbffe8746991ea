"""Domain controller: verifies repository metadata on behalf of devices,
applies local policy, delivers approved envelopes over the authenticated
channel, and verifies attestation of installation.

The controller never re-verifies the OEM token signature — the device does
that — but it does check the fetched envelope byte-for-byte against the
signed targets record, so nothing unvetted can be wrapped for delivery.
Delivery only accepts VerifiedEnvelope values, which sync() alone produces.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass

from . import crypto
from .authorization import UpdateEnvelope, encode_token, parse_envelope, serialize_envelope
from .device import (
    MSG_CHUNK,
    MSG_CONFIRM,
    MSG_FINAL_CHUNK,
    MSG_STATUS,
    InstallOutcome,
    handshake_transcript,
)
from .errors import (
    ChannelError,
    DeliveryFailed,
    EnvelopeMismatch,
    NonceCollision,
    NotVerifiedBySync,
    ParseError,
    PolicyDeferred,
    channel_reason,
)
from .metadata import (
    _ROLE_TAGS,
    _TAG_ROLES,
    MetadataSet,
    Mode,
    RoleKind,
    RoleMetadata,
    RootBody,
    parse,
    verify_full_chain,
    verify_timestamp_pin,
)

FRAME_PAYLOAD = 4096  # envelope bytes per sealed frame


@dataclass(frozen=True)
class LocalPolicy:
    """Deployment policy: a maintenance window in logical ticks (None means
    always) and an optional model allow-list (None means all models)."""

    window: tuple[int, int] | None = None
    allowed_models: frozenset[int] | None = None

    def __post_init__(self) -> None:
        if self.window is not None and self.window[0] > self.window[1]:
            raise ValueError("maintenance window start must not exceed end")


@dataclass
class DeviceRecord:
    attestation_key: bytes
    device_model: int
    expected_version: int
    expected_digest: bytes


@dataclass(frozen=True)
class VerifiedEnvelope:
    """An envelope that passed full-chain metadata verification plus
    byte-equality against its signed targets record. Only sync() makes these."""

    name: str
    envelope: UpdateEnvelope


@dataclass
class ChannelSession:
    device_id: int
    port: object  # DevicePort
    to_device: crypto.SessionKeys
    to_controller: crypto.SessionKeys
    send_seq: int = 0
    recv_seq: int = 0


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
        if not isinstance(trusted_root.body, RootBody):
            raise ValueError("trusted root must carry a root body")
        self.trusted_root = trusted_root
        self.mode = mode
        self.policy = policy or LocalPolicy()
        self.clock = clock
        self.rng = rng or random.Random()
        self.last_seen: dict[RoleKind, int] = {}
        self.registry: dict[int, DeviceRecord] = {}
        self.seen_targets: dict[str, bytes] = {}
        self.nonce_log: list[bytes] = []
        self._nonces_used: set[bytes] = set()  # nonce_log as a set, for the reuse check
        # the metadata set the last full sync committed; in memory only, so a
        # loaded controller's first sync takes the full path
        self._held: MetadataSet | None = None

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
        """Fetch the timestamp first. If it pins the snapshot of the set the
        last sync committed, verify only the timestamp, re-check that the
        held roles have not expired and return []. Otherwise fetch and fully
        verify the repository metadata set, then fetch and cross-check every
        new envelope against its signed record.

        Controller state (trusted root, version floor, seen targets) commits
        only if the entire batch validates.
        """
        timestamp = parse(repo.fetch_metadata(RoleKind.TIMESTAMP), self.mode)
        if self._held is not None and verify_timestamp_pin(
            self._held, timestamp, now=self.clock, last_seen=self.last_seen
        ):
            self.last_seen[RoleKind.TIMESTAMP] = timestamp.version
            return []
        metadata_set = MetadataSet(
            root=parse(repo.fetch_metadata(RoleKind.ROOT), self.mode),
            targets=parse(repo.fetch_metadata(RoleKind.TARGETS), self.mode),
            snapshot=parse(repo.fetch_metadata(RoleKind.SNAPSHOT), self.mode),
            timestamp=timestamp,
        )
        targets = verify_full_chain(
            self.trusted_root, metadata_set, now=self.clock, last_seen=self.last_seen
        )
        verified: list[VerifiedEnvelope] = []
        seen_updates: dict[str, bytes] = {}
        for record in targets.records:
            if record.token is None:
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
            if encode_token(envelope.token) != encode_token(record.token):
                raise EnvelopeMismatch(f"envelope {record.name!r} token != signed record token")
            seen_updates[record.name] = record.hash
            verified.append(VerifiedEnvelope(name=record.name, envelope=envelope))
        self.trusted_root = metadata_set.root
        for role in RoleKind:
            self.last_seen[role] = metadata_set.by_role(role).version
        self.seen_targets.update(seen_updates)
        self._held = metadata_set
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

    def open_channel(self, device_port, device_id: int) -> ChannelSession:
        """Two-message nonce exchange, then mutual transcript confirmation.

        Each direction gets its own session keys (nonce order swapped in the
        derivation), so both sequence counters can start at zero without
        keystream reuse.
        """
        record = self.registry[device_id]
        controller_nonce = self.rng.randbytes(crypto.NONCE_LEN)
        device_nonce = device_port.hello(controller_nonce)
        if len(device_nonce) != crypto.NONCE_LEN:
            raise ChannelError("device nonce must be 16 bytes")
        master = record.attestation_key
        session = ChannelSession(
            device_id=device_id,
            port=device_port,
            to_device=crypto.derive_session_keys(master, controller_nonce, device_nonce),
            to_controller=crypto.derive_session_keys(master, device_nonce, controller_nonce),
        )
        transcript = handshake_transcript(device_id, controller_nonce, device_nonce)
        confirm = crypto.seal(session.to_device, session.send_seq, bytes([MSG_CONFIRM]) + transcript)
        session.send_seq += 1
        replies = device_port.exchange([confirm])
        if len(replies) != 1:
            raise ChannelError("expected one handshake confirmation frame")
        plaintext = crypto.open_frame(session.to_controller, session.recv_seq, replies[0])
        session.recv_seq += 1
        if plaintext != bytes([MSG_CONFIRM]) + transcript:
            raise ChannelError("device transcript confirmation mismatch")
        return session

    def deliver(self, session: ChannelSession, verified: VerifiedEnvelope) -> InstallOutcome:
        """Seal the envelope frame-by-frame and send it; the sealed delivery
        itself is the controller's implicit approval. Returns the device's
        sealed install status."""
        if not isinstance(verified, VerifiedEnvelope):
            raise NotVerifiedBySync("deliver() accepts only envelopes produced by sync()")
        self.policy_gate(verified.envelope)
        payload = serialize_envelope(verified.envelope)
        chunks = [payload[i : i + FRAME_PAYLOAD] for i in range(0, len(payload), FRAME_PAYLOAD)] or [b""]
        frames = []
        for i, chunk in enumerate(chunks):
            kind = MSG_FINAL_CHUNK if i == len(chunks) - 1 else MSG_CHUNK
            frames.append(crypto.seal(session.to_device, session.send_seq, bytes([kind]) + chunk))
            session.send_seq += 1
        try:
            replies = session.port.exchange(frames)
        except ChannelError as exc:
            raise DeliveryFailed(channel_reason(exc)) from exc
        if not replies:
            raise DeliveryFailed(AttestOutcome.MISSING)
        try:
            plaintext = crypto.open_frame(session.to_controller, session.recv_seq, replies[-1])
        except ChannelError as exc:
            raise DeliveryFailed(channel_reason(exc)) from exc
        session.recv_seq += 1
        if not plaintext or plaintext[0] != MSG_STATUS:
            raise DeliveryFailed("device reply is not a status frame")
        outcome = InstallOutcome.decode(plaintext[1:])
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
        against the expected measurement. Nonces are never reused."""
        record = self.registry[device_id]
        expected = record.expected_digest if expected_digest is None else expected_digest
        nonce = self.rng.randbytes(crypto.NONCE_LEN)
        if nonce in self._nonces_used:
            raise NonceCollision(f"attestation nonce {nonce.hex()} drawn twice")
        self._nonces_used.add(nonce)
        self.nonce_log.append(nonce)
        report = device_port.attest(nonce)
        if report is None:
            return AttestOutcome(verified=False, reason=AttestOutcome.MISSING)
        expected_tag = crypto.mac(
            record.attestation_key,
            struct.pack(">Q", device_id) + report.nonce + report.measurement,
        )
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
    """Fixed-width binary persistence of trusted root, version floors,
    device registry, policy, and the attestation nonce log."""
    from .metadata import serialize_canonical

    out = bytearray(_STATE_MAGIC)
    out += struct.pack(">QB", ctrl.clock, 0 if ctrl.mode is Mode.JSON else 1)
    root_blob = serialize_canonical(ctrl.trusted_root, Mode.FIXED_BINARY)
    out += struct.pack(">I", len(root_blob)) + root_blob
    out += struct.pack(">B", len(ctrl.last_seen))
    for role, version in sorted(ctrl.last_seen.items(), key=lambda kv: _ROLE_TAGS[kv[0]]):
        out += struct.pack(">BQ", _ROLE_TAGS[role], version)
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
    out += struct.pack(">I", len(ctrl.nonce_log))
    for nonce in ctrl.nonce_log:
        out += nonce
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def load_controller(path: str, rng: random.Random | None = None) -> Controller:
    from .metadata import _Reader

    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _STATE_MAGIC:
        raise ParseError("bad controller state magic", position=0)
    reader = _Reader(data, offset=4)
    clock = reader.u64("clock")
    mode_flag = reader.u8("mode")
    if mode_flag > 1:
        raise ParseError(f"mode flag {mode_flag} is not 0 or 1", position=reader.offset - 1)
    mode = Mode.JSON if mode_flag == 0 else Mode.FIXED_BINARY
    root_len = reader.u32("root length")
    trusted_root = parse(reader.take(root_len, "trusted root"), Mode.FIXED_BINARY)
    last_seen = {}
    for _ in range(reader.u8("last-seen count")):
        tag = reader.u8("role tag")
        if tag not in _TAG_ROLES:
            raise ParseError(f"unknown role tag {tag}", position=reader.offset - 1)
        last_seen[_TAG_ROLES[tag]] = reader.u64("version")
    registry = {}
    for _ in range(reader.u32("registry count")):
        device_id = reader.u64("device id")
        model = reader.u64("model")
        attestation_key = reader.take(32, "attestation key")
        expected_version = reader.u64("expected version")
        expected_digest = reader.take(32, "expected digest")
        registry[device_id] = DeviceRecord(
            attestation_key=attestation_key,
            device_model=model,
            expected_version=expected_version,
            expected_digest=expected_digest,
        )
    seen = {}
    for _ in range(reader.u32("seen count")):
        name_len = reader.u16("name length")
        name_at = reader.offset
        try:
            name = reader.take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("target name is not utf-8", position=name_at + exc.start) from exc
        seen[name] = reader.take(32, "hash")
    window = None
    if reader.u8("window flag"):
        window = (reader.u64("window start"), reader.u64("window end"))
    allowed = None
    if reader.u8("allow-list flag"):
        count = reader.u32("allow-list count")
        allowed = frozenset(reader.u64("model") for _ in range(count))
    nonces_at = reader.offset
    nonce_log = [reader.take(16, "nonce") for _ in range(reader.u32("nonce count"))]
    nonces_used = set(nonce_log)
    if len(nonces_used) != len(nonce_log):
        raise ParseError("attestation nonce log repeats a nonce", position=nonces_at)
    try:
        ctrl = Controller(trusted_root=trusted_root, mode=mode, policy=LocalPolicy(window=window, allowed_models=allowed), clock=clock, rng=rng)
    except ValueError as exc:  # a non-root trusted root or an inverted window
        raise ParseError(str(exc), position=reader.offset) from exc
    ctrl.last_seen = last_seen
    ctrl.registry = registry
    ctrl.seen_targets = seen
    ctrl.nonce_log = nonce_log
    ctrl._nonces_used = nonces_used
    return ctrl
