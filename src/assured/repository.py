"""TUF repository plus the untrusted distributor mirror.

One component with a tamper layer: the honest repository signs and stores
metadata/envelopes, and the mirror's entire threat contribution is a
transformation applied on fetch. State transitions return new state values;
readers see immutable snapshots.

Role signing keys for targets/snapshot/timestamp are held online; root keys
are offline — the publish path cannot touch them, only the explicit
rotate_root operation uses them.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass, field, replace

from . import crypto
from .authorization import parse_envelope, serialize_envelope
from .errors import NotFound, ParseError, PublishRejected
from .metadata import (
    MetadataSet,
    Mode,
    RoleKind,
    RoleKeys,
    RoleMetadata,
    RootBody,
    SnapshotBody,
    TargetRecord,
    TargetsBody,
    TimestampBody,
    _need,
    build_and_sign,
    parse,
    serialize_canonical,
    signed_region_of,
)

# Logical-tick lifetimes per role; short values keep expiration testable.
LIFETIMES = {
    RoleKind.TIMESTAMP: 10,
    RoleKind.SNAPSHOT: 100,
    RoleKind.TARGETS: 1000,
    RoleKind.ROOT: 10000,
}

DEFAULT_THRESHOLDS = {
    RoleKind.ROOT: 2,
    RoleKind.TARGETS: 2,
    RoleKind.SNAPSHOT: 1,
    RoleKind.TIMESTAMP: 1,
}

# the signed region stores a target name's length and the record count as u16
_U16_MAX = 0xFFFF


class TamperKind(enum.Enum):
    NONE = "none"
    FLIP_BIT_IN_ENVELOPE = "flip-bit"
    SERVE_STALE_METADATA = "stale"
    SUBSTITUTE_ARTIFACT = "substitute"
    DROP_ENVELOPE = "drop"


@dataclass(frozen=True)
class TamperPolicy:
    kind: TamperKind = TamperKind.NONE
    bit_offset: int = 0


@dataclass(frozen=True)
class RepositoryState:
    online_keys: dict[RoleKind, tuple[crypto.SigningKeyPair, ...]]
    root_keys: tuple[crypto.SigningKeyPair, ...]
    metadata: MetadataSet
    envelopes: dict[str, bytes]
    clock: int
    mode: Mode = Mode.JSON
    tamper: TamperPolicy = TamperPolicy()
    # the serialized metadata set from before the first mutation (what the
    # stale-metadata tamper serves); empty until something is published
    archive: tuple[dict[RoleKind, bytes], ...] = ()
    # each role's canonical bytes, filled on first use; replace() starts a
    # new state with an empty cache, so publish pays no serialization, and
    # clock and tamper steps share their parent's cache
    _canonical: dict[RoleKind, bytes] = field(default_factory=dict, init=False, compare=False, repr=False)


def _canonical_bytes(state: RepositoryState, role: RoleKind) -> bytes:
    blob = state._canonical.get(role)
    if blob is None:
        blob = state._canonical[role] = serialize_canonical(state.metadata.by_role(role), state.mode)
    return blob


def _serialized_set(state: RepositoryState) -> dict[RoleKind, bytes]:
    return {role: _canonical_bytes(state, role) for role in RoleKind}


def new_repository(
    root_keys: list[crypto.SigningKeyPair],
    targets_keys: list[crypto.SigningKeyPair],
    snapshot_keys: list[crypto.SigningKeyPair],
    timestamp_keys: list[crypto.SigningKeyPair],
    clock: int = 0,
    mode: Mode = Mode.JSON,
    thresholds: dict[RoleKind, int] | None = None,
) -> RepositoryState:
    """Fresh repository with every role at version 1 and an empty targets list."""
    thresholds = thresholds or DEFAULT_THRESHOLDS
    keysets = {
        RoleKind.ROOT: root_keys,
        RoleKind.TARGETS: targets_keys,
        RoleKind.SNAPSHOT: snapshot_keys,
        RoleKind.TIMESTAMP: timestamp_keys,
    }
    root_body = RootBody(
        roles={
            role: RoleKeys(threshold=thresholds[role], keys=tuple(k.public for k in keys))
            for role, keys in keysets.items()
        }
    )
    root = build_and_sign(root_body, 1, clock + LIFETIMES[RoleKind.ROOT], root_keys)
    targets = build_and_sign(TargetsBody(records=[]), 1, clock + LIFETIMES[RoleKind.TARGETS], targets_keys)
    snapshot = build_and_sign(
        SnapshotBody(root_version=1, targets_version=1),
        1,
        clock + LIFETIMES[RoleKind.SNAPSHOT],
        snapshot_keys,
    )
    timestamp = build_and_sign(
        TimestampBody(snapshot_version=1, snapshot_hash=crypto.hash_data(signed_region_of(snapshot))),
        1,
        clock + LIFETIMES[RoleKind.TIMESTAMP],
        timestamp_keys,
    )
    return RepositoryState(
        online_keys={role: tuple(keys) for role, keys in keysets.items() if role is not RoleKind.ROOT},
        root_keys=tuple(root_keys),
        metadata=MetadataSet(root=root, targets=targets, snapshot=snapshot, timestamp=timestamp),
        envelopes={},
        clock=clock,
        mode=mode,
    )


def _resign_chain(state: RepositoryState, targets: RoleMetadata | None, root: RoleMetadata | None = None) -> MetadataSet:
    """Re-sign snapshot and timestamp around new targets and/or root metadata."""
    root = root or state.metadata.root
    targets = targets or state.metadata.targets
    snapshot = build_and_sign(
        SnapshotBody(root_version=root.version, targets_version=targets.version),
        state.metadata.snapshot.version + 1,
        state.clock + LIFETIMES[RoleKind.SNAPSHOT],
        list(state.online_keys[RoleKind.SNAPSHOT]),
    )
    timestamp = build_and_sign(
        TimestampBody(
            snapshot_version=snapshot.version,
            snapshot_hash=crypto.hash_data(signed_region_of(snapshot)),
        ),
        state.metadata.timestamp.version + 1,
        state.clock + LIFETIMES[RoleKind.TIMESTAMP],
        list(state.online_keys[RoleKind.TIMESTAMP]),
    )
    return MetadataSet(root=root, targets=targets, snapshot=snapshot, timestamp=timestamp)


def _archived(state: RepositoryState) -> tuple[dict[RoleKind, bytes], ...]:
    return state.archive or (_serialized_set(state),)


def _publish_record(state: RepositoryState, record: TargetRecord, envelope_bytes: bytes | None) -> RepositoryState:
    if len(record.name.encode("utf-8")) > _U16_MAX:
        raise PublishRejected(f"target name longer than {_U16_MAX} UTF-8 bytes")
    old_body = state.metadata.targets.body
    assert isinstance(old_body, TargetsBody)
    records = [r for r in old_body.records if r.name != record.name] + [record]
    if len(records) > _U16_MAX:
        raise PublishRejected(f"targets list longer than {_U16_MAX} records")
    records.sort(key=lambda r: r.name)
    targets = build_and_sign(
        TargetsBody(records=records),
        state.metadata.targets.version + 1,
        state.clock + LIFETIMES[RoleKind.TARGETS],
        list(state.online_keys[RoleKind.TARGETS]),
    )
    envelopes = dict(state.envelopes)
    if envelope_bytes is not None:
        envelopes[record.name] = envelope_bytes
    return replace(
        state,
        metadata=_resign_chain(state, targets),
        envelopes=envelopes,
        archive=_archived(state),
    )


def publish(state: RepositoryState, name: str, envelope_bytes: bytes) -> RepositoryState:
    """Record an envelope in the targets metadata and store it.

    The OEM is honest in this model, so inconsistent envelopes are rejected
    at publish time rather than poisoning the metadata.
    """
    try:
        envelope = parse_envelope(envelope_bytes)
    except ParseError as exc:
        raise PublishRejected(f"envelope does not parse: {exc}") from exc
    token = envelope.token
    if crypto.hash_data(envelope.artifact) != token.artifact_hash:
        raise PublishRejected("token hash does not match artifact")
    if len(envelope.artifact) != token.artifact_size:
        raise PublishRejected("token size does not match artifact")
    record = TargetRecord(
        name=name, hash=token.artifact_hash, size=token.artifact_size, token=token
    )
    return _publish_record(state, record, envelope_bytes)


def publish_vanilla(state: RepositoryState, name: str, artifact: bytes) -> RepositoryState:
    """Record a token-free target (plain-TUF comparison repositories)."""
    record = TargetRecord(name=name, hash=crypto.hash_data(artifact), size=len(artifact), token=None)
    return _publish_record(state, record, None)


def refresh_timestamp(state: RepositoryState) -> RepositoryState:
    """Re-sign the freshness heartbeat with no content change."""
    snapshot = state.metadata.snapshot
    timestamp = build_and_sign(
        TimestampBody(
            snapshot_version=snapshot.version,
            snapshot_hash=crypto.hash_data(signed_region_of(snapshot)),
        ),
        state.metadata.timestamp.version + 1,
        state.clock + LIFETIMES[RoleKind.TIMESTAMP],
        list(state.online_keys[RoleKind.TIMESTAMP]),
    )
    return replace(
        state,
        metadata=replace_set(state.metadata, timestamp=timestamp),
        archive=_archived(state),
    )


def replace_set(metadata: MetadataSet, **kwargs) -> MetadataSet:
    current = {role.value: metadata.by_role(role) for role in RoleKind}
    current.update(kwargs)
    return MetadataSet(**current)


def rotate_root(state: RepositoryState, new_root_keys: list[crypto.SigningKeyPair], threshold: int | None = None) -> RepositoryState:
    """Publish a new root version; the only operation touching offline keys.

    The new root is signed by both the outgoing and incoming key sets so
    clients anchored on the old root can adopt it.
    """
    old_body = state.metadata.root.body
    assert isinstance(old_body, RootBody)
    roles = dict(old_body.roles)
    roles[RoleKind.ROOT] = RoleKeys(
        threshold=threshold or roles[RoleKind.ROOT].threshold,
        keys=tuple(k.public for k in new_root_keys),
    )
    signers = list(state.root_keys) + [k for k in new_root_keys if k not in state.root_keys]
    root = build_and_sign(
        RootBody(roles=roles),
        state.metadata.root.version + 1,
        state.clock + LIFETIMES[RoleKind.ROOT],
        signers,
    )
    return replace(
        state,
        root_keys=tuple(new_root_keys),
        metadata=_resign_chain(state, None, root=root),
        archive=_archived(state),
    )


def _same_metadata(state: RepositoryState, **changes) -> RepositoryState:
    """replace() for a change that leaves the metadata and mode as they are,
    so the new state shares the serialization cache."""
    new_state = replace(state, **changes)
    object.__setattr__(new_state, "_canonical", state._canonical)
    return new_state


def advance_clock(state: RepositoryState, ticks: int) -> RepositoryState:
    return _same_metadata(state, clock=state.clock + ticks)


def set_tamper(state: RepositoryState, policy: TamperPolicy) -> RepositoryState:
    return _same_metadata(state, tamper=policy)


# --- mirror fetch surface (tamper-transformed) -----------------------------------

def _flip_bit(data: bytes, bit_offset: int) -> bytes:
    if not data:
        return data
    bit = bit_offset % (len(data) * 8)
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def fetch_metadata(state: RepositoryState, role: RoleKind) -> bytes:
    """Serve role metadata bytes as the (untrusted) mirror would."""
    if state.tamper.kind is TamperKind.SERVE_STALE_METADATA and state.archive:
        return state.archive[0][role]
    return _canonical_bytes(state, role)


def fetch_envelope(state: RepositoryState, name: str) -> bytes:
    if state.tamper.kind is TamperKind.DROP_ENVELOPE:
        raise NotFound(f"envelope {name!r}")
    if name not in state.envelopes:
        raise NotFound(f"envelope {name!r}")
    data = state.envelopes[name]
    if state.tamper.kind is TamperKind.FLIP_BIT_IN_ENVELOPE:
        return _flip_bit(data, state.tamper.bit_offset)
    if state.tamper.kind is TamperKind.SUBSTITUTE_ARTIFACT:
        envelope = parse_envelope(data)
        masked = bytes(b ^ 0xA5 for b in envelope.artifact)
        return serialize_envelope(replace(envelope, artifact=masked))
    return data


# --- on-disk layout ----------------------------------------------------------------

_PRIVATE_FILE = "private.json"


def save_repository(state: RepositoryState, directory: str) -> None:
    """Write the public layout plus the repository's private state.

    Public files: root.N.meta / targets.N.meta (versioned), snapshot.meta,
    timestamp.meta, and envelopes/<name>.env.
    """
    os.makedirs(os.path.join(directory, "envelopes"), exist_ok=True)
    serialized = _serialized_set(state)
    names = {
        RoleKind.ROOT: f"root.{state.metadata.root.version}.meta",
        RoleKind.TARGETS: f"targets.{state.metadata.targets.version}.meta",
        RoleKind.SNAPSHOT: "snapshot.meta",
        RoleKind.TIMESTAMP: "timestamp.meta",
    }
    for role, filename in names.items():
        with open(os.path.join(directory, filename), "wb") as fh:
            fh.write(serialized[role])
    for name, data in state.envelopes.items():
        with open(os.path.join(directory, "envelopes", f"{name}.env"), "wb") as fh:
            fh.write(data)
    private = {
        "mode": state.mode.value,
        "clock": state.clock,
        "tamper": {"kind": state.tamper.kind.value, "bit_offset": state.tamper.bit_offset},
        "root_version": state.metadata.root.version,
        "targets_version": state.metadata.targets.version,
        "root_keys": [k.private.hex() for k in state.root_keys],
        "online_keys": {
            role.value: [k.private.hex() for k in keys]
            for role, keys in state.online_keys.items()
        },
        "archive": [
            {role.value: blob.hex() for role, blob in entry.items()} for entry in state.archive
        ],
    }
    with open(os.path.join(directory, _PRIVATE_FILE), "w", encoding="utf-8") as fh:
        json.dump(private, fh, indent=1, sort_keys=True)


def _read_file(directory: str, *parts: str) -> bytes:
    try:
        with open(os.path.join(directory, *parts), "rb") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise ParseError("missing file", position=os.path.join(*parts)) from exc


def _enum_field(obj, key: str, kind: type[enum.Enum], path: str):
    value = _need(obj, key, str, path)
    try:
        return kind(value)
    except ValueError as exc:
        raise ParseError(f"unknown {kind.__name__} {value!r}", position=f"{path}.{key}") from exc


def _count_field(obj, key: str, path: str) -> int:
    value = _need(obj, key, int, path)
    if value < 0:
        raise ParseError(f"field {key!r} must not be negative", position=f"{path}.{key}")
    return value


def _hex(value, path: str, length: int | None = None) -> bytes:
    try:
        raw = bytes.fromhex(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"expected a hex string: {exc}", position=path) from exc
    if length is not None and len(raw) != length:
        raise ParseError(f"expected {length} bytes, got {len(raw)}", position=path)
    return raw


def _key_list(obj, key: str, path: str) -> tuple[crypto.SigningKeyPair, ...]:
    seeds = _need(obj, key, list, path)
    if not seeds:
        raise ParseError(f"field {key!r} lists no keys", position=f"{path}.{key}")
    return tuple(
        crypto.signing_key_from_seed(_hex(seed, f"{path}.{key}[{i}]", crypto.KEY_LEN))
        for i, seed in enumerate(seeds)
    )


def _role_map(obj, roles: set[str], path: str) -> dict:
    if not isinstance(obj, dict) or set(obj) != roles:
        raise ParseError(f"expected exactly the roles {sorted(roles)}", position=path)
    return obj


def load_repository(directory: str) -> RepositoryState:
    """Inverse of save_repository; a malformed or incomplete directory raises
    ParseError (``position`` is a field path in private.json or a file name)."""
    raw = _read_file(directory, _PRIVATE_FILE)
    try:
        private = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{_PRIVATE_FILE} is not utf-8", position=exc.start) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad json: {exc.msg}", position=exc.pos) from exc
    mode = _enum_field(private, "mode", Mode, "$")
    tamper = _need(private, "tamper", dict, "$")
    tamper_policy = TamperPolicy(
        kind=_enum_field(tamper, "kind", TamperKind, "$.tamper"),
        bit_offset=_count_field(tamper, "bit_offset", "$.tamper"),
    )
    names = {
        RoleKind.ROOT: f"root.{_count_field(private, 'root_version', '$')}.meta",
        RoleKind.TARGETS: f"targets.{_count_field(private, 'targets_version', '$')}.meta",
        RoleKind.SNAPSHOT: "snapshot.meta",
        RoleKind.TIMESTAMP: "timestamp.meta",
    }
    loaded: dict[str, RoleMetadata] = {}
    for role, filename in names.items():
        meta = parse(_read_file(directory, filename), mode)
        if meta.role is not role:
            raise ParseError(f"{filename} holds {meta.role.value} metadata", position=filename)
        loaded[role.value] = meta
    online = _role_map(
        _need(private, "online_keys", dict, "$"),
        {role.value for role in RoleKind if role is not RoleKind.ROOT},
        "$.online_keys",
    )
    archive = _need(private, "archive", list, "$")[:1]
    envelopes = {}
    try:
        filenames = sorted(os.listdir(os.path.join(directory, "envelopes")))
    except FileNotFoundError as exc:
        raise ParseError("missing directory", position="envelopes") from exc
    for filename in filenames:
        if filename.endswith(".env"):
            envelopes[filename[: -len(".env")]] = _read_file(directory, "envelopes", filename)
    return RepositoryState(
        online_keys={RoleKind(role): _key_list(online, role, "$.online_keys") for role in sorted(online)},
        root_keys=_key_list(private, "root_keys", "$"),
        metadata=MetadataSet(**loaded),
        envelopes=envelopes,
        clock=_count_field(private, "clock", "$"),
        mode=mode,
        tamper=tamper_policy,
        archive=tuple(
            {
                RoleKind(role): _hex(blob, f"$.archive[0].{role}")
                for role, blob in _role_map(entry, {role.value for role in RoleKind}, "$.archive[0]").items()
            }
            for entry in archive
        ),
    )
