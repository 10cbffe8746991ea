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
from dataclasses import dataclass, replace

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


def _serialized_set(state: RepositoryState) -> dict[RoleKind, bytes]:
    return {
        role: serialize_canonical(state.metadata.by_role(role), state.mode)
        for role in RoleKind
    }


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
    old_body = state.metadata.targets.body
    assert isinstance(old_body, TargetsBody)
    records = [r for r in old_body.records if r.name != record.name] + [record]
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


def advance_clock(state: RepositoryState, ticks: int) -> RepositoryState:
    return replace(state, clock=state.clock + ticks)


def set_tamper(state: RepositoryState, policy: TamperPolicy) -> RepositoryState:
    return replace(state, tamper=policy)


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
    return _serialized_set(state)[role]


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


def load_repository(directory: str) -> RepositoryState:
    with open(os.path.join(directory, _PRIVATE_FILE), encoding="utf-8") as fh:
        private = json.load(fh)
    mode = Mode(private["mode"])
    names = {
        RoleKind.ROOT: f"root.{private['root_version']}.meta",
        RoleKind.TARGETS: f"targets.{private['targets_version']}.meta",
        RoleKind.SNAPSHOT: "snapshot.meta",
        RoleKind.TIMESTAMP: "timestamp.meta",
    }
    loaded: dict[str, RoleMetadata] = {}
    for role, filename in names.items():
        with open(os.path.join(directory, filename), "rb") as fh:
            loaded[role.value] = parse(fh.read(), mode)
    envelopes = {}
    envelope_dir = os.path.join(directory, "envelopes")
    for filename in sorted(os.listdir(envelope_dir)):
        if filename.endswith(".env"):
            with open(os.path.join(envelope_dir, filename), "rb") as fh:
                envelopes[filename[: -len(".env")]] = fh.read()
    return RepositoryState(
        online_keys={
            RoleKind(role): tuple(crypto.signing_key_from_seed(bytes.fromhex(seed)) for seed in seeds)
            for role, seeds in private["online_keys"].items()
        },
        root_keys=tuple(crypto.signing_key_from_seed(bytes.fromhex(seed)) for seed in private["root_keys"]),
        metadata=MetadataSet(**loaded),
        envelopes=envelopes,
        clock=private["clock"],
        mode=mode,
        tamper=TamperPolicy(kind=TamperKind(private["tamper"]["kind"]), bit_offset=private["tamper"]["bit_offset"]),
        archive=tuple(
            {RoleKind(role): bytes.fromhex(blob) for role, blob in entry.items()}
            for entry in private["archive"][:1]
        ),
    )
