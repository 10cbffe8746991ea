"""The honest TUF repository: it signs and stores metadata and envelopes and
serves exactly the bytes it stored. State transitions return new state
values; readers see immutable snapshots. The untrusted mirror is not here: it
is a wrapper over a repository port (``harness.Mirror``), as the channel
adversaries are wrappers over a device port.

Every role's signing keys sit in one table, and every signature goes through
``_sign``. The targets, snapshot and timestamp keys sign on every publish; the
root keys stay offline by use: only new_repository and rotate_root sign as root.
"""

from __future__ import annotations

import bisect
import operator
import os
import re
import struct
from dataclasses import dataclass, replace
from typing import ClassVar

from . import crypto
from .authorization import parse_envelope
from .codec import Reader, read_file, write_file
from .errors import NotFound, ParseError, PublishRejected, WriteFailed
from .metadata import (
    MetadataSet,
    Mode,
    RoleBody,
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

# the signed region stores the record count as u16
_U16_MAX = 0xFFFF
# and expiries, clock + lifetime, as u64
_CLOCK_MAX = 2**64 - 1 - max(LIFETIMES.values())
_NAME_MAX = 255  # bytes in a file name on common file systems


@dataclass(frozen=True)
class RepositoryState:
    keys: dict[RoleKind, tuple[crypto.SigningKeyPair, ...]]
    metadata: MetadataSet
    envelopes: dict[str, bytes]
    clock: int
    mode: Mode = Mode.JSON
    # always empty: the repository keeps no old sets. It stays only because
    # perfbench/serve.py --trace-out reads it by name for repository.archive.*;
    # without it the traced image-socket test in tests/test_transport.py fails
    archive: ClassVar[tuple[dict[RoleKind, bytes], ...]] = ()


def _serialized_set(state: RepositoryState) -> dict[RoleKind, bytes]:
    return {role: state.metadata.by_role(role).canonical(state.mode) for role in RoleKind}


def _sign(
    keys: dict[RoleKind, tuple[crypto.SigningKeyPair, ...]], role: RoleKind, body: RoleBody, version: int, clock: int
) -> RoleMetadata:
    """Every signature the repository makes: ``body`` as ``role`` metadata
    expiring the role's lifetime after ``clock``, signed by ``keys[role]``."""
    return build_and_sign(body, version, clock + LIFETIMES[role], list(keys[role]))


def _timestamp_body(snapshot: RoleMetadata) -> TimestampBody:
    """A timestamp body pinning ``snapshot`` (its version and the hash of its signed region)."""
    return TimestampBody(snapshot_version=snapshot.version, snapshot_hash=crypto.hash_data(signed_region_of(snapshot)))


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
    keys = {
        RoleKind.ROOT: tuple(root_keys),
        RoleKind.TARGETS: tuple(targets_keys),
        RoleKind.SNAPSHOT: tuple(snapshot_keys),
        RoleKind.TIMESTAMP: tuple(timestamp_keys),
    }
    root_body = RootBody(
        roles={
            role: RoleKeys(threshold=thresholds[role], keys=tuple(k.public for k in signers))
            for role, signers in keys.items()
        }
    )
    root = _sign(keys, RoleKind.ROOT, root_body, 1, clock)
    targets = _sign(keys, RoleKind.TARGETS, TargetsBody(), 1, clock)
    snapshot = _sign(keys, RoleKind.SNAPSHOT, SnapshotBody(root_version=1, targets_version=1), 1, clock)
    timestamp = _sign(keys, RoleKind.TIMESTAMP, _timestamp_body(snapshot), 1, clock)
    return RepositoryState(
        keys=keys,
        metadata=MetadataSet(root=root, targets=targets, snapshot=snapshot, timestamp=timestamp),
        envelopes={},
        clock=clock,
        mode=mode,
    )


def _resign_chain(state: RepositoryState, targets: RoleMetadata | None, root: RoleMetadata | None = None) -> MetadataSet:
    """Re-sign snapshot and timestamp around new targets and/or root metadata."""
    root = root or state.metadata.root
    targets = targets or state.metadata.targets
    snapshot = _sign(
        state.keys,
        RoleKind.SNAPSHOT,
        SnapshotBody(root_version=root.version, targets_version=targets.version),
        state.metadata.snapshot.version + 1,
        state.clock,
    )
    timestamp = _sign(
        state.keys, RoleKind.TIMESTAMP, _timestamp_body(snapshot), state.metadata.timestamp.version + 1, state.clock
    )
    return MetadataSet(root=root, targets=targets, snapshot=snapshot, timestamp=timestamp)


def _publish_record(state: RepositoryState, record: TargetRecord, envelope_bytes: bytes | None) -> RepositoryState:
    """Sign a targets list with ``record`` put in its name's sorted place,
    derived from the current one: every other record object carries over,
    with the encodings it holds, and so does every block that does not hold
    or follow the place (a replace re-joins one block)."""
    # save_repository writes the envelope to envelopes/<name>.env, one
    # path component of at most _NAME_MAX bytes
    if "/" in record.name or "\x00" in record.name:
        raise PublishRejected(f"target name {record.name!r} contains '/' or NUL")
    if len(record.name.encode("utf-8")) + len(".env") > _NAME_MAX:
        raise PublishRejected(f"target name longer than {_NAME_MAX - len('.env')} UTF-8 bytes")
    current = state.metadata.targets.body
    records = list(current.records)
    at = bisect.bisect_left(records, record.name, key=operator.attrgetter("name"))
    if at < len(records) and records[at].name == record.name:
        records[at] = record
        changed = [at]
    else:
        records.insert(at, record)
        changed = range(at, len(records))  # the records after an insert move up one index
    if len(records) > _U16_MAX:
        raise PublishRejected(f"targets list longer than {_U16_MAX} records")
    body = TargetsBody(records, current, changed)
    targets = _sign(state.keys, RoleKind.TARGETS, body, state.metadata.targets.version + 1, state.clock)
    envelopes = dict(state.envelopes)
    if envelope_bytes is not None:
        envelopes[record.name] = envelope_bytes
    return replace(state, metadata=_resign_chain(state, targets), envelopes=envelopes)


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
        name=name, hash=token.artifact_hash, size=token.artifact_size, token_digest=crypto.hash_data(token.raw)
    )
    return _publish_record(state, record, envelope_bytes)


def publish_vanilla(state: RepositoryState, name: str, artifact: bytes) -> RepositoryState:
    """Record a token-free target (plain-TUF comparison repositories)."""
    record = TargetRecord(name=name, hash=crypto.hash_data(artifact), size=len(artifact))
    return _publish_record(state, record, None)


def refresh_timestamp(state: RepositoryState) -> RepositoryState:
    """Re-sign the freshness heartbeat with no content change."""
    timestamp = _sign(
        state.keys,
        RoleKind.TIMESTAMP,
        _timestamp_body(state.metadata.snapshot),
        state.metadata.timestamp.version + 1,
        state.clock,
    )
    return replace(state, metadata=replace(state.metadata, timestamp=timestamp))


def rotate_root(state: RepositoryState, new_root_keys: list[crypto.SigningKeyPair], threshold: int | None = None) -> RepositoryState:
    """Publish a new root version; besides new_repository, the only signing
    with the offline root keys.

    The new root is signed by both the outgoing and incoming key sets so
    clients anchored on the old root can adopt it.
    """
    roles = dict(state.metadata.root.body.roles)
    roles[RoleKind.ROOT] = RoleKeys(
        threshold=threshold or roles[RoleKind.ROOT].threshold,
        keys=tuple(k.public for k in new_root_keys),
    )
    old_keys = state.keys[RoleKind.ROOT]
    signers = {RoleKind.ROOT: old_keys + tuple(k for k in new_root_keys if k not in old_keys)}
    root = _sign(signers, RoleKind.ROOT, RootBody(roles=roles), state.metadata.root.version + 1, state.clock)
    return replace(
        state,
        keys={**state.keys, RoleKind.ROOT: tuple(new_root_keys)},
        metadata=_resign_chain(state, None, root=root),
    )


def advance_clock(state: RepositoryState, ticks: int) -> RepositoryState:
    """The clock ``ticks`` later (or earlier); ParseError unless every
    expiry signed at the new clock still fits its u64."""
    clock = state.clock + ticks
    if not 0 <= clock <= _CLOCK_MAX:
        raise ParseError(f"clock {state.clock} + {ticks} ticks is outside 0..{_CLOCK_MAX}", position="ticks")
    return replace(state, clock=clock)


# --- fetch surface ---------------------------------------------------------------

def fetch_metadata(state: RepositoryState, role: RoleKind) -> bytes:
    """The current ``role`` metadata's bytes in the repository's mode."""
    return state.metadata.by_role(role).canonical(state.mode)


def fetch_envelope(state: RepositoryState, name: str) -> bytes:
    """The stored envelope ``name``; NotFound if none is."""
    if name not in state.envelopes:
        raise NotFound(f"envelope {name!r}")
    return state.envelopes[name]


# --- on-disk layout ----------------------------------------------------------------

# private.bin holds what no public file does; the root and targets versions
# come from snapshot.meta, which pins them:
#   "ASRS" || mode flag(1) || clock(8) || per role in RoleKind order: key count(2) || seed(32)*
_PRIVATE_FILE = "private.bin"
_PRIVATE_MAGIC = b"ASRS"


def _encode_private(state: RepositoryState) -> bytes:
    """private.bin's bytes: the state's mode, clock and keys."""
    mode_flag = 0 if state.mode is Mode.JSON else 1
    out = bytearray(_PRIVATE_MAGIC)
    out += struct.pack(">BQ", mode_flag, state.clock)
    for role in RoleKind:
        out += struct.pack(">H", len(state.keys[role])) + b"".join(k.private for k in state.keys[role])
    return bytes(out)


def _decode_private(data: bytes) -> dict:
    """Inverse of _encode_private: RepositoryState's private fields by name.
    Anything else is a ParseError at a byte offset."""
    reader = Reader(data)
    if reader.take(len(_PRIVATE_MAGIC), "magic") != _PRIVATE_MAGIC:
        raise ParseError("bad repository state magic", position=0)
    mode = Mode.FIXED_BINARY if reader.flag("mode flag") else Mode.JSON
    clock = reader.u64("clock")
    keys = {}
    for role in RoleKind:
        count = reader.u16(f"{role.value} key count")
        if not count:
            raise ParseError(f"no {role.value} keys", position=reader.offset - 2)
        keys[role] = tuple(crypto.signing_key_from_seed(reader.take(crypto.KEY_LEN, "key seed")) for _ in range(count))
    reader.end("repository state")
    return {"mode": mode, "clock": clock, "keys": keys}


def _filename(role: RoleKind, version: int) -> str:
    """Root and targets files are kept per version; snapshot and timestamp are not."""
    if role in (RoleKind.ROOT, RoleKind.TARGETS):
        return f"{role.value}.{version}.meta"
    return f"{role.value}.meta"


def save_repository(state: RepositoryState, directory: str) -> None:
    """Write the public layout plus the repository's private state.

    Public files: root.N.meta / targets.N.meta (versioned), snapshot.meta,
    timestamp.meta, and envelopes/<name>.env. A targets.N.meta of another
    version than the one written is removed. Each file is replaced whole
    (``write_file``); a directory or file that cannot be written is a WriteFailed.
    """
    private = _encode_private(state)
    try:
        os.makedirs(os.path.join(directory, "envelopes"), exist_ok=True)
    except OSError as exc:
        raise WriteFailed(f"cannot write {directory}: {type(exc).__name__}") from exc
    for role, blob in _serialized_set(state).items():
        write_file(os.path.join(directory, _filename(role, state.metadata.by_role(role).version)), blob)
    for name, data in state.envelopes.items():
        write_file(os.path.join(directory, "envelopes", f"{name}.env"), data)
    write_file(os.path.join(directory, _PRIVATE_FILE), private)
    # only the targets version snapshot.meta pins is ever read; every
    # root.N.meta stays, for a client that walks the root chain
    pinned = _filename(RoleKind.TARGETS, state.metadata.targets.version)
    for name in os.listdir(directory):
        if name != pinned and re.fullmatch(r"targets\.[0-9]+\.meta", name):
            os.remove(os.path.join(directory, name))


def _read_file(directory: str, *parts: str) -> bytes:
    return read_file(os.path.join(directory, *parts), os.path.join(*parts))


def _load_role(directory: str, role: RoleKind, version: int, mode: Mode) -> RoleMetadata:
    filename = _filename(role, version)
    meta = parse(_read_file(directory, filename), mode)
    if _filename(meta.role, meta.version) != filename:
        raise ParseError(f"{filename} holds {meta.role.value} version {meta.version}", position=filename)
    return meta


def load_repository(directory: str) -> RepositoryState:
    """Inverse of save_repository; a malformed or incomplete directory raises
    ParseError (``position`` is a byte offset in private.bin or a file name)."""
    private = _decode_private(_read_file(directory, _PRIVATE_FILE))
    mode = private["mode"]
    snapshot = _load_role(directory, RoleKind.SNAPSHOT, 0, mode)
    metadata = MetadataSet(
        root=_load_role(directory, RoleKind.ROOT, snapshot.body.root_version, mode),
        targets=_load_role(directory, RoleKind.TARGETS, snapshot.body.targets_version, mode),
        snapshot=snapshot,
        timestamp=_load_role(directory, RoleKind.TIMESTAMP, 0, mode),
    )
    # publish keeps the records sorted by name and inserts with bisect
    names = [r.name for r in metadata.targets.body.records]
    if names != sorted(names):
        filename = _filename(RoleKind.TARGETS, metadata.targets.version)
        raise ParseError("target names are not in sorted order", position=filename)
    try:
        filenames = sorted(os.listdir(os.path.join(directory, "envelopes")))
    except OSError as exc:
        raise ParseError("missing directory", position="envelopes") from exc
    envelopes = {
        name[: -len(".env")]: _read_file(directory, "envelopes", name) for name in filenames if name.endswith(".env")
    }
    return RepositoryState(metadata=metadata, envelopes=envelopes, **private)
