"""Repository role metadata: construction, two canonical serializations,
full-chain threshold verification, and the client's trusted state.

Four roles sign disjoint duties: root certifies the key sets and thresholds
of every role, targets signs the artifact records, snapshot pins the current
root/targets versions, and timestamp pins the current snapshot (the freshness
heartbeat). Metadata expiration uses an injected logical clock (u64 ticks).

Signatures cover one mode-independent byte region, so a metadata object
re-encoded between JSON and fixed-binary keeps its signatures:

    role_tag(1) || version(8) || expires(8) || region body

The region body of a root, snapshot or timestamp is its fixed-binary body.
A targets body's is its record count and a SHA-256 per block (see
TargetsBody), not the records themselves:

    count(2) || (SHA-256 of the block's fixed-binary records)*

so a signature over a large list covers 32 bytes per block, and signing or
verifying a body derived from one already signed or verified hashes only
the blocks it does not share with it.

JSON mode is canonical: lexicographically sorted keys, no insignificant
whitespace, binary fields base64; parse accepts nothing else, and every JSON
integer must fit its fixed-binary width. Fixed-binary mode uses the layout:

    role_tag(1) || version(8) || expires(8) || body || sig_count(2)
    || (key_id(32) || signature(64))*

where a targets body is its count and every record's fixed-binary fragment.
"""

from __future__ import annotations

import binascii
import enum
import json
import math
import struct
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field

from . import crypto
from .codec import Reader, cached
from .errors import (
    BindingMismatch,
    Expired,
    ParseError,
    ThresholdNotMet,
    VersionRollback,
)


class RoleKind(enum.Enum):
    ROOT = "root"
    TARGETS = "targets"
    SNAPSHOT = "snapshot"
    TIMESTAMP = "timestamp"


# a role's tag is its index in RoleKind, the order root bodies list roles in
_TAG_ROLES = tuple(RoleKind)
ROLE_TAGS = {role: tag for tag, role in enumerate(_TAG_ROLES)}


class Mode(enum.Enum):
    JSON = "json"
    FIXED_BINARY = "binary"


# --- role bodies ---------------------------------------------------------------

@dataclass(frozen=True)
class RoleKeys:
    """Authorized public keys and signature threshold for one role."""

    threshold: int
    keys: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.threshold <= len(self.keys):
            raise ValueError(
                f"threshold {self.threshold} outside 1..{len(self.keys)} keys"
            )


@dataclass(frozen=True)
class RootBody:
    roles: dict[RoleKind, RoleKeys]

    def __post_init__(self) -> None:
        missing = [r.value for r in RoleKind if r not in self.roles]
        if missing:
            raise ValueError(f"root body missing roles: {missing}")


@dataclass(frozen=True)
class TargetRecord:
    """One distributable artifact: name, content hash, byte size, and the
    SHA-256 of the OEM authorization token's 136 bytes (None for plain-TUF
    comparison records). The token itself travels in the envelope; the
    digest, TUF's opaque custom data, binds the signed record to it.

    A record encodes itself once, on first use, in each form. The
    repository keeps unchanged record objects across publishes, and a JSON
    parse given a known body reuses each known record whose exact canonical
    text the input repeats, so signing, serving and parsing a targets list
    encode and decode only the records that changed.
    """

    name: str
    hash: bytes
    size: int
    token_digest: bytes | None = None

    def __post_init__(self) -> None:
        if len(self.hash) != crypto.DIGEST_LEN:
            raise ValueError(f"record hash is {len(self.hash)} bytes, not {crypto.DIGEST_LEN}")
        if self.token_digest is not None and len(self.token_digest) != crypto.DIGEST_LEN:
            raise ValueError(f"record token digest is {len(self.token_digest)} bytes, not {crypto.DIGEST_LEN}")

    @cached
    def binary(self) -> bytes:
        """name_len(2) || name || hash(32) || size(8) || flag(1) || token_digest(32)?"""
        name = self.name.encode("utf-8")
        digest = b"\x00" if self.token_digest is None else b"\x01" + self.token_digest
        return struct.pack(">H", len(name)) + name + self.hash + struct.pack(">Q", self.size) + digest

    @cached
    def json_text(self) -> str:
        """[name, hash, size, token_digest] as canonical JSON."""
        digest = None if self.token_digest is None else _b64(self.token_digest)
        return _CANONICAL_JSON.encode([self.name, _b64(self.hash), self.size, digest])


@dataclass(frozen=True, eq=False)
class _Block:
    """A run of consecutive records of a TargetsBody, which computes each of
    its encodings once, on first use: ``binary``, their fixed-binary
    fragments joined, ``digest``, the SHA-256 of ``binary`` that the signed
    region holds, and ``text``, their canonical texts joined by ",". Bodies
    derived from one another share their unchanged blocks as objects, so
    each encoding is computed once for all of them."""

    records: tuple[TargetRecord, ...]

    @cached
    def binary(self) -> bytes:
        return b"".join([r.binary for r in self.records])

    @cached
    def digest(self) -> bytes:
        return crypto.hash_data(self.binary)

    @cached
    def text(self) -> str:
        return ",".join([r.json_text for r in self.records])


@dataclass(frozen=True)
class TargetsBody:
    """A targets list, held in blocks (see _Block): b = isqrt(n) consecutive
    records (the last block holds the n % b left over, if any). The signed
    region holds the blocks' digests, both documents join the blocks'
    encodings, and a JSON parse that knows this body lends a whole block
    with one text comparison.

    A body is derived from ``previous`` (None: built from scratch), given the
    indices ``changed`` (ascending; None: all) outside which its records are
    previous's record objects at the same index. An unchanged block is
    previous's block object, the name index is copied and patched, and only
    the blocks that hold a changed index are new; when n differs, every
    block from the first that previous does not hold whole, and when b
    differs, every block. A block computes its encodings on first use, so a
    body that is only signed, verified or written in fixed binary encodes no
    record as JSON, and a block's digest or text computed for one body
    serves every body that shares the block: signing or verifying a derived
    body hashes only its new blocks."""

    records: tuple[TargetRecord, ...] = ()
    previous: InitVar[TargetsBody | None] = None
    changed: InitVar[Sequence[int] | None] = None
    _by_name: dict[str, TargetRecord] = field(init=False, compare=False, repr=False)
    _step: int = field(init=False, compare=False, repr=False)  # b, or 1 for no records
    _blocks: tuple[_Block, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self, previous: TargetsBody | None, changed: Sequence[int] | None) -> None:
        records = tuple(self.records)
        count = len(records)
        old = () if previous is None or changed is None else previous.records
        if old:
            by_name = previous._by_name.copy()
            for i in changed:
                if i >= len(old):
                    break
                del by_name[old[i].name]
            for i in range(count, len(old)):
                del by_name[old[i].name]
            by_name.update({records[i].name: records[i] for i in changed})
        else:
            by_name, changed = {r.name: r for r in records}, range(count)
        if len(by_name) != count:
            raise ValueError("target names must be unique")
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "_by_name", by_name)

        step = math.isqrt(count) or 1
        object.__setattr__(self, "_step", step)
        blocks = [None] * -(-count // step)
        carried = 0  # previous's blocks that hold the same index range
        if old and previous._step == step:
            carried = len(blocks) if count == len(old) else min(count, len(old)) // step
            blocks[:carried] = previous._blocks[:carried]
        for i in changed:
            if i >= carried * step:
                break
            blocks[i // step] = None
        blocks = [_Block(records[k * step : (k + 1) * step]) if b is None else b for k, b in enumerate(blocks)]
        object.__setattr__(self, "_blocks", tuple(blocks))

    def find(self, name: str) -> TargetRecord | None:
        return self._by_name.get(name)

    def fresh(self, previous: TargetsBody | None) -> list[TargetRecord]:
        """This body's records that are not previous's record objects (all,
        for None), in order. A block of previous's holds only previous's
        record objects, so a shared block is passed over whole."""
        if previous is None:
            return list(self.records)
        shared = set(previous._blocks)
        return [
            r for block in self._blocks if block not in shared for r in block.records if r is not previous.find(r.name)
        ]


@dataclass(frozen=True)
class SnapshotBody:
    root_version: int
    targets_version: int


@dataclass(frozen=True)
class TimestampBody:
    snapshot_version: int
    snapshot_hash: bytes  # digest of the snapshot's signed region

    def __post_init__(self) -> None:
        if len(self.snapshot_hash) != crypto.DIGEST_LEN:
            raise ValueError(f"snapshot hash is {len(self.snapshot_hash)} bytes, not {crypto.DIGEST_LEN}")


_BODY_ROLES = {
    RootBody: RoleKind.ROOT,
    TargetsBody: RoleKind.TARGETS,
    SnapshotBody: RoleKind.SNAPSHOT,
    TimestampBody: RoleKind.TIMESTAMP,
}

RoleBody = RootBody | TargetsBody | SnapshotBody | TimestampBody


@dataclass(frozen=True)
class RoleMetadata:
    """One signed role object; like a TargetRecord it encodes itself once,
    on first use, in each mode, and keeps those bytes as long as it lives."""

    role: RoleKind
    version: int
    expires: int
    body: RoleBody
    signatures: tuple[tuple[bytes, bytes], ...]  # (key_id, signature)

    def __post_init__(self) -> None:
        if _BODY_ROLES.get(type(self.body)) is not self.role:
            raise ValueError(f"{type(self.body).__name__} is not a {self.role.value} body")
        if self.version < 1:
            raise ValueError("metadata version must be >= 1")
        object.__setattr__(self, "signatures", tuple(self.signatures))
        kids = [kid for kid, _ in self.signatures]
        if len(set(kids)) != len(kids):
            raise ValueError("key_ids within one metadata object must be distinct")

    def canonical(self, mode: Mode) -> bytes:
        """serialize_canonical(self, mode), computed at most once per mode."""
        return self._binary if mode is Mode.FIXED_BINARY else self._json

    @cached
    def _json(self) -> bytes:
        return serialize_canonical(self, Mode.JSON)

    @cached
    def _binary(self) -> bytes:
        return serialize_canonical(self, Mode.FIXED_BINARY)


# --- fixed-binary bodies and the signed region -----------------------------------

def _encode_body(body: RoleBody) -> bytes:
    if isinstance(body, RootBody):
        out = bytearray()
        for role in RoleKind:
            entry = body.roles[role]
            out += struct.pack(">IH", entry.threshold, len(entry.keys))
            for key in entry.keys:
                out += key
        return bytes(out)
    if isinstance(body, TargetsBody):
        return b"".join([struct.pack(">H", len(body.records)), *[block.binary for block in body._blocks]])
    if isinstance(body, SnapshotBody):
        return struct.pack(">QQ", body.root_version, body.targets_version)
    if isinstance(body, TimestampBody):
        return struct.pack(">Q", body.snapshot_version) + body.snapshot_hash
    raise TypeError(f"unknown body type {type(body)!r}")


def read_role(reader: Reader) -> RoleKind:
    """One role-tag byte, as fixed-binary metadata and the controller state write it."""
    tag = reader.u8("role tag")
    if tag >= len(_TAG_ROLES):
        raise ParseError(f"unknown role tag {tag}", position=reader.offset - 1)
    return _TAG_ROLES[tag]


def _decode_body(role: RoleKind, reader: Reader) -> RoleBody:
    if role is RoleKind.ROOT:
        roles: dict[RoleKind, RoleKeys] = {}
        for entry_role in RoleKind:
            threshold = reader.u32("threshold")
            count = reader.u16("key count")
            keys = tuple(reader.take(32, "public key") for _ in range(count))
            try:
                roles[entry_role] = RoleKeys(threshold=threshold, keys=keys)
            except ValueError as exc:
                raise ParseError(str(exc), position=reader.offset) from exc
        return RootBody(roles=roles)
    if role is RoleKind.TARGETS:
        count = reader.u16("record count")
        records = []
        for _ in range(count):
            name = reader.text("target name")
            record_hash = reader.take(32, "record hash")
            size = reader.u64("record size")
            token_digest = reader.take(32, "token digest") if reader.flag("token flag") else None
            records.append(TargetRecord(name=name, hash=record_hash, size=size, token_digest=token_digest))
        try:
            return TargetsBody(records=records)
        except ValueError as exc:
            raise ParseError(str(exc), position=reader.offset) from exc
    if role is RoleKind.SNAPSHOT:
        return SnapshotBody(root_version=reader.u64("root version"), targets_version=reader.u64("targets version"))
    return TimestampBody(snapshot_version=reader.u64("snapshot version"), snapshot_hash=reader.take(32, "snapshot hash"))


def _header(role: RoleKind, version: int, expires: int) -> bytes:
    return struct.pack(">BQQ", ROLE_TAGS[role], version, expires)


def signed_region(role: RoleKind, version: int, expires: int, body: RoleBody) -> bytes:
    """The byte region signatures cover, identical in both modes: the
    header, then a targets body's record count and block digests, or any
    other body's fixed-binary encoding. Records are self-delimiting and
    the count fixes the blocks, so distinct bodies get distinct regions
    as long as SHA-256 is collision resistant."""
    if isinstance(body, TargetsBody):
        region_body = b"".join([struct.pack(">H", len(body.records)), *[block.digest for block in body._blocks]])
    else:
        region_body = _encode_body(body)
    return _header(role, version, expires) + region_body


def signed_region_of(meta: RoleMetadata) -> bytes:
    return signed_region(meta.role, meta.version, meta.expires, meta.body)


# --- construction -----------------------------------------------------------------

def build_and_sign(
    body: RoleBody, version: int, expires: int, keys: list[crypto.SigningKeyPair]
) -> RoleMetadata:
    """Sign (role, version, expires, body) once per key."""
    if not keys:
        raise ValueError("at least one signing key required")
    role = _BODY_ROLES[type(body)]
    region = signed_region(role, version, expires, body)
    signatures = [(crypto.key_id(k.public), crypto.sign(k, region)) for k in keys]
    return RoleMetadata(role=role, version=version, expires=expires, body=body, signatures=signatures)


# --- serialization ------------------------------------------------------------------

def _b64(data: bytes) -> str:
    return binascii.b2a_base64(data, newline=False).decode("ascii")


def _json_body(body: RoleBody):
    if isinstance(body, RootBody):
        return {
            role.value: [entry.threshold, [_b64(k) for k in entry.keys]]
            for role, entry in ((r, body.roles[r]) for r in RoleKind)
        }
    if isinstance(body, SnapshotBody):
        return [body.root_version, body.targets_version]
    if isinstance(body, TimestampBody):
        return [body.snapshot_version, _b64(body.snapshot_hash)]
    raise TypeError(f"unknown body type {type(body)!r}")


def serialize_canonical(meta: RoleMetadata, mode: Mode) -> bytes:
    if mode is Mode.FIXED_BINARY:
        out = bytearray(_header(meta.role, meta.version, meta.expires) + _encode_body(meta.body))
        out += struct.pack(">H", len(meta.signatures))
        for kid, sig in meta.signatures:
            out += kid + sig
        return bytes(out)
    return _canonical_json(meta).encode("ascii")


# built once: json.dumps builds an encoder per call when given options
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
# a canonical document opens with its body, which for targets is a list
_LIST_BODY = '{"body":['


def _canonical_json(meta: RoleMetadata) -> str:
    """The canonical document, keys in sorted order; base64 and the role
    name need no escaping, and the text is ASCII. A targets body joins its
    blocks' texts, with the document's head and tail carried on the first
    and last, so the document is built in one copy."""
    signatures = ",".join([f'{{"kid":"{_b64(kid)}","sig":"{_b64(sig)}"}}' for kid, sig in meta.signatures])
    tail = (
        f'"expires":{meta.expires},"role":"{meta.role.value}",'
        f'"signatures":[{signatures}],"version":{meta.version}}}'
    )
    if not isinstance(meta.body, TargetsBody):
        return f'{{"body":{_CANONICAL_JSON.encode(_json_body(meta.body))},{tail}'
    texts = [block.text for block in meta.body._blocks] or [""]
    texts[0] = _LIST_BODY + texts[0]
    texts[-1] += "]," + tail
    return ",".join(texts)


# widths of the fixed-binary fields a JSON value must fit
_U16_MAX = 2**16 - 1
_U32_MAX = 2**32 - 1
_U64_MAX = 2**64 - 1


def _need(obj: dict, key: str, kind, path: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing field {key!r}", position=path)
    value = obj[key]
    if not isinstance(value, kind):
        raise ParseError(f"field {key!r} has wrong type", position=f"{path}.{key}")
    return value


def _json_uint(value, limit: int, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= limit:
        raise ParseError(f"expected an integer in 0..{limit}", position=path)
    return value


def _json_count(items: list, path: str) -> list:
    if len(items) > _U16_MAX:
        raise ParseError(f"more than {_U16_MAX} entries", position=path)
    return items


def _json_name(value, path: str) -> str:
    try:
        length = len(value.encode("utf-8"))
    except UnicodeEncodeError as exc:
        raise ParseError("target name is not utf-8", position=path) from exc
    if length > _U16_MAX:
        raise ParseError(f"target name longer than {_U16_MAX} bytes", position=path)
    return value


def _json_bytes(value, length: int, path: str) -> bytes:
    if not isinstance(value, str):
        raise ParseError("expected base64 string", position=path)
    try:
        # lenient: parse compares the whole blob with its canonical form, which
        # rejects any base64 that is not exactly what _b64 writes
        raw = binascii.a2b_base64(value)
    except (binascii.Error, ValueError) as exc:
        raise ParseError(f"bad base64: {exc}", position=path) from exc
    if len(raw) != length:
        raise ParseError(f"expected {length} bytes, got {len(raw)}", position=path)
    return raw


_DECODER = json.JSONDecoder()
_ITEM_ENDS = (",", "]")
_NO_RECORDS = TargetsBody()


def _read_document(text: str, shift: int = 0):
    """The JSON value that is the whole of ``text``; ``shift`` moves an
    error's position, for text cut from a document."""
    try:
        value, end = _DECODER.raw_decode(text)
        if end != len(text):
            raise json.JSONDecodeError("Extra data", text, end)
    except json.JSONDecodeError as exc:
        exc.pos += shift
        raise
    return value


def _read_list(text: str, at: int, known: TargetsBody) -> tuple[list, list[int], int]:
    """The items of the JSON list that opens at text[at], the ascending
    indices of the items that may not be the known record at their own index
    (every decoded item, and every item lent from another index), and the
    offset just past its "]". An item whose text is exactly a known record's
    canonical text is that record object, lent; every other item is decoded.

    A cursor walks the known records in order. On a block boundary (see
    TargetsBody) one text comparison lends the whole block; otherwise, or
    when the block's text differs, the cursor steps one record, and an
    unchanged record costs one text comparison. A decoded item named like
    the record at the cursor (a replaced record) moves the cursor past it;
    any other (an inserted record) leaves it in place. A decoded item whose
    text is the known text of its name (a record moved out of order) is lent
    too. A block lends the records its single steps would, so the lent items
    are the same with or without blocks."""
    records = known.records
    size = known._step
    items: list = []
    changed: list[int] = []
    j = 0  # the known record the next item is compared with
    end = at + 1
    if text.startswith("]", end):
        return items, changed, end + 1
    while True:
        start = end
        lent = ()
        if j < len(records):
            if not j % size:
                block = known._blocks[j // size]
                end = start + len(block.text)
                if text.startswith(block.text, start) and text[end : end + 1] in _ITEM_ENDS:
                    lent = block.records
            if not lent:
                known_text = records[j].json_text
                end = start + len(known_text)
                if text.startswith(known_text, start) and text[end : end + 1] in _ITEM_ENDS:
                    lent = records[j : j + 1]
        if lent:
            if len(items) != j:
                changed += range(len(items), len(items) + len(lent))
            items += lent
            j += len(lent)
        else:
            item, end = _DECODER.raw_decode(text, start)
            prior = known.find(item[0]) if type(item) is list and item and type(item[0]) is str else None
            if prior is not None and j < len(records) and prior is records[j]:
                j += 1
            if prior is not None and text.startswith(prior.json_text, start):
                item = prior
            if text[end : end + 1] not in _ITEM_ENDS:
                raise json.JSONDecodeError("Expecting ',' or ']'", text, end)
            changed.append(len(items))
            items.append(item)
        if text[end] == "]":
            return items, changed, end + 1
        end += 1


def _parse_json_body(role: RoleKind, raw, path: str, known: TargetsBody, changed: list[int] | None) -> RoleBody:
    """The body ``raw`` stands for. Of a targets list, only the items at the
    indices ``changed`` (None: all) that are not records are checked and
    built; the others are records _read_list lent, and the body is derived
    from ``known``."""
    if role is RoleKind.ROOT:
        if not isinstance(raw, dict):
            raise ParseError("root body must be an object", position=path)
        roles = {}
        for entry_role in RoleKind:
            entry = raw.get(entry_role.value)
            entry_path = f"{path}.{entry_role.value}"
            if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], list)):
                raise ParseError("role entry must be [threshold, [keys]]", position=entry_path)
            threshold = _json_uint(entry[0], _U32_MAX, f"{entry_path}[0]")
            keys = _json_count(entry[1], f"{entry_path}[1]")
            public_keys = tuple(_json_bytes(k, 32, f"{entry_path}[1][{i}]") for i, k in enumerate(keys))
            try:
                roles[entry_role] = RoleKeys(threshold=threshold, keys=public_keys)
            except ValueError as exc:
                raise ParseError(str(exc), position=entry_path) from exc
        if set(raw) != {r.value for r in RoleKind}:
            raise ParseError("root body must list exactly the four roles", position=path)
        return RootBody(roles=roles)
    if role is RoleKind.TARGETS:
        if not isinstance(raw, list):
            raise ParseError("targets body must be a list", position=path)
        records = _json_count(raw, path)
        for i in range(len(records)) if changed is None else changed:
            item = records[i]
            if type(item) is TargetRecord:
                continue
            item_path = f"{path}[{i}]"
            if not (isinstance(item, list) and len(item) == 4 and isinstance(item[0], str)):
                raise ParseError("record must be [name, hash, size, token_digest]", position=item_path)
            name, hash_b64, size, token_digest_b64 = item
            records[i] = TargetRecord(
                name=_json_name(name, f"{item_path}[0]"),
                hash=_json_bytes(hash_b64, 32, f"{item_path}[1]"),
                size=_json_uint(size, _U64_MAX, f"{item_path}[2]"),
                token_digest=None if token_digest_b64 is None else _json_bytes(token_digest_b64, 32, f"{item_path}[3]"),
            )
        try:
            return TargetsBody(records, known, changed)
        except ValueError as exc:
            raise ParseError(str(exc), position=path) from exc
    if not (isinstance(raw, list) and len(raw) == 2):
        shape = "[root_version, targets_version]" if role is RoleKind.SNAPSHOT else "[snapshot_version, snapshot_hash]"
        raise ParseError(f"{role.value} body must be {shape}", position=path)
    if role is RoleKind.SNAPSHOT:
        return SnapshotBody(
            root_version=_json_uint(raw[0], _U64_MAX, f"{path}[0]"),
            targets_version=_json_uint(raw[1], _U64_MAX, f"{path}[1]"),
        )
    return TimestampBody(
        snapshot_version=_json_uint(raw[0], _U64_MAX, f"{path}[0]"),
        snapshot_hash=_json_bytes(raw[1], 32, f"{path}[1]"),
    )


def parse(data: bytes, mode: Mode, known: TargetsBody | None = None) -> RoleMetadata:
    """Inverse of serialize_canonical, accepting only its exact output;
    raises ParseError whose position is a byte offset or, for a JSON value of
    the wrong shape or width, its JSON path.

    ``known`` (a verified targets body, such as the last one synced) lends
    its record objects to a JSON parse by their exact text: a list item that
    is character for character a known record's canonical text, followed by
    "," or "]", is that object and is not decoded (see _read_list), and the
    parsed body is derived from ``known`` (see TargetsBody). With or
    without ``known`` every blob gets the same value or the same verdict, and
    the whole-blob canonical comparison still checks every byte. A
    fixed-binary parse ignores it."""
    if mode is Mode.FIXED_BINARY:
        reader = Reader(data)
        role = read_role(reader)
        version = reader.u64("version")
        expires = reader.u64("expires")
        body = _decode_body(role, reader)
        sig_count = reader.u16("signature count")
        signatures = [(reader.take(32, "key id"), reader.take(64, "signature")) for _ in range(sig_count)]
        reader.end("metadata")
        try:
            return RoleMetadata(role=role, version=version, expires=expires, body=body, signatures=signatures)
        except ValueError as exc:
            raise ParseError(str(exc), position=reader.offset) from exc

    known = _NO_RECORDS if known is None else known
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("metadata is not utf-8", position=exc.start) from exc
    try:
        if text.startswith(_LIST_BODY):
            # the canonical document opens with its body: a list body is read
            # item by item, the other fields as the object they make on their own
            items, changed, end = _read_list(text, len(_LIST_BODY) - 1, known)
            if not text.startswith(",", end):
                raise json.JSONDecodeError("Expecting ','", text, end)
            obj = _read_document("{" + text[end + 1 :], shift=end)
            obj["body"] = items  # over a second "body", which the canonical comparison rejects
        else:
            obj, changed = _read_document(text), None
    except json.JSONDecodeError as exc:  # at a character offset into text
        raise ParseError(f"bad json: {exc.msg}", position=len(text[: exc.pos].encode("utf-8"))) from exc
    role_name = _need(obj, "role", str, "$")
    try:
        role = RoleKind(role_name)
    except ValueError as exc:
        raise ParseError(f"unknown role {role_name!r}", position="$.role") from exc
    version = _json_uint(_need(obj, "version", object, "$"), _U64_MAX, "$.version")
    expires = _json_uint(_need(obj, "expires", object, "$"), _U64_MAX, "$.expires")
    body = _parse_json_body(role, _need(obj, "body", object, "$"), "$.body", known, changed)
    signatures = []
    for i, entry in enumerate(_json_count(_need(obj, "signatures", list, "$"), "$.signatures")):
        sig_path = f"$.signatures[{i}]"
        if not isinstance(entry, dict):
            raise ParseError("signature entry must be an object", position=sig_path)
        signatures.append(
            (
                _json_bytes(_need(entry, "kid", str, sig_path), 32, f"{sig_path}.kid"),
                _json_bytes(_need(entry, "sig", str, sig_path), 64, f"{sig_path}.sig"),
            )
        )
    try:
        meta = RoleMetadata(role=role, version=version, expires=expires, body=body, signatures=signatures)
    except ValueError as exc:
        raise ParseError(str(exc), position="$") from exc
    # one encoding per value: key order, whitespace, escapes, extra keys and
    # base64 padding bits all show up as a difference from the canonical
    # text, compared with the decoded blob (same text, same bytes)
    canonical = _canonical_json(meta)
    if canonical != text:
        canonical = canonical.encode("ascii")
        at = next((i for i, (a, b) in enumerate(zip(canonical, data)) if a != b), min(len(canonical), len(data)))
        raise ParseError("metadata is not canonical JSON", position=at)
    return meta


# --- full-chain verification -----------------------------------------------------

@dataclass(frozen=True)
class MetadataSet:
    root: RoleMetadata
    targets: RoleMetadata
    snapshot: RoleMetadata
    timestamp: RoleMetadata

    def by_role(self, role: RoleKind) -> RoleMetadata:
        return getattr(self, role.value)


def verify_role_signatures(meta: RoleMetadata, authorized: RoleKeys) -> None:
    """Check that at least ``threshold`` distinct authorized keys signed.

    Stops as soon as the threshold is met, so a well-formed object costs
    exactly ``threshold`` public-key verifications; duplicate key_ids and
    unknown key_ids are skipped without a verification.
    """
    by_kid = {crypto.key_id(k): k for k in authorized.keys}
    region = signed_region_of(meta)
    counted: set[bytes] = set()
    for kid, sig in meta.signatures:
        if kid not in by_kid or kid in counted:
            continue
        if crypto.verify(by_kid[kid], region, sig):
            counted.add(kid)
            if len(counted) >= authorized.threshold:
                return
    raise ThresholdNotMet(
        meta.role.value, f"{len(counted)} of {authorized.threshold} required signatures"
    )


def _check_expiry(meta: RoleMetadata, now: int) -> None:
    if meta.expires <= now:
        raise Expired(meta.role.value, f"expired at tick {meta.expires}, now {now}")


def _check_role(
    meta: RoleMetadata,
    expected_role: RoleKind,
    authorized: RoleKeys,
    now: int,
    last_seen: dict[RoleKind, int] | None,
) -> None:
    if meta.role is not expected_role:
        raise BindingMismatch(expected_role.value, f"metadata is for role {meta.role.value}")
    verify_role_signatures(meta, authorized)
    _check_expiry(meta, now)
    if last_seen is not None and meta.version < last_seen.get(expected_role, 0):
        raise VersionRollback(
            expected_role.value,
            f"presented version {meta.version} < last seen {last_seen[expected_role]}",
        )


def verify_full_chain(
    trusted_root: RoleMetadata,
    metadata_set: MetadataSet,
    now: int,
    last_seen: dict[RoleKind, int] | None = None,
) -> TargetsBody:
    """Validate a complete metadata set and return the verified targets body.

    Order: root against the trusted root's root-role keys, then timestamp,
    snapshot, and targets against the presented (now validated) root. All
    expirations must be strictly after ``now``; presented versions must not
    regress below ``last_seen``. With thresholds (2,2,1,1) the happy path
    performs exactly six signature verifications.
    """
    _check_role(metadata_set.root, RoleKind.ROOT, trusted_root.body.roles[RoleKind.ROOT], now, last_seen)
    root_body = metadata_set.root.body

    _check_role(metadata_set.timestamp, RoleKind.TIMESTAMP, root_body.roles[RoleKind.TIMESTAMP], now, last_seen)
    ts_body = metadata_set.timestamp.body

    _check_role(metadata_set.snapshot, RoleKind.SNAPSHOT, root_body.roles[RoleKind.SNAPSHOT], now, last_seen)
    snap_body = metadata_set.snapshot.body

    if ts_body.snapshot_version != metadata_set.snapshot.version:
        raise BindingMismatch(
            "snapshot",
            f"timestamp pins snapshot version {ts_body.snapshot_version}, got {metadata_set.snapshot.version}",
        )
    if ts_body.snapshot_hash != crypto.hash_data(signed_region_of(metadata_set.snapshot)):
        raise BindingMismatch("snapshot", "timestamp's snapshot hash does not match")

    _check_role(metadata_set.targets, RoleKind.TARGETS, root_body.roles[RoleKind.TARGETS], now, last_seen)
    if snap_body.targets_version != metadata_set.targets.version:
        raise BindingMismatch(
            "targets",
            f"snapshot pins targets version {snap_body.targets_version}, got {metadata_set.targets.version}",
        )
    if snap_body.root_version != metadata_set.root.version:
        raise BindingMismatch(
            "root",
            f"snapshot pins root version {snap_body.root_version}, got {metadata_set.root.version}",
        )

    return metadata_set.targets.body


# --- the client ---------------------------------------------------------------------

# the roles a full update fetches in one call, after the timestamp
FULL_PATH_ROLES = (RoleKind.ROOT, RoleKind.TARGETS, RoleKind.SNAPSHOT)


def _fetch(fetch_roles, roles: tuple[RoleKind, ...]) -> list[bytes]:
    """The reply of ``fetch_roles`` to ``roles``: a ParseError unless it is a list of one blob each."""
    blobs = fetch_roles(list(roles))
    if not isinstance(blobs, list) or len(blobs) != len(roles):
        raise ParseError(f"not one metadata blob for each of {len(roles)} roles", "metadata")
    return blobs


class TrustedState:
    """TUF's client workflow, the one copy of it: the controller runs it for
    its fleet and a comparison-mode device for itself. It holds the trusted
    root, each role's version floor (``last_seen``) and the set the last
    commit adopted (``held``; in memory only, so a client rebuilt from a
    saved root and floors takes the full path on its first update)."""

    def __init__(self, root: RoleMetadata) -> None:
        if root.role is not RoleKind.ROOT:
            raise ValueError("trusted root must carry a root body")
        self.root = root
        self.last_seen: dict[RoleKind, int] = {}
        self.held: MetadataSet | None = None

    def update(self, fetch_roles, mode: Mode, now: int) -> MetadataSet | None:
        """Fetch and verify the metadata, timestamp first: ``fetch_roles(roles)``
        returns the blobs of ``roles``, asked for the timestamp alone and then
        for FULL_PATH_ROLES in one call. A timestamp that pins the held snapshot
        (version and signed-region hash) is checked alone, in
        verify_full_chain's order: the expiry of the trusted root, the
        timestamp's threshold, expiry and floor, then the expiry of the held
        snapshot and targets (one verification at thresholds 2,2,1,1); its
        floor is raised and None returned. Otherwise the other roles are
        fetched, the held records lent to parse, and verify_full_chain run;
        the new set is returned uncommitted, for the caller to commit once
        its own checks pass."""
        timestamp = parse(_fetch(fetch_roles, (RoleKind.TIMESTAMP,))[0], mode)
        held = self.held
        if (
            held is not None
            and timestamp.role is RoleKind.TIMESTAMP
            and timestamp.body.snapshot_version == held.snapshot.version
            and timestamp.body.snapshot_hash == crypto.hash_data(signed_region_of(held.snapshot))
        ):
            _check_expiry(self.root, now)
            _check_role(timestamp, RoleKind.TIMESTAMP, self.root.body.roles[RoleKind.TIMESTAMP], now, self.last_seen)
            _check_expiry(held.snapshot, now)
            _check_expiry(held.targets, now)
            self.last_seen[RoleKind.TIMESTAMP] = timestamp.version
            return None
        root, targets, snapshot = _fetch(fetch_roles, FULL_PATH_ROLES)
        metadata_set = MetadataSet(
            root=parse(root, mode),
            # a held record whose exact text the blob repeats is lent, not decoded
            targets=parse(targets, mode, known=None if held is None else held.targets.body),
            snapshot=parse(snapshot, mode),
            timestamp=timestamp,
        )
        verify_full_chain(self.root, metadata_set, now=now, last_seen=self.last_seen)
        return metadata_set

    def commit(self, metadata_set: MetadataSet) -> None:
        """Adopt a set update() returned: its root becomes the trusted root,
        its versions the floors, and the set the held one."""
        self.root = metadata_set.root
        for role in RoleKind:
            self.last_seen[role] = metadata_set.by_role(role).version
        self.held = metadata_set
