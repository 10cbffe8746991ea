"""Role metadata: serialization round-trips, threshold verification, the
exact signature-verification count, expiry/rollback/binding failures, and
the size budgets of the two encodings."""

import base64
import dataclasses
import itertools
import json
import math
import random
import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assured import crypto, metadata
from assured.authorization import Constraints, build_envelope, issue_token, serialize_envelope
from assured.codec import flip_bit
from assured.controller import Controller
from assured.errors import (
    AssuredError,
    BindingMismatch,
    Expired,
    ParseError,
    ThresholdNotMet,
    VersionRollback,
)
from assured.metadata import (
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
    verify_full_chain,
    verify_role_signatures,
)
from assured.repository import fetch_metadata, new_repository, publish, publish_vanilla
from assured.transport import LocalRepoPort


def keypairs(label: bytes, count: int):
    return [crypto.signing_key_from_seed(label * 16 + bytes([i]) * 16) for i in range(count)]


@pytest.fixture(scope="module")
def role_keys():
    return {
        RoleKind.ROOT: keypairs(b"r", 2),
        RoleKind.TARGETS: keypairs(b"t", 2),
        RoleKind.SNAPSHOT: keypairs(b"s", 1),
        RoleKind.TIMESTAMP: keypairs(b"w", 1),
    }


@pytest.fixture(scope="module")
def repo(role_keys):
    return new_repository(
        root_keys=role_keys[RoleKind.ROOT],
        targets_keys=role_keys[RoleKind.TARGETS],
        snapshot_keys=role_keys[RoleKind.SNAPSHOT],
        timestamp_keys=role_keys[RoleKind.TIMESTAMP],
    )


def resign(repo, role, role_keys, *, version=None, expires=None, body=None):
    meta = repo.metadata.by_role(role)
    return build_and_sign(
        body if body is not None else meta.body,
        version if version is not None else meta.version,
        expires if expires is not None else meta.expires,
        role_keys[role],
    )


class TestSerialization:
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("role", list(RoleKind))
    def test_round_trip_each_role(self, repo, role, mode):
        meta = repo.metadata.by_role(role)
        assert parse(serialize_canonical(meta, mode), mode) == meta

    @pytest.mark.parametrize("mode", list(Mode))
    def test_round_trip_with_token_record(self, oem_key, role_keys, mode):
        artifact = b"\x5a" * 64
        token = issue_token(oem_key, artifact, Constraints(new_version=4))
        record = TargetRecord(name="fw", hash=token.artifact_hash, size=64, token_digest=crypto.hash_data(token.raw))
        body = TargetsBody(records=[record])
        meta = build_and_sign(body, 3, 500, role_keys[RoleKind.TARGETS])
        assert parse(serialize_canonical(meta, mode), mode) == meta

    def test_canonical_json_is_byte_stable(self, repo):
        meta = repo.metadata.targets
        assert serialize_canonical(meta, Mode.JSON) == serialize_canonical(meta, Mode.JSON)

    def test_signature_covers_mode_independent_region(self, repo, role_keys):
        # re-encoding between modes must not invalidate signatures
        meta = repo.metadata.snapshot
        rebuilt = parse(serialize_canonical(meta, Mode.JSON), Mode.JSON)
        verify_role_signatures(rebuilt, RoleKeys(threshold=1, keys=(role_keys[RoleKind.SNAPSHOT][0].public,)))
        rebuilt = parse(serialize_canonical(meta, Mode.FIXED_BINARY), Mode.FIXED_BINARY)
        verify_role_signatures(rebuilt, RoleKeys(threshold=1, keys=(role_keys[RoleKind.SNAPSHOT][0].public,)))

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError):
            parse(b"\xff" + bytes(40), Mode.FIXED_BINARY)
        with pytest.raises(ParseError):
            parse(b'{"role":"root"', Mode.JSON)
        with pytest.raises(ParseError):
            parse(b'{"role":"root","version":1}', Mode.JSON)

    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_arbitrary_binary_never_crashes(self, blob):
        try:
            parse(blob, Mode.FIXED_BINARY)
        except ParseError:
            pass

    @given(
        st.sampled_from(list(Mode)),
        st.integers(min_value=1, max_value=2**32),
        st.integers(min_value=0, max_value=2**32),
        st.lists(
            st.tuples(
                st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12),
                st.binary(min_size=32, max_size=32),
                st.integers(min_value=0, max_value=2**40),
                st.none() | st.binary(min_size=32, max_size=32),
            ),
            max_size=4,
            unique_by=lambda t: t[0],
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_generated_targets_round_trip(self, mode, version, expires, raw_records):
        records = [TargetRecord(name=n, hash=h, size=s, token_digest=d) for n, h, s, d in raw_records]
        meta = build_and_sign(TargetsBody(records=records), version, expires, keypairs(b"t", 2))
        assert parse(serialize_canonical(meta, mode), mode) == meta

    def test_json_set_size_for_one_target_repo(self, repo):
        # device-visible metadata for one update: targets + snapshot + timestamp,
        # plain-TUF records; the trust-anchor root is pre-installed, not transferred
        state = publish_vanilla(repo, "fw", b"\x11" * 256)
        total = sum(
            len(fetch_metadata(state, role))
            for role in (RoleKind.TARGETS, RoleKind.SNAPSHOT, RoleKind.TIMESTAMP)
        )
        assert 840 <= total <= 1040, total

    def test_fixed_binary_targets_no_larger_than_json(self, repo, oem_key):
        artifact = b"\x11" * 256
        token = issue_token(oem_key, artifact, Constraints(new_version=2))
        record = TargetRecord(name="fw", hash=token.artifact_hash, size=256, token_digest=crypto.hash_data(token.raw))
        meta = build_and_sign(TargetsBody(records=[record]), 2, 1000, keypairs(b"t", 2))
        binary = serialize_canonical(meta, Mode.FIXED_BINARY)
        json_form = serialize_canonical(meta, Mode.JSON)
        assert len(binary) <= len(json_form)


class TestThresholds:
    def test_two_keys_two_key_ids(self, role_keys):
        meta = build_and_sign(SnapshotBody(1, 1), 1, 10, role_keys[RoleKind.TARGETS])
        assert len({kid for kid, _ in meta.signatures}) == 2

    def test_threshold_two_with_both_keys_accepts(self, role_keys):
        keys = role_keys[RoleKind.TARGETS]
        meta = build_and_sign(SnapshotBody(1, 1), 1, 10, keys)
        verify_role_signatures(meta, RoleKeys(threshold=2, keys=tuple(k.public for k in keys)))

    def test_threshold_two_with_one_signature_rejects(self, role_keys):
        keys = role_keys[RoleKind.TARGETS]
        meta = build_and_sign(SnapshotBody(1, 1), 1, 10, keys[:1])
        with pytest.raises(ThresholdNotMet):
            verify_role_signatures(meta, RoleKeys(threshold=2, keys=tuple(k.public for k in keys)))

    def test_duplicate_signatures_count_once(self, role_keys):
        keys = role_keys[RoleKind.TARGETS]
        meta = build_and_sign(SnapshotBody(1, 1), 1, 10, keys[:1])
        # sidestep construction-time distinctness on the frozen value
        object.__setattr__(meta, "signatures", meta.signatures * 2)
        with pytest.raises(ThresholdNotMet):
            verify_role_signatures(meta, RoleKeys(threshold=2, keys=tuple(k.public for k in keys)))

    def test_threshold_monotonicity(self, role_keys):
        keys = role_keys[RoleKind.TARGETS]
        meta = build_and_sign(SnapshotBody(1, 1), 1, 10, keys)
        authorized = tuple(k.public for k in keys)
        for t in (1, 2):
            verify_role_signatures(meta, RoleKeys(threshold=t, keys=authorized))

    def test_unknown_key_ids_cost_no_verification(self, role_keys):
        keys = role_keys[RoleKind.TARGETS]
        meta = build_and_sign(SnapshotBody(1, 1), 1, 10, keys)
        stranger = keypairs(b"x", 1)[0]
        before = crypto.VERIFY_COUNTER.read()
        with pytest.raises(ThresholdNotMet):
            verify_role_signatures(meta, RoleKeys(threshold=1, keys=(stranger.public,)))
        assert crypto.VERIFY_COUNTER.read() == before


class TestFullChain:
    def test_happy_path_exactly_six_verifications(self, repo):
        before = crypto.VERIFY_COUNTER.read()
        targets = verify_full_chain(repo.metadata.root, repo.metadata, now=0)
        assert crypto.VERIFY_COUNTER.read() - before == 6
        assert isinstance(targets, TargetsBody)

    def test_expired_timestamp(self, repo):
        with pytest.raises(Expired) as excinfo:
            verify_full_chain(repo.metadata.root, repo.metadata, now=10)
        assert excinfo.value.role == "timestamp"

    def test_version_rollback(self, repo):
        last_seen = {RoleKind.TIMESTAMP: 5}
        with pytest.raises(VersionRollback) as excinfo:
            verify_full_chain(repo.metadata.root, repo.metadata, now=0, last_seen=last_seen)
        assert excinfo.value.role == "timestamp"

    def test_equal_version_is_not_rollback(self, repo):
        last_seen = {role: 1 for role in RoleKind}
        verify_full_chain(repo.metadata.root, repo.metadata, now=0, last_seen=last_seen)

    def test_stale_snapshot_binding(self, repo, role_keys):
        # re-sign targets at version+1 without refreshing snapshot
        stale = MetadataSet(
            root=repo.metadata.root,
            targets=resign(repo, RoleKind.TARGETS, role_keys, version=2),
            snapshot=repo.metadata.snapshot,
            timestamp=repo.metadata.timestamp,
        )
        with pytest.raises(BindingMismatch):
            verify_full_chain(repo.metadata.root, stale, now=0)

    def test_tampered_timestamp_hash_binding(self, repo, role_keys):
        body = TimestampBody(snapshot_version=1, snapshot_hash=bytes(32))
        bad_ts = resign(repo, RoleKind.TIMESTAMP, role_keys, body=body)
        tampered = MetadataSet(
            root=repo.metadata.root,
            targets=repo.metadata.targets,
            snapshot=repo.metadata.snapshot,
            timestamp=bad_ts,
        )
        with pytest.raises(BindingMismatch):
            verify_full_chain(repo.metadata.root, tampered, now=0)

    def test_unauthorized_signers_rejected(self, repo, role_keys):
        rogue = keypairs(b"z", 2)
        forged = MetadataSet(
            root=repo.metadata.root,
            targets=build_and_sign(repo.metadata.targets.body, 1, 1000, rogue),
            snapshot=repo.metadata.snapshot,
            timestamp=repo.metadata.timestamp,
        )
        with pytest.raises(ThresholdNotMet):
            verify_full_chain(repo.metadata.root, forged, now=0)


class TestInvariantsAtConstruction:
    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            RoleKeys(threshold=0, keys=(bytes(32),))
        with pytest.raises(ValueError):
            RoleKeys(threshold=2, keys=(bytes(32),))

    def test_duplicate_target_names(self):
        record = TargetRecord(name="a", hash=bytes(32), size=1)
        with pytest.raises(ValueError):
            TargetsBody(records=[record, record])

    @pytest.mark.parametrize("length", [0, 31, 33])
    def test_digests_are_exactly_32_bytes(self, length):
        TargetRecord(name="a", hash=bytes(32), size=1, token_digest=bytes(32))
        TimestampBody(snapshot_version=1, snapshot_hash=bytes(32))
        with pytest.raises(ValueError, match="record hash"):
            TargetRecord(name="a", hash=bytes(length), size=1)
        with pytest.raises(ValueError, match="record token digest"):
            TargetRecord(name="a", hash=bytes(32), size=1, token_digest=bytes(length))
        with pytest.raises(ValueError, match="snapshot hash"):
            TimestampBody(snapshot_version=1, snapshot_hash=bytes(length))

    def test_version_floor(self, role_keys):
        with pytest.raises(ValueError):
            build_and_sign(SnapshotBody(1, 1), 0, 10, role_keys[RoleKind.SNAPSHOT])

    def test_root_body_requires_all_roles(self):
        with pytest.raises(ValueError):
            RootBody(roles={RoleKind.ROOT: RoleKeys(threshold=1, keys=(bytes(32),))})

    @pytest.mark.parametrize("role", list(RoleKind))
    def test_role_and_body_must_match(self, repo, role):
        for other in RoleKind:
            body = repo.metadata.by_role(other).body
            if other is role:
                RoleMetadata(role=role, version=1, expires=10, body=body, signatures=[])
                continue
            with pytest.raises(ValueError):
                RoleMetadata(role=role, version=1, expires=10, body=body, signatures=[])


# --- a blob holding what a constructor refuses is a ParseError at its position --------


@pytest.mark.parametrize("mode", list(Mode))
def test_signatures_that_repeat_a_key_id_are_a_parse_error(repo, mode):
    meta = repo.metadata.by_role(RoleKind.TIMESTAMP)
    [(kid, sig)] = meta.signatures
    blob = serialize_canonical(meta, mode)
    if mode is Mode.FIXED_BINARY:
        count_at = len(blob) - 2 - 32 - 64
        assert blob[count_at:] == struct.pack(">H", 1) + kid + sig
        doubled, position = blob[:count_at] + struct.pack(">H", 2) + (kid + sig) * 2, len(blob) + 96
    else:
        entry = b'{"kid":"%s","sig":"%s"}' % (base64.b64encode(kid), base64.b64encode(sig))
        assert blob.count(entry) == 1
        doubled, position = blob.replace(entry, entry + b"," + entry), "$"
    with pytest.raises(ParseError, match="^key_ids within one metadata object must be distinct") as caught:
        parse(doubled, mode)
    assert caught.value.position == position


def test_a_fixed_binary_targets_body_that_repeats_a_name_is_a_parse_error(role_keys):
    records = [TargetRecord(name=name, hash=bytes(32), size=1) for name in ("fw-a", "fw-b")]
    meta = build_and_sign(TargetsBody(records=records), 1, 10, role_keys[RoleKind.TARGETS])
    blob = serialize_canonical(meta, Mode.FIXED_BINARY)
    assert blob.count(b"fw-b") == 1
    with pytest.raises(ParseError, match="^target names must be unique") as caught:
        parse(blob.replace(b"fw-b", b"fw-a"), Mode.FIXED_BINARY)
    # at the end of the records: the signature count and signatures follow
    assert caught.value.position == len(blob) - 2 - 96 * len(meta.signatures)


def test_a_json_root_body_with_a_fifth_key_is_a_parse_error(repo):
    blob = serialize_canonical(repo.metadata.root, Mode.JSON)
    assert blob.startswith(b'{"body":{"root":')
    with pytest.raises(ParseError, match="^root body must list exactly the four roles") as caught:
        parse(blob.replace(b'{"body":{', b'{"body":{"extra":[1,[]],', 1), Mode.JSON)
    assert caught.value.position == "$.body"


# --- the fixed-binary decoder accepts exactly what the encoder writes ----------------


@pytest.fixture(scope="module")
def binary_probe_set(role_keys):
    """A fixed-binary repository with one token record and one token-free record."""
    oem = crypto.signing_key_from_seed(bytes(range(32)))
    artifact = b"\x5a" * 64
    token = issue_token(oem, artifact, Constraints(new_version=2))
    state = new_repository(
        root_keys=role_keys[RoleKind.ROOT],
        targets_keys=role_keys[RoleKind.TARGETS],
        snapshot_keys=role_keys[RoleKind.SNAPSHOT],
        timestamp_keys=role_keys[RoleKind.TIMESTAMP],
        mode=Mode.FIXED_BINARY,
    )
    state = publish(state, "fw", serialize_envelope(build_envelope(token, artifact)))
    return publish_vanilla(state, "zz", b"plain artifact")


def accepted(state, role, blob) -> bool:
    """Whether ``blob`` in place of ``role`` passes parse and verify_full_chain
    (its own role's signature check first, which rejects most mutants sooner)."""
    try:
        meta = parse(blob, Mode.FIXED_BINARY)
        verify_role_signatures(meta, state.metadata.root.body.roles[role])
        chain = MetadataSet(**{r.value: meta if r is role else state.metadata.by_role(r) for r in RoleKind})
        verify_full_chain(state.metadata.root, chain, now=state.clock)
    except AssuredError:
        return False
    return True


def test_fixed_binary_bit_flips_accept_no_mutant(binary_probe_set):
    state = binary_probe_set
    blobs = {role: fetch_metadata(state, role) for role in RoleKind}
    assert blobs[RoleKind.TARGETS][63] == 1  # the first record's token flag
    assert all(accepted(state, role, blob) for role, blob in blobs.items())
    mutants = [
        (role.value, bit)
        for role, blob in blobs.items()
        for bit in range(len(blob) * 8)
        if accepted(state, role, flip_bit(blob, bit))
    ]
    assert mutants == []


# --- JSON metadata: canonical bytes only, integers within their binary widths ---------


@pytest.fixture(scope="module")
def json_skeletons(binary_probe_set):
    """Each role of the probe set as canonical JSON, parsed into Python values."""
    return {
        role: json.loads(serialize_canonical(binary_probe_set.metadata.by_role(role), Mode.JSON))
        for role in RoleKind
    }


def canonical_dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


def test_reindented_timestamp_with_an_extra_key_is_rejected(binary_probe_set):
    state = binary_probe_set
    original = serialize_canonical(state.metadata.timestamp, Mode.JSON)
    obj = json.loads(original)
    extended = dict(obj, extra="x")
    probes = [json.dumps(extended, indent=2).encode(), canonical_dumps(extended), json.dumps(obj, indent=2).encode()]
    for probe in probes:
        assert json.loads(probe)["signatures"] == obj["signatures"]
        with pytest.raises(ParseError):
            parse(probe, Mode.JSON)
    assert parse(original, Mode.JSON) == state.metadata.timestamp


def _set(obj, path, value):
    """A deep copy of ``obj`` with the value at ``path`` (keys and indices) replaced."""
    copy = json.loads(json.dumps(obj))
    *parents, last = path
    target = copy
    for step in parents:
        target = target[step]
    target[last] = value
    return copy


@pytest.mark.parametrize(
    "role, path, value, position",
    [
        (RoleKind.TIMESTAMP, ("expires",), -1, "$.expires"),
        (RoleKind.TIMESTAMP, ("version",), 2**64, "$.version"),
        (RoleKind.TIMESTAMP, ("body", 0), -5, "$.body[0]"),
        (RoleKind.SNAPSHOT, ("body", 1), 2**64, "$.body[1]"),
        (RoleKind.TARGETS, ("body", 0, 2), 2**64, "$.body[0][2]"),
        (RoleKind.ROOT, ("body", "targets", 0), 2**32, "$.body.targets[0]"),
    ],
)
def test_json_integer_outside_its_binary_width_is_parse_error(json_skeletons, role, path, value, position):
    with pytest.raises(ParseError) as excinfo:
        parse(canonical_dumps(_set(json_skeletons[role], path, value)), Mode.JSON)
    assert excinfo.value.position == position


@pytest.mark.parametrize("length", [31, 33])
def test_token_digest_of_another_length_is_parse_error_at_its_position(binary_probe_set, json_skeletons, length):
    digest = bytes(range(length))
    forged = _set(json_skeletons[RoleKind.TARGETS], ("body", 0, 3), base64.b64encode(digest).decode())
    with pytest.raises(ParseError, match=f"expected 32 bytes, got {length}") as excinfo:
        parse(canonical_dumps(forged), Mode.JSON)
    assert excinfo.value.position == "$.body[0][3]"
    # fixed binary has no digest length: the decoder takes exactly 32 bytes
    # after the token flag, so the document cut after 31 ends inside the
    # digest, and after 33 the next field starts at the 33rd byte
    blob = fetch_metadata(binary_probe_set, RoleKind.TARGETS)
    at = 64  # the first record's token digest, after its flag
    assert blob[at - 1] == 1
    spliced = blob[:at] + digest + blob[at + 32 :]
    with pytest.raises(ParseError):
        parse(spliced, Mode.FIXED_BINARY)
    with pytest.raises(ParseError) as excinfo:
        parse(spliced[: at + length], Mode.FIXED_BINARY)
    position, field = (at, "token digest") if length == 31 else (at + 32, "target name length")
    assert str(excinfo.value) == f"truncated {field} (at {position})"


@pytest.mark.parametrize(
    "text",
    [
        '{"body":[["üüüü",x',
        '{"body":[["☃☃"],["é"]x',
        '{"body":[["üü"]],"role":"☃",x',
        '{"body":{"root":[2,["ü☃"]]x',
    ],
    ids=["list-item", "after-list-item", "fields-after-body", "root-document"],
)
def test_json_syntax_error_position_is_a_byte_offset(text):
    blob = text.encode("utf-8")
    with pytest.raises(ParseError, match="bad json") as excinfo:
        parse(blob, Mode.JSON)
    assert excinfo.value.position == blob.index(b"x")


def _paths(value, prefix=()):
    """Every position in a JSON value, containers and leaves alike."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-1, 0, 2**16, 2**32 - 1, 2**32, 2**64 - 1, 2**64])
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_json_values_in_a_valid_skeleton_only_parse_error(json_skeletons, data):
    role = data.draw(st.sampled_from(list(RoleKind)))
    skeleton = json_skeletons[role]
    path = data.draw(st.sampled_from([p for p in _paths(skeleton) if p]))
    blob = canonical_dumps(_set(skeleton, path, data.draw(JSON_VALUES)))
    try:
        meta = parse(blob, Mode.JSON)
    except ParseError:
        return
    signed_region_of(meta)
    assert parse(serialize_canonical(meta, Mode.FIXED_BINARY), Mode.FIXED_BINARY) == meta
    assert serialize_canonical(meta, Mode.JSON) == blob


# --- records encode themselves; parse reuses known records without changing a verdict ---


@given(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.binary(min_size=32, max_size=32),
    st.integers(0, 2**64 - 1),
    st.none() | st.binary(min_size=32, max_size=32),
)
@settings(max_examples=100, deadline=None)
def test_record_encodings_round_trip_in_both_modes(name, record_hash, size, token_digest):
    record = TargetRecord(name=name, hash=record_hash, size=size, token_digest=token_digest)
    meta = build_and_sign(TargetsBody(records=[record]), 2, 9, keypairs(b"t", 1))
    for mode in Mode:
        assert parse(serialize_canonical(meta, mode), mode) == meta


@pytest.fixture(scope="module", params=list(Mode), ids=lambda m: m.value)
def catalog_states(request, role_keys):
    """A repository in each mode with four records (three with tokens, one
    without), and the state after re-publishing one of them."""
    oem_key = crypto.signing_key_from_seed(bytes(range(32)))
    state = new_repository(
        root_keys=role_keys[RoleKind.ROOT],
        targets_keys=role_keys[RoleKind.TARGETS],
        snapshot_keys=role_keys[RoleKind.SNAPSHOT],
        timestamp_keys=role_keys[RoleKind.TIMESTAMP],
        mode=request.param,
    )
    for version, name in enumerate(("fw", "ünï", "zz"), start=2):
        artifact = bytes([version]) * 40
        token = issue_token(oem_key, artifact, Constraints(new_version=version))
        state = publish(state, name, serialize_envelope(build_envelope(token, artifact)))
    state = publish_vanilla(state, "plain", b"plain artifact")
    artifact = b"\x77" * 40
    token = issue_token(oem_key, artifact, Constraints(new_version=9))
    return state, publish(state, "ünï", serialize_envelope(build_envelope(token, artifact)))


def test_next_version_parses_equal_with_the_last_one_known(catalog_states):
    state, after = catalog_states
    known = parse(fetch_metadata(state, RoleKind.TARGETS), state.mode).body
    blob = fetch_metadata(after, RoleKind.TARGETS)
    meta = parse(blob, state.mode, known=known)
    assert meta == parse(blob, state.mode)
    assert serialize_canonical(meta, state.mode) == blob
    lent = [r.name for r in meta.body.records if r is known.find(r.name)]
    assert lent == (["fw", "plain", "zz"] if state.mode is Mode.JSON else [])  # binary always decodes


def parsed_or_rejected(blob, mode, known=None):
    try:
        return parse(blob, mode, known=known)
    except ParseError:
        return ParseError


def test_single_byte_mutants_get_the_same_verdict_with_known_records(catalog_states):
    state, _ = catalog_states
    blob = fetch_metadata(state, RoleKind.TARGETS)
    known = parse(blob, state.mode).body
    accepted = 0
    for at, original in enumerate(blob):
        for value in {0x00, 0x01, 0x02, 0x80, 0xFF, (original + 1) % 256, (original - 1) % 256} - {original}:
            mutant = blob[:at] + bytes([value]) + blob[at + 1 :]
            verdict = parsed_or_rejected(mutant, state.mode)
            assert parsed_or_rejected(mutant, state.mode, known) == verdict, (at, value)
            accepted += verdict is not ParseError
    assert accepted  # mutants inside a hash or a signature still parse


@pytest.mark.parametrize("alias", [b"true", b"1.0"])
def test_json_size_equal_to_a_known_one_only_by_python_equality_is_rejected(role_keys, alias):
    record = TargetRecord(name="one", hash=bytes(32), size=1)
    meta = build_and_sign(TargetsBody(records=[record]), 2, 1000, role_keys[RoleKind.TARGETS])
    blob = serialize_canonical(meta, Mode.JSON)
    known = parse(blob, Mode.JSON).body
    forged = blob.replace(b",1,null]", b"," + alias + b",null]")
    assert forged != blob and json.loads(forged)["body"][0] == json.loads(known.records[0].json_text)
    for lent in (None, known):
        with pytest.raises(ParseError):
            parse(forged, Mode.JSON, known=lent)


# --- lending by exact text: with or without known, the same value or the same error ---


def _outcome(blob, known=None):
    """The parsed value, or the ParseError's message with its position."""
    try:
        return parse(blob, Mode.JSON, known=known)
    except ParseError as exc:
        return str(exc)


def _record(name: str, tag: int) -> TargetRecord:
    """A record with a token for an even tag, a plain one for an odd tag."""
    if tag % 2:
        return TargetRecord(name=name, hash=bytes([tag]) * 32, size=tag)
    token = issue_token(crypto.signing_key_from_seed(bytes(range(32))), bytes([tag]) * 20, Constraints(new_version=tag + 1))
    digest = crypto.hash_data(token.raw)
    return TargetRecord(name=name, hash=token.artifact_hash, size=token.artifact_size, token_digest=digest)


def _catalog(role_keys, held_names, insert_names):
    """A held targets body of records with ``held_names``, its blob cut into
    the text before the records, the records and the text after them,
    records for edits (``insert_names``, and each name with another value),
    and a snapshot and a timestamp blob."""
    held = TargetsBody(records=[_record(name, tag) for tag, name in enumerate(held_names)])
    blob = serialize_canonical(build_and_sign(held, 3, 1000, role_keys[RoleKind.TARGETS]), Mode.JSON).decode()
    head = '{"body":['
    joined = ",".join(r.json_text for r in held.records)
    assert blob.startswith(head + joined + "]")
    inserts = [_record(name, 20 + i) for i, name in enumerate(insert_names)]
    names = [r.name for r in (*held.records, *inserts)]
    others = [
        serialize_canonical(build_and_sign(body, 2, 1000, role_keys[role]), Mode.JSON)
        for role, body in [(RoleKind.SNAPSHOT, SnapshotBody(1, 3)), (RoleKind.TIMESTAMP, TimestampBody(2, bytes(32)))]
    ]
    return SimpleNamespace(
        held=held,
        head=head,
        tail=blob[len(head) + len(joined) :],
        inserts=inserts,
        replacements={name: _record(name, 40 + i) for i, name in enumerate(names)},
        others=others,
    )


@pytest.fixture(scope="module")
def lending_catalog(role_keys):
    """Six held records (three blocks of isqrt(6) = 2) and five names to insert."""
    return _catalog(role_keys, ["b", "d/x", "f", "h", "ü", "z"], ["a", "c", "e", "y", "zz"])


BLOCK = 6  # isqrt(40)


@pytest.fixture(scope="module")
def block_catalog(role_keys):
    """40 held records: six full blocks of BLOCK and a partial one of four."""
    names = [f"n{i:02d}" for i in range(40)]
    assert len(names) // BLOCK == 6 and len(names) % BLOCK == 4
    return _catalog(role_keys, names, ["a", "n05x", "n06a", "zz"])


EDITS = ["none", "insert", "replace", "drop", "swap", "duplicate", "variant", "delimiter", "other-role"]


def _anywhere(n: int):
    return st.integers(0, n - 1)


def _block_edges(n: int):
    """The first and last index of each block of BLOCK, and the last index."""
    return st.sampled_from(sorted({n - 1} | {i for k in range(0, n, BLOCK) for i in (k, k + BLOCK - 1) if i < n}))


def _edited_blob(catalog, data, spots=_anywhere) -> bytes:
    """The held blob after one or two drawn edits of its list of records, at
    indices drawn from ``spots(n)`` for a list of n (n + 1 for an insert)."""
    items = [(r.name, r.json_text) for r in catalog.held.records]  # (name, text)
    ends = None  # the text after each item, once an edit changes one
    for edit in data.draw(st.lists(st.sampled_from(EDITS), min_size=1, max_size=2), label="edits"):
        if edit == "other-role":
            return data.draw(st.sampled_from(catalog.others))
        if edit == "insert":
            record = data.draw(st.sampled_from(catalog.inserts))
            items.insert(data.draw(spots(len(items) + 1), label="insert at"), (record.name, record.json_text))
        if edit in ("insert", "none") or not items:
            ends = None
            continue
        at = data.draw(spots(len(items)), label="at")
        name, text = items[at]
        if edit == "replace":
            items[at] = (name, catalog.replacements[name].json_text)
        elif edit == "drop":
            del items[at]
        elif edit == "swap":
            other = data.draw(st.integers(0, len(items) - 1))
            items[at], items[other] = items[other], items[at]
        elif edit == "duplicate":
            copy = data.draw(st.sampled_from([text, catalog.replacements[name].json_text]))
            items.insert(data.draw(st.integers(0, len(items))), (name, copy))
        elif edit == "variant":
            where = data.draw(st.integers(0, len(text)))
            quoted = json.dumps(name)
            items[at] = (name, data.draw(st.sampled_from([
                text[:where] + data.draw(st.sampled_from([" ", "\n", "\t"])) + text[where:],
                text.replace(quoted, quoted.replace(name[0], f"\\u{ord(name[0]):04x}", 1), 1),
                text.replace("/", "\\/", 1),
            ])))
        elif edit == "delimiter":
            ends = [","] * (len(items) - 1) + ["]"]
            bad = data.draw(st.sampled_from(["", " ", "x", "[", "}", '"', "0", ":", "\n", ";"]))
            ends[at] = data.draw(st.sampled_from([bad, bad + ends[at]]))
            continue
        ends = None  # an edit after a delimiter edit writes the list anew
    ends = ends or [","] * (len(items) - 1) + ["]"]
    body = "".join(text + end for (_, text), end in zip(items, ends)) if items else "]"
    return (catalog.head + body + catalog.tail[1:]).encode("utf-8")


def _assert_lends_exactly_the_unchanged(known, blob):
    """The same value or error as a parse without ``known``, and the lent
    records are exactly those whose text is the known text of their name."""
    outcome = _outcome(blob, known)
    assert outcome == _outcome(blob)
    if isinstance(outcome, RoleMetadata) and outcome.role is RoleKind.TARGETS:
        for record in outcome.body.records:
            prior = known.find(record.name)
            assert (record is prior) == (prior is not None and prior.json_text == record.json_text), record.name


@given(data=st.data())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_lending_by_text_keeps_every_value_and_every_error(lending_catalog, data):
    _assert_lends_exactly_the_unchanged(lending_catalog.held, _edited_blob(lending_catalog, data))


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_lending_by_blocks_keeps_every_value_and_every_error(block_catalog, data):
    """Edits at the edges of the blocks a whole-block comparison lends: the
    first or last record of a block, the partial tail, and inserts before
    the first record and after the last."""
    _assert_lends_exactly_the_unchanged(block_catalog.held, _edited_blob(block_catalog, data, _block_edges))


def test_the_edits_reach_both_verdicts(lending_catalog):
    """The property's edits are not all rejected: inserted, replaced and
    swapped records parse and lend exactly the records whose text is
    unchanged, the two other roles parse as themselves, and a space after
    a known record's text is the error a full decode reports."""
    catalog = lending_catalog
    known = catalog.held
    texts = [r.json_text for r in known.records]

    def blob(items):
        return (catalog.head + ",".join(items) + catalog.tail).encode("utf-8")

    edited = [catalog.inserts[0].json_text, *texts[:3], catalog.replacements["h"].json_text, *texts[5:]]
    meta = parse(blob(edited), Mode.JSON, known=known)
    assert [r.name for r in meta.body.records if r is known.find(r.name)] == ["b", "d/x", "f", "z"]
    meta = parse(blob([texts[1], texts[0], *texts[2:]]), Mode.JSON, known=known)
    assert all(r is known.find(r.name) for r in meta.body.records)
    for other, role in zip(catalog.others, [RoleKind.SNAPSHOT, RoleKind.TIMESTAMP]):
        assert parse(other, Mode.JSON, known=known).role is role
    spaced = blob([texts[0] + " ", *texts[1:]])
    with pytest.raises(ParseError, match="Expecting ',' or ']'") as excinfo:
        parse(spaced, Mode.JSON, known=known)
    assert excinfo.value.position == len(catalog.head) + len(texts[0])


def test_a_sync_decodes_only_the_replaced_record(role_keys, monkeypatch):
    """1000 unchanged records are the known objects; one record, the replaced
    one, and the fields outside the body are all that is decoded."""
    keys = role_keys[RoleKind.TARGETS]
    held = [TargetRecord(name=f"r{i:04d}", hash=crypto.hash_data(b"%d" % i), size=i) for i in range(1001)]
    known = parse(serialize_canonical(build_and_sign(TargetsBody(held), 2, 1000, keys), Mode.JSON), Mode.JSON).body
    replaced = TargetRecord(name="r0500", hash=bytes(32), size=7)
    blob = serialize_canonical(
        build_and_sign(TargetsBody(held[:500] + [replaced] + held[501:]), 3, 1000, keys), Mode.JSON
    )
    decoded = []

    class CountingDecoder:
        def raw_decode(self, text, at=0):
            value, end = json.JSONDecoder().raw_decode(text, at)
            decoded.append(value if isinstance(value, list) else sorted(value))
            return value, end

    monkeypatch.setattr(metadata, "_DECODER", CountingDecoder())
    meta = parse(blob, Mode.JSON, known=known)
    assert sum(r is known.find(r.name) for r in meta.body.records) == 1000
    assert decoded == [json.loads(replaced.json_text), ["expires", "role", "signatures", "version"]]
    assert meta.body.records[500] == replaced


def _catalog_records(count: int) -> list[TargetRecord]:
    """``count`` records named catalog-NNNN and then fw, as a large catalog
    and its one release sort."""
    records = [TargetRecord(name=f"catalog-{i:04d}", hash=crypto.hash_data(b"%d" % i), size=i) for i in range(count)]
    return [*records, TargetRecord(name="fw", hash=crypto.hash_data(b"fw"), size=2)]


@pytest.mark.parametrize(
    "index",
    [1000, 31 * 16, 31 * 17 - 1],  # b = isqrt(1001) = 31
    ids=["fw-in-the-partial-tail", "first-of-a-block", "last-of-a-block"],
)
def test_a_large_sync_lends_every_unchanged_record_around_a_block_edge(role_keys, monkeypatch, index):
    """1001 records, one replaced: the other 1000 are the known objects, and
    only the replaced record and the fields outside the body are decoded."""
    keys = role_keys[RoleKind.TARGETS]
    held = _catalog_records(1000)
    known = parse(serialize_canonical(build_and_sign(TargetsBody(held), 2, 1000, keys), Mode.JSON), Mode.JSON).body
    replaced = TargetRecord(name=held[index].name, hash=bytes(32), size=7)
    blob = serialize_canonical(
        build_and_sign(TargetsBody([*held[:index], replaced, *held[index + 1 :]]), 3, 1000, keys), Mode.JSON
    )
    decoded = []
    decoder = json.JSONDecoder()

    def raw_decode(text, at=0):
        value, end = decoder.raw_decode(text, at)
        decoded.append(value)
        return value, end

    monkeypatch.setattr(metadata, "_DECODER", SimpleNamespace(raw_decode=raw_decode))
    meta = parse(blob, Mode.JSON, known=known)
    lent = [i for i, r in enumerate(meta.body.records) if r is known.find(r.name)]
    assert lent == [i for i in range(1001) if i != index]
    assert decoded[0] == json.loads(replaced.json_text) and len(decoded) == 2
    assert meta.body.records[index] == replaced and meta == parse(blob, Mode.JSON)


# --- derived bodies: carried blocks, the same body as one built from scratch ---


def _cheap(name: str, tag: int) -> TargetRecord:
    """A record without signing: a token digest for an even tag, none for an odd one."""
    digest = None if tag % 2 else crypto.hash_data(b"token %d" % tag)
    return TargetRecord(name=name, hash=crypto.hash_data(b"%d" % tag), size=tag, token_digest=digest)


def _spots(n: int):
    """An index in 0..n-1: either end, the first or last of a block of
    isqrt(n), or any other."""
    size = math.isqrt(n) or 1
    edges = {0, n - 1} | {i for k in range(0, n, size) for i in (k, k + size - 1) if i < n}
    return st.one_of(st.sampled_from(sorted(edges)), st.integers(0, n - 1))


def _targets(body: TargetsBody) -> RoleMetadata:
    return RoleMetadata(role=RoleKind.TARGETS, version=2, expires=1000, body=body, signatures=[])


def _assert_built_from_scratch(body: TargetsBody, names) -> None:
    """``body`` has the records, name index and encodings of a body built
    from its records alone; ``names`` are names to look up besides its own."""
    scratch = TargetsBody(body.records)
    assert body == scratch
    assert all(body.find(name) is scratch.find(name) for name in {*names, *(r.name for r in body.records)})
    meta, scratch_meta = _targets(body), _targets(scratch)
    assert signed_region_of(meta) == signed_region_of(scratch_meta)
    for mode in Mode:
        assert serialize_canonical(meta, mode) == serialize_canonical(scratch_meta, mode)


@given(data=st.data())
@settings(max_examples=250, deadline=None, derandomize=True)
def test_a_derived_body_is_the_body_built_from_scratch(data):
    """Replaces, inserts and drops at either end, at block edges and inside
    blocks, from 0 or 1 records and across a square (15 -> 16 -> 17,
    24 -> 25 -> 26): derived as a publish derives it, and as a parse that
    knows the previous body derives it, the body is the one built from
    scratch, a parse in either mode gets the same value with or without the
    previous body, and fresh() names exactly the records that are new."""
    tags = itertools.count()
    count = data.draw(st.sampled_from([0, 1, 2, 4, 15, 16, 24, 25, 35]), label="records")
    body = TargetsBody([_cheap(f"r{i:03d}", next(tags)) for i in range(count)])
    names = {r.name for r in body.records}
    for op in data.draw(st.lists(st.sampled_from(["replace", "insert", "drop"]), min_size=1, max_size=4), label="ops"):
        records = list(body.records)
        if op == "insert":
            at = data.draw(_spots(len(records) + 1), label="insert at")
            records.insert(at, _cheap(f"i{next(tags)}", next(tags)))
            changed = range(at, len(records))
        elif not records:
            continue
        elif op == "replace":
            at = data.draw(_spots(len(records)), label="replace at")
            records[at] = _cheap(records[at].name, next(tags))
            changed = [at]
        else:
            at = data.draw(_spots(len(records)), label="drop at")
            del records[at]
            changed = range(at, len(records))
        names |= {r.name for r in records}
        derived = TargetsBody(records, body, changed)
        _assert_built_from_scratch(derived, names)
        parsed = {mode: parse(serialize_canonical(_targets(derived), mode), mode, known=body) for mode in Mode}
        for mode, meta in parsed.items():
            assert meta == parse(serialize_canonical(_targets(derived), mode), mode)
            _assert_built_from_scratch(meta.body, names)
        for child in (derived, parsed[Mode.JSON].body):
            assert child.fresh(body) == [r for r in child.records if r is not body.find(r.name)]
        body = derived


@pytest.mark.parametrize("derive", ["publish", "parse"])
def test_a_one_record_replace_carries_every_other_block(role_keys, derive):
    """40 records are seven blocks of isqrt(40) = 6; replacing record 20
    re-joins block 3 alone, and the other six are the parent's objects. A
    repository joins no text block until the targets are served as JSON."""
    if derive == "publish":
        state = new_repository(*(role_keys[role] for role in RoleKind))
        for i in range(40):
            state = publish_vanilla(state, f"r{i:03d}", b"%d" % i)
        parent = state.metadata.targets.body
        no_text = publish_vanilla(state, "r020", b"").metadata.targets.body
        assert not any("text" in vars(block) for body in (parent, no_text) for block in body._blocks)
        fetch_metadata(state, RoleKind.TARGETS)
        child = publish_vanilla(state, "r020", b"new").metadata.targets.body
    else:
        parent = TargetsBody([_cheap(f"r{i:03d}", i) for i in range(40)])
        records = [*parent.records[:20], _cheap("r020", 99), *parent.records[21:]]
        child = parse(serialize_canonical(_targets(TargetsBody(records)), Mode.JSON), Mode.JSON, known=parent).body
    assert [r is parent.records[i] for i, r in enumerate(child.records)] == [i != 20 for i in range(40)]
    assert [child._blocks[k].text is parent._blocks[k].text for k in range(7)] == [k != 3 for k in range(7)]
    assert [child._blocks[k].binary is parent._blocks[k].binary for k in range(7)] == [k != 3 for k in range(7)]
    assert child.find("r020") is child.records[20] and parent.find("r020") is parent.records[20]
    assert child.fresh(parent) == [child.records[20]]


def test_a_text_block_joined_once_serves_every_body_that_shares_it(role_keys):
    """40 records served as JSON, then two publishes that are never served
    (r020 in block 3, r030 in block 5), then a serve: the last body joins
    only the texts of blocks 3 and 5, and shares the first body's text of
    every other block, though the body in between never joined one."""
    state = new_repository(*(role_keys[role] for role in RoleKind))
    for i in range(40):
        state = publish_vanilla(state, f"r{i:03d}", b"%d" % i)
    fetch_metadata(state, RoleKind.TARGETS)
    first = state.metadata.targets.body
    state = publish_vanilla(state, "r020", b"new")
    between = state.metadata.targets.body
    state = publish_vanilla(state, "r030", b"new")
    assert not any("text" in vars(block) for block in between._blocks if block not in first._blocks)
    fetch_metadata(state, RoleKind.TARGETS)
    last = state.metadata.targets.body
    assert [last._blocks[k].text is first._blocks[k].text for k in range(7)] == [k not in (3, 5) for k in range(7)]


# --- the targets signed region: the record count and one digest per block ------------


def test_the_targets_region_is_the_count_and_the_block_digests():
    """Ten records are blocks of isqrt(10) = 3 (3, 3, 3 and 1): the region is
    the header, the u16 count and each block's SHA-256, while the
    fixed-binary document carries the records themselves. No records: the
    count alone, the region the empty list has always had."""
    records = [_cheap(f"r{i:03d}", i) for i in range(10)]
    meta = _targets(TargetsBody(records))
    header = struct.pack(">BQQ", metadata.ROLE_TAGS[RoleKind.TARGETS], 2, 1000)
    digests = [crypto.hash_data(b"".join(r.binary for r in records[k : k + 3])) for k in range(0, 10, 3)]
    assert signed_region_of(meta) == header + b"\x00\x0a" + b"".join(digests)
    assert serialize_canonical(meta, Mode.FIXED_BINARY) == header + b"\x00\x0a" + b"".join(r.binary for r in records) + b"\x00\x00"
    assert signed_region_of(_targets(TargetsBody())) == header + b"\x00\x00"


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_one_changed_field_breaks_the_targets_signatures(role_keys, data):
    """A signed body of 1 to 40 records, and a body derived from it with one
    field of one record changed, at a block edge or inside a block: the
    signatures do not cover the derived body, nor what either mode's
    document of it parses to with the signed body known (a JSON parse lends
    the other blocks, digests and all)."""
    keys = role_keys[RoleKind.TARGETS]
    authorized = RoleKeys(threshold=2, keys=tuple(k.public for k in keys))
    count = data.draw(st.integers(1, 40), label="records")
    signed = build_and_sign(TargetsBody([_cheap(f"r{i:03d}", i) for i in range(count)]), 2, 1000, keys)
    verify_role_signatures(signed, authorized)
    at = data.draw(_spots(count), label="at")
    record = signed.body.records[at]
    field = data.draw(st.sampled_from(["name", "hash", "size", "token_digest"]), label="field")
    bit = data.draw(st.integers(0, 255), label="bit")
    if field == "name":
        value = record.name + data.draw(st.sampled_from(["~", "/", "ü"]))
    elif field == "hash":
        value = flip_bit(record.hash, bit)
    elif field == "size":
        value = record.size ^ (1 << bit % 64)
    else:
        value = crypto.hash_data(b"forged") if record.token_digest is None else data.draw(
            st.sampled_from([None, flip_bit(record.token_digest, bit)])
        )
    records = list(signed.body.records)
    records[at] = dataclasses.replace(record, **{field: value})
    forged = dataclasses.replace(signed, body=TargetsBody(records, signed.body, [at]))
    with pytest.raises(ThresholdNotMet):
        verify_role_signatures(forged, authorized)
    step = math.isqrt(count)
    for mode in Mode:
        parsed = parse(serialize_canonical(forged, mode), mode, known=signed.body)
        assert parsed == forged
        if mode is Mode.JSON:
            # a renamed record reads as an insert, so the blocks after it are decoded
            lent = [block is signed.body._blocks[k] for k, block in enumerate(parsed.body._blocks)]
            assert lent == [k < at // step or k > at // step and field != "name" for k in range(len(lent))]
        with pytest.raises(ThresholdNotMet):
            verify_role_signatures(parsed, authorized)


def _token_envelope(name: str, version: int) -> bytes:
    """A 256-byte artifact and its OEM token, as the catalog workload publishes them."""
    artifact = crypto.hash_data(b"%s %d" % (name.encode(), version)) * 8
    token = issue_token(crypto.signing_key_from_seed(bytes(range(32))), artifact, Constraints(device_model=8, new_version=version))
    return serialize_envelope(build_envelope(token, artifact))


@pytest.fixture(scope="module")
def large_catalog(role_keys):
    """A repository with no records, then with one, then with 1000, each
    published with its OEM token."""
    state = new_repository(*(role_keys[role] for role in RoleKind))
    states = {0: state}
    for i in range(1000):
        state = publish(state, f"catalog-{i:04d}", _token_envelope(f"catalog-{i:04d}", 1))
        states.setdefault(1, state)
    states[1000] = state
    return states


def _synced(state) -> tuple[LocalRepoPort, Controller]:
    repo = LocalRepoPort(state)
    controller = Controller(trusted_root=state.metadata.root, mode=Mode.JSON, rng=random.Random(1))
    assert len(controller.sync(repo)) == len(state.metadata.targets.body.records)
    return repo, controller


# the byte length of each document, per record count, role and mode, taken
# from the tree whose targets signatures covered the records themselves: a
# signature is 64 bytes whatever it covers
DOCUMENT_SIZES = {  # (JSON, fixed binary)
    0: {"root": (717, 427), "targets": (374, 213), "snapshot": (225, 131), "timestamp": (270, 155)},
    1: {"root": (717, 427), "targets": (488, 300), "snapshot": (225, 131), "timestamp": (270, 155)},
    1001: {"root": (717, 427), "targets": (115481, 87290), "snapshot": (231, 131), "timestamp": (276, 155)},
}


def test_a_catalog_round_keeps_its_sizes_and_counts(large_catalog, monkeypatch):
    """A catalog-1k round (fw released into 1000 records, then a sync) makes
    5 signatures, the two targets ones over 1075 bytes (the header, the
    count and 33 digests), and 6 verifications; every document keeps its
    size at 0, 1 and 1001 records."""
    repo, controller = _synced(large_catalog[1000])
    sign, signed = crypto.sign, []

    def counting_sign(key, message):
        signed.append(len(message))
        return sign(key, message)

    monkeypatch.setattr(crypto, "sign", counting_sign)
    repo.publish("fw", _token_envelope("fw", 2))
    verifications = crypto.VERIFY_COUNTER.read()
    assert [item.name for item in controller.sync(repo)] == ["fw"]
    assert crypto.VERIFY_COUNTER.read() - verifications == 6
    # the token, targets twice, snapshot, timestamp
    assert signed == [72, 17 + 2 + 33 * 32, 17 + 2 + 33 * 32, 17 + 16, 17 + 8 + 32]
    sizes = {
        count: {
            role.value: tuple(len(state.metadata.by_role(role).canonical(mode)) for mode in (Mode.JSON, Mode.FIXED_BINARY))
            for role in RoleKind
        }
        for count, state in [(0, large_catalog[0]), (1, large_catalog[1]), (1001, repo.state)]
    }
    assert sizes == DOCUMENT_SIZES


def test_a_large_sync_hashes_only_the_changed_block(large_catalog, monkeypatch):
    """1001 records held, catalog-0500 republished: the synced body's blocks
    but block 16 (of isqrt(1001) = 31 records) are the held body's objects,
    whose digests verifying it computed, and block 16's is the one block
    digest the sync computes."""
    repo, controller = _synced(large_catalog[1000])
    repo.publish("fw", _token_envelope("fw", 2))
    controller.sync(repo)
    held = controller.trust.held.targets.body
    assert len(held._blocks) == 33 and all("digest" in vars(block) for block in held._blocks)
    repo.publish("catalog-0500", _token_envelope("catalog-0500", 2))
    hash_data, hashed = crypto.hash_data, []

    def counting_hash(data):
        hashed.append(data)
        return hash_data(data)

    monkeypatch.setattr(crypto, "hash_data", counting_hash)
    assert [item.name for item in controller.sync(repo)] == ["catalog-0500"]
    body = controller.trust.held.targets.body
    assert [block is held._blocks[k] for k, block in enumerate(body._blocks)] == [k != 16 for k in range(33)]
    assert [k for k, block in enumerate(body._blocks) if block.binary in hashed] == [16]
