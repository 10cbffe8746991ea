"""Repository state transitions, the untrusted mirror over a repository port,
and the on-disk layout."""

import hashlib
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assured import crypto
from assured.authorization import (
    TOKEN_LEN,
    AuthorizationToken,
    Constraints,
    build_envelope,
    encode_token,
    issue_token,
    parse_envelope,
    serialize_envelope,
)
from assured import metadata, repository
from assured.errors import BindingMismatch, Expired, NotFound, ParseError, PublishRejected, VersionRollback
from assured.metadata import (
    Mode,
    RoleKind,
    RoleMetadata,
    TargetRecord,
    TargetsBody,
    TrustedState,
    parse,
    serialize_canonical,
    verify_full_chain,
)
from assured.harness import Mirror
from assured.repository import (
    LIFETIMES,
    advance_clock,
    fetch_envelope,
    fetch_metadata,
    load_repository,
    new_repository,
    publish,
    publish_vanilla,
    refresh_timestamp,
    rotate_root,
    save_repository,
)
from assured.transport import LocalRepoPort


def seeded_keys(label: bytes, count: int):
    return [crypto.signing_key_from_seed(label * 16 + bytes([i]) * 16) for i in range(count)]


@pytest.fixture
def fresh_repo():
    return new_repository(
        root_keys=seeded_keys(b"r", 2),
        targets_keys=seeded_keys(b"t", 2),
        snapshot_keys=seeded_keys(b"s", 1),
        timestamp_keys=seeded_keys(b"w", 1),
    )


@pytest.fixture
def envelope(oem_key):
    artifact = b"\xaa" * 200
    token = issue_token(oem_key, artifact, Constraints(new_version=2))
    return serialize_envelope(build_envelope(token, artifact))


def versions(state):
    return {role.value: state.metadata.by_role(role).version for role in RoleKind}


def test_fresh_repo_starts_at_version_one(fresh_repo):
    assert versions(fresh_repo) == {"root": 1, "targets": 1, "snapshot": 1, "timestamp": 1}


def test_publish_bumps_three_roles(fresh_repo, envelope):
    state = publish(fresh_repo, "fw", envelope)
    assert versions(state) == {"root": 1, "targets": 2, "snapshot": 2, "timestamp": 2}
    body = state.metadata.targets.body
    assert isinstance(body, TargetsBody) and len(body.records) == 1


def test_published_record_digest_is_sha256_of_the_envelopes_136_token_bytes(fresh_repo, envelope):
    state = publish(fresh_repo, "fw", envelope)
    token_bytes = envelope[4 : 4 + TOKEN_LEN]
    assert encode_token(parse_envelope(fetch_envelope(state, "fw")).token) == token_bytes
    for mode in Mode:
        targets = parse(serialize_canonical(state.metadata.targets, mode), mode)
        assert targets.body.find("fw").token_digest == hashlib.sha256(token_bytes).digest()


def test_publish_keeps_every_unchanged_record_object(fresh_repo, oem_key):
    state = fresh_repo
    for name in ("c", "a", "e"):
        state = publish_vanilla(state, name, name.encode())
    for name in ("b", "c", "f"):  # insert, replace, append
        parent = state
        state = publish_vanilla(state, name, b"new " + name.encode())
        records = state.metadata.targets.body.records
        assert [r.name for r in records] == sorted(r.name for r in records)
        unchanged = [r for r in records if r.name != name]
        assert all(r is parent.metadata.targets.body.find(r.name) for r in unchanged)
        assert len(unchanged) == len(parent.metadata.targets.body.records) - (name == "c")


@pytest.mark.parametrize(
    "name",
    ["../escaped", "a/b", "/abs", "nul\x00name", "n" * 252, "\u00e9" * 126],
    ids=["dotdot", "slash", "absolute", "nul", "252-ascii-bytes", "252-utf8-bytes"],
)
def test_publish_rejects_a_name_with_a_path_separator_or_nul(monkeypatch, fresh_repo, envelope, name):
    def no_signing(*args):
        raise AssertionError("signed before the name was checked")

    monkeypatch.setattr(repository, "build_and_sign", no_signing)
    with pytest.raises(PublishRejected):
        publish(fresh_repo, name, envelope)
    with pytest.raises(PublishRejected):
        publish_vanilla(fresh_repo, name, b"plain")


def test_saved_repository_keeps_every_envelope(tmp_path, fresh_repo, envelope):
    state = fresh_repo
    names = ["fw", "..", ".hidden", "a\\b", "ünï", " spaced", "n" * 251, "\u00e9" * 125 + "n"]
    for name in names:
        state = publish(state, name, envelope)
    save_repository(state, str(tmp_path / "repo"))
    assert sorted(os.listdir(tmp_path)) == ["repo"]
    loaded = load_repository(str(tmp_path / "repo"))
    assert loaded.envelopes == state.envelopes
    for name in names:
        assert fetch_envelope(loaded, name) == envelope


def test_saved_repository_bytes_are_pinned(tmp_path, fresh_repo, envelope):
    # signatures come from each key pair's once-loaded private key; Ed25519 is
    # deterministic, so the files are exactly those of a key loaded per signature.
    # The snapshot pins the targets version, not its bytes, so a change of the
    # record format or of the targets signed region moves targets.2.meta alone
    save_repository(publish(fresh_repo, "fw", envelope), str(tmp_path))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in os.listdir(tmp_path)
        if name.endswith(".meta") or name == "private.bin"
    }
    assert digests == {
        "private.bin": "b240eb11a79c6860d9dacc89ae88e35b2e0bc5f77920aaf28c088962a15f3083",
        "root.1.meta": "1a241f34503b0b6662ec633a4b9b6a5cea143610093fef0acc4effe7a6db4552",
        "snapshot.meta": "41e800cb4124a7f1096b804043686e21fd4494c283da4b3575399adcedc43c87",
        "targets.2.meta": "a41a9bf428ed030d5ee88a5f5887d2f8004c476e488b35214a05058388b5ee85",
        "timestamp.meta": "446991fac7fd474c74e72e107a5266d05f28eeb232c7874ba2d9cbd96466f5c6",
    }


def test_publish_inconsistent_token_rejected(fresh_repo, oem_key):
    artifact = b"\xbb" * 100
    token = issue_token(oem_key, artifact, Constraints(new_version=2))
    tampered = serialize_envelope(build_envelope(token, b"\xcc" * 100))
    with pytest.raises(PublishRejected):
        publish(fresh_repo, "fw", tampered)


def test_publish_rejects_a_token_whose_size_alone_does_not_match(fresh_repo, oem_key):
    artifact = b"\xbb" * 100
    genuine = issue_token(oem_key, artifact, Constraints(new_version=2))
    # the artifact-size field (bytes 32..40) alone altered; the hash still matches
    token = AuthorizationToken(genuine.raw[:32] + (len(artifact) + 1).to_bytes(8, "big") + genuine.raw[40:])
    with pytest.raises(PublishRejected, match="token size does not match artifact"):
        publish(fresh_repo, "fw", serialize_envelope(build_envelope(token, artifact)))


def test_publish_garbage_rejected(fresh_repo):
    with pytest.raises(PublishRejected):
        publish(fresh_repo, "fw", b"not an envelope")


def test_republish_same_name_single_entry(fresh_repo, oem_key):
    state = fresh_repo
    for version in (2, 3):
        artifact = bytes([version]) * 64
        token = issue_token(oem_key, artifact, Constraints(new_version=version))
        state = publish(state, "fw", serialize_envelope(build_envelope(token, artifact)))
    body = state.metadata.targets.body
    assert len(body.records) == 1
    assert body.records[0].token_digest == crypto.hash_data(token.raw)  # the version-3 token
    assert state.metadata.targets.version == 3


def test_honest_store_always_verifies(fresh_repo, envelope):
    state = publish(fresh_repo, "fw", envelope)
    state = refresh_timestamp(state)
    state = advance_clock(state, 5)
    state = refresh_timestamp(state)
    blobs = {role: fetch_metadata(state, role) for role in RoleKind}
    metadata_set = type(state.metadata)(
        **{role.value: parse(blobs[role], state.mode) for role in RoleKind}
    )
    verify_full_chain(metadata_set.root, metadata_set, now=state.clock)


def test_refresh_only_touches_timestamp(fresh_repo):
    state = refresh_timestamp(fresh_repo)
    assert versions(state) == {"root": 1, "targets": 1, "snapshot": 1, "timestamp": 2}


@given(st.lists(st.sampled_from(["publish", "refresh", "advance"]), max_size=12))
@settings(max_examples=25, deadline=None)
def test_honest_store_verifies_after_any_mutation_sequence(ops):
    state = new_repository(
        root_keys=seeded_keys(b"r", 2),
        targets_keys=seeded_keys(b"t", 2),
        snapshot_keys=seeded_keys(b"s", 1),
        timestamp_keys=seeded_keys(b"w", 1),
    )
    for i, op in enumerate(ops):
        if op == "publish":
            state = publish_vanilla(state, f"fw{i}", bytes([i]) * 32)
        elif op == "refresh":
            state = refresh_timestamp(state)
        else:
            # stay inside the freshness window the heartbeat provides
            state = refresh_timestamp(advance_clock(state, 3))
    blobs = {role: fetch_metadata(state, role) for role in RoleKind}
    metadata_set = type(state.metadata)(
        **{role.value: parse(blobs[role], state.mode) for role in RoleKind}
    )
    verify_full_chain(metadata_set.root, metadata_set, now=state.clock)


@pytest.mark.parametrize("ticks", [-1, -20, 2**64, repository._CLOCK_MAX + 1])
def test_advance_clock_refuses_a_clock_an_expiry_could_not_follow(fresh_repo, ticks, tmp_path):
    with pytest.raises(ParseError, match="ticks is outside"):
        advance_clock(fresh_repo, ticks)
    # at the highest clock it accepts, every expiry signed still fits its u64
    state = advance_clock(fresh_repo, repository._CLOCK_MAX)
    state = publish_vanilla(refresh_timestamp(state), "fw", b"\x01" * 8)
    state = rotate_root(state, seeded_keys(b"R", 2))
    save_repository(state, str(tmp_path))
    assert load_repository(str(tmp_path)).metadata == state.metadata


def test_expiry_then_refresh(fresh_repo):
    state = advance_clock(fresh_repo, LIFETIMES[RoleKind.TIMESTAMP] + 1)
    metadata_set = state.metadata
    with pytest.raises(Expired):
        verify_full_chain(metadata_set.root, metadata_set, now=state.clock)
    state = refresh_timestamp(state)
    verify_full_chain(state.metadata.root, state.metadata, now=state.clock)


def test_fetch_envelope_of_an_unknown_name(fresh_repo):
    with pytest.raises(NotFound):
        fetch_envelope(fresh_repo, "ghost")


@pytest.fixture
def mirrored(fresh_repo, envelope):
    """A repository port with "fw" published, and a mirror over it built
    before the publish."""
    port = LocalRepoPort(fresh_repo)
    mirror = Mirror(port)
    port.publish("fw", envelope)
    return port, mirror


class TestMirror:
    def test_none_is_identity(self, mirrored, envelope):
        port, mirror = mirrored
        assert mirror.fetch_envelope("fw") == envelope
        assert mirror.fetch_roles(list(RoleKind)) == port.fetch_roles(list(RoleKind))

    def test_flip_bit(self, mirrored, envelope):
        port, mirror = mirrored
        mirror.set_policy("flip-bit", 100)
        served = mirror.fetch_envelope("fw")
        assert served != envelope
        assert len(served) == len(envelope)
        assert port.fetch_envelope("fw") == envelope

    def test_substitute_artifact_keeps_token(self, mirrored, envelope):
        _, mirror = mirrored
        mirror.set_policy("substitute")
        served = parse_envelope(mirror.fetch_envelope("fw"))
        original = parse_envelope(envelope)
        assert served.token == original.token
        assert served.artifact != original.artifact

    def test_drop_envelope(self, mirrored):
        _, mirror = mirrored
        mirror.set_policy("drop")
        with pytest.raises(NotFound):
            mirror.fetch_envelope("fw")

    def test_unknown_name(self, mirrored):
        _, mirror = mirrored
        with pytest.raises(NotFound):
            mirror.fetch_envelope("ghost")

    def test_unknown_policy_is_refused(self, mirrored):
        _, mirror = mirrored
        with pytest.raises(ValueError):
            mirror.set_policy("freeze")
        assert mirror.policy == "none"

    def test_stale_serves_the_set_it_was_built_over(self, mirrored, envelope):
        port, mirror = mirrored
        for i in range(5):
            port.publish_vanilla(f"plain{i}", bytes([i]) * 32)
            port.refresh()
        port.publish("fw", envelope)
        mirror.set_policy("stale")
        served = dict(zip(RoleKind, mirror.fetch_roles(list(RoleKind))))
        assert list(served.values()) != port.fetch_roles(list(RoleKind))
        # the full path's three roles, asked for in one call, come from the same set
        roles = [RoleKind.ROOT, RoleKind.TARGETS, RoleKind.SNAPSHOT]
        assert mirror.fetch_roles(roles) == [served[role] for role in roles]
        stale = {role: parse(blob, port.mode()) for role, blob in served.items()}
        assert {role: meta.version for role, meta in stale.items()} == dict.fromkeys(RoleKind, 1)
        # a client that saw the publishes detects the rollback
        state = port.state
        with pytest.raises(VersionRollback):
            verify_full_chain(
                state.metadata.root,
                type(state.metadata)(**{role.value: meta for role, meta in stale.items()}),
                now=state.clock,
                last_seen={role: state.metadata.by_role(role).version for role in RoleKind},
            )


def test_rotate_root_re_anchors(fresh_repo, envelope):
    state = publish(fresh_repo, "fw", envelope)
    new_keys = seeded_keys(b"R", 2)
    rotated = rotate_root(state, new_keys)
    assert rotated.metadata.root.version == 2
    # old anchor accepts the new root (signed by outgoing keys too)
    verify_full_chain(state.metadata.root, rotated.metadata, now=0)


def test_a_rotated_set_with_the_old_root_is_refused_by_the_snapshots_root_pin(fresh_repo, envelope):
    """Root v1 in place of v2 still meets the anchor's threshold, and the
    other roles' keys did not rotate: only the snapshot, which pins root
    version 2, tells the sets apart."""
    state = publish(fresh_repo, "fw", envelope)
    rotated = rotate_root(state, seeded_keys(b"R", 2))
    stale = replace(rotated.metadata, root=state.metadata.root)
    with pytest.raises(BindingMismatch, match="root: snapshot pins root version 2, got 1"):
        verify_full_chain(state.metadata.root, stale, now=0)
    client = TrustedState(state.metadata.root)
    blobs = {role: serialize_canonical(stale.by_role(role), state.mode) for role in RoleKind}
    with pytest.raises(BindingMismatch, match="root: snapshot pins root version 2, got 1"):
        client.update(lambda roles: [blobs[role] for role in roles], state.mode, now=0)
    assert (client.root, client.last_seen, client.held) == (state.metadata.root, {}, None)


def test_root_keys_sign_only_new_roots(tmp_path, fresh_repo, envelope):
    """Root keys stay offline: every targets, snapshot and timestamp signature
    made after the first is by that role's own keys; only rotate_root signs
    as root, with the outgoing root keys and then the incoming ones. A saved
    and loaded state signs the same way."""

    def kids(keys):
        return [crypto.key_id(k.public) for k in keys]

    def signers(meta):
        return [kid for kid, _ in meta.signatures]

    own = {
        RoleKind.TARGETS: kids(seeded_keys(b"t", 2)),
        RoleKind.SNAPSHOT: kids(seeded_keys(b"s", 1)),
        RoleKind.TIMESTAMP: kids(seeded_keys(b"w", 1)),
    }
    steps = [
        lambda s: publish(s, "fw", envelope),
        lambda s: publish_vanilla(s, "plain", b"plain"),
        refresh_timestamp,
        lambda s: refresh_timestamp(advance_clock(s, 5)),
    ]

    def run(state):
        for step in steps:
            after = step(state)
            assert after.metadata.root is state.metadata.root
            for role, expected in own.items():
                if after.metadata.by_role(role) is not state.metadata.by_role(role):
                    assert signers(after.metadata.by_role(role)) == expected, role
            state = after
        return state

    def rotate(state, old, new):
        rotated = rotate_root(state, new)
        assert signers(rotated.metadata.root) == kids(old) + kids(new)
        for role in (RoleKind.SNAPSHOT, RoleKind.TIMESTAMP):
            assert signers(rotated.metadata.by_role(role)) == own[role], role
        return rotated

    rotated = rotate(run(fresh_repo), seeded_keys(b"r", 2), seeded_keys(b"R", 2))
    directory = str(tmp_path / "repo")
    save_repository(rotated, directory)
    rotate(run(load_repository(directory)), seeded_keys(b"R", 2), seeded_keys(b"Q", 2))


def test_save_load_round_trip(tmp_path, fresh_repo, envelope):
    state = advance_clock(publish(fresh_repo, "fw", envelope), 9)
    directory = str(tmp_path / "repo")
    save_repository(state, directory)
    assert os.path.exists(os.path.join(directory, "root.1.meta"))
    assert os.path.exists(os.path.join(directory, "targets.2.meta"))
    assert os.path.exists(os.path.join(directory, "snapshot.meta"))
    assert os.path.exists(os.path.join(directory, "timestamp.meta"))
    assert os.path.exists(os.path.join(directory, "envelopes", "fw.env"))
    loaded = load_repository(directory)
    assert loaded.metadata == state.metadata
    assert loaded.envelopes == state.envelopes
    assert loaded.clock == state.clock
    assert {role: fetch_metadata(loaded, role) for role in RoleKind} == {
        role: fetch_metadata(state, role) for role in RoleKind
    }


@pytest.mark.parametrize("mode", list(Mode))
def test_fetch_serializes_each_role_once_per_state(monkeypatch, oem_key, mode):
    artifact = b"\xaa" * 200
    token = issue_token(oem_key, artifact, Constraints(new_version=2))
    state = new_repository(
        root_keys=seeded_keys(b"r", 2),
        targets_keys=seeded_keys(b"t", 2),
        snapshot_keys=seeded_keys(b"s", 1),
        timestamp_keys=seeded_keys(b"w", 1),
        mode=mode,
    )
    state = publish(state, "fw", serialize_envelope(build_envelope(token, artifact)))
    serialized = []

    def counting(meta, mode):
        serialized.append(meta.role)
        return serialize_canonical(meta, mode)

    monkeypatch.setattr(metadata, "serialize_canonical", counting)
    fetch_metadata(state, RoleKind.TIMESTAMP)
    assert serialized == [RoleKind.TIMESTAMP]
    for _ in range(3):
        served = {role: fetch_metadata(state, role) for role in RoleKind}
    # each role is encoded once, on its first fetch
    assert sorted(r.value for r in serialized) == ["root", "snapshot", "targets", "timestamp"]
    assert served == {role: serialize_canonical(state.metadata.by_role(role), mode) for role in RoleKind}
    # a refresh's new timestamp is encoded anew
    assert fetch_metadata(refresh_timestamp(state), RoleKind.TIMESTAMP) != served[RoleKind.TIMESTAMP]


def test_a_clock_step_keeps_the_serialization_cache(monkeypatch, fresh_repo, envelope):
    state = publish(fresh_repo, "fw", envelope)
    before = {role: fetch_metadata(state, role) for role in RoleKind}
    serialized = []

    def counting(meta, mode):
        serialized.append(meta.role)
        return serialize_canonical(meta, mode)

    monkeypatch.setattr(metadata, "serialize_canonical", counting)
    stepped = advance_clock(state, 3)
    assert {role: fetch_metadata(stepped, role) for role in RoleKind} == before
    assert LocalRepoPort(stepped).trusted_root_bytes() == before[RoleKind.ROOT]
    assert serialized == []
    # a publish after the steps still serializes its new metadata
    assert fetch_metadata(publish_vanilla(stepped, "fw2", b"\x01" * 8), RoleKind.TARGETS) != before[RoleKind.TARGETS]
    assert serialized == [RoleKind.TARGETS]


# each step and the roles it replaces; publishing "a" or "b" a second time
# replaces an existing record
SERVING_STEPS = {
    ("publish", "a"): {RoleKind.TARGETS, RoleKind.SNAPSHOT, RoleKind.TIMESTAMP},
    ("publish", "b"): {RoleKind.TARGETS, RoleKind.SNAPSHOT, RoleKind.TIMESTAMP},
    ("publish_vanilla", "b"): {RoleKind.TARGETS, RoleKind.SNAPSHOT, RoleKind.TIMESTAMP},
    ("publish_vanilla", "c"): {RoleKind.TARGETS, RoleKind.SNAPSHOT, RoleKind.TIMESTAMP},
    ("refresh", ""): {RoleKind.TIMESTAMP},
    ("advance", ""): set(),
    ("rotate_root", ""): {RoleKind.ROOT, RoleKind.SNAPSHOT, RoleKind.TIMESTAMP},
}


def serving_step(state, step, index: int, envelope_bytes: bytes):
    op, arg = step
    if op == "publish":
        return publish(state, arg, envelope_bytes)
    if op == "publish_vanilla":
        return publish_vanilla(state, arg, bytes([index]) * 16)
    if op == "refresh":
        return refresh_timestamp(state)
    if op == "advance":
        return advance_clock(state, 3)
    return rotate_root(state, seeded_keys(bytes([index + 1]), 2))


@pytest.mark.parametrize("mode", list(Mode))
@given(steps=st.lists(st.sampled_from(sorted(SERVING_STEPS)), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_no_served_encoding_goes_stale(mode, steps):
    """After every transition, what the repository serves and saves is a fresh
    encoding of its current roles, and each role the step did not replace is
    the object (with the encodings) it was before."""
    artifact = b"\xaa" * 64
    token = issue_token(crypto.signing_key_from_seed(b"\x07" * 32), artifact, Constraints(new_version=2))
    envelope_bytes = serialize_envelope(build_envelope(token, artifact))
    state = new_repository(
        root_keys=seeded_keys(b"r", 2),
        targets_keys=seeded_keys(b"t", 2),
        snapshot_keys=seeded_keys(b"s", 1),
        timestamp_keys=seeded_keys(b"w", 1),
        mode=mode,
    )
    with tempfile.TemporaryDirectory() as directory:
        for index, step in enumerate(steps):
            before = state.metadata
            state = serving_step(state, step, index, envelope_bytes)
            fresh = {role: serialize_canonical(state.metadata.by_role(role), mode) for role in RoleKind}
            assert {role: fetch_metadata(state, role) for role in RoleKind} == fresh
            assert LocalRepoPort(state).trusted_root_bytes() == fresh[RoleKind.ROOT]
            save_repository(state, directory)
            for role in RoleKind:
                name = repository._filename(role, state.metadata.by_role(role).version)
                with open(os.path.join(directory, name), "rb") as fh:
                    assert fh.read() == fresh[role]
                kept = state.metadata.by_role(role) is before.by_role(role)
                assert kept is (role not in SERVING_STEPS[step])


def test_publish_rejects_name_too_long_for_the_encoding(fresh_repo, oem_key):
    artifact = b"\xaa" * 64
    token = issue_token(oem_key, artifact, Constraints(new_version=2))
    name = "n" * 70_000
    with pytest.raises(PublishRejected):
        publish(fresh_repo, name, serialize_envelope(build_envelope(token, artifact)))
    with pytest.raises(PublishRejected):
        publish_vanilla(fresh_repo, "\u00e9" * 32_768, artifact)  # 65536 UTF-8 bytes
    # the name is also a file name, envelopes/<name>.env, of at most 255 bytes
    assert publish_vanilla(fresh_repo, "n" * 251, artifact).metadata.targets.version == 2


def test_publish_rejects_targets_list_too_long_for_the_encoding(fresh_repo):
    records = [TargetRecord(name=f"t{i:05d}", hash=bytes(32), size=0) for i in range(65_535)]
    full = RoleMetadata(
        role=RoleKind.TARGETS, version=2, expires=1000, body=TargetsBody(records=records), signatures=[]
    )
    state = replace(fresh_repo, metadata=replace(fresh_repo.metadata, targets=full))
    with pytest.raises(PublishRejected):
        publish_vanilla(state, "one-more", b"x")


# --- load_repository raises only ParseError --------------------------------------------

def saved_private(directory: str, state) -> bytes:
    save_repository(state, directory)
    with open(os.path.join(directory, "private.bin"), "rb") as fh:
        return fh.read()


def write_private(directory: str, private: bytes) -> None:
    with open(os.path.join(directory, "private.bin"), "wb") as fh:
        fh.write(private)


# private.bin: magic(4) mode(1) clock(8), then per role a u16 key count and
# 32-byte seeds
MODE_AT, KEYS_AT = 4, 13


def key_count_at(private: bytes, role_index: int) -> int:
    """Offset of the key count of the role_index-th role."""
    at = KEYS_AT
    for _ in range(role_index):
        at += 2 + 32 * int.from_bytes(private[at : at + 2], "big")
    return at


def with_byte(private: bytes, at: int, value: int) -> bytes:
    return private[:at] + bytes([value]) + private[at + 1 :]


def with_bytes(private: bytes, at: int, value: bytes) -> bytes:
    return private[:at] + value + private[at + len(value) :]


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: b"ASRX" + p[4:],
        lambda p: with_byte(p, MODE_AT, 2),
        lambda p: with_bytes(p, key_count_at(p, 0), b"\x00\x00"),
        lambda p: with_bytes(p, key_count_at(p, 1), b"\x00\x00"),
        lambda p: with_bytes(p, key_count_at(p, 2), b"\x00\x00"),
        lambda p: with_bytes(p, key_count_at(p, 3), b"\x00\x00"),
        lambda p: with_bytes(p, key_count_at(p, 3), b"\x00\x02"),
        lambda p: p[: key_count_at(p, 1) - 5],
        lambda p: p[: KEYS_AT - 1],
        lambda p: p[:-1],
        lambda p: p + b"\x00",
    ],
)
def test_load_repository_rejects_malformed_private_file(tmp_path, fresh_repo, envelope, edit):
    """Bad magic, a mode flag of 2, a zero key count for each role, a key
    count past the end, truncation inside a key, inside the clock and at the
    last key, and a trailing byte."""
    directory = str(tmp_path / "repo")
    private = saved_private(directory, publish(fresh_repo, "fw", envelope))
    write_private(directory, edit(private))
    with pytest.raises(ParseError) as excinfo:
        load_repository(directory)
    assert isinstance(excinfo.value.position, int)


def test_load_repository_rejects_truncated_and_missing_files(tmp_path, fresh_repo):
    directory = str(tmp_path / "repo")
    data = saved_private(directory, fresh_repo)
    write_private(directory, data[: len(data) // 2])
    with pytest.raises(ParseError):
        load_repository(directory)
    os.remove(os.path.join(directory, "private.bin"))
    with pytest.raises(ParseError):
        load_repository(directory)


def test_load_repository_rejects_a_role_file_of_another_role(tmp_path, fresh_repo):
    directory = str(tmp_path / "repo")
    saved_private(directory, fresh_repo)
    os.replace(os.path.join(directory, "snapshot.meta"), os.path.join(directory, "timestamp.meta"))
    with pytest.raises(ParseError):
        load_repository(directory)


def test_load_rejects_targets_out_of_name_order(tmp_path, fresh_repo):
    state = publish_vanilla(publish_vanilla(fresh_repo, "a", b"a"), "b", b"b")
    targets = state.metadata.targets
    swapped = replace(targets, body=TargetsBody(records=targets.body.records[::-1]))
    directory = str(tmp_path / "repo")
    save_repository(replace(state, metadata=replace(state.metadata, targets=swapped)), directory)
    with pytest.raises(ParseError) as info:
        load_repository(directory)
    assert info.value.position == "targets.3.meta"


def directory_files(directory: str) -> dict[str, bytes]:
    files = {}
    for parent, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, directory)] = fh.read()
    return files


@pytest.mark.parametrize("mode", list(Mode))
def test_save_load_round_trip_is_exact(tmp_path, oem_key, mode):
    artifact = b"\xaa" * 200
    token = issue_token(oem_key, artifact, Constraints(new_version=2))
    state = new_repository(
        root_keys=seeded_keys(b"r", 2),
        targets_keys=seeded_keys(b"t", 2),
        snapshot_keys=seeded_keys(b"s", 1),
        timestamp_keys=seeded_keys(b"w", 1),
        clock=7,
        mode=mode,
    )
    state = publish(state, "fw", serialize_envelope(build_envelope(token, artifact)))
    state = rotate_root(state, seeded_keys(b"R", 3), threshold=2)
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    save_repository(state, first)
    loaded = load_repository(first)
    assert loaded == state
    save_repository(loaded, second)
    assert directory_files(second) == directory_files(first)


def test_load_takes_root_and_targets_versions_from_the_snapshot(tmp_path, fresh_repo, envelope):
    """Saving each step into one directory keeps every root.N file and only
    the pinned targets.N file; the loader opens the ones snapshot.meta pins."""
    directory = str(tmp_path / "repo")
    save_repository(fresh_repo, directory)
    state = rotate_root(fresh_repo, seeded_keys(b"R", 2))
    save_repository(state, directory)
    for name in ("fw", "fw2"):
        state = publish(state, name, envelope)
        save_repository(state, directory)
    assert {"root.1.meta", "root.2.meta"} <= set(os.listdir(directory))
    assert [name for name in os.listdir(directory) if name.startswith("targets.")] == ["targets.3.meta"]
    loaded = load_repository(directory)
    assert loaded.metadata.root.version == 2
    assert loaded.metadata.targets.version == state.metadata.targets.version == 3
    assert loaded.metadata == state.metadata


def test_load_rejects_a_role_file_holding_another_version(tmp_path, fresh_repo):
    directory = str(tmp_path / "repo")
    save_repository(rotate_root(fresh_repo, seeded_keys(b"R", 2)), directory)
    with open(os.path.join(directory, "root.2.meta"), "wb") as fh:
        fh.write(fetch_metadata(fresh_repo, RoleKind.ROOT))  # root version 1's bytes
    with pytest.raises(ParseError, match="root.2.meta holds root version 1") as excinfo:
        load_repository(directory)
    assert excinfo.value.position == "root.2.meta"


def test_load_rejects_a_snapshot_pinning_a_missing_version(tmp_path, fresh_repo, envelope):
    directory = str(tmp_path / "repo")
    state = publish(fresh_repo, "fw", envelope)
    save_repository(state, directory)
    newer = publish(state, "fw2", envelope)
    with open(os.path.join(directory, "snapshot.meta"), "wb") as fh:
        fh.write(fetch_metadata(newer, RoleKind.SNAPSHOT))
    with pytest.raises(ParseError) as excinfo:
        load_repository(directory)
    assert excinfo.value.position == "targets.3.meta"


@pytest.fixture(scope="module")
def repository_sample(tmp_path_factory):
    """A saved repository directory and its private.bin bytes."""
    oem = crypto.signing_key_from_seed(bytes(range(32)))
    artifact = b"\xaa" * 64
    token = issue_token(oem, artifact, Constraints(new_version=2))
    state = new_repository(
        root_keys=seeded_keys(b"r", 2),
        targets_keys=seeded_keys(b"t", 2),
        snapshot_keys=seeded_keys(b"s", 1),
        timestamp_keys=seeded_keys(b"w", 1),
    )
    state = publish(state, "fw", serialize_envelope(build_envelope(token, artifact)))
    directory = str(tmp_path_factory.mktemp("repository") / "repo")
    return saved_private(directory, state), directory


def _load_private_bytes(directory: str, data: bytes) -> None:
    write_private(directory, data)
    try:
        load_repository(directory)
    except ParseError:
        pass


@given(data=st.binary(max_size=600))
@settings(max_examples=200, deadline=None)
def test_load_repository_arbitrary_bytes_only_parse_error(repository_sample, data):
    _, directory = repository_sample
    _load_private_bytes(directory, data)
    _load_private_bytes(directory, b"ASRS" + data)


@given(position=st.integers(min_value=0), value=st.integers(min_value=0, max_value=255))
@settings(max_examples=300, deadline=None)
def test_load_repository_single_byte_mutation_only_parse_error(repository_sample, position, value):
    valid, directory = repository_sample
    mutated = bytearray(valid)
    mutated[position % len(valid)] = value
    _load_private_bytes(directory, bytes(mutated))
