"""Repository state transitions, the tamper layer, and the on-disk layout."""

import json
import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assured import crypto
from assured.authorization import (
    Constraints,
    build_envelope,
    issue_token,
    parse_envelope,
    serialize_envelope,
)
from assured import repository
from assured.errors import Expired, NotFound, ParseError, PublishRejected, VersionRollback
from assured.metadata import (
    Mode,
    RoleKind,
    RoleMetadata,
    TargetRecord,
    TargetsBody,
    parse,
    serialize_canonical,
    verify_full_chain,
)
from assured.repository import (
    LIFETIMES,
    TamperKind,
    TamperPolicy,
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
    set_tamper,
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


def test_publish_inconsistent_token_rejected(fresh_repo, oem_key):
    artifact = b"\xbb" * 100
    token = issue_token(oem_key, artifact, Constraints(new_version=2))
    tampered = serialize_envelope(build_envelope(token, b"\xcc" * 100))
    with pytest.raises(PublishRejected):
        publish(fresh_repo, "fw", tampered)


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
    assert body.records[0].token.constraints.new_version == 3
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


def test_expiry_then_refresh(fresh_repo):
    state = advance_clock(fresh_repo, LIFETIMES[RoleKind.TIMESTAMP] + 1)
    metadata_set = state.metadata
    with pytest.raises(Expired):
        verify_full_chain(metadata_set.root, metadata_set, now=state.clock)
    state = refresh_timestamp(state)
    verify_full_chain(state.metadata.root, state.metadata, now=state.clock)


class TestTamper:
    def test_none_is_identity(self, fresh_repo, envelope):
        state = publish(fresh_repo, "fw", envelope)
        assert fetch_envelope(state, "fw") == envelope

    def test_flip_bit(self, fresh_repo, envelope):
        state = publish(fresh_repo, "fw", envelope)
        state = set_tamper(state, TamperPolicy(kind=TamperKind.FLIP_BIT_IN_ENVELOPE, bit_offset=100))
        served = fetch_envelope(state, "fw")
        assert served != envelope
        assert len(served) == len(envelope)

    def test_substitute_artifact_keeps_token(self, fresh_repo, envelope):
        state = publish(fresh_repo, "fw", envelope)
        state = set_tamper(state, TamperPolicy(kind=TamperKind.SUBSTITUTE_ARTIFACT))
        served = parse_envelope(fetch_envelope(state, "fw"))
        original = parse_envelope(envelope)
        assert served.token == original.token
        assert served.artifact != original.artifact

    def test_drop_envelope(self, fresh_repo, envelope):
        state = publish(fresh_repo, "fw", envelope)
        state = set_tamper(state, TamperPolicy(kind=TamperKind.DROP_ENVELOPE))
        with pytest.raises(NotFound):
            fetch_envelope(state, "fw")

    def test_unknown_name(self, fresh_repo):
        with pytest.raises(NotFound):
            fetch_envelope(fresh_repo, "ghost")

    def test_stale_serves_oldest_archive(self, fresh_repo, envelope):
        state = publish(fresh_repo, "fw", envelope)
        state = set_tamper(state, TamperPolicy(kind=TamperKind.SERVE_STALE_METADATA))
        stale = parse(fetch_metadata(state, RoleKind.TIMESTAMP), state.mode)
        assert stale.version == 1  # pre-publish snapshot
        # a client that saw the publish detects the rollback
        metadata_set = type(state.metadata)(
            **{
                role.value: parse(fetch_metadata(state, role), state.mode)
                for role in RoleKind
            }
        )
        with pytest.raises(VersionRollback):
            verify_full_chain(
                state.metadata.root,
                metadata_set,
                now=state.clock,
                last_seen={role: state.metadata.by_role(role).version for role in RoleKind},
            )


def test_archive_keeps_only_the_pre_first_mutation_set(tmp_path, fresh_repo, envelope):
    original = {role: fetch_metadata(fresh_repo, role) for role in RoleKind}
    state = publish(fresh_repo, "fw", envelope)
    for i in range(5):
        state = publish_vanilla(state, f"plain{i}", bytes([i]) * 32)
        state = refresh_timestamp(state)
    state = rotate_root(state, seeded_keys(b"R", 2))
    state = publish(state, "fw", envelope)
    assert state.archive == (original,)
    state = set_tamper(state, TamperPolicy(kind=TamperKind.SERVE_STALE_METADATA))
    assert {role: fetch_metadata(state, role) for role in RoleKind} == original
    directory = str(tmp_path / "repo")
    save_repository(state, directory)
    loaded = load_repository(directory)
    assert loaded.archive == (original,)
    assert {role: fetch_metadata(loaded, role) for role in RoleKind} == original


def test_rotate_root_re_anchors(fresh_repo, envelope):
    state = publish(fresh_repo, "fw", envelope)
    new_keys = seeded_keys(b"R", 2)
    rotated = rotate_root(state, new_keys)
    assert rotated.metadata.root.version == 2
    # old anchor accepts the new root (signed by outgoing keys too)
    verify_full_chain(state.metadata.root, rotated.metadata, now=0)


def test_save_load_round_trip(tmp_path, fresh_repo, envelope):
    state = publish(fresh_repo, "fw", envelope)
    state = set_tamper(state, TamperPolicy(kind=TamperKind.FLIP_BIT_IN_ENVELOPE, bit_offset=9))
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
    assert loaded.tamper == state.tamper
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

    monkeypatch.setattr(repository, "serialize_canonical", counting)
    fetch_metadata(state, RoleKind.TIMESTAMP)
    assert serialized == [RoleKind.TIMESTAMP]
    for _ in range(3):
        served = {role: fetch_metadata(state, role) for role in RoleKind}
    assert sorted(r.value for r in serialized) == sorted(r.value for r in RoleKind)
    assert served == {role: serialize_canonical(state.metadata.by_role(role), mode) for role in RoleKind}
    # a new state value starts with an empty cache
    assert fetch_metadata(refresh_timestamp(state), RoleKind.TIMESTAMP) != served[RoleKind.TIMESTAMP]


def test_clock_and_tamper_steps_keep_the_serialization_cache(monkeypatch, fresh_repo, envelope):
    state = publish(fresh_repo, "fw", envelope)
    before = {role: fetch_metadata(state, role) for role in RoleKind}
    serialized = []

    def counting(meta, mode):
        serialized.append(meta.role)
        return serialize_canonical(meta, mode)

    monkeypatch.setattr(repository, "serialize_canonical", counting)
    stepped = set_tamper(advance_clock(state, 3), TamperPolicy(kind=TamperKind.FLIP_BIT_IN_ENVELOPE))
    assert {role: fetch_metadata(stepped, role) for role in RoleKind} == before
    assert LocalRepoPort(stepped).trusted_root_bytes() == before[RoleKind.ROOT]
    assert serialized == []
    # a publish after the steps still serializes its new metadata
    assert fetch_metadata(publish_vanilla(stepped, "fw2", b"\x01" * 8), RoleKind.TARGETS) != before[RoleKind.TARGETS]
    assert serialized == [RoleKind.TARGETS]


def test_publish_rejects_name_too_long_for_the_encoding(fresh_repo, oem_key):
    artifact = b"\xaa" * 64
    token = issue_token(oem_key, artifact, Constraints(new_version=2))
    name = "n" * 70_000
    with pytest.raises(PublishRejected):
        publish(fresh_repo, name, serialize_envelope(build_envelope(token, artifact)))
    with pytest.raises(PublishRejected):
        publish_vanilla(fresh_repo, "\u00e9" * 32_768, artifact)  # 65536 UTF-8 bytes
    assert publish_vanilla(fresh_repo, "n" * 65_535, artifact).metadata.targets.version == 2


def test_publish_rejects_targets_list_too_long_for_the_encoding(fresh_repo):
    records = [TargetRecord(name=f"t{i:05d}", hash=bytes(32), size=0) for i in range(65_535)]
    full = RoleMetadata(
        role=RoleKind.TARGETS, version=2, expires=1000, body=TargetsBody(records=records), signatures=[]
    )
    state = replace(fresh_repo, metadata=replace(fresh_repo.metadata, targets=full))
    with pytest.raises(PublishRejected):
        publish_vanilla(state, "one-more", b"x")


# --- load_repository raises only ParseError --------------------------------------------

def saved_directory(directory: str, state) -> dict:
    save_repository(state, directory)
    with open(os.path.join(directory, "private.json"), encoding="utf-8") as fh:
        return json.load(fh)


def write_private(directory: str, private) -> None:
    with open(os.path.join(directory, "private.json"), "w", encoding="utf-8") as fh:
        json.dump(private, fh)


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p.update(mode="warp"),
        lambda p: p["tamper"].update(kind="unplug"),
        lambda p: p["tamper"].update(bit_offset=-1),
        lambda p: p.update(root_keys=["zz" * 32]),
        lambda p: p.update(root_keys=["ab" * 31]),
        lambda p: p.update(root_keys=[]),
        lambda p: p["online_keys"].pop("snapshot"),
        lambda p: p["online_keys"].update(root=p["root_keys"]),
        lambda p: p.pop("clock"),
        lambda p: p.update(clock="0"),
        lambda p: p.update(root_version=7),
        lambda p: p["archive"][0].pop("root"),
        lambda p: p["archive"][0].update(root="0g"),
    ],
)
def test_load_repository_rejects_malformed_private_file(tmp_path, fresh_repo, envelope, edit):
    directory = str(tmp_path / "repo")
    private = saved_directory(directory, publish(fresh_repo, "fw", envelope))
    edit(private)
    write_private(directory, private)
    with pytest.raises(ParseError):
        load_repository(directory)


def test_load_repository_rejects_truncated_and_missing_files(tmp_path, fresh_repo):
    directory = str(tmp_path / "repo")
    saved_directory(directory, fresh_repo)
    path = os.path.join(directory, "private.json")
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])
    with pytest.raises(ParseError):
        load_repository(directory)
    os.remove(path)
    with pytest.raises(ParseError):
        load_repository(directory)


def test_load_repository_rejects_a_role_file_of_another_role(tmp_path, fresh_repo):
    directory = str(tmp_path / "repo")
    saved_directory(directory, fresh_repo)
    os.replace(os.path.join(directory, "snapshot.meta"), os.path.join(directory, "timestamp.meta"))
    with pytest.raises(ParseError):
        load_repository(directory)


@pytest.fixture(scope="module")
def repository_sample(tmp_path_factory):
    """A saved repository directory (with an archive) and its private.json bytes."""
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
    save_repository(state, directory)
    with open(os.path.join(directory, "private.json"), "rb") as fh:
        return fh.read(), directory


def _load_private_bytes(directory: str, data: bytes) -> None:
    with open(os.path.join(directory, "private.json"), "wb") as fh:
        fh.write(data)
    try:
        load_repository(directory)
    except ParseError:
        pass


@given(data=st.binary(max_size=600))
@settings(max_examples=200, deadline=None)
def test_load_repository_arbitrary_bytes_only_parse_error(repository_sample, data):
    _, directory = repository_sample
    _load_private_bytes(directory, data)
    _load_private_bytes(directory, b"{" + data)


@given(position=st.integers(min_value=0), value=st.integers(min_value=0, max_value=255))
@settings(max_examples=300, deadline=None)
def test_load_repository_single_byte_mutation_only_parse_error(repository_sample, position, value):
    valid, directory = repository_sample
    mutated = bytearray(valid)
    mutated[position % len(valid)] = value
    _load_private_bytes(directory, bytes(mutated))
