"""Controller: sync verification and rollback tracking, policy gating,
authenticated delivery, attestation checking, and state persistence."""

import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assured import crypto, repository
from assured.authorization import (
    AuthorizationToken,
    Constraints,
    build_envelope,
    issue_token,
    serialize_envelope,
)
from assured.controller import (
    NONCE_WINDOW,
    AttestOutcome,
    Controller,
    LocalPolicy,
    decode_controller,
    encode_controller,
    load_controller,
    save_controller,
)
from assured.device import Device, InstallMode, InstallOutcome, encode_flash
from assured.errors import (
    BindingMismatch,
    DeliveryFailed,
    EnvelopeMismatch,
    Expired,
    NonceCollision,
    NotFound,
    NotVerifiedBySync,
    ParseError,
    PolicyDeferred,
    ThresholdNotMet,
    VersionRollback,
)
from assured.metadata import (
    MetadataSet,
    RoleKind,
    SnapshotBody,
    TargetRecord,
    TimestampBody,
    build_and_sign,
    signed_region_of,
)
from assured.harness import Mirror
from assured.repository import new_repository, rotate_root
from assured.transport import LocalDevicePort, LocalRepoPort

MODEL, DEVICE_ID = 100, 7
K_ATT = b"\x55" * 32


def seeded_keys(label: bytes, count: int):
    return [crypto.signing_key_from_seed(label * 16 + bytes([i]) * 16) for i in range(count)]


@pytest.fixture
def repo_port():
    state = new_repository(
        root_keys=seeded_keys(b"r", 2),
        targets_keys=seeded_keys(b"t", 2),
        snapshot_keys=seeded_keys(b"s", 1),
        timestamp_keys=seeded_keys(b"w", 1),
    )
    return LocalRepoPort(state)


@pytest.fixture
def mirror(repo_port):
    """The untrusted mirror over the fresh repository: its stale set is the
    one from before anything was published."""
    return Mirror(repo_port)


@pytest.fixture
def controller(repo_port):
    from assured.metadata import parse

    ctrl = Controller(
        trusted_root=parse(repo_port.trusted_root_bytes(), repo_port.mode()),
        mode=repo_port.mode(),
        rng=random.Random(3),
    )
    return ctrl


@pytest.fixture
def device_port(oem_key):
    device = Device(
        device_model=MODEL,
        device_id=DEVICE_ID,
        oem_public=oem_key.public,
        attestation_key=K_ATT,
        install_mode=InstallMode.DUAL_BANK,
        rng=random.Random(9),
    )
    factory = b"\x01" * 128
    device.provision_firmware(
        factory,
        issue_token(oem_key, factory, Constraints(device_model=MODEL, device_id=DEVICE_ID, new_version=1)),
    )
    return LocalDevicePort(device)


def enroll(controller, device_port):
    info = device_port.info()
    controller.enroll(
        device_id=info["id"],
        device_model=info["model"],
        attestation_key=K_ATT,
        installed_version=info["version"],
        installed_digest=crypto.hash_data(b"\x01" * 128),
    )


def publish_update(repo_port, oem_key, name="fw2", version=2, model=MODEL, size=400):
    artifact = bytes([version]) * size
    token = issue_token(
        oem_key, artifact, Constraints(device_model=model, new_version=version)
    )
    repo_port.publish(name, serialize_envelope(build_envelope(token, artifact)))
    return artifact


class TestSync:
    def test_happy_path_six_metadata_verifications(self, controller, repo_port, oem_key):
        publish_update(repo_port, oem_key)
        before = crypto.VERIFY_COUNTER.read()
        batch = controller.sync(repo_port)
        assert crypto.VERIFY_COUNTER.read() - before == 6  # no extra token verification
        assert [item.name for item in batch] == ["fw2"]
        assert controller.trust.last_seen[RoleKind.TARGETS] == 2

    def test_resync_no_news(self, controller, repo_port, oem_key):
        publish_update(repo_port, oem_key)
        controller.sync(repo_port)
        assert controller.sync(repo_port) == []

    def test_full_sync_keeps_the_held_objects_of_unchanged_records(self, controller, repo_port, oem_key):
        for i in range(4):
            publish_update(repo_port, oem_key, name=f"fw{i}", version=2 + i)
        controller.sync(repo_port)
        before = controller.trust.held.targets.body
        publish_update(repo_port, oem_key, name="fw1", version=9)
        assert [v.name for v in controller.sync(repo_port)] == ["fw1"]
        after = controller.trust.held.targets.body
        shared = [r.name for r in after.records if r is before.find(r.name)]
        assert shared == ["fw0", "fw2", "fw3"]

    def test_a_sync_checks_what_it_decoded_and_a_reloaded_controller_gets_the_same_batch(
        self, controller, repo_port, oem_key
    ):
        """After a full sync, fw1 re-published with its artifact under a new
        token is decoded but its hash is seen, so it is skipped; the new fw9
        is fetched and checked. A controller reloaded from its state (no held
        set, every record looked at) gets the same batch."""
        for i in range(5):
            publish_update(repo_port, oem_key, name=f"fw{i}", version=2 + i)
        controller.sync(repo_port)
        reloaded = decode_controller(encode_controller(controller), rng=random.Random(3))
        assert reloaded.trust.held is None
        artifact = bytes([3]) * 400  # fw1's
        token = issue_token(oem_key, artifact, Constraints(device_model=MODEL, new_version=30))
        repo_port.publish("fw1", serialize_envelope(build_envelope(token, artifact)))
        publish_update(repo_port, oem_key, name="fw9", version=9)
        fetched = []
        fetch = repo_port.fetch_envelope
        repo_port.fetch_envelope = lambda name: fetched.append(name) or fetch(name)
        held = controller.trust.held.targets.body
        assert [[v.name for v in ctrl.sync(repo_port)] for ctrl in (controller, reloaded)] == [["fw9"], ["fw9"]]
        assert fetched == ["fw9", "fw9"]
        body = controller.trust.held.targets.body
        assert body.fresh(held) == [body.find("fw1"), body.find("fw9")]
        assert body.find("fw1").token_digest == crypto.hash_data(token.raw)

    def test_a_decoded_record_is_checked_with_or_without_a_held_set(self, controller, repo_port, mirror, oem_key):
        publish_update(repo_port, oem_key, name="fw1")
        controller.sync(repo_port)
        reloaded = decode_controller(encode_controller(controller), rng=random.Random(3))
        publish_update(repo_port, oem_key, name="fw2", version=3)
        mirror.set_policy("substitute")
        for ctrl in (controller, reloaded):
            with pytest.raises(EnvelopeMismatch, match="'fw2' artifact hash"):
                ctrl.sync(mirror)

    @pytest.mark.parametrize("served", [RoleKind.SNAPSHOT, RoleKind.TIMESTAMP], ids=lambda r: r.value)
    def test_another_role_in_the_targets_slot_is_a_binding_mismatch(self, controller, repo_port, oem_key, served):
        publish_update(repo_port, oem_key)
        controller.sync(repo_port)  # the held targets are now lent to the next parse
        publish_update(repo_port, oem_key, name="fw3", version=3)
        fetch_roles = repo_port.fetch_roles
        repo_port.fetch_roles = lambda roles: fetch_roles([served if role is RoleKind.TARGETS else role for role in roles])
        with pytest.raises(BindingMismatch, match="targets: metadata is for role"):
            controller.sync(repo_port)

    def test_an_envelope_that_does_not_parse_is_a_mismatch(self, controller, repo_port, mirror, oem_key):
        publish_update(repo_port, oem_key)
        mirror.set_policy("flip-bit", 0)  # in the envelope's magic
        with pytest.raises(EnvelopeMismatch, match="envelope 'fw2' does not parse"):
            controller.sync(mirror)
        assert controller.trust.last_seen == {}
        assert controller.seen_targets == {}

    def test_tampered_envelope_byte(self, controller, repo_port, mirror, oem_key):
        publish_update(repo_port, oem_key)
        mirror.set_policy("flip-bit", 2000)
        with pytest.raises(EnvelopeMismatch):
            controller.sync(mirror)

    def test_substituted_artifact(self, controller, repo_port, mirror, oem_key):
        publish_update(repo_port, oem_key)
        mirror.set_policy("substitute")
        with pytest.raises(EnvelopeMismatch):
            controller.sync(mirror)

    def test_another_genuine_token_for_the_same_artifact_is_a_mismatch(self, controller, repo_port, oem_key):
        publish_update(repo_port, oem_key, name="fw1")
        controller.sync(repo_port)
        last_seen, seen = dict(controller.trust.last_seen), dict(controller.seen_targets)
        artifact = publish_update(repo_port, oem_key, name="fw2", version=3)
        # the mirror serves the same artifact under a token the OEM issued
        # with other constraints: artifact hash and size match the record
        reissued = issue_token(oem_key, artifact, Constraints(device_model=MODEL, new_version=4))
        substitute = serialize_envelope(build_envelope(reissued, artifact))
        fetch = repo_port.fetch_envelope
        repo_port.fetch_envelope = lambda name: substitute if name == "fw2" else fetch(name)
        with pytest.raises(EnvelopeMismatch, match="token != signed record token"):
            controller.sync(repo_port)
        assert controller.trust.last_seen == last_seen
        assert controller.seen_targets == seen

    @pytest.mark.parametrize("differs", ["hash", "size"])
    def test_a_record_for_another_artifact_than_its_tokens_is_a_mismatch(self, controller, repo_port, oem_key, differs):
        # the envelope carries an artifact its token does not name, and the
        # record holds that artifact's hash and size and the token's digest,
        # so only the token's own hash/size can tell them apart
        artifact = b"\x03" * 400
        if differs == "hash":
            token = issue_token(oem_key, b"\x02" * 400, Constraints(device_model=MODEL, new_version=2))
        else:
            genuine = issue_token(oem_key, artifact, Constraints(device_model=MODEL, new_version=2))
            token = AuthorizationToken(genuine.raw[:32] + struct.pack(">Q", len(artifact) + 1) + genuine.raw[40:])
        record = TargetRecord(
            name="fw2", hash=crypto.hash_data(artifact), size=len(artifact), token_digest=crypto.hash_data(token.raw)
        )
        envelope = serialize_envelope(build_envelope(token, artifact))
        repo_port.state = repository._publish_record(repo_port.state, record, envelope)
        with pytest.raises(EnvelopeMismatch, match="token artifact hash/size"):
            controller.sync(repo_port)
        assert controller.trust.last_seen == {}
        assert controller.seen_targets == {}

    def test_a_record_whose_size_differs_from_its_artifact_is_a_mismatch(self, controller, repo_port, oem_key):
        # the record's hash and token digest match the envelope; only its size does not
        artifact = b"\x03" * 400
        token = issue_token(oem_key, artifact, Constraints(device_model=MODEL, new_version=2))
        record = TargetRecord(
            name="fw2", hash=crypto.hash_data(artifact), size=len(artifact) + 1, token_digest=crypto.hash_data(token.raw)
        )
        envelope = serialize_envelope(build_envelope(token, artifact))
        repo_port.state = repository._publish_record(repo_port.state, record, envelope)
        with pytest.raises(EnvelopeMismatch, match="'fw2' artifact size != signed record"):
            controller.sync(repo_port)
        assert controller.trust.last_seen == {}
        assert controller.seen_targets == {}

    def test_dropped_envelope(self, controller, repo_port, mirror, oem_key):
        publish_update(repo_port, oem_key)
        mirror.set_policy("drop")
        with pytest.raises(NotFound):
            controller.sync(mirror)

    def test_stale_metadata_replay(self, controller, repo_port, mirror, oem_key):
        publish_update(repo_port, oem_key)
        controller.sync(mirror)
        mirror.set_policy("stale")
        with pytest.raises(VersionRollback):
            controller.sync(mirror)

    def test_expired_timestamp(self, controller, repo_port, oem_key):
        publish_update(repo_port, oem_key)
        repo_port.advance_clock(11)
        controller.advance_clock(11)
        with pytest.raises(Expired):
            controller.sync(repo_port)
        repo_port.refresh()
        assert len(controller.sync(repo_port)) == 1

    def test_failed_sync_commits_nothing(self, controller, repo_port, mirror, oem_key):
        publish_update(repo_port, oem_key)
        mirror.set_policy("drop")
        with pytest.raises(NotFound):
            controller.sync(mirror)
        assert controller.trust.last_seen == {}
        mirror.set_policy("none")
        assert len(controller.sync(mirror)) == 1


def verifications(call):
    """Run ``call`` and return its result and the signature verifications it made."""
    before = crypto.VERIFY_COUNTER.read()
    result = call()
    return result, crypto.VERIFY_COUNTER.read() - before


def resign_chain(repo_port, targets_expires, snapshot_expires):
    """Replace the repository's targets, snapshot and timestamp with new
    versions; targets and snapshot expire at the given ticks."""
    current = repo_port.state.metadata
    targets = build_and_sign(
        current.targets.body, current.targets.version + 1, targets_expires, seeded_keys(b"t", 2)
    )
    snapshot = build_and_sign(
        SnapshotBody(root_version=current.root.version, targets_version=targets.version),
        current.snapshot.version + 1,
        snapshot_expires,
        seeded_keys(b"s", 1),
    )
    repo_port.state = replace(
        repo_port.state,
        metadata=MetadataSet(
            root=current.root,
            targets=targets,
            snapshot=snapshot,
            timestamp=pinning_timestamp(snapshot, current.timestamp.version + 1),
        ),
    )


def pinning_timestamp(snapshot, version, keys=None):
    return build_and_sign(
        TimestampBody(snapshot_version=snapshot.version, snapshot_hash=crypto.hash_data(signed_region_of(snapshot))),
        version,
        500,
        keys or seeded_keys(b"w", 1),
    )


class TestTimestampFirstSync:
    def test_resync_makes_one_verification_new_release_six(self, controller, repo_port, oem_key):
        publish_update(repo_port, oem_key)
        assert len(verifications(lambda: controller.sync(repo_port))[0]) == 1
        assert verifications(lambda: controller.sync(repo_port)) == ([], 1)
        publish_update(repo_port, oem_key, version=3)
        batch, count = verifications(lambda: controller.sync(repo_port))
        assert [item.name for item in batch] == ["fw2"] and count == 6
        assert verifications(lambda: controller.sync(repo_port)) == ([], 1)

    def test_refreshed_timestamp_takes_fast_path(self, controller, repo_port, oem_key):
        publish_update(repo_port, oem_key)
        controller.sync(repo_port)
        repo_port.refresh()
        assert verifications(lambda: controller.sync(repo_port)) == ([], 1)
        assert controller.trust.last_seen[RoleKind.TIMESTAMP] == 3
        assert controller.trust.last_seen[RoleKind.SNAPSHOT] == 2

    def test_expired_held_snapshot_under_fresh_timestamp(self, controller, repo_port, oem_key):
        publish_update(repo_port, oem_key)
        controller.sync(repo_port)
        repo_port.advance_clock(101)
        controller.advance_clock(101)
        repo_port.refresh()  # fresh timestamp, same (now expired) snapshot
        before = crypto.VERIFY_COUNTER.read()
        with pytest.raises(Expired) as excinfo:
            controller.sync(repo_port)
        assert excinfo.value.role == "snapshot"
        assert crypto.VERIFY_COUNTER.read() - before == 1  # fast path

    def test_expired_held_targets_under_fresh_timestamp(self, controller, repo_port, oem_key):
        publish_update(repo_port, oem_key)
        resign_chain(repo_port, targets_expires=5, snapshot_expires=500)
        controller.sync(repo_port)
        controller.advance_clock(6)
        before = crypto.VERIFY_COUNTER.read()
        with pytest.raises(Expired) as excinfo:
            controller.sync(repo_port)
        assert excinfo.value.role == "targets"
        assert crypto.VERIFY_COUNTER.read() - before == 1  # fast path

    def test_forged_timestamp_signature(self, controller, repo_port, oem_key):
        publish_update(repo_port, oem_key)
        controller.sync(repo_port)
        current = repo_port.state.metadata
        forged = pinning_timestamp(current.snapshot, current.timestamp.version + 1, seeded_keys(b"x", 1))
        repo_port.state = replace(repo_port.state, metadata=replace(current, timestamp=forged))
        with pytest.raises(ThresholdNotMet) as excinfo:
            controller.sync(repo_port)
        assert excinfo.value.role == "timestamp"

    def test_older_timestamp_for_held_snapshot(self, controller, repo_port, mirror):
        controller.sync(mirror)
        repo_port.refresh()  # the mirror, built before it, still holds timestamp v1
        assert verifications(lambda: controller.sync(mirror)) == ([], 1)
        mirror.set_policy("stale")
        before = crypto.VERIFY_COUNTER.read()
        with pytest.raises(VersionRollback):
            controller.sync(mirror)
        assert crypto.VERIFY_COUNTER.read() - before == 1  # fast path

    def test_loaded_controller_takes_full_path(self, tmp_path, controller, repo_port, oem_key):
        publish_update(repo_port, oem_key)
        controller.sync(repo_port)
        path = str(tmp_path / "controller.state")
        save_controller(controller, path)
        loaded = load_controller(path)
        assert verifications(lambda: loaded.sync(repo_port)) == ([], 6)
        assert verifications(lambda: loaded.sync(repo_port)) == ([], 1)

    def test_rotated_root_takes_full_path(self, controller, repo_port, oem_key):
        publish_update(repo_port, oem_key)
        controller.sync(repo_port)
        repo_port.state = rotate_root(repo_port.state, seeded_keys(b"R", 2))
        assert verifications(lambda: controller.sync(repo_port)) == ([], 6)
        assert controller.trust.root.version == 2


class TestPolicyGate:
    def test_window(self, controller, repo_port, oem_key):
        publish_update(repo_port, oem_key)
        batch = controller.sync(repo_port)
        controller.policy = LocalPolicy(window=(10, 20))
        with pytest.raises(PolicyDeferred) as excinfo:
            controller.policy_gate(batch[0].envelope, now=25)
        assert excinfo.value.reason == PolicyDeferred.OUTSIDE_WINDOW
        controller.policy_gate(batch[0].envelope, now=15)

    def test_model_allow_list(self, controller, repo_port, oem_key):
        publish_update(repo_port, oem_key)
        batch = controller.sync(repo_port)
        controller.policy = LocalPolicy(allowed_models=frozenset({999}))
        with pytest.raises(PolicyDeferred) as excinfo:
            controller.policy_gate(batch[0].envelope)
        assert excinfo.value.reason == PolicyDeferred.MODEL_BLOCKED

    def test_window_invariant(self):
        with pytest.raises(ValueError):
            LocalPolicy(window=(5, 1))


class TestDelivery:
    def test_happy_path(self, controller, repo_port, device_port, oem_key):
        enroll(controller, device_port)
        artifact = publish_update(repo_port, oem_key)
        batch = controller.sync(repo_port)
        session = controller.open_channel(device_port, DEVICE_ID)
        outcome = controller.deliver(session, batch[0])
        assert outcome.status == InstallOutcome.INSTALLED
        assert controller.registry[DEVICE_ID].expected_version == 2
        assert controller.registry[DEVICE_ID].expected_digest == crypto.hash_data(artifact)

    def test_forged_envelope_rejected_by_type(self, controller, repo_port, device_port, oem_key):
        enroll(controller, device_port)
        publish_update(repo_port, oem_key)
        controller.sync(repo_port)
        session = controller.open_channel(device_port, DEVICE_ID)
        artifact = b"evil"
        token = issue_token(oem_key, artifact, Constraints(new_version=9))
        with pytest.raises(NotVerifiedBySync):
            controller.deliver(session, build_envelope(token, artifact))

    def test_deferred_by_policy(self, controller, repo_port, device_port, oem_key):
        enroll(controller, device_port)
        publish_update(repo_port, oem_key)
        batch = controller.sync(repo_port)
        controller.policy = LocalPolicy(window=(100, 200))
        session = controller.open_channel(device_port, DEVICE_ID)
        with pytest.raises(PolicyDeferred):
            controller.deliver(session, batch[0])

    def test_redelivery_is_idempotent(self, controller, repo_port, device_port, oem_key):
        enroll(controller, device_port)
        publish_update(repo_port, oem_key)
        batch = controller.sync(repo_port)
        session = controller.open_channel(device_port, DEVICE_ID)
        assert controller.deliver(session, batch[0]).status == InstallOutcome.INSTALLED
        session = controller.open_channel(device_port, DEVICE_ID)
        retry = controller.deliver(session, batch[0])
        assert retry.status == InstallOutcome.REJECTED
        assert retry.reason == "version_not_monotonic"
        assert controller.registry[DEVICE_ID].expected_version == 2

    def test_reflected_frames_are_rejected(self, controller, repo_port, device_port, oem_key):
        """Each direction has its own keys, so the controller's own frames
        echoed back to it fail the tag, starting with the confirmation that
        leads the delivery batch."""

        class EchoPort:
            hello = device_port.hello

            def exchange(self, frames):
                return frames

        enroll(controller, device_port)
        publish_update(repo_port, oem_key)
        batch = controller.sync(repo_port)
        session = controller.open_channel(EchoPort(), DEVICE_ID)
        with pytest.raises(DeliveryFailed) as failed:
            controller.deliver(session, batch[0])
        assert failed.value.reason == "auth_failure"
        assert device_port.info()["version"] == 1
        assert controller.registry[DEVICE_ID].expected_version == 1

    @pytest.mark.parametrize(
        "script, reason",
        [
            (lambda channel, status: [status()], "channel_error"),
            (lambda channel, status: [channel.seal(crypto.MSG_CONFIRM, b"\x00" * 32), status()], "channel_error"),
            (lambda channel, status: [channel.seal(crypto.MSG_CONFIRM, channel.transcript)], "channel_error"),
            (lambda channel, status: [channel.seal(crypto.MSG_CONFIRM, channel.transcript), status(), status()],
             "channel_error"),
            (lambda channel, status: [channel.seal(crypto.MSG_CONFIRM, channel.transcript) for _ in range(2)],
             "device reply is not a status frame"),
        ],
        ids=["no-confirm", "confirm-without-transcript", "confirm-alone", "one-frame-too-many", "no-status"],
    )
    def test_a_device_reply_without_its_confirmation_and_one_status_fails(
        self, controller, repo_port, device_port, oem_key, script, reason
    ):
        """A device end holding the session keys answers the batch with
        frames that each open, and an "installed" status among most of them:
        the controller checks the device's confirmation and the frame count
        before the status, so nothing is recorded as installed."""

        class ScriptedDevicePort:
            def hello(self, controller_nonce):
                device_nonce = b"\x42" * crypto.NONCE_LEN
                self.channel = crypto.Channel(K_ATT, DEVICE_ID, controller_nonce, device_nonce, controller=False)
                return device_nonce

            def exchange(self, frames):
                installed = InstallOutcome(InstallOutcome.INSTALLED, version=2).encode()
                return script(self.channel, lambda: self.channel.seal(crypto.MSG_STATUS, installed))

        enroll(controller, device_port)
        publish_update(repo_port, oem_key)
        batch = controller.sync(repo_port)
        record = replace(controller.registry[DEVICE_ID])
        session = controller.open_channel(ScriptedDevicePort(), DEVICE_ID)
        with pytest.raises(DeliveryFailed) as failed:
            controller.deliver(session, batch[0])
        assert failed.value.reason == reason
        assert controller.registry[DEVICE_ID] == record


class TestAttestation:
    def install(self, controller, repo_port, device_port, oem_key):
        enroll(controller, device_port)
        publish_update(repo_port, oem_key)
        batch = controller.sync(repo_port)
        session = controller.open_channel(device_port, DEVICE_ID)
        controller.deliver(session, batch[0])

    def test_after_install_verified(self, controller, repo_port, device_port, oem_key):
        self.install(controller, repo_port, device_port, oem_key)
        assert controller.request_attestation(device_port, DEVICE_ID).verified

    def test_missing_response(self, controller, device_port):
        enroll(controller, device_port)

        class Silent:
            def attest(self, nonce):
                return None

        result = controller.request_attestation(Silent(), DEVICE_ID)
        assert not result.verified and result.reason == AttestOutcome.MISSING

    def test_replayed_report_is_wrong_nonce(self, controller, repo_port, device_port, oem_key):
        self.install(controller, repo_port, device_port, oem_key)
        old_report = device_port.attest(b"\x61" * 16)

        class Replayer:
            def attest(self, nonce):
                return old_report

        result = controller.request_attestation(Replayer(), DEVICE_ID)
        assert not result.verified and result.reason == AttestOutcome.WRONG_NONCE

    def test_forged_tag(self, controller, repo_port, device_port, oem_key):
        self.install(controller, repo_port, device_port, oem_key)

        class Forger:
            def attest(self, nonce):
                report = device_port.attest(nonce)
                from dataclasses import replace

                return replace(report, tag=bytes(32))

        result = controller.request_attestation(Forger(), DEVICE_ID)
        assert not result.verified and result.reason == AttestOutcome.BAD_TAG

    def test_skipped_install_is_wrong_measurement(self, controller, repo_port, device_port, oem_key):
        enroll(controller, device_port)
        publish_update(repo_port, oem_key)
        batch = controller.sync(repo_port)
        device_port.set_suppress_install(True)  # lying installer claims success
        session = controller.open_channel(device_port, DEVICE_ID)
        outcome = controller.deliver(session, batch[0])
        assert outcome.status == InstallOutcome.INSTALLED  # the lie
        result = controller.request_attestation(device_port, DEVICE_ID)
        assert not result.verified and result.reason == AttestOutcome.WRONG_MEASUREMENT

    def test_nonces_never_repeat(self, controller, repo_port, device_port, oem_key):
        self.install(controller, repo_port, device_port, oem_key)
        for _ in range(50):
            controller.request_attestation(device_port, DEVICE_ID)
        nonces = controller.nonce_log
        assert len(nonces) == len(set(nonces))

    def test_repeated_nonce_is_a_typed_error(self, controller, device_port):
        enroll(controller, device_port)
        controller.rng = RepeatingRng()
        assert controller.request_attestation(device_port, DEVICE_ID).verified
        with pytest.raises(NonceCollision):
            controller.request_attestation(device_port, DEVICE_ID)
        assert len(controller.nonce_log) == 1


class RepeatingRng:
    """Stub rng whose every draw is the same nonce."""

    def __init__(self, nonce: bytes = b"\x5a" * 16) -> None:
        self.nonce = nonce

    def randbytes(self, n: int) -> bytes:
        return self.nonce[:n]


def test_save_load_round_trip(tmp_path, controller, repo_port, device_port, oem_key):
    enroll(controller, device_port)
    publish_update(repo_port, oem_key)
    batch = controller.sync(repo_port)
    session = controller.open_channel(device_port, DEVICE_ID)
    controller.deliver(session, batch[0])
    controller.request_attestation(device_port, DEVICE_ID)
    controller.policy = LocalPolicy(window=(1, 9), allowed_models=frozenset({MODEL}))
    path = str(tmp_path / "controller.state")
    save_controller(controller, path)
    loaded = load_controller(path, rng=random.Random(11))
    assert loaded.trust.root == controller.trust.root
    assert loaded.trust.last_seen == controller.trust.last_seen
    assert loaded.registry == controller.registry
    assert loaded.seen_targets == controller.seen_targets
    assert loaded.policy == controller.policy
    assert loaded.nonce_log == controller.nonce_log
    assert loaded.clock == controller.clock


def saved_state(tmp_path, controller, repo_port, device_port, oem_key) -> bytes:
    """A controller state file with every section populated."""
    enroll(controller, device_port)
    publish_update(repo_port, oem_key)
    batch = controller.sync(repo_port)
    controller.deliver(controller.open_channel(device_port, DEVICE_ID), batch[0])
    controller.request_attestation(device_port, DEVICE_ID)
    controller.request_attestation(device_port, DEVICE_ID)
    controller.policy = LocalPolicy(window=(1, 9), allowed_models=frozenset({MODEL}))
    path = str(tmp_path / "controller.state")
    save_controller(controller, path)
    with open(path, "rb") as fh:
        return fh.read()


def _offsets(data: bytes) -> dict[str, int]:
    """Byte offsets of the fields the corruption tests rewrite."""
    root_len = struct.unpack(">I", data[13:17])[0]
    last_seen_at = 17 + root_len
    registry_at = last_seen_at + 1 + 9 * data[last_seen_at]
    registry_count = struct.unpack(">I", data[registry_at : registry_at + 4])[0]
    seen_at = registry_at + 4 + registry_count * (8 + 8 + 32 + 8 + 32)
    return {
        "first_role_tag": last_seen_at + 1,
        "first_name": seen_at + 4 + 2,
        "first_nonce": len(data) - 2 * 16,
    }


def test_load_rejects_unknown_role_tag(tmp_path, controller, repo_port, device_port, oem_key):
    data = bytearray(saved_state(tmp_path, controller, repo_port, device_port, oem_key))
    data[_offsets(data)["first_role_tag"]] = 9
    path = tmp_path / "bad.state"
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError):
        load_controller(str(path))


def test_load_rejects_non_utf8_target_name(tmp_path, controller, repo_port, device_port, oem_key):
    data = bytearray(saved_state(tmp_path, controller, repo_port, device_port, oem_key))
    data[_offsets(data)["first_name"]] = 0xFF
    path = tmp_path / "bad.state"
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError):
        load_controller(str(path))


def test_load_rejects_duplicate_nonces(tmp_path, controller, repo_port, device_port, oem_key):
    data = bytearray(saved_state(tmp_path, controller, repo_port, device_port, oem_key))
    first = _offsets(data)["first_nonce"]
    data[first + 16 :] = data[first : first + 16]
    path = tmp_path / "bad.state"
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError):
        load_controller(str(path))


def test_load_rejects_fewer_nonces_drawn_than_logged(tmp_path, controller, repo_port, device_port, oem_key):
    data = bytearray(saved_state(tmp_path, controller, repo_port, device_port, oem_key))
    count_at = len(data) - 2 * 16 - 4  # nonces drawn(8) precedes the nonce count(4)
    assert struct.unpack(">Q", data[count_at - 8 : count_at]) == (3,)  # one handshake, two attestations
    data[count_at - 8 : count_at] = struct.pack(">Q", 1)
    path = tmp_path / "bad.state"
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError, match="2 logged nonces but 1 drawn") as excinfo:
        load_controller(str(path))
    assert excinfo.value.position == count_at


def test_loaded_nonce_log_still_refuses_reuse(tmp_path, controller, repo_port, device_port, oem_key):
    saved_state(tmp_path, controller, repo_port, device_port, oem_key)
    loaded = load_controller(str(tmp_path / "controller.state"), rng=RepeatingRng(controller.nonce_log[-1]))
    with pytest.raises(NonceCollision):
        loaded.request_attestation(device_port, DEVICE_ID)


def test_attestation_nonce_state_stays_bounded(tmp_path, controller, device_port):
    """NONCE_WINDOW + 100 attestations of one device: its flash image keeps
    its size, and the controller keeps the last NONCE_WINDOW nonces, which it
    refuses to draw again, also once saved and loaded, and no older one."""
    enroll(controller, device_port)
    flash_sizes, state_sizes, drawn = [], [], []
    for _ in range(NONCE_WINDOW + 100):
        assert controller.request_attestation(device_port, DEVICE_ID).verified
        drawn.append(controller.nonce_log[-1])
        flash_sizes.append(len(encode_flash(device_port.device)))
        state_sizes.append(len(encode_controller(controller)))
    assert flash_sizes == [flash_sizes[0]] * len(flash_sizes)
    assert len(controller.nonce_log) == NONCE_WINDOW
    assert list(controller.nonce_log) == drawn[-NONCE_WINDOW:]
    full = state_sizes[NONCE_WINDOW - 1]
    assert state_sizes[NONCE_WINDOW - 2] < full
    assert state_sizes[NONCE_WINDOW - 1 :] == [full] * 101
    path = str(tmp_path / "controller.state")
    save_controller(controller, path)
    for ctrl in (controller, load_controller(path)):
        ctrl.rng = RepeatingRng(drawn[-NONCE_WINDOW])
        with pytest.raises(NonceCollision):
            ctrl.request_attestation(device_port, DEVICE_ID)
        ctrl.rng = RepeatingRng(drawn[-NONCE_WINDOW - 1])  # out of the window
        assert ctrl.request_attestation(device_port, DEVICE_ID).verified

    data = encode_controller(load_controller(path))
    count_at = len(data) - NONCE_WINDOW * 16 - 4
    assert data[count_at : count_at + 4] == struct.pack(">I", NONCE_WINDOW)
    longer = data[:count_at] + struct.pack(">I", NONCE_WINDOW + 1) + data[count_at + 4 :] + b"\xee" * 16
    with pytest.raises(ParseError, match=f"{NONCE_WINDOW + 1} logged nonces, more than the {NONCE_WINDOW}") as caught:
        decode_controller(longer)
    assert caught.value.position == count_at


@pytest.fixture(scope="module")
def state_sample(tmp_path_factory):
    from assured.metadata import parse

    oem = crypto.signing_key_from_seed(bytes(range(32)))
    workdir = tmp_path_factory.mktemp("controller")
    repo = LocalRepoPort(
        new_repository(
            root_keys=seeded_keys(b"r", 2),
            targets_keys=seeded_keys(b"t", 2),
            snapshot_keys=seeded_keys(b"s", 1),
            timestamp_keys=seeded_keys(b"w", 1),
        )
    )
    ctrl = Controller(trusted_root=parse(repo.trusted_root_bytes(), repo.mode()), rng=random.Random(3))
    device = Device(
        device_model=MODEL, device_id=DEVICE_ID, oem_public=oem.public, attestation_key=K_ATT, rng=random.Random(9)
    )
    factory = b"\x01" * 128
    device.provision_firmware(
        factory, issue_token(oem, factory, Constraints(device_model=MODEL, device_id=DEVICE_ID, new_version=1))
    )
    valid = saved_state(workdir, ctrl, repo, LocalDevicePort(device), oem)
    return valid, str(workdir / "fuzzed.state")


def _load_state_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        load_controller(path)
    except ParseError:
        pass


@given(data=st.binary(max_size=600))
@settings(max_examples=200, deadline=None)
def test_load_controller_arbitrary_bytes_only_parse_error(state_sample, data):
    _, path = state_sample
    _load_state_bytes(path, b"ASCS" + data)
    _load_state_bytes(path, data)


@given(position=st.integers(min_value=0), value=st.integers(min_value=0, max_value=255))
@settings(max_examples=300, deadline=None)
def test_load_controller_single_byte_mutation_only_parse_error(state_sample, position, value):
    valid, path = state_sample
    mutated = bytearray(valid)
    mutated[position % len(valid)] = value
    _load_state_bytes(path, bytes(mutated))


def test_load_rejects_trailing_bytes(tmp_path, controller, repo_port, device_port, oem_key):
    data = saved_state(tmp_path, controller, repo_port, device_port, oem_key)
    path = tmp_path / "bad.state"
    path.write_bytes(data + b"GARBAGE")
    with pytest.raises(ParseError) as excinfo:
        load_controller(str(path))
    assert excinfo.value.position == len(data)


@pytest.mark.parametrize("flag", ["mode", "window", "allow-list"])
@pytest.mark.parametrize("value", [2, 0x80, 0xFF])
def test_load_rejects_a_flag_byte_other_than_zero_or_one(tmp_path, controller, repo_port, device_port, oem_key, flag, value):
    data = bytearray(saved_state(tmp_path, controller, repo_port, device_port, oem_key))
    # the mode flag follows the magic and the clock; saved_state's file ends with
    # window flag(1) start(8) end(8), allow-list flag(1) count(4) one model(8),
    # nonces drawn(8), nonce count(4) and two 16-byte nonces
    offset = {"mode": 4 + 8, "window": len(data) - 74, "allow-list": len(data) - 57}[flag]
    assert data[offset] == (0 if flag == "mode" else 1)
    data[offset] = value
    path = tmp_path / "bad.state"
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError) as excinfo:
        load_controller(str(path))
    assert excinfo.value.position == offset


def two_entry_state(tmp_path, controller) -> tuple[bytes, dict[str, tuple[int, int, int]]]:
    """A state file whose last-seen, registry, seen-target and allow-list
    lists hold two entries each, and per list (first key offset, second key
    offset, key length)."""
    controller.trust.last_seen = {RoleKind.ROOT: 1, RoleKind.TARGETS: 5}
    for device_id in (1, 2):
        controller.enroll(device_id, MODEL, bytes([device_id]) * 32, 0, bytes(32))
    controller.seen_targets = {"fw-a": bytes(32), "fw-b": bytes(32)}
    controller.policy = LocalPolicy(allowed_models=frozenset({MODEL, MODEL + 1}))
    path = tmp_path / "controller.state"
    save_controller(controller, str(path))
    data = path.read_bytes()
    last_seen_at = 17 + struct.unpack(">I", data[13:17])[0]  # count(1), tag(1) version(8) each
    registry_at = last_seen_at + 1 + 2 * 9  # count(4), id(8) model(8) key(32) version(8) digest(32) each
    seen_at = registry_at + 4 + 2 * 88  # count(4), name length(2) name(4) hash(32) each
    allow_at = seen_at + 4 + 2 * 38 + 1  # after the window flag: flag(1) count(4) model(8) each
    return data, {
        "last-seen": (last_seen_at + 1, last_seen_at + 10, 1),
        "registry": (registry_at + 4, registry_at + 92, 8),
        "seen-target": (seen_at + 4, seen_at + 42, 6),
        "allow-list": (allow_at + 5, allow_at + 13, 8),
    }


@pytest.mark.parametrize("edit", ["repeat", "swap"])
@pytest.mark.parametrize("listed", ["last-seen", "registry", "seen-target", "allow-list"])
def test_load_rejects_a_keyed_list_out_of_order_or_repeated(tmp_path, controller, listed, edit):
    """Two last-seen entries for root (versions 1 and 5) once loaded as
    {root: 5} and re-saved to different bytes; every keyed list must be
    strictly increasing, as save_controller writes it."""
    data, lists = two_entry_state(tmp_path, controller)
    first, second, length = lists[listed]
    keys = [data[first : first + length], data[second : second + length]]
    assert keys[0] < keys[1]
    mutated = bytearray(data)
    mutated[second : second + length] = keys[0]
    if edit == "swap":
        mutated[first : first + length] = keys[1]
    path = tmp_path / "bad.state"
    path.write_bytes(bytes(mutated))
    with pytest.raises(ParseError) as excinfo:
        load_controller(str(path))
    assert excinfo.value.position == second
