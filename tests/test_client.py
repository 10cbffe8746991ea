"""The one TUF client, metadata.TrustedState, as its two users run it: the
controller for its fleet and a comparison-mode device for itself. Both must
walk the same history to the same trusted state."""

import random

import pytest

from assured import crypto
from assured.authorization import Constraints, build_envelope, issue_token, serialize_envelope
from assured.controller import Controller
from assured.device import Device, InstallOutcome
from assured.errors import BindingMismatch, Expired, MetadataError, ParseError
from assured.metadata import RoleKind, TrustedState, parse
from assured.harness import Mirror
from assured.repository import new_repository, rotate_root
from assured.transport import LocalRepoPort

MODEL, DEVICE_ID = 100, 7


def seeded_keys(label: bytes, count: int):
    return [crypto.signing_key_from_seed(label * 16 + bytes([i]) * 16) for i in range(count)]


@pytest.fixture
def repo_port():
    return LocalRepoPort(
        new_repository(
            root_keys=seeded_keys(b"r", 2),
            targets_keys=seeded_keys(b"t", 2),
            snapshot_keys=seeded_keys(b"s", 1),
            timestamp_keys=seeded_keys(b"w", 1),
        )
    )


def trusted_root(repo_port):
    return parse(repo_port.trusted_root_bytes(), repo_port.mode())


def tuf_device(repo_port, oem_key):
    device = Device(MODEL, DEVICE_ID, oem_key.public, b"\x33" * 32, rng=random.Random(1))
    device.provision_trusted_root(trusted_root(repo_port))
    return device


def publish(repo_port, oem_key, version):
    """Publish "fw" at ``version``; returns its artifact."""
    artifact = bytes([version]) * 300
    token = issue_token(oem_key, artifact, Constraints(device_model=MODEL, new_version=version))
    repo_port.publish("fw", serialize_envelope(build_envelope(token, artifact)))
    return artifact


def receive(device, repo_port, artifact):
    blobs = dict(zip(RoleKind, repo_port.fetch_roles(list(RoleKind))))
    return device.receive_update_tuf(blobs, "fw", artifact, repo_port.mode(), now=repo_port.clock())


def verifications(call):
    """Run ``call`` and return its result and the signature verifications it made."""
    before = crypto.VERIFY_COUNTER.read()
    result = call()
    return result, crypto.VERIFY_COUNTER.read() - before


def test_device_follows_consecutive_root_rotations(repo_port, oem_key):
    device = tuf_device(repo_port, oem_key)
    for version, label in ((2, b"R"), (3, b"S")):
        repo_port.state = rotate_root(repo_port.state, seeded_keys(label, 2))
        artifact = publish(repo_port, oem_key, version)
        outcome = receive(device, repo_port, artifact)
        assert outcome.status == InstallOutcome.INSTALLED, outcome.reason
    assert device._trust.root.version == 3


def test_device_verification_counts(repo_port, oem_key):
    """Six on a new set; one when the timestamp pins the set it holds."""
    device = tuf_device(repo_port, oem_key)
    artifact = publish(repo_port, oem_key, 2)
    outcome, count = verifications(lambda: receive(device, repo_port, artifact))
    assert (outcome.status, count) == (InstallOutcome.INSTALLED, 6)
    outcome, count = verifications(lambda: receive(device, repo_port, artifact))
    assert (outcome.status, outcome.reason, count) == (InstallOutcome.REJECTED, "version_not_monotonic", 1)


@pytest.mark.parametrize("client", ["controller", "device"])
def test_expired_held_root_under_fresh_timestamp(repo_port, oem_key, client):
    """The trusted root's expiry is checked first on the timestamp-first
    path, before any signature."""
    ticks = 10001  # past the root's lifetime of 10000
    artifact = publish(repo_port, oem_key, 2)
    if client == "controller":
        controller = Controller(trusted_root=trusted_root(repo_port), mode=repo_port.mode())
        controller.sync(repo_port)
        controller.advance_clock(ticks)
    else:
        device = tuf_device(repo_port, oem_key)
        receive(device, repo_port, artifact)
    repo_port.advance_clock(ticks)
    repo_port.refresh()  # fresh timestamp, same (now expired) set
    if client == "controller":
        before = crypto.VERIFY_COUNTER.read()
        with pytest.raises(Expired) as excinfo:
            controller.sync(repo_port)
        assert excinfo.value.role == "root"
        assert crypto.VERIFY_COUNTER.read() - before == 0
    else:
        outcome, count = verifications(lambda: receive(device, repo_port, artifact))
        assert outcome.status == InstallOutcome.REJECTED
        assert outcome.reason.startswith("root: expired")
        assert count == 0


def test_controller_and_device_hold_the_same_trusted_state(repo_port, oem_key):
    """One scripted history through both clients: after each step they hold
    the same root version and version floors, made the same number of
    signature verifications and reached the same metadata verdict."""
    controller = Controller(trusted_root=trusted_root(repo_port), mode=repo_port.mode())
    device = tuf_device(repo_port, oem_key)
    mirror = Mirror(repo_port)  # both clients fetch through it; its stale set is the fresh one
    artifact = b""

    def release(version):
        nonlocal artifact
        artifact = publish(repo_port, oem_key, version)

    def advance(ticks):
        repo_port.advance_clock(ticks)
        controller.advance_clock(ticks)

    def rotate(label):
        repo_port.state = rotate_root(repo_port.state, seeded_keys(label, 2))

    steps = [
        ("publish", lambda: release(2)),
        ("refresh", repo_port.refresh),
        ("serve stale metadata", lambda: mirror.set_policy("stale")),
        ("serve honestly", lambda: mirror.set_policy("none")),
        ("advance 5", lambda: advance(5)),
        ("advance 10", lambda: advance(10)),
        ("refresh", repo_port.refresh),
        ("rotate root", lambda: rotate(b"R")),
        ("publish", lambda: release(3)),
        ("rotate root again", lambda: rotate(b"S")),
        ("refresh", repo_port.refresh),
        ("publish", lambda: release(4)),
    ]

    def sync():
        try:
            controller.sync(mirror)
        except MetadataError as exc:
            return str(exc)
        return None

    history = []
    for label, step in steps:
        step()
        controller_verdict, controller_count = verifications(sync)
        outcome, device_count = verifications(lambda: receive(device, mirror, artifact))
        device_verdict = None
        if outcome.status != InstallOutcome.INSTALLED and outcome.reason != "version_not_monotonic":
            device_verdict = outcome.reason
        assert device_verdict == controller_verdict, label
        assert device_count == controller_count, label
        assert device._trust.root.version == controller.trust.root.version, label
        assert device._trust.last_seen == controller.trust.last_seen, label
        history.append((label, controller_count, controller_verdict))
    assert history == [
        ("publish", 6, None),
        ("refresh", 1, None),
        ("serve stale metadata", 3, "timestamp: presented version 1 < last seen 3"),
        ("serve honestly", 1, None),
        ("advance 5", 1, None),
        ("advance 10", 1, "timestamp: expired at tick 10, now 15"),
        ("refresh", 1, None),
        ("rotate root", 6, None),
        ("publish", 6, None),
        ("rotate root again", 6, None),
        ("refresh", 1, None),
        ("publish", 6, None),
    ]
    assert controller.trust.root.version == 3


def test_a_timestamp_pinning_a_newer_snapshot_than_the_one_served_is_a_binding_mismatch(repo_port, oem_key):
    """A fresh client takes the full path. The timestamp served is the
    current one; the snapshot is the one from before the publish."""
    [before] = repo_port.fetch_roles([RoleKind.SNAPSHOT])
    publish(repo_port, oem_key, 2)
    served = dict(zip(RoleKind, repo_port.fetch_roles(list(RoleKind))))
    served[RoleKind.SNAPSHOT] = before
    client = TrustedState(trusted_root(repo_port))
    with pytest.raises(BindingMismatch, match="^snapshot: timestamp pins snapshot version 2, got 1$"):
        client.update(lambda roles: [served[role] for role in roles], repo_port.mode(), now=0)
    assert (client.last_seen, client.held) == ({}, None)


@pytest.mark.parametrize("asked", [1, 3], ids=["timestamp", "full-path"])
@pytest.mark.parametrize("blobs", [lambda blobs: blobs[:-1], lambda blobs: blobs + blobs[:1], lambda blobs: None],
                         ids=["one-fewer", "one-more", "none"])
def test_a_full_update_needs_one_blob_for_each_role_it_asked_for(repo_port, oem_key, blobs, asked):
    """The timestamp call asks for one role and the full path for three; a
    wrong answer to either is a ParseError, and nothing is committed."""
    publish(repo_port, oem_key, 2)
    controller = Controller(trusted_root=trusted_root(repo_port), mode=repo_port.mode())
    fetch_roles = repo_port.fetch_roles
    repo_port.fetch_roles = lambda roles: blobs(fetch_roles(roles)) if len(roles) == asked else fetch_roles(roles)
    with pytest.raises(ParseError, match=f"not one metadata blob for each of {asked} roles"):
        controller.sync(repo_port)
    assert (controller.trust.last_seen, controller.trust.held) == ({}, None)
