"""Local vs remote port equivalence: the JSON-lines servers must be
byte-for-byte and error-for-error interchangeable with direct calls."""

import random
import socket
import threading

import pytest

from assured import crypto
from assured.authorization import Constraints, build_envelope, issue_token, serialize_envelope
from assured.device import Device, InstallMode
from assured.errors import AuthFailure, ChannelError, NotFound
from assured.metadata import RoleKind
from assured.repository import TamperKind, TamperPolicy, new_repository
from assured.transport import (
    DeviceServer,
    LocalDevicePort,
    LocalRepoPort,
    RemoteDevicePort,
    RemoteRepoPort,
    RepoServer,
    _line_reader,
    is_unix_address,
    make_device_server,
    parse_listen_address,
    serve_in_thread,
)

K_ATT = b"\x66" * 32


def seeded_keys(label: bytes, count: int):
    return [crypto.signing_key_from_seed(label * 16 + bytes([i]) * 16) for i in range(count)]


def fresh_state():
    return new_repository(
        root_keys=seeded_keys(b"r", 2),
        targets_keys=seeded_keys(b"t", 2),
        snapshot_keys=seeded_keys(b"s", 1),
        timestamp_keys=seeded_keys(b"w", 1),
    )


def fresh_device(oem_key, seed=5):
    return Device(
        device_model=1,
        device_id=2,
        oem_public=oem_key.public,
        attestation_key=K_ATT,
        install_mode=InstallMode.DUAL_BANK,
        rng=random.Random(seed),
    )


@pytest.fixture
def repo_pair():
    local = LocalRepoPort(fresh_state())
    server = RepoServer(fresh_state())
    remote = RemoteRepoPort(serve_in_thread(server))
    yield local, remote
    remote.close()
    server.shutdown()
    server.server_close()


@pytest.fixture
def device_pair(oem_key):
    local = LocalDevicePort(fresh_device(oem_key))
    server = DeviceServer(fresh_device(oem_key))
    remote = RemoteDevicePort(serve_in_thread(server))
    yield local, remote
    remote.close()
    server.shutdown()
    server.server_close()


def test_parse_listen_address():
    assert parse_listen_address("127.0.0.1:8000") == ("127.0.0.1", 8000)
    assert parse_listen_address(":0") == ("127.0.0.1", 0)


def test_unix_address_detection():
    assert is_unix_address("/tmp/device.sock")
    assert is_unix_address("device.sock")
    assert not is_unix_address("127.0.0.1:8000")
    assert not is_unix_address(":0")


def test_device_over_unix_socket(tmp_path, oem_key):
    path = str(tmp_path / "device.sock")
    server = make_device_server(fresh_device(oem_key), path)
    remote = RemoteDevicePort(serve_in_thread(server))
    try:
        assert remote.info()["id"] == 2
        assert len(remote.hello(b"\x00" * 16)) == 16
    finally:
        remote.close()
        server.shutdown()
        server.server_close()


def test_repo_ports_serve_identical_bytes(repo_pair, oem_key):
    local, remote = repo_pair
    assert local.mode() == remote.mode()
    assert local.clock() == remote.clock()
    assert local.trusted_root_bytes() == remote.trusted_root_bytes()
    artifact = b"\x42" * 256
    token = issue_token(oem_key, artifact, Constraints(new_version=2))
    envelope = serialize_envelope(build_envelope(token, artifact))
    local.publish("fw", envelope)
    remote.publish("fw", envelope)
    for role in RoleKind:
        assert local.fetch_metadata(role) == remote.fetch_metadata(role)
    assert local.fetch_envelope("fw") == remote.fetch_envelope("fw")
    local.tamper(TamperPolicy(kind=TamperKind.FLIP_BIT_IN_ENVELOPE, bit_offset=17))
    remote.tamper(TamperPolicy(kind=TamperKind.FLIP_BIT_IN_ENVELOPE, bit_offset=17))
    assert local.fetch_envelope("fw") == remote.fetch_envelope("fw")


def test_repo_ports_raise_identical_errors(repo_pair):
    local, remote = repo_pair
    with pytest.raises(NotFound):
        local.fetch_envelope("nope")
    with pytest.raises(NotFound):
        remote.fetch_envelope("nope")


def test_device_ports_equivalent(device_pair, oem_key):
    local, remote = device_pair
    artifact = b"\x01" * 128
    token = issue_token(oem_key, artifact, Constraints(device_model=1, device_id=2, new_version=1))
    from assured.authorization import encode_token

    for port in (local, remote):
        port.provision(artifact, encode_token(token))
    assert local.info() == remote.info()
    assert local.boot() == remote.boot()
    # both rngs were seeded identically, so the nonces agree
    assert local.hello(b"\x00" * 16) == remote.hello(b"\x00" * 16)
    report_local = local.attest(b"\x09" * 16)
    report_remote = remote.attest(b"\x09" * 16)
    assert report_local == report_remote


def test_device_channel_errors_cross_the_wire(device_pair, oem_key):
    _, remote = device_pair
    artifact = b"\x01" * 128
    from assured.authorization import encode_token

    token = issue_token(oem_key, artifact, Constraints(device_model=1, device_id=2, new_version=1))
    remote.provision(artifact, encode_token(token))
    remote.hello(b"\x00" * 16)
    with pytest.raises((AuthFailure, ChannelError)):
        remote.exchange([b"\x00" * 64])


def test_verify_count_crosses_the_wire(device_pair):
    _, remote = device_pair
    assert isinstance(remote.verify_count(), int)


def test_line_reader_returns_whole_lines_however_late_they_arrive():
    """A line already waiting, one that arrives after the reader has stopped
    polling and gone to sleep, and one larger than any socket buffer all come
    back whole; end of stream reads as b""."""
    near, far = socket.socketpair()
    reader = _line_reader(near)
    try:
        far.sendall(b"first\n")
        assert reader.readline() == b"first\n"
        late = threading.Timer(0.05, far.sendall, args=(b"late\n",))
        late.start()
        assert reader.readline() == b"late\n"
        late.join(timeout=5)
        assert not late.is_alive()
        big = b"x" * (1 << 20) + b"\n"
        sender = threading.Thread(target=far.sendall, args=(big,))
        sender.start()
        assert reader.readline() == big
        sender.join(timeout=5)
        assert not sender.is_alive()
        far.close()
        assert reader.readline() == b""
    finally:
        reader.close()
        near.close()
        far.close()
