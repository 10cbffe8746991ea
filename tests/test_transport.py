"""Local vs remote port equivalence: the JSON-lines servers must be
byte-for-byte and error-for-error interchangeable with direct calls."""

import json
import random
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assured import crypto, errors
from assured.authorization import Constraints, build_envelope, encode_token, issue_token, serialize_envelope
from assured.device import AttestationReport, BootResult, Device, InstallMode, InstallOutcome
from assured.errors import AuthFailure, ChannelError, NotFound
from assured.metadata import Mode, RoleKind
from assured.repository import TamperKind, TamperPolicy, new_repository
from assured.transport import (
    DEVICE_OPS,
    REPO_OPS,
    DeviceServer,
    LocalDevicePort,
    LocalRepoPort,
    RemoteDevicePort,
    RemoteRepoPort,
    RepoServer,
    _decode,
    _encode,
    _line_reader,
    _LineClient,
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


# --- the wire codec -----------------------------------------------------------------

# constructor arguments for error classes whose __init__ is not (message,)
ERROR_ARGS = {
    errors.ReplayOrReorder: (3, 5),
    errors.ParseError: ("bad length", "signed.targets[2]"),
    errors.MetadataError: ("targets", "expired at tick 9"),
    errors.TokenRejected: (errors.TokenRejected.HASH_MISMATCH,),
}


def sample_error(cls):
    for base in cls.__mro__:
        if base in ERROR_ARGS:
            return cls(*ERROR_ARGS[base])
    return cls("some detail")


def over_the_wire(value):
    return _decode(json.loads(json.dumps(_encode(value))))


ERROR_CLASSES = [
    cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, errors.AssuredError)
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_round_trips_through_the_codec(cls):
    error = sample_error(cls)
    decoded = over_the_wire(error)
    assert type(decoded) is cls
    assert str(decoded) == str(error)
    assert decoded.args == error.args
    assert vars(decoded) == vars(error)


def test_error_classes_cover_errors_module():
    assert len(ERROR_CLASSES) >= 20
    assert {"TokenRejected", "ThresholdNotMet", "ConstraintViolation", "PolicyDeferred"} <= {
        cls.__name__ for cls in ERROR_CLASSES
    }


def test_error_class_from_elsewhere_travels_as_its_errors_base():
    class LocalRejection(errors.TokenRejected):
        pass

    decoded = over_the_wire(LocalRejection(errors.TokenRejected.SIZE_MISMATCH))
    assert type(decoded) is errors.TokenRejected
    assert decoded.reason == errors.TokenRejected.SIZE_MISMATCH


def test_codec_round_trips_every_value_kind():
    values = [
        None, True, 7, "name", b"", b"\x00\xff" * 40, [b"a", [b"b"]],
        {"id": 2, "active_bank": 0, "needs_replacement": False},
        Mode.FIXED_BINARY, RoleKind.TARGETS, TamperKind.SUBSTITUTE_ARTIFACT,
        TamperPolicy(kind=TamperKind.FLIP_BIT_IN_ENVELOPE, bit_offset=17),
        AttestationReport(device_id=2, nonce=b"\x01" * 16, measurement=b"\x02" * 32, tag=b"\x03" * 32),
        BootResult(running=True, version=3, reason=""),
        InstallOutcome(status=InstallOutcome.REJECTED, version=0, reason="hash_mismatch"),
    ]
    decoded = over_the_wire(values)
    assert decoded == values
    assert [type(v) for v in decoded] == [type(v) for v in values]


@pytest.mark.parametrize(
    "wire",
    [
        1.5,
        {},
        {"bytes": "AA==", "dict": {}},
        {"no-such-tag": 1},
        {"bytes": "not base64!"},
        {"bytes": 5},
        {"dict": [1, 2]},
        {"enum": ["Device", "x"]},
        {"enum": ["Mode", "no-such-mode"]},
        {"enum": "Mode"},
        {"data": ["Device", {"dict": {}}]},
        {"data": ["BootResult", {"dict": {"bogus": 1}}]},
        {"data": ["BootResult", [True]]},
        {"data": ["BootResult", {"dict": {"running": 1, "version": 0, "reason": ""}}]},
        {"data": ["BootResult", {"dict": {"running": True, "version": 0}}]},
        {"data": ["InstallOutcome", {"dict": {"status": "bogus", "version": "x", "reason": None}}]},
        {"data": ["InstallOutcome", {"dict": {"status": "bogus", "version": 1, "reason": ""}}]},
        {"data": ["InstallOutcome", {"dict": {"status": "installed", "version": True, "reason": ""}}]},
        {"data": ["AttestationReport", {"dict": {
            "device_id": 2, "nonce": 5, "measurement": {"bytes": ""}, "tag": {"bytes": ""}}}]},
        {"data": ["TamperPolicy", {"dict": {"kind": "stale", "bit_offset": 0}}]},
        {"data": ["TamperPolicy", {"dict": {"kind": {"enum": ["TamperKind", "stale"]}, "bit_offset": 0, "x": 1}}]},
        {"error": ["ValueError", ["x"], {"dict": {}}]},
        {"error": ["SimulatedPowerLoss", ["x"], {"dict": {}}]},
        {"error": ["TokenRejected", "hash_mismatch", {"dict": {}}]},
        {"error": ["TokenRejected", ["hash_mismatch"], [["reason", "x"]]]},
        [{"bytes": "AA=="}, {"enum": ["Mode"]}],
    ],
)
def test_codec_rejects_unknown_tags_and_classes(wire):
    with pytest.raises(errors.ParseError):
        _decode(wire)


# each wire dataclass and the exact type of each of its fields
WIRE_FIELD_TYPES = {
    TamperPolicy: {"kind": TamperKind, "bit_offset": int},
    AttestationReport: {"device_id": int, "nonce": bytes, "measurement": bytes, "tag": bytes},
    BootResult: {"running": bool, "version": int, "reason": str},
    InstallOutcome: {"status": str, "version": int, "reason": str},
}
well_typed = {
    TamperKind: st.sampled_from(TamperKind).map(_encode),
    int: st.integers(),
    bool: st.booleans(),
    str: st.sampled_from(InstallOutcome.STATUSES) | st.text(max_size=8),
    bytes: st.binary(max_size=40).map(_encode),
}


@st.composite
def wire_dataclass_values(draw):
    cls = draw(st.sampled_from(sorted(WIRE_FIELD_TYPES, key=lambda cls: cls.__name__)))
    # each field: a value of its type, or any JSON value (json_values, defined below)
    values = {key: well_typed[kind] | json_values for key, kind in WIRE_FIELD_TYPES[cls].items()}
    fields = draw(
        st.fixed_dictionaries(values)
        | st.fixed_dictionaries({}, optional={**values, "extra": json_values})
    )
    return cls, {"data": [cls.__name__, {"dict": fields}]}


@given(case=wire_dataclass_values())
@settings(max_examples=300, deadline=None)
def test_wire_dataclasses_decode_only_with_exactly_their_typed_fields(case):
    cls, wire = case
    try:
        value = _decode(json.loads(json.dumps(wire)))
    except errors.ParseError:
        return
    assert type(value) is cls
    assert {key: type(item) for key, item in vars(value).items()} == WIRE_FIELD_TYPES[cls]
    if cls is InstallOutcome:
        assert value.status in InstallOutcome.STATUSES


def test_codec_refuses_values_outside_its_tables():
    with pytest.raises(TypeError):
        _encode(InstallMode.DUAL_BANK)
    with pytest.raises(TypeError):
        _encode(1.5)


# --- errors and ops across a connection ----------------------------------------------


def test_token_rejection_keeps_its_reason_across_the_wire(device_pair, oem_key):
    artifact = b"\x01" * 128
    token = encode_token(issue_token(oem_key, b"\x02" * 128, Constraints(device_model=1, device_id=2, new_version=1)))
    for port in device_pair:
        with pytest.raises(errors.TokenRejected) as caught:
            port.provision(artifact, token)
        assert type(caught.value) is errors.TokenRejected
        assert caught.value.reason == errors.TokenRejected.HASH_MISMATCH
        assert str(caught.value) == "hash_mismatch"


def raised(call):
    with pytest.raises(errors.AssuredError) as caught:
        call()
    return caught.value


def test_server_errors_arrive_equal_to_local_ones(repo_pair, device_pair):
    calls = [
        (repo_pair, lambda port: port.publish("fw", b"not an envelope")),
        (repo_pair, lambda port: port.fetch_envelope("nope")),
        (device_pair, lambda port: port.provision(b"\x01" * 128, b"\x00" * 20)),
    ]
    for pair, call in calls:
        local, remote = (raised(lambda: call(port)) for port in pair)
        assert type(remote) is type(local)
        assert str(remote) == str(local)
        assert vars(remote) == vars(local)


def test_ops_are_the_public_methods_of_the_local_ports():
    assert set(REPO_OPS) == {
        "mode", "clock", "fetch_metadata", "fetch_envelope", "trusted_root_bytes",
        "publish", "publish_vanilla", "refresh", "tamper", "advance_clock",
    }
    assert set(DEVICE_OPS) == {
        "hello", "exchange", "attest", "boot", "receive_unsealed", "provision",
        "corrupt_flash", "set_suppress_install", "verify_count", "info",
    }
    assert set(REPO_OPS) <= set(vars(RemoteRepoPort))
    assert set(DEVICE_OPS) <= set(vars(RemoteDevicePort))


REFUSED_OPS = ["state", "device", "port_impl", "dispatch", "close", "_lock", "__class__", "__init__", "__dict__", ""]


@pytest.mark.parametrize("op", REFUSED_OPS + ["info"])
def test_repo_server_refuses_names_outside_its_ops(repo_pair, op):
    _, remote = repo_pair
    before = remote.fetch_metadata(RoleKind.ROOT)
    with pytest.raises(errors.AssuredError, match="unknown op"):
        remote._client.call(op)
    assert remote.fetch_metadata(RoleKind.ROOT) == before


@pytest.mark.parametrize("op", REFUSED_OPS + ["fetch_metadata"])
def test_device_server_refuses_names_outside_its_ops(device_pair, op):
    _, remote = device_pair
    with pytest.raises(errors.AssuredError, match="unknown op"):
        remote._client.call(op)
    assert remote.info()["id"] == 2


@pytest.mark.parametrize(
    "reply",
    [
        b"not json\n",
        b"\xff\xfe\n",
        b"[[[[\n",
        b"[1, 2]\n",
        b'"ok"\n',
        b"{}\n",
        b'{"ok": true}\n',
        b'{"ok": false}\n',
        b'{"ok": 1, "result": 5}\n',
        b'{"ok": false, "error": "TokenRejected"}\n',
        b'{"ok": false, "error": {"bytes": "AA=="}}\n',
        b'{"ok": false, "error": {"error": ["NoSuchError", [], {"dict": {}}]}}\n',
        b'{"ok": true, "result": {"no-such-tag": 1}}\n',
        b'{"ok": true, "result": 1.5}\n',
        b"[" * 100_000 + b"\n",
    ],
)
def test_client_raises_parse_error_on_a_malformed_reply(reply):
    near, far = socket.socketpair()
    client = _LineClient.__new__(_LineClient)
    client._sock, client._reader = near, _line_reader(near)
    try:
        far.sendall(reply)
        with pytest.raises(errors.ParseError):
            client.call("info")
    finally:
        client.close()
        far.close()


@pytest.fixture(scope="module")
def device_connection():
    oem = crypto.signing_key_from_seed(bytes(range(32)))
    server = DeviceServer(fresh_device(oem))
    sock = socket.create_connection(parse_listen_address(serve_in_thread(server)), timeout=10)
    reader = _line_reader(sock)

    def exchange(line: bytes) -> dict:
        sock.sendall(line)
        return json.loads(reader.readline())

    yield exchange
    reader.close()
    sock.close()
    server.shutdown()
    server.server_close()


def is_device_call(value) -> bool:
    return isinstance(value, dict) and value.get("op") in DEVICE_OPS and isinstance(value.get("args"), list)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
bad_requests = st.one_of(
    st.binary(max_size=200).map(lambda raw: raw.replace(b"\n", b"")),
    json_values.filter(lambda value: not is_device_call(value)).map(lambda value: json.dumps(value).encode()),
    st.builds(
        lambda op, args: json.dumps({"op": op, "args": args}).encode(),
        st.sampled_from(REFUSED_OPS) | json_values.filter(lambda op: op not in DEVICE_OPS),
        st.lists(json_values, max_size=3),
    ),
)


@given(line=bad_requests)
@settings(max_examples=200, deadline=None)
def test_server_answers_any_bad_request_and_keeps_serving(device_connection, line):
    reply = device_connection(line + b"\n")
    assert reply["ok"] is False
    assert isinstance(_decode(reply["error"]), errors.AssuredError)
    info = device_connection(b'{"op": "info", "args": []}\n')
    assert info["ok"] is True
    assert _decode(info["result"])["id"] == 2


@pytest.mark.parametrize(
    "line", [b"not json", b"\xff\xfe", b'{"op": ', b"[" * 100_000], ids=["text", "not-utf8", "cut-short", "too-deep"]
)
def test_server_answers_a_line_that_is_not_json_with_parse_error(device_connection, line):
    reply = device_connection(line + b"\n")
    assert reply["ok"] is False
    assert type(_decode(reply["error"])) is errors.ParseError
    assert device_connection(b'{"op": "info", "args": []}\n')["ok"] is True


# --- the traced benchmark binds transport internals by name --------------------------------


def test_traced_image_socket_bench_still_counts_every_rpc():
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "image-socket", "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    metrics = json.loads(run.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["transport.rpc.calls"]["value"] == 12.0
    assert metrics["transport.rpc.line_bytes_per_payload_byte"]["value"] <= 1.34
