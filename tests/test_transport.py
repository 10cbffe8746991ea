"""Local vs remote port equivalence: the framed servers must be
byte-for-byte and error-for-error interchangeable with direct calls."""

import contextlib
import gc
import json
import random
import socket
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assured import crypto, errors
from assured.authorization import Constraints, build_envelope, encode_token, issue_token, serialize_envelope
from assured.controller import FRAME_PAYLOAD
from assured.device import AttestationReport, BootResult, Device, InstallMode, InstallOutcome
from assured.errors import AuthFailure, ChannelError, NotFound
from assured.metadata import Mode, RoleKind
from assured.harness import Mirror
from assured.repository import new_repository
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
    _decode_frame,
    _encode,
    _encode_frame,
    _FRAME_CAP,
    _HEADER_CAP,
    _line_reader,
    _LineClient,
    is_unix_address,
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
    server = DeviceServer(fresh_device(oem_key), path)
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


def served(port) -> dict:
    """Every role's bytes and envelope "fw"'s, or its error's type and message."""
    fetched = {role: port.fetch_metadata(role) for role in RoleKind}
    try:
        fetched["fw"] = port.fetch_envelope("fw")
    except NotFound as exc:
        fetched["fw"] = (type(exc), str(exc))
    return fetched


@pytest.mark.parametrize(
    "policy, offset, changes",
    [
        ("none", 0, set()),
        ("flip-bit", 17, {"fw"}),
        ("stale", 0, {RoleKind.TARGETS, RoleKind.SNAPSHOT, RoleKind.TIMESTAMP}),
        ("substitute", 0, {"fw"}),
        ("drop", 0, {"fw"}),
    ],
)
def test_a_mirror_serves_alike_over_local_and_remote_ports(repo_pair, oem_key, policy, offset, changes):
    """Each policy gives the same bytes or the same typed error whether the
    mirror wraps the repository in process or over the wire, changes only
    what it attacks, and the repository behind it keeps serving honest bytes."""
    mirrors = [Mirror(port) for port in repo_pair]
    artifact = b"\x42" * 256
    envelope = serialize_envelope(build_envelope(issue_token(oem_key, artifact, Constraints(new_version=2)), artifact))
    for port, mirror in zip(repo_pair, mirrors):
        port.publish("fw", envelope)
        mirror.set_policy(policy, offset)
    local, remote = (served(mirror) for mirror in mirrors)
    assert local == remote
    honest = served(repo_pair[0])
    assert served(repo_pair[1]) == honest and honest["fw"] == envelope
    assert {key for key in honest if local[key] != honest[key]} == changes


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
    return _decode_frame(_encode_frame({"ok": True, "result": value}))["result"]


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
    assert getattr(decoded, "reason", None) == getattr(error, "reason", None)


@pytest.mark.parametrize(
    "cls, token",
    [
        (errors.ChannelError, "channel_error"),
        (errors.AuthFailure, "auth_failure"),
        (errors.ReplayOrReorder, "replay_or_reorder"),
        (errors.MalformedFrame, "malformed_frame"),
    ],
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_a_channel_error_carries_its_class_token(cls, token):
    """The tokens that DeliveryFailed and the transcripts carry; a subclass
    defined elsewhere inherits its base's."""

    class LocalChannelError(cls):
        pass

    assert sample_error(cls).reason == sample_error(LocalChannelError).reason == token
    assert "reason" not in vars(sample_error(cls))  # so error frames stay as they are


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
        Mode.FIXED_BINARY, RoleKind.TARGETS,
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
    AttestationReport: {"device_id": int, "nonce": bytes, "measurement": bytes, "tag": bytes},
    BootResult: {"running": bool, "version": int, "reason": str},
    InstallOutcome: {"status": str, "version": int, "reason": str},
}
well_typed = {
    int: st.integers(),
    bool: st.booleans(),
    str: st.sampled_from(InstallOutcome.STATUSES) | st.text(max_size=8),
    bytes: st.binary(max_size=40),  # encoded, with its segment, once the fields are drawn
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
    segments = []
    fields = {key: _encode(item, segments) if isinstance(item, bytes) else item for key, item in fields.items()}
    return cls, {"data": [cls.__name__, {"dict": fields}]}, segments


@given(case=wire_dataclass_values())
@settings(max_examples=300, deadline=None)
def test_wire_dataclasses_decode_only_with_exactly_their_typed_fields(case):
    cls, wire, segments = case
    try:
        value = _decode(json.loads(json.dumps(wire)), segments)
    except errors.ParseError:
        return
    assert type(value) is cls
    assert {key: type(item) for key, item in vars(value).items()} == WIRE_FIELD_TYPES[cls]
    if cls is InstallOutcome:
        assert value.status in InstallOutcome.STATUSES


def test_codec_refuses_values_outside_its_tables():
    with pytest.raises(TypeError):
        _encode(InstallMode.DUAL_BANK, [])
    with pytest.raises(TypeError):
        _encode(1.5, [])


# --- frames ------------------------------------------------------------------------


def test_a_frame_is_a_json_header_line_then_the_raw_segments():
    frame = _encode_frame({"op": "publish", "args": ["fw", b"\x00\n\xff", [b"", b"z"]]})
    assert frame == (
        b'{"op": "publish", "args": ["fw", {"bytes": 0}, [{"bytes": 1}, {"bytes": 2}]], "sizes": [3, 0, 1]}\n'
        b"\x00\n\xffz"
    )
    assert _encode_frame({"op": "info", "args": []}) == b'{"op": "info", "args": []}\n'
    assert _decode_frame(frame) == {"op": "publish", "args": ["fw", b"\x00\n\xff", [b"", b"z"]]}


@pytest.mark.parametrize(
    "wire, segments",
    [
        ({"bytes": 0}, []),
        ({"bytes": 1}, [b"a", b"b"]),
        ([{"bytes": 1}, {"bytes": 0}], [b"a", b"b"]),
        ([{"bytes": 0}, {"bytes": 0}], [b"a"]),
        ({"bytes": False}, [b"a"]),
        ({"bytes": -1}, [b"a"]),
        ({"bytes": "AB=="}, [b"\x00"]),
        ({"bytes": 0}, [b"a", b"b"]),
        ("no reference", [b"a"]),
    ],
    ids=["missing", "skips-one", "out-of-order", "reused", "bool", "negative", "base64", "one-unused", "all-unused"],
)
def test_bytes_references_name_every_segment_once_in_order(wire, segments):
    with pytest.raises(errors.ParseError):
        _decode(wire, segments)


def frame_header(sizes) -> bytes:
    return json.dumps({"op": "hello", "args": [{"bytes": 0}], "sizes": sizes}).encode() + b"\n"


HEADER = frame_header([2])


# each frame that cannot be delimited, sent whole: the server reads all of it
UNDELIMITED = {
    "header-over-cap": b"x" * (_HEADER_CAP + 1),
    "sizes-not-a-list": frame_header(16),
    "size-negative": frame_header([-1]),
    "size-bool": frame_header([True]),
    "size-float": frame_header([16.0]),
    "size-text": frame_header(["16"]),
    "frame-over-cap": frame_header([_FRAME_CAP]),
}


@pytest.mark.parametrize(
    "frame",
    [
        b"",
        HEADER,
        HEADER + b"a",
        HEADER + b"abc",
        HEADER + b"ab" + HEADER + b"ab",
        b'{"op": "hello", "args": [{"bytes": 0}], "sizes": [2]}' + b"ab",
        b'{"op":"hello","args":[{"bytes":0}],"sizes":[2]}\nab',
        b'{"op": "hello", "args": [{"bytes": 0}], "sizes": [2]}\r\nab',
        b'{"op": "hello", "args": [{"bytes": 0}], "sizes": [2], "sizes": [2]}\nab',
        b'{"sizes": [2], "op": "hello", "args": [{"bytes": 0}]}\nab',
        b'{"args": [], "op": "info"}\n',
        b'{"op": "info", "args": [], "sizes": []}\n',
        b'{"op": "info", "args": [], "extra": 1}\n',
        b'{"ok": true, "result": 1, "error": 2}\n',
        b'{"ok": true}\n',
        '{"op": "info", "args": ["\u00e9"]}\n'.encode(),
    ],
    ids=[
        "empty", "no-segment", "short-segment", "trailing-byte", "two-frames", "no-newline", "compact-json",
        "crlf", "duplicate-key", "sizes-first", "keys-reordered", "empty-sizes", "extra-key", "three-keys",
        "no-result", "raw-utf8",
    ],
)
def test_frame_decoder_accepts_only_what_the_encoder_writes(frame):
    with pytest.raises(errors.ParseError):
        _decode_frame(frame)


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
        (device_pair, lambda port: port.attest(b"\x09" * 15)),
    ]
    for pair, call in calls:
        local, remote = (raised(lambda: call(port)) for port in pair)
        assert type(remote) is type(local)
        assert str(remote) == str(local)
        assert vars(remote) == vars(local)


def test_ops_are_the_public_methods_of_the_local_ports():
    assert set(REPO_OPS) == {
        "mode", "clock", "fetch_metadata", "fetch_envelope", "trusted_root_bytes",
        "publish", "publish_vanilla", "refresh", "advance_clock",
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


@contextlib.contextmanager
def client_reading(reply: bytes, then_end: bool = False):
    """A client whose next reply is ``reply`` (then end of stream, if
    ``then_end``), over a socketpair whose ends both have a timeout."""
    near, far = socket.socketpair()
    near.settimeout(10)
    far.settimeout(10)
    client = _LineClient.__new__(_LineClient)
    client._sock, client._reader = near, _line_reader(near)

    def send() -> None:
        far.sendall(reply)
        if then_end:
            far.shutdown(socket.SHUT_WR)

    sender = threading.Thread(target=send, daemon=True)
    sender.start()
    try:
        yield client
    finally:
        sender.join(timeout=10)
        client.close()
        far.close()
    assert not sender.is_alive()


BAD_REPLY_FRAMES = {
    **UNDELIMITED,
    "reference-out-of-order": b'{"ok": true, "result": [{"bytes": 1}, {"bytes": 0}], "sizes": [1, 1]}\nab',
    "segment-unused": b'{"ok": true, "result": 1, "sizes": [2]}\nab',
    "empty-sizes": b'{"ok": true, "result": 1, "sizes": []}\n',
    "not-canonical": b'{"ok":true,"result":{"bytes":0},"sizes":[2]}\nab',
    "request-shaped": b'{"op": "info", "args": []}\n',
    "error-not-an-error": b'{"ok": false, "error": {"bytes": 0}, "sizes": [2]}\nab',
}


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
        *(pytest.param(reply, id=name) for name, reply in BAD_REPLY_FRAMES.items()),
    ],
)
def test_client_raises_parse_error_on_a_malformed_reply(reply):
    with client_reading(reply) as client, pytest.raises(errors.ParseError):
        client.call("info")


@pytest.mark.parametrize(
    "reply",
    [b"", b'{"ok": true, "result": 1', b'{"ok": true, "result": {"bytes": 0}, "sizes": [10]}\nabc'],
    ids=["before-the-frame", "inside-the-header", "inside-a-segment"],
)
def test_client_raises_assured_error_when_the_stream_ends_inside_a_frame(reply):
    with client_reading(reply, then_end=True) as client, pytest.raises(errors.AssuredError) as caught:
        client.call("info")
    assert type(caught.value) is errors.AssuredError
    assert "connection closed" in str(caught.value)


@contextlib.contextmanager
def no_resource_warnings():
    """Fails if the block leaves a socket or file for the garbage collector to close."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def released_port_address() -> str:
    """A loopback address that nothing listens on: a port just bound and released."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return "127.0.0.1:%d" % sock.getsockname()[1]


def test_a_refused_connect_is_an_assured_error_naming_the_address():
    address = released_port_address()
    with no_resource_warnings():
        error = raised(lambda: RemoteRepoPort(address))
        assert type(error) is errors.AssuredError
        assert str(error).startswith(f"cannot connect to {address}: ConnectionRefusedError")
        del error  # its traceback holds the client that failed to connect


def test_an_unanswered_call_times_out_and_no_late_reply_answers_the_next_call():
    with socket.create_server(("127.0.0.1", 0)) as listener, no_resource_warnings():
        address = "127.0.0.1:%d" % listener.getsockname()[1]
        timed_out = threading.Event()

        def answer_late() -> None:
            conn, _ = listener.accept()
            with conn:
                conn.recv(1 << 16)
                timed_out.wait(10)
                with contextlib.suppress(OSError):
                    conn.sendall(_encode_frame({"ok": True, "result": 1}))

        server = threading.Thread(target=answer_late, daemon=True)
        server.start()
        client = _LineClient(address, timeout=0.3)
        first = raised(lambda: client.call("clock"))
        timed_out.set()
        server.join(timeout=10)
        assert not server.is_alive()
        assert type(first) is errors.AssuredError
        assert str(first).startswith(f"connection closed during op 'clock' to {address}: TimeoutError")
        second = raised(lambda: client.call("clock"))
        assert type(second) is errors.AssuredError and "connection closed" in str(second)
        del first, second, client


def test_a_clock_step_outside_u64_is_refused_alike_over_the_wire(repo_pair):
    local, remote = repo_pair
    for ticks in (-20, 2**64):
        errors_raised = [raised(lambda: port.advance_clock(ticks)) for port in repo_pair]
        assert [type(e) for e in errors_raised] == [errors.ParseError] * 2
        assert str(errors_raised[0]) == str(errors_raised[1])
    # the server keeps serving the state the refused steps left unchanged
    assert remote.clock() == local.clock() == 0
    remote.refresh()
    local.refresh()
    assert remote.fetch_metadata(RoleKind.TIMESTAMP) == local.fetch_metadata(RoleKind.TIMESTAMP)


@pytest.fixture(scope="module")
def device_address():
    oem = crypto.signing_key_from_seed(bytes(range(32)))
    server = DeviceServer(fresh_device(oem))
    yield parse_listen_address(serve_in_thread(server))
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def device_connection(device_address):
    sock = socket.create_connection(device_address, timeout=10)
    reader = _line_reader(sock)

    def exchange(line: bytes) -> dict:
        sock.sendall(line)
        return json.loads(reader.readline())

    yield exchange
    reader.close()
    sock.close()


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


@pytest.mark.parametrize(
    "frame",
    [
        HEADER.replace(b'"bytes": 0', b'"bytes": 1') + b"ab",
        HEADER.replace(b'[{"bytes": 0}]', b"[]") + b"ab",
        HEADER.replace(b'"args": [{"bytes": 0}]', b'"args": [{"bytes": 0}, {"bytes": 0}]') + b"ab",
        HEADER.replace(b", ", b",") + b"ab",
        b'{"sizes": [2], "op": "hello", "args": [{"bytes": 0}]}\nab',
        b'{"op": "info", "args": [], "sizes": []}\n',
        b'{"op": "info", "args": [], "sizes": [0]}\n',
    ],
    ids=["reference-out-of-order", "segment-unused", "segment-reused", "not-canonical", "sizes-first",
         "empty-sizes", "unused-empty-segment"],
)
def test_server_answers_a_well_framed_bad_request_and_keeps_the_connection(device_connection, frame):
    reply = device_connection(frame)
    assert reply["ok"] is False
    assert type(_decode(reply["error"])) is errors.ParseError
    assert device_connection(b'{"op": "info", "args": []}\n')["ok"] is True


@pytest.mark.parametrize("frame", UNDELIMITED.values(), ids=UNDELIMITED.keys())
def test_server_answers_a_frame_it_cannot_delimit_and_closes_only_that_connection(device_address, frame):
    with socket.create_connection(device_address, timeout=10) as bad, \
            socket.create_connection(device_address, timeout=10) as good:
        bad.sendall(frame)
        with _line_reader(bad) as reader:
            reply = json.loads(reader.readline())
            assert reply["ok"] is False
            assert type(_decode(reply["error"])) is errors.ParseError
            assert reader.read() == b""  # the server closed the connection
        good.sendall(b'{"op": "info", "args": []}\n')
        with _line_reader(good) as reader:
            assert json.loads(reader.readline())["ok"] is True


def test_header_at_the_cap_is_still_read_as_one_frame(device_connection):
    reply = device_connection(b"x" * (_HEADER_CAP - 1) + b"\n")
    assert type(_decode(reply["error"])) is errors.ParseError
    assert device_connection(b'{"op": "info", "args": []}\n')["ok"] is True


# --- bytes on the wire --------------------------------------------------------------


class CountingProxy:
    """Forwards one connection to ``upstream`` and counts every byte each end
    sends: ``counts`` is [client to server, server to client]."""

    def __init__(self, upstream: str) -> None:
        self.counts = [0, 0]
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(10)
        self._upstream = parse_listen_address(upstream)
        self._sockets: list[socket.socket] = []
        self._threads = [threading.Thread(target=self._serve, daemon=True)]
        self._threads[0].start()

    @property
    def address(self) -> str:
        return "127.0.0.1:%d" % self._listener.getsockname()[1]

    def _serve(self) -> None:
        client, _ = self._listener.accept()
        server = socket.create_connection(self._upstream, timeout=10)
        client.settimeout(10)
        self._sockets += [client, server]
        for direction, (source, sink) in enumerate([(client, server), (server, client)]):
            thread = threading.Thread(target=self._pump, args=(source, sink, direction), daemon=True)
            thread.start()
            self._threads.append(thread)

    def _pump(self, source: socket.socket, sink: socket.socket, direction: int) -> None:
        while data := source.recv(1 << 16):
            self.counts[direction] += len(data)
            sink.sendall(data)
        sink.shutdown(socket.SHUT_WR)

    def total(self) -> int:
        return sum(self.counts)

    def close(self) -> None:
        for thread in self._threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        for sock in [self._listener, *self._sockets]:
            sock.close()


def test_wire_bytes_are_within_one_percent_of_payload_bytes(oem_key):
    """One publish of a 256 KiB envelope and one exchange of its sealed frames."""
    artifact = bytes(range(256)) * 1024
    token = issue_token(oem_key, artifact, Constraints(device_model=1, device_id=2, new_version=1))
    envelope = serialize_envelope(build_envelope(token, artifact))
    repo_server, device_server = RepoServer(fresh_state()), DeviceServer(fresh_device(oem_key))
    repo_proxy = CountingProxy(serve_in_thread(repo_server))
    device_proxy = CountingProxy(serve_in_thread(device_server))
    repo, device = RemoteRepoPort(repo_proxy.address), RemoteDevicePort(device_proxy.address)
    try:
        repo.publish("fw", envelope)
        publish_wire = repo_proxy.total()

        controller_nonce = b"\x07" * 16
        channel = crypto.Channel(K_ATT, 2, controller_nonce, device.hello(controller_nonce), controller=True)
        [confirmation] = device.exchange([channel.seal(crypto.MSG_CONFIRM, channel.transcript)])
        assert channel.open(confirmation) == (crypto.MSG_CONFIRM, channel.transcript)
        handshake_wire = device_proxy.total()
        chunks = [envelope[i : i + FRAME_PAYLOAD] for i in range(0, len(envelope), FRAME_PAYLOAD)]
        frames = [
            channel.seal(crypto.MSG_FINAL_CHUNK if i == len(chunks) - 1 else crypto.MSG_CHUNK, chunk)
            for i, chunk in enumerate(chunks)
        ]
        replies = device.exchange(frames)
        exchange_wire = device_proxy.total() - handshake_wire

        kind, status = channel.open(replies[-1])
        assert kind == crypto.MSG_STATUS
        assert InstallOutcome.decode(status).status == InstallOutcome.INSTALLED
    finally:
        repo.close()
        device.close()
        repo_proxy.close()
        device_proxy.close()
        for server in (repo_server, device_server):
            server.shutdown()
            server.server_close()
    payload = len(envelope) + sum(map(len, frames)) + sum(map(len, replies))
    assert len(envelope) > 256 * 1024
    assert publish_wire + exchange_wire <= 1.01 * payload


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
