"""The one frame reader, transport._read_frame, as the server and the client
run it: it parses each received header line once, and only the server tells
a frame it cannot delimit apart from any other malformed frame."""

import io
import json
import socket
import threading

import pytest

from assured import crypto, errors, transport
from assured.device import AttestationReport
from assured.metadata import RoleKind
from assured.repository import new_repository
from assured.transport import (
    _FRAME_CAP,
    _HEADER_CAP,
    _NESTING_CAP,
    RemoteRepoPort,
    RepoServer,
    _line_reader,
    _LineClient,
    _decode_frame,
    _encode_frame,
    _read_frame,
    parse_listen_address,
    serve_in_thread,
)


def test_each_received_frame_header_is_parsed_once(monkeypatch):
    keys = [crypto.signing_key_from_seed(bytes([i]) * 32) for i in range(6)]
    server = RepoServer(new_repository(keys[:2], keys[2:4], keys[4:5], keys[5:]))
    remote = RemoteRepoPort(serve_in_thread(server))
    try:
        parsed = []
        loads = json.loads

        def counting_loads(text, *args, **kwargs):
            parsed.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(transport.json, "loads", counting_loads)
        assert remote.clock() == 0
        monkeypatch.undo()
        # the request header on the server, then the reply header on the client
        assert parsed == [b'{"op": "clock", "args": []}\n', b'{"ok": true, "result": 0}\n']
    finally:
        remote.close()
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize(
    "reply",
    [b'{"ok": true, "result": 1, "sizes": 5}\n', b'{"ok": true, "result": 1, "sizes": [%d]}\n' % _FRAME_CAP],
    ids=["sizes-not-a-list", "frame-over-cap"],
)
def test_a_client_raises_an_undelimited_reply_as_a_plain_parse_error(reply):
    near, far = socket.socketpair()
    with far:
        far.sendall(reply)
        client = _LineClient.__new__(_LineClient)
        client._sock, client._reader = near, _line_reader(near)
        with pytest.raises(errors.ParseError) as caught:
            client.call("info")
    assert type(caught.value) is errors.ParseError
    assert caught.value.position == "frame"


def test_a_request_over_the_frame_cap_is_refused_before_it_is_sent():
    keys = [crypto.signing_key_from_seed(bytes([i]) * 32) for i in range(6)]
    server = RepoServer(new_repository(keys[:2], keys[2:4], keys[4:5], keys[5:]))
    remote = RemoteRepoPort(serve_in_thread(server))
    try:
        with pytest.raises(errors.ParseError, match=f"frame is longer than {_FRAME_CAP} bytes"):
            remote.publish("big", bytes(_FRAME_CAP))
        assert remote.clock() == 0  # the connection is still open and in step
    finally:
        remote.close()
        server.shutdown()
        server.server_close()


def nested(depth: int) -> bytes:
    """A JSON array nested ``depth`` deep."""
    return b"[" * depth + b"]" * depth


def nesting(value) -> int:
    """How deep ``value`` nests arrays and objects."""
    if isinstance(value, (dict, list)):
        return 1 + max(map(nesting, value.values() if isinstance(value, dict) else value), default=0)
    return 0


# two header values, args or a result: the header object around one nests
# one level deeper, just past the cap, or past what json.loads parses
PAST_THE_CAP = nested(_NESTING_CAP)
PAST_THE_PARSER = nested((_HEADER_CAP - 64) // 2)


def test_the_deeper_value_is_past_the_parser_and_within_the_header_cap():
    with pytest.raises(RecursionError):
        json.loads(PAST_THE_PARSER)
    assert len(b'{"op": "clock", "args": %s}\n' % PAST_THE_PARSER) <= _HEADER_CAP


def test_a_header_nested_as_deep_as_the_cap_is_read():
    line = b'{"op": "clock", "args": %s}\n' % nested(_NESTING_CAP - 1)
    assert nesting(json.loads(line)) == _NESTING_CAP
    message = _read_frame(io.BytesIO(line))
    assert message["op"] == "clock" and nesting(message["args"]) == _NESTING_CAP - 1


@pytest.mark.parametrize(
    "message",
    [{"ok": True, "result": AttestationReport(2, b"n" * 16, b"m" * 32, b"t" * 32)},
     {"ok": False, "error": errors.ReplayOrReorder(1, 2)},
     {"op": "fetch_roles", "args": [[RoleKind.ROOT, RoleKind.TARGETS]]}],
    ids=["report-reply", "error-reply", "role-list-request"],
)
def test_the_cap_admits_the_deepest_headers_the_ports_send(message):
    frame = _encode_frame(message)
    assert nesting(json.loads(frame.split(b"\n")[0])) <= 6 < _NESTING_CAP
    assert _encode_frame(_decode_frame(frame)) == frame


WHERE = pytest.mark.parametrize(
    "deep, refusal",
    [(PAST_THE_CAP, f"frame header nests more than {_NESTING_CAP} deep"), (PAST_THE_PARSER, "frame header is not JSON")],
    ids=["past-the-cap", "past-the-parser"],
)


@WHERE
def test_a_deeply_nested_header_is_a_parse_error(deep, refusal):
    with pytest.raises(errors.ParseError, match=refusal) as caught:
        _read_frame(io.BytesIO(b'{"op": "clock", "args": %s}\n' % deep))
    assert caught.value.position == "header"


@WHERE
def test_a_server_answers_a_deeply_nested_request_with_parse_error_and_keeps_serving(deep, refusal):
    keys = [crypto.signing_key_from_seed(bytes([i]) * 32) for i in range(6)]
    server = RepoServer(new_repository(keys[:2], keys[2:4], keys[4:5], keys[5:]))
    address = parse_listen_address(serve_in_thread(server))
    try:
        with socket.create_connection(address, timeout=10) as sock, _line_reader(sock) as reader:
            sock.sendall(b'{"op": "clock", "args": %s}\n' % deep)
            reply = _read_frame(reader)
            assert reply["ok"] is False
            assert type(reply["error"]) is errors.ParseError
            assert str(reply["error"]).startswith(refusal)
            sock.sendall(b'{"op": "clock", "args": []}\n')
            assert _read_frame(reader) == {"ok": True, "result": 0}
    finally:
        server.shutdown()
        server.server_close()


@WHERE
def test_a_client_raises_a_deeply_nested_reply_as_parse_error_and_closes(deep, refusal):
    near, far = socket.socketpair()
    with far:
        # sent from a thread: the deeper reply is more than a socket buffer holds
        sender = threading.Thread(target=far.sendall, args=(b'{"ok": true, "result": %s}\n' % deep,), daemon=True)
        sender.start()
        client = _LineClient.__new__(_LineClient)
        client._sock, client._reader = near, _line_reader(near)
        with pytest.raises(errors.ParseError, match=refusal):
            client.call("clock")
        sender.join(timeout=10)
    assert client._sock.fileno() == -1  # closed: no later reply can answer a next call
