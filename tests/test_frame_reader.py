"""The one frame reader, transport._read_frame, as the server and the client
run it: it parses each received header line once, and only the server tells
a frame it cannot delimit apart from any other malformed frame."""

import io
import json
import socket
import sys

import pytest

from assured import crypto, errors, transport
from assured.repository import new_repository
from assured.transport import (
    _FRAME_CAP,
    RemoteRepoPort,
    RepoServer,
    _line_reader,
    _LineClient,
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


def too_deep(past_the_parser: bool) -> bytes:
    """A header value nested too deeply for the frame reader, worked out on
    this interpreter at the caller's stack: the deepest array ``json.loads``
    still parses here, less a margin for the reader's own frames, so that
    re-encoding or decoding it is what hits the recursion limit; or 50
    levels deeper, past the parser unless it parses every depth the search
    tries. Under CPython 3.11's default limit of 1000 that is about 940 and
    1000 levels. From 3.12 the parser counts against a separate C limit and
    each decoded level costs one frame, not two, which is why no fixed
    depth serves every version."""
    low, high = 0, 4 * sys.getrecursionlimit()
    while low < high:  # the deepest nesting json.loads parses, at most ``high``
        mid = (low + high + 1) // 2
        try:
            json.loads(nested(mid))
            low = mid
        except RecursionError:
            high = mid - 1
    assert low > sys.getrecursionlimit() // 4, "json.loads parses almost no nesting here"
    return nested(low + 50 if past_the_parser else low - 20)


WHERE = pytest.mark.parametrize("past_the_parser", [False, True], ids=["decoded", "parsed"])


@WHERE
def test_a_deeply_nested_header_is_a_parse_error(past_the_parser):
    with pytest.raises(errors.ParseError) as caught:
        _read_frame(io.BytesIO(b'{"op": "clock", "args": [%s]}\n' % too_deep(past_the_parser)))
    assert caught.value.position == "header"


@WHERE
def test_a_server_answers_a_deeply_nested_request_with_parse_error_and_keeps_serving(past_the_parser):
    keys = [crypto.signing_key_from_seed(bytes([i]) * 32) for i in range(6)]
    server = RepoServer(new_repository(keys[:2], keys[2:4], keys[4:5], keys[5:]))
    address = parse_listen_address(serve_in_thread(server))
    try:
        with socket.create_connection(address, timeout=10) as sock, _line_reader(sock) as reader:
            sock.sendall(b'{"op": "clock", "args": [%s]}\n' % too_deep(past_the_parser))
            reply = _read_frame(reader)
            assert reply["ok"] is False
            assert type(reply["error"]) is errors.ParseError
            sock.sendall(b'{"op": "clock", "args": []}\n')
            assert _read_frame(reader) == {"ok": True, "result": 0}
    finally:
        server.shutdown()
        server.server_close()


@WHERE
def test_a_client_raises_a_deeply_nested_reply_as_parse_error_and_closes(past_the_parser):
    near, far = socket.socketpair()
    with far:
        far.sendall(b'{"ok": true, "result": %s}\n' % too_deep(past_the_parser))
        client = _LineClient.__new__(_LineClient)
        client._sock, client._reader = near, _line_reader(near)
        with pytest.raises(errors.ParseError):
            client.call("clock")
    assert client._sock.fileno() == -1  # closed: no later reply can answer a next call
