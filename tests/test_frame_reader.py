"""The one frame reader, transport._read_frame, as the server and the client
run it: it parses each received header line once, and only the server tells
a frame it cannot delimit apart from any other malformed frame."""

import json
import socket

import pytest

from assured import crypto, errors, transport
from assured.repository import new_repository
from assured.transport import _FRAME_CAP, RemoteRepoPort, RepoServer, _line_reader, _LineClient, serve_in_thread


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
