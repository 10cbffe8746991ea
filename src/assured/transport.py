"""Port abstractions over the repository and device, with two interchangeable
implementations: direct in-process calls and framed messages over a local
socket (TCP ``host:port`` or a unix-socket path).

The public methods of the local ports are the operations: a server runs them
by name and a remote port forwards them, with one typed codec for arguments,
results and errors. Both implementations expose identical semantics
(byte-identical payloads, same typed errors), which is what lets a scenario
transcript come out byte-identical whether the peers are objects or separate
processes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import select
import socket
import socketserver
import threading
import time
import types
import typing

from . import errors, repository
from .authorization import decode_token
from .crypto import VERIFY_COUNTER
from .device import AttestationReport, BootResult, Device, InstallOutcome
from .errors import AssuredError, ParseError
from .metadata import Mode, RoleKind
from .repository import RepositoryState


# --- in-process ports -------------------------------------------------------------

class LocalRepoPort:
    """Direct calls into a repository state value (held mutably here because
    repository transitions are functional)."""

    def __init__(self, state: RepositoryState) -> None:
        self.state = state

    def mode(self) -> Mode:
        return self.state.mode

    def clock(self) -> int:
        return self.state.clock

    def fetch_roles(self, roles: list[RoleKind]) -> list[bytes]:
        return [repository.fetch_metadata(self.state, role) for role in roles]

    def fetch_envelope(self, name: str) -> bytes:
        return repository.fetch_envelope(self.state, name)

    def trusted_root_bytes(self) -> bytes:
        # the install-time trust anchor: the one blob fetch_roles([ROOT]) returns.
        # It stays an op of its own because perfbench/rollout.py calls it
        return self.state.metadata.root.canonical(self.state.mode)

    def publish(self, name: str, envelope_bytes: bytes) -> None:
        self.state = repository.publish(self.state, name, envelope_bytes)

    def publish_vanilla(self, name: str, artifact: bytes) -> None:
        self.state = repository.publish_vanilla(self.state, name, artifact)

    def refresh(self) -> None:
        self.state = repository.refresh_timestamp(self.state)

    def advance_clock(self, ticks: int) -> None:
        self.state = repository.advance_clock(self.state, ticks)


class LocalDevicePort:
    def __init__(self, device: Device) -> None:
        self.device = device

    def hello(self, controller_nonce: bytes) -> bytes:
        return self.device.channel_accept(controller_nonce)

    def exchange(self, frames: list[bytes]) -> list[bytes]:
        return self.device.channel_receive(list(frames))

    def attest(self, nonce: bytes) -> AttestationReport | None:
        return self.device.attest(nonce)

    def boot(self) -> BootResult:
        return self.device.boot()

    def receive_unsealed(self, envelope_bytes: bytes) -> InstallOutcome:
        return self.device.receive_unsealed(envelope_bytes)

    def provision(self, artifact: bytes, token_bytes: bytes) -> None:
        self.device.provision_firmware(artifact, decode_token(token_bytes))

    def corrupt_flash(self, bank_index: int, bit_offset: int) -> None:
        self.device.simulate_flash_corruption(bank_index, bit_offset)

    def set_suppress_install(self, value: bool) -> None:
        self.device.faults.suppress_install = value

    def verify_count(self) -> int:
        return VERIFY_COUNTER.read()

    def info(self) -> dict:
        return {
            "model": self.device.device_model,
            "id": self.device.device_id,
            "version": self.device.installed_version,
            "active_bank": self.device.active_bank,
            "needs_replacement": self.device.needs_replacement,
        }


# The operations a server accepts and a remote port forwards: the methods of
# the local port whose names do not start with ``_``, and nothing else.
REPO_OPS = tuple(name for name in vars(LocalRepoPort) if not name.startswith("_"))
DEVICE_OPS = tuple(name for name in vars(LocalDevicePort) if not name.startswith("_"))


# --- wire codec ---------------------------------------------------------------------------

# A frame is one message: a header line, json.dumps of a JSON object, then the
# raw byte segments its "sizes" list counts, in order. A request header is
# {"op": name, "args": [value, ...]} and a reply header {"ok": true, "result":
# value} or {"ok": false, "error": value}; "sizes" comes last and only when
# there are segments. In a header value, JSON null, booleans, integers,
# strings and arrays stand for themselves, and every JSON object is one tagged
# value {tag: payload} (see _encode). A bytes value is {"bytes": i}, the i-th
# segment, and a non-empty list of bytes values is {"run": [i, n]}, the n
# segments from the i-th on: references run 0, 1, ... in the order they
# appear, and each segment is referenced exactly once. A decoder accepts only
# the bytes _encode_frame writes; any other frame, an unknown tag or a class
# outside these tables is a ParseError.

_HEADER_CAP = 1 << 20  # bytes in a header line, newline included
_NESTING_CAP = 8  # arrays and objects in a header, nested; an attestation report reply, the deepest sent, nests 6
_FRAME_CAP = 16 << 20  # bytes in a header and its segments, 4x those of a 4 MiB artifact's frames

_WIRE_ENUMS = {cls.__name__: cls for cls in (Mode, RoleKind)}
_WIRE_DATACLASSES = {cls.__name__: cls for cls in (AttestationReport, BootResult, InstallOutcome)}
# each wire dataclass's fields and their exact types: a "data" value carries all of them
_WIRE_FIELDS = {name: typing.get_type_hints(cls) for name, cls in _WIRE_DATACLASSES.items()}
_WIRE_ERRORS = {name: cls for name, cls in vars(errors).items()
                if isinstance(cls, type) and issubclass(cls, AssuredError)}
# the keys of a header, in order: a request, a result or an error, each with or without segments
_HEADER_KEYS = {keys + sizes for keys in (("op", "args"), ("ok", "result"), ("ok", "error"))
                for sizes in ((), ("sizes",))}


def _encode(value, segments: list[bytes]):
    """The header form of ``value``; each bytes value is appended to ``segments``."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, bytes):
        segments.append(value)
        return {"bytes": len(segments) - 1}
    if isinstance(value, list):
        if value and all(map(isinstance, value, itertools.repeat(bytes))):
            segments.extend(value)
            return {"run": [len(segments) - len(value), len(value)]}
        return [_encode(item, segments) for item in value]
    if isinstance(value, dict):
        return {"dict": {key: _encode(item, segments) for key, item in value.items()}}
    if isinstance(value, AssuredError):
        # an error class defined elsewhere travels as its nearest errors.py base
        name = next(cls.__name__ for cls in type(value).__mro__ if _WIRE_ERRORS.get(cls.__name__) is cls)
        return {"error": [name, _encode(list(value.args), segments), _encode(vars(value), segments)]}
    name = type(value).__name__
    if _WIRE_ENUMS.get(name) is type(value):
        return {"enum": [name, value.value]}
    if _WIRE_DATACLASSES.get(name) is type(value):
        return {"data": [name, _encode(vars(value), segments)]}
    raise TypeError(f"no wire encoding for {type(value).__name__}")


class _Segments:
    """The segments of one frame, handed out in order to the references that name them."""

    def __init__(self, segments: typing.Sequence[bytes]) -> None:
        self._segments = segments
        self._next = 0

    def take(self, first, count: int) -> list[bytes]:
        """The ``count`` segments from ``first`` on, which must be the next ones."""
        if type(first) is not int or first != self._next:
            raise ValueError(f"reference {first!r:.20} where segment {self._next} is next")
        if first + count > len(self._segments):
            raise ValueError(f"{count} segments from {first} on, of {len(self._segments)}")
        self._next += count
        return list(self._segments[first : first + count])

    def end(self) -> None:
        if self._next != len(self._segments):
            raise ParseError("a frame segment is not referenced", "wire")


def _decode_value(value, cursor: _Segments):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, list):
        items = [_decode_value(item, cursor) for item in value]
        if set(map(type, items)) == {bytes}:  # a non-empty list of bytes values
            raise ParseError("a list of bytes values is not sent as its run", "wire")
        return items
    if not isinstance(value, dict) or len(value) != 1:
        raise ParseError(f"not a wire value: {value!r:.80}", "wire")
    [(tag, payload)] = value.items()
    try:
        if tag == "bytes":
            return cursor.take(payload, 1)[0]
        if tag == "run":
            first, count = payload
            if type(count) is not int or count < 1:
                raise ValueError(f"a run of {count!r:.20} segments")
            return cursor.take(first, count)
        if tag == "dict":
            return {key: _decode_value(item, cursor) for key, item in payload.items()}
        if tag == "enum":
            name, member = payload
            return _WIRE_ENUMS[name](member)
        if tag == "data":
            name, fields = payload
            fields = _decode_value(fields, cursor)
            if {key: type(item) for key, item in fields.items()} != _WIRE_FIELDS[name]:
                raise TypeError(f"{name} fields are not exactly {_WIRE_FIELDS[name]}")
            return _WIRE_DATACLASSES[name](**fields)
        if tag == "error":
            name, args, attributes = payload
            cls = _WIRE_ERRORS[name]
            args = _decode_value(args, cursor)
            if not isinstance(args, list):
                raise TypeError("error args are not a list")
            error = cls.__new__(cls)
            error.args = tuple(args)
            vars(error).update(**_decode_value(attributes, cursor))
            return error
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad {tag!r} value: {exc!r}", "wire") from exc
    raise ParseError(f"unknown wire tag {tag!r}", "wire")


def _encode_frame(message: dict) -> bytes:
    """One frame holding ``message``, a request or a reply (see _HEADER_KEYS)."""
    segments: list[bytes] = []
    # a request's args are a list of values, not one list value
    header = {key: [_encode(arg, segments) for arg in value] if key == "args" else _encode(value, segments)
              for key, value in message.items()}
    if segments:
        header["sizes"] = [len(segment) for segment in segments]
    return b"".join([json.dumps(header).encode("ascii"), b"\n", *segments])


class _Undelimited(ParseError):
    """A frame whose end cannot be found, so no next frame can be read after it."""


def _read_frame(stream) -> dict | None:
    """The message of the next frame on ``stream``; None at its end.

    The header line is parsed once: its sizes delimit the frame, and once
    the segments are read the same parse is checked and decoded. A frame
    that cannot be delimited raises _Undelimited, any other malformed frame
    a ParseError after the whole frame is read, and a stream that ends
    inside a frame EOFError."""
    line = stream.readline(_HEADER_CAP + 1)
    if not line:
        return None
    if len(line) > _HEADER_CAP:
        raise _Undelimited(f"frame header is longer than {_HEADER_CAP} bytes", "frame")
    if not line.endswith(b"\n"):
        raise EOFError("stream ended inside a frame header")
    try:
        header = json.loads(line)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        raise ParseError(f"frame header is not JSON: {exc!r:.80}", "header") from exc
    # a header that is not an object listing sizes delimits a frame without segments
    sizes = header.get("sizes", []) if isinstance(header, dict) else []
    if not isinstance(sizes, list) or not all(type(size) is int and size >= 0 for size in sizes):
        raise _Undelimited(f"frame sizes are not a list of byte counts: {sizes!r:.80}", "frame")
    total = sum(sizes)
    if len(line) + total > _FRAME_CAP:
        raise _Undelimited(f"frame is longer than {_FRAME_CAP} bytes", "frame")
    data = stream.read(total)  # the segments in one read
    if len(sizes) == 1:
        segments = [data]  # the bytes read, with no copy
    else:
        segments = [data[end - size : end] for size, end in zip(sizes, itertools.accumulate(sizes))]
    if len(data) != total:
        raise EOFError("stream ended inside a frame segment")
    if not isinstance(header, dict) or tuple(header) not in _HEADER_KEYS or header.get("sizes") == []:
        raise ParseError(f"not a frame header: {line!r:.80}", "header")
    # the arrays and objects one level below the header object, then each next level
    # down; "sizes", checked above, holds only integers
    level = [value for key, value in header.items() if key != "sizes" and isinstance(value, (dict, list))]
    for _ in range(_NESTING_CAP - 1):
        if not level:
            break
        level = [item for value in level for item in (value.values() if isinstance(value, dict) else value)
                 if isinstance(item, (dict, list))]
    if level:
        raise ParseError(f"frame header nests more than {_NESTING_CAP} deep", "header")
    if json.dumps(header).encode("ascii") + b"\n" != line:
        raise ParseError("frame header is not in canonical form", "header")
    if "args" in header and not isinstance(header["args"], list):
        raise ParseError(f"args of {header['op']!r:.80} are not a list", "args")
    cursor = _Segments(segments)
    message = {key: [_decode_value(arg, cursor) for arg in value] if key == "args" else _decode_value(value, cursor)
               for key, value in header.items() if key != "sizes"}
    cursor.end()
    return message


def _decode_frame(frame: bytes) -> dict:
    """The message of one whole frame: a ParseError unless _encode_frame writes exactly ``frame``."""
    stream = io.BytesIO(frame)
    try:
        message = _read_frame(stream)
    except EOFError as exc:
        raise ParseError(f"frame is cut short: {exc}", "frame") from exc
    if message is None or stream.tell() != len(frame):
        raise ParseError("not exactly one frame", "frame")
    return message


def is_unix_address(spec: str) -> bool:
    """An address is a unix-socket path unless it ends in ``:<port>``."""
    _, _, port = spec.rpartition(":")
    return not port.isdigit()


def parse_listen_address(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    return host or "127.0.0.1", int(port)


# --- frame reading ---------------------------------------------------------------------------

# How long a reader polls its socket before it sleeps in the kernel. Each
# call is a closed loop between two processes: while one side works the
# other waits, and a waiting process that sleeps lets its CPU go idle. On a
# virtual machine an idle vCPU is handed back to the host, and getting it
# back for the reply can take longer than the call itself, by an amount that
# changes with the host's load. The peer of a local call mostly answers (or
# sends its next request) well within this time.
_POLL_BEFORE_SLEEP_S = 0.005


class _PollingSocketIO(socket.SocketIO):
    """Raw reads from a socket that poll for up to _POLL_BEFORE_SLEEP_S,
    yielding the CPU between polls, before they block."""

    def __init__(self, sock: socket.socket) -> None:
        super().__init__(sock, "rb")
        self._poller = select.poll()
        self._poller.register(sock, select.POLLIN)

    def readinto(self, buffer) -> int | None:
        deadline = time.perf_counter() + _POLL_BEFORE_SLEEP_S
        while not self._poller.poll(0) and time.perf_counter() < deadline:
            os.sched_yield()
        return super().readinto(buffer)


def _line_reader(sock: socket.socket) -> io.BufferedReader:
    return io.BufferedReader(_PollingSocketIO(sock))


# --- servers -----------------------------------------------------------------------------

def _exact(annotation):
    """The test that a value is exactly of type ``annotation``: a class,
    ``list[class]`` or a ``|`` union of classes (so a bool is not an int)."""
    if typing.get_origin(annotation) is list:
        [item] = typing.get_args(annotation)
        return lambda value: type(value) is list and set(map(type, value)) <= {item}
    kinds = typing.get_args(annotation) if isinstance(annotation, types.UnionType) else (annotation,)
    return lambda value: type(value) in kinds


class _Server(socketserver.ThreadingTCPServer):
    """Serves ``port_type(actor)`` on ``listen`` (``host:port`` or a unix-socket path): runs
    each request ``{"op": name, "args": [value, ...]}`` whose name is in ``ops`` and whose
    args are exactly of the types the op's parameters are annotated with."""

    allow_reuse_address = True
    daemon_threads = True
    after_op = None  # persistence hook, e.g. flash write-back

    def __init_subclass__(cls) -> None:
        # per op, read once: the exact-type test of each parameter, and the return annotation
        cls.op_types = {}
        for op in cls.ops:
            hints = typing.get_type_hints(getattr(cls.port_type, op))
            returns = hints.pop("return")
            cls.op_types[op] = ([_exact(hint) for hint in hints.values()], returns)

    def __init__(self, actor, listen: str = "127.0.0.1:0") -> None:
        unix = is_unix_address(listen)
        self.address_family = socket.AF_UNIX if unix else socket.AF_INET
        super().__init__(listen if unix else parse_listen_address(listen), None)
        self.port_impl = self.port_type(actor)
        self._lock = threading.Lock()

    def finish_request(self, connection: socket.socket, client_address) -> None:
        """Answer each frame of one connection until the peer closes it. A
        frame that cannot be delimited is answered with its ParseError, and
        the connection closed: no next frame can be found after it."""
        with _line_reader(connection) as reader:
            while True:
                try:
                    request = _read_frame(reader)
                    if request is None:
                        return
                    reply = _encode_frame({"ok": True, "result": self.dispatch(request)})
                except EOFError:  # the stream ended inside a frame
                    return
                except _Undelimited as exc:
                    connection.sendall(_encode_frame({"ok": False, "error": exc}))
                    return
                except AssuredError as exc:
                    reply = _encode_frame({"ok": False, "error": exc})
                except Exception as exc:  # a crash-level failure; keep the connection alive
                    reply = _encode_frame({"ok": False, "error": AssuredError(f"server error: {exc!r}")})
                connection.sendall(reply)

    def dispatch(self, request: dict):
        """The result of the request's op. ``after_op`` runs once the op has
        been called, also when it raised (it may have changed state first),
        and not after a request refused before the call."""
        op = request.get("op")
        if op not in self.ops:
            raise AssuredError(f"unknown op {op!r}")
        params, _ = self.op_types[op]
        args = request["args"]
        if len(args) != len(params) or not all(conforms(arg) for conforms, arg in zip(params, args)):
            raise ParseError(f"args of {op!r} are not of its parameter types: {args!r:.80}", "args")
        with self._lock:
            try:
                return getattr(self.port_impl, op)(*args)
            finally:
                if self.after_op is not None:
                    self.after_op()

    def display_address(self) -> str:
        if self.address_family == socket.AF_UNIX:
            return self.server_address
        return "%s:%d" % self.server_address[:2]

    def server_close(self) -> None:
        super().server_close()
        if self.address_family == socket.AF_UNIX:
            with contextlib.suppress(OSError):
                os.unlink(self.server_address)


class RepoServer(_Server):
    port_type = LocalRepoPort
    ops = REPO_OPS


class DeviceServer(_Server):
    port_type = LocalDevicePort
    ops = DEVICE_OPS


# the names under which perfbench/spans.py wraps each server's dispatch
_RepoDispatch, _DeviceDispatch = RepoServer, DeviceServer


def serve_in_thread(server) -> str:
    """Start a port server on a daemon thread; returns its display address.

    ``shutdown()`` returns only once ``serve_forever`` sees the request at its
    next poll, so the thread polls often enough for that to be prompt."""
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True)
    thread.start()
    return server.display_address()


# --- remote clients --------------------------------------------------------------------------

class _LineClient:
    """One connection that carries one call at a time. A call that fails on
    the connection, or gets no well-formed reply, closes the client: a late
    reply must never be read as the answer to a next call."""

    _address = "a socket"  # the peer its errors name; set by __init__

    def __init__(self, address: str, timeout: float = 30.0) -> None:
        self._address = address
        unix = is_unix_address(address)
        self._sock = socket.socket(socket.AF_UNIX if unix else socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._sock.settimeout(timeout)
            self._sock.connect(address if unix else parse_listen_address(address))
        except OSError as exc:
            self._sock.close()
            raise AssuredError(f"cannot connect to {address}: {type(exc).__name__}: {exc}") from exc
        self._reader = _line_reader(self._sock)

    def call(self, op: str, *args):
        request = _encode_frame({"op": op, "args": list(args)})
        if len(request) > _FRAME_CAP:  # refused here as the server would, with the connection kept
            raise ParseError(f"frame is longer than {_FRAME_CAP} bytes", "frame")
        try:
            self._sock.sendall(request)
            reply = _read_frame(self._reader)
            if reply is None:
                raise EOFError("no reply")
            if not (reply.get("ok") is True and "result" in reply
                    or reply.get("ok") is False and isinstance(reply.get("error"), AssuredError)):
                raise ParseError(f"malformed reply to {op!r}", "reply")
        except (OSError, EOFError) as exc:
            self.close()
            reason = f"{type(exc).__name__}: {exc}"
            raise AssuredError(f"connection closed during op {op!r} to {self._address}: {reason}") from exc
        except ParseError as exc:
            self.close()
            exc.__class__ = ParseError  # an undelimited reply is as malformed as any other
            raise
        if reply["ok"]:
            return reply["result"]
        raise reply["error"]

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._reader.close()
            self._sock.close()


class _RemotePort:
    """A port whose every op ``server`` runs is one call over a connection.
    A result that is not of the type the local op's return annotation names
    is a malformed reply: a ParseError that closes the client."""

    def __init_subclass__(cls, server: type[_Server]) -> None:
        for op in server.ops:
            _, returns = server.op_types[op]
            setattr(cls, op, _forward(op, returns))

    def __init__(self, address: str) -> None:
        self._client = _LineClient(address)

    def close(self) -> None:
        self._client.close()


def _forward(op: str, returns):
    """The method that runs ``op`` and returns its result if it is exactly of type ``returns``."""
    conforms = _exact(returns)

    def call(self, *args):
        result = self._client.call(op, *args)
        if not conforms(result):
            self._client.close()
            raise ParseError(f"reply to {op!r} is not {returns}: {result!r:.80}", "reply")
        return result

    return call


class RemoteRepoPort(_RemotePort, server=RepoServer):
    pass


class RemoteDevicePort(_RemotePort, server=DeviceServer):
    pass
