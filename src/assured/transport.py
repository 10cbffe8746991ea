"""Port abstractions over the repository and device, with two interchangeable
implementations: direct in-process calls and a JSON-lines protocol over a
local socket (TCP ``host:port`` or a unix-socket path).

The public methods of the local ports are the operations: a server runs them
by name and a remote port forwards them, with one typed codec for arguments,
results and errors. Both implementations expose identical semantics
(byte-identical payloads, same typed errors), which is what lets a scenario
transcript come out byte-identical whether the peers are objects or separate
processes.
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import os
import select
import socket
import socketserver
import threading
import time

from . import errors, repository
from .authorization import decode_token
from .crypto import VERIFY_COUNTER
from .device import AttestationReport, BootResult, Device, InstallOutcome
from .errors import AssuredError, ParseError
from .metadata import Mode, RoleKind
from .repository import RepositoryState, TamperKind, TamperPolicy


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

    def fetch_metadata(self, role: RoleKind) -> bytes:
        return repository.fetch_metadata(self.state, role)

    def fetch_envelope(self, name: str) -> bytes:
        return repository.fetch_envelope(self.state, name)

    def trusted_root_bytes(self) -> bytes:
        # install-time trust anchor: read straight from the honest store,
        # not through the mirror's tamper layer
        return repository._canonical_bytes(self.state, RoleKind.ROOT)

    def publish(self, name: str, envelope_bytes: bytes) -> None:
        self.state = repository.publish(self.state, name, envelope_bytes)

    def publish_vanilla(self, name: str, artifact: bytes) -> None:
        self.state = repository.publish_vanilla(self.state, name, artifact)

    def refresh(self) -> None:
        self.state = repository.refresh_timestamp(self.state)

    def tamper(self, policy: TamperPolicy) -> None:
        self.state = repository.set_tamper(self.state, policy)

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

# JSON null, booleans, integers, strings and arrays stand for themselves; every
# JSON object is one tagged value {tag: payload} (see _encode). Any other JSON,
# an unknown tag or a class outside these tables decodes to ParseError.

_WIRE_ENUMS = {cls.__name__: cls for cls in (Mode, RoleKind, TamperKind)}
_WIRE_DATACLASSES = {cls.__name__: cls for cls in (TamperPolicy, AttestationReport, BootResult, InstallOutcome)}
_WIRE_ERRORS = {name: cls for name, cls in vars(errors).items()
                if isinstance(cls, type) and issubclass(cls, AssuredError)}


def _encode(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, bytes):
        return {"bytes": base64.b64encode(value).decode("ascii")}
    if isinstance(value, list):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {"dict": {key: _encode(item) for key, item in value.items()}}
    if isinstance(value, AssuredError):
        # an error class defined elsewhere travels as its nearest errors.py base
        name = next(cls.__name__ for cls in type(value).__mro__ if _WIRE_ERRORS.get(cls.__name__) is cls)
        return {"error": [name, _encode(list(value.args)), _encode(vars(value))]}
    name = type(value).__name__
    if _WIRE_ENUMS.get(name) is type(value):
        return {"enum": [name, value.value]}
    if _WIRE_DATACLASSES.get(name) is type(value):
        return {"data": [name, _encode(vars(value))]}
    raise TypeError(f"no wire encoding for {type(value).__name__}")


def _decode(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, list):
        return [_decode(item) for item in value]
    if not isinstance(value, dict) or len(value) != 1:
        raise ParseError(f"not a wire value: {value!r:.80}", "wire")
    [(tag, payload)] = value.items()
    try:
        if tag == "bytes":
            return base64.b64decode(payload, validate=True)
        if tag == "dict":
            return {key: _decode(item) for key, item in payload.items()}
        if tag == "enum":
            name, member = payload
            return _WIRE_ENUMS[name](member)
        if tag == "data":
            name, fields = payload
            return _WIRE_DATACLASSES[name](**_decode(fields))
        if tag == "error":
            name, args, attributes = payload
            cls = _WIRE_ERRORS[name]
            if not isinstance(args, list):
                raise TypeError("error args are not a list")
            error = cls.__new__(cls)
            error.args = tuple(_decode(args))
            vars(error).update(**_decode(attributes))
            return error
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad {tag!r} value: {exc!r}", "wire") from exc
    raise ParseError(f"unknown wire tag {tag!r}", "wire")


def _json_line(obj: dict) -> bytes:
    return json.dumps(obj).encode("ascii") + b"\n"


def is_unix_address(spec: str) -> bool:
    """An address is a unix-socket path unless it ends in ``:<port>``."""
    _, _, port = spec.rpartition(":")
    return not port.isdigit()


def parse_listen_address(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    return host or "127.0.0.1", int(port)


# --- line reading ----------------------------------------------------------------------------

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

class _Server(socketserver.ThreadingTCPServer):
    """Serves ``port_type(actor)`` on ``listen`` (``host:port`` or a unix-socket path): runs
    each request ``{"op": name, "args": [value, ...]}`` whose name is in ``ops``."""

    allow_reuse_address = True
    daemon_threads = True
    after_op = None  # persistence hook, e.g. flash write-back

    def __init__(self, actor, listen: str = "127.0.0.1:0") -> None:
        unix = is_unix_address(listen)
        self.address_family = socket.AF_UNIX if unix else socket.AF_INET
        super().__init__(listen if unix else parse_listen_address(listen), None)
        self.port_impl = self.port_type(actor)
        self._lock = threading.Lock()

    def finish_request(self, connection: socket.socket, client_address) -> None:
        """Answer each request line of one connection until the peer closes it."""
        with _line_reader(connection) as reader:
            for line in iter(reader.readline, b""):
                try:
                    reply = {"ok": True, "result": _encode(self.dispatch(json.loads(line)))}
                except AssuredError as exc:
                    reply = {"ok": False, "error": _encode(exc)}
                except Exception as exc:  # not JSON, or a crash-level failure; keep the connection alive
                    reply = {"ok": False, "error": _encode(AssuredError(f"server error: {exc!r}"))}
                connection.sendall(_json_line(reply))

    def dispatch(self, request: dict):
        try:
            if not isinstance(request, dict):
                raise ParseError("request is not a JSON object", "request")
            op = request.get("op")
            if op not in self.ops:
                raise AssuredError(f"unknown op {op!r}")
            args = request.get("args")
            if not isinstance(args, list):
                raise ParseError(f"args of {op!r} are not a list", "args")
            args = _decode(args)
            with self._lock:
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


def make_repo_server(state: RepositoryState, listen: str) -> RepoServer:
    return RepoServer(state, listen)


def make_device_server(device: Device, listen: str) -> DeviceServer:
    return DeviceServer(device, listen)


def serve_in_thread(server) -> str:
    """Start a port server on a daemon thread; returns its display address.

    ``shutdown()`` returns only once ``serve_forever`` sees the request at its
    next poll, so the thread polls often enough for that to be prompt."""
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True)
    thread.start()
    return server.display_address()


# --- remote clients --------------------------------------------------------------------------

class _LineClient:
    def __init__(self, address: str, timeout: float = 30.0) -> None:
        unix = is_unix_address(address)
        self._sock = socket.socket(socket.AF_UNIX if unix else socket.AF_INET, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(address if unix else parse_listen_address(address))
        self._reader = _line_reader(self._sock)

    def call(self, op: str, *args):
        self._sock.sendall(_json_line({"op": op, "args": _encode(list(args))}))
        line = self._reader.readline()
        if not line:
            raise AssuredError(f"connection closed during op {op!r}")
        try:
            reply = json.loads(line)
            ok = reply.get("ok") if isinstance(reply, dict) else None
            if ok is True and "result" in reply:
                return _decode(reply["result"])
            error = _decode(reply["error"]) if ok is False and "error" in reply else None
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"malformed reply to {op!r}: {exc!r}", "reply") from exc
        if not isinstance(error, AssuredError):
            raise ParseError(f"malformed reply to {op!r}", "reply")
        raise error

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._reader.close()
            self._sock.close()


class _RemotePort:
    """A port whose every op in ``ops`` is one call over a connection."""

    def __init_subclass__(cls, ops: tuple[str, ...]) -> None:
        for op in ops:
            setattr(cls, op, _forward(op))

    def __init__(self, address: str) -> None:
        self._client = _LineClient(address)

    def close(self) -> None:
        self._client.close()


def _forward(op: str):
    return lambda self, *args: self._client.call(op, *args)


class RemoteRepoPort(_RemotePort, ops=REPO_OPS):
    pass


class RemoteDevicePort(_RemotePort, ops=DEVICE_OPS):
    pass
