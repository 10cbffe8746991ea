"""Port abstractions over the repository and device, with two interchangeable
implementations: direct in-process calls and a JSON-lines protocol over a
local socket (TCP ``host:port`` or a unix-socket path).

Both implementations expose identical semantics (byte-identical payloads,
same typed errors), which is what lets a scenario transcript come out
byte-identical whether the peers are objects or separate processes.
"""

from __future__ import annotations

import base64
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
from .device import AttestationReport, BootResult, Device, InstallOutcome
from .errors import AssuredError
from .metadata import Mode, RoleKind, serialize_canonical
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
        return serialize_canonical(self.state.metadata.root, self.state.mode)

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
        from .crypto import VERIFY_COUNTER

        return VERIFY_COUNTER.read()

    def info(self) -> dict:
        return {
            "model": self.device.device_model,
            "id": self.device.device_id,
            "version": self.device.installed_version,
            "active_bank": self.device.active_bank,
            "needs_replacement": self.device.needs_replacement,
        }


# --- wire helpers ---------------------------------------------------------------------

_ERROR_TYPES = {
    cls.__name__: cls
    for cls in (
        errors.AssuredError,
        errors.ChannelError,
        errors.AuthFailure,
        errors.MalformedFrame,
        errors.ParseError,
        errors.NotFound,
        errors.PublishRejected,
        errors.EnvelopeMismatch,
        errors.AttestationRefused,
    )
}


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(value: str) -> bytes:
    return base64.b64decode(value)


def _encode_error(exc: Exception) -> dict:
    if isinstance(exc, errors.ReplayOrReorder):
        return {"ok": False, "error": "ReplayOrReorder", "expected": exc.expected, "got": exc.got}
    name = type(exc).__name__ if type(exc).__name__ in _ERROR_TYPES else "AssuredError"
    return {"ok": False, "error": name, "detail": str(exc)}


def _raise_error(obj: dict) -> None:
    name = obj.get("error", "AssuredError")
    if name == "ReplayOrReorder":
        raise errors.ReplayOrReorder(obj.get("expected", 0), obj.get("got", 0))
    cls = _ERROR_TYPES.get(name, AssuredError)
    raise cls(obj.get("detail", name))


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

class _LineHandler(socketserver.StreamRequestHandler):
    def setup(self) -> None:
        super().setup()
        self.rfile.close()
        self.rfile = _line_reader(self.connection)

    def handle(self) -> None:
        while True:
            line = self.rfile.readline()
            if not line:
                return
            try:
                request = json.loads(line)
                result = self.server.dispatch(request)  # type: ignore[attr-defined]
                response = {"ok": True, "result": result}
            except AssuredError as exc:
                response = _encode_error(exc)
            except Exception as exc:  # crash-level failure; keep the connection alive
                response = {"ok": False, "error": "AssuredError", "detail": f"server error: {exc!r}"}
            self.wfile.write(json.dumps(response, sort_keys=True).encode("ascii") + b"\n")
            self.wfile.flush()


class _RepoDispatch:
    port_impl: LocalRepoPort
    _lock: threading.Lock

    def dispatch(self, request: dict):
        op = request.get("op")
        args = request.get("args", {})
        impl = self.port_impl
        with self._lock:
            if op == "mode":
                return impl.mode().value
            if op == "clock":
                return impl.clock()
            if op == "fetch_metadata":
                return _b64(impl.fetch_metadata(RoleKind(args["role"])))
            if op == "fetch_envelope":
                return _b64(impl.fetch_envelope(args["name"]))
            if op == "trusted_root_bytes":
                return _b64(impl.trusted_root_bytes())
            if op == "publish":
                impl.publish(args["name"], _unb64(args["envelope"]))
                return None
            if op == "publish_vanilla":
                impl.publish_vanilla(args["name"], _unb64(args["artifact"]))
                return None
            if op == "refresh":
                impl.refresh()
                return None
            if op == "tamper":
                impl.tamper(TamperPolicy(kind=TamperKind(args["kind"]), bit_offset=args.get("bit_offset", 0)))
                return None
            if op == "advance_clock":
                impl.advance_clock(args["ticks"])
                return None
        raise AssuredError(f"unknown repo op {op!r}")


class _DeviceDispatch:
    port_impl: LocalDevicePort
    _lock: threading.Lock
    after_op = None  # persistence hook, e.g. flash write-back

    def dispatch(self, request: dict):
        try:
            return self._dispatch_locked(request)
        finally:
            if self.after_op is not None:
                self.after_op()

    def _dispatch_locked(self, request: dict):
        op = request.get("op")
        args = request.get("args", {})
        impl = self.port_impl
        with self._lock:
            if op == "hello":
                return _b64(impl.hello(_unb64(args["controller_nonce"])))
            if op == "exchange":
                frames = [_unb64(f) for f in args["frames"]]
                return [_b64(f) for f in impl.exchange(frames)]
            if op == "attest":
                report = impl.attest(_unb64(args["nonce"]))
                if report is None:
                    return None
                return {
                    "device_id": report.device_id,
                    "nonce": _b64(report.nonce),
                    "measurement": _b64(report.measurement),
                    "tag": _b64(report.tag),
                }
            if op == "boot":
                result = impl.boot()
                return {"running": result.running, "version": result.version, "reason": result.reason}
            if op == "receive_unsealed":
                outcome = impl.receive_unsealed(_unb64(args["envelope"]))
                return {"status": outcome.status, "version": outcome.version, "reason": outcome.reason}
            if op == "provision":
                impl.provision(_unb64(args["artifact"]), _unb64(args["token"]))
                return None
            if op == "corrupt_flash":
                impl.corrupt_flash(args["bank_index"], args["bit_offset"])
                return None
            if op == "set_suppress_install":
                impl.set_suppress_install(bool(args["value"]))
                return None
            if op == "verify_count":
                return impl.verify_count()
            if op == "info":
                return impl.info()
        raise AssuredError(f"unknown device op {op!r}")


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def display_address(self) -> str:
        host, port = self.server_address[:2]
        return f"{host}:{port}"


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True

    def display_address(self) -> str:
        return str(self.server_address)

    def server_close(self) -> None:
        super().server_close()
        try:
            os.unlink(self.server_address)
        except OSError:
            pass


class RepoServer(_RepoDispatch, _TcpServer):
    def __init__(self, state: RepositoryState, host: str = "127.0.0.1", port: int = 0) -> None:
        _TcpServer.__init__(self, (host, port), _LineHandler)
        self.port_impl = LocalRepoPort(state)
        self._lock = threading.Lock()


class UnixRepoServer(_RepoDispatch, _UnixServer):
    def __init__(self, state: RepositoryState, path: str) -> None:
        _UnixServer.__init__(self, path, _LineHandler)
        self.port_impl = LocalRepoPort(state)
        self._lock = threading.Lock()


class DeviceServer(_DeviceDispatch, _TcpServer):
    def __init__(self, device: Device, host: str = "127.0.0.1", port: int = 0) -> None:
        _TcpServer.__init__(self, (host, port), _LineHandler)
        self.port_impl = LocalDevicePort(device)
        self._lock = threading.Lock()


class UnixDeviceServer(_DeviceDispatch, _UnixServer):
    def __init__(self, device: Device, path: str) -> None:
        _UnixServer.__init__(self, path, _LineHandler)
        self.port_impl = LocalDevicePort(device)
        self._lock = threading.Lock()


def make_repo_server(state: RepositoryState, listen: str):
    if is_unix_address(listen):
        return UnixRepoServer(state, listen)
    return RepoServer(state, *parse_listen_address(listen))


def make_device_server(device: Device, listen: str):
    if is_unix_address(listen):
        return UnixDeviceServer(device, listen)
    return DeviceServer(device, *parse_listen_address(listen))


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
        if is_unix_address(address):
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(address)
        else:
            self._sock = socket.create_connection(parse_listen_address(address), timeout=timeout)
        self._reader = _line_reader(self._sock)

    def call(self, op: str, **args):
        request = json.dumps({"op": op, "args": args}, sort_keys=True).encode("ascii") + b"\n"
        self._sock.sendall(request)
        line = self._reader.readline()
        if not line:
            raise AssuredError(f"connection closed during op {op!r}")
        response = json.loads(line)
        if not response.get("ok"):
            _raise_error(response)
        return response.get("result")

    def close(self) -> None:
        try:
            self._reader.close()
            self._sock.close()
        except OSError:
            pass


class RemoteRepoPort:
    def __init__(self, address: str) -> None:
        self._client = _LineClient(address)

    def mode(self) -> Mode:
        return Mode(self._client.call("mode"))

    def clock(self) -> int:
        return self._client.call("clock")

    def fetch_metadata(self, role: RoleKind) -> bytes:
        return _unb64(self._client.call("fetch_metadata", role=role.value))

    def fetch_envelope(self, name: str) -> bytes:
        return _unb64(self._client.call("fetch_envelope", name=name))

    def trusted_root_bytes(self) -> bytes:
        return _unb64(self._client.call("trusted_root_bytes"))

    def publish(self, name: str, envelope_bytes: bytes) -> None:
        self._client.call("publish", name=name, envelope=_b64(envelope_bytes))

    def publish_vanilla(self, name: str, artifact: bytes) -> None:
        self._client.call("publish_vanilla", name=name, artifact=_b64(artifact))

    def refresh(self) -> None:
        self._client.call("refresh")

    def tamper(self, policy: TamperPolicy) -> None:
        self._client.call("tamper", kind=policy.kind.value, bit_offset=policy.bit_offset)

    def advance_clock(self, ticks: int) -> None:
        self._client.call("advance_clock", ticks=ticks)

    def close(self) -> None:
        self._client.close()


class RemoteDevicePort:
    def __init__(self, address: str) -> None:
        self._client = _LineClient(address)

    def hello(self, controller_nonce: bytes) -> bytes:
        return _unb64(self._client.call("hello", controller_nonce=_b64(controller_nonce)))

    def exchange(self, frames: list[bytes]) -> list[bytes]:
        result = self._client.call("exchange", frames=[_b64(f) for f in frames])
        return [_unb64(f) for f in result]

    def attest(self, nonce: bytes) -> AttestationReport | None:
        result = self._client.call("attest", nonce=_b64(nonce))
        if result is None:
            return None
        return AttestationReport(
            device_id=result["device_id"],
            nonce=_unb64(result["nonce"]),
            measurement=_unb64(result["measurement"]),
            tag=_unb64(result["tag"]),
        )

    def boot(self) -> BootResult:
        result = self._client.call("boot")
        return BootResult(running=result["running"], version=result["version"], reason=result["reason"])

    def receive_unsealed(self, envelope_bytes: bytes) -> InstallOutcome:
        result = self._client.call("receive_unsealed", envelope=_b64(envelope_bytes))
        return InstallOutcome(status=result["status"], version=result["version"], reason=result["reason"])

    def provision(self, artifact: bytes, token_bytes: bytes) -> None:
        self._client.call("provision", artifact=_b64(artifact), token=_b64(token_bytes))

    def corrupt_flash(self, bank_index: int, bit_offset: int) -> None:
        self._client.call("corrupt_flash", bank_index=bank_index, bit_offset=bit_offset)

    def set_suppress_install(self, value: bool) -> None:
        self._client.call("set_suppress_install", value=value)

    def verify_count(self) -> int:
        return self._client.call("verify_count")

    def info(self) -> dict:
        return self._client.call("info")

    def close(self) -> None:
        self._client.close()
