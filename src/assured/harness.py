"""Scenario runner, adversary suite, and benchmark reporter.

Scenarios are line-oriented scripts (one step per line, optional expected
outcome after ``->``) driving the full distribution-and-delivery flow across
OEM, repository, controller, and device. A run is deterministic given its
seed and produces a diffable transcript that is byte-identical whether the
repository and devices are in-process objects or separate processes reached
over local sockets.

``frame-tamper``, ``drop``, ``replay`` and ``forge-tag`` arm one adversary
slot (a later one replaces an earlier one); the next ``deliver`` or ``attest``,
whichever comes first, runs through it and disarms it. ``tamper-policy`` sets
the policy of the ``Mirror`` every ``sync`` fetches through, until the next
``tamper-policy``.

Each step calls one ``World`` method and is bound to its signature: the
``<...>`` arguments fill its positional-only parameters and the ``key=``
values its keyword-only ones, each converted by the parameter's annotation;
a key in brackets has the parameter's default. A step with an unknown,
repeated or missing key, or with more or fewer arguments, is a
``ScenarioError`` at its index, as is a line ``shlex`` cannot split. So is
an ``issue`` whose ``key`` is not ``oem`` or ``rogue`` or whose ``size`` is
outside 0..4 MiB, the largest artifact the transport's frame cap carries;
both are refused before any artifact byte is drawn.

Step vocabulary:

    enroll <dev> model=<n> id=<n> [version=<n>] [mode=dual|single]
    issue <name> version=<n> [model=<n>] [device=<n>] [prev=<n>] [size=<n>] [key=oem|rogue]
    publish <name>
    tamper-policy <none|flip-bit|stale|substitute|drop> [offset=<bit>]
    refresh
    clock-advance <ticks>
    sync
    frame-tamper [bit=<n>]
    drop
    replay
    forge-tag
    deliver <dev> <name>
    attest <dev>
    corrupt-flash <dev> [bank=active|inactive|0|1] [bit=<n>]
    boot <dev>
"""

from __future__ import annotations

import hashlib
import inspect
import os
import random
import shlex
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from . import crypto
from .authorization import (
    Constraints,
    build_envelope,
    issue_token,
    parse_envelope,
    serialize_envelope,
)
from .codec import flip_bit
from .controller import Controller, LocalPolicy, VerifiedEnvelope
from .crypto import VERIFY_COUNTER
from .device import Device, InstallMode, InstallOutcome
from .errors import (
    AssuredError,
    ChannelError,
    DeliveryFailed,
    NotFound,
    PolicyDeferred,
)
from .metadata import Mode, RoleKind, parse, serialize_canonical
from .repository import RepositoryState, new_repository, save_repository
from .transport import (
    LocalDevicePort,
    LocalRepoPort,
    RemoteDevicePort,
    RemoteRepoPort,
)

FACTORY_ARTIFACT_SIZE = 256
DEFAULT_ARTIFACT_SIZE = 256
MAX_ARTIFACT_SIZE = 4 << 20  # the largest artifact the transport's frame cap is sized for
HANDSHAKE_AMORTIZED_BYTES = 8  # modeled per-envelope share of the nonce exchange


class ScenarioError(AssuredError):
    """Script-level error (bad step, unknown entity); aborts with the step index."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(f"step {index}: {message}")
        self.index = index


def derived_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derived_rng(seed: int, label: str) -> random.Random:
    return random.Random(derived_seed(seed, label))


def _hex8(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# --- scenario text ------------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    index: int
    op: str
    args: tuple[str, ...]
    kwargs: dict[str, str]
    expected: str | None
    raw: str


def parse_scenario(text: str) -> list[Step]:
    steps = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        expected = None
        if "->" in line:
            line, _, expected_part = line.partition("->")
            expected = expected_part.strip()
            line = line.strip()
        index = len(steps) + 1
        try:
            tokens = shlex.split(line)
        except ValueError as exc:  # an unclosed quote or a trailing backslash
            raise ScenarioError(index, f"{raw_line.strip()!r}: {exc}") from exc
        if not tokens:
            continue
        op, rest = tokens[0], tokens[1:]
        args = tuple(t for t in rest if "=" not in t)
        kwargs: dict[str, str] = {}
        for key, value in (t.split("=", 1) for t in rest if "=" in t):
            if key in kwargs:
                raise ScenarioError(index, f"{raw_line.strip()!r}: repeated key {key!r}")
            kwargs[key] = value
        steps.append(Step(index=index, op=op, args=args, kwargs=kwargs, expected=expected, raw=raw_line.strip()))
    if not steps:
        raise ScenarioError(0, "scenario has no steps")
    return steps


@dataclass
class Transcript:
    header: str
    lines: list[str] = field(default_factory=list)
    failures: int = 0

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def text(self) -> str:
        return "\n".join([self.header, *self.lines]) + "\n"


# --- adversary wrappers over a device or repository port ---------------------------------

class _PortWrapper:
    """Forwards every operation it does not override to the wrapped port."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _TamperingPort(_PortWrapper):
    """Local-adversary model: flips one bit in the first frame in transit."""

    def __init__(self, inner, bit_offset: int) -> None:
        super().__init__(inner)
        self._bit = bit_offset

    def exchange(self, frames: list[bytes]) -> list[bytes]:
        return self._inner.exchange([flip_bit(frame, self._bit) for frame in frames[:1]] + frames[1:])


class _DroppingPort(_PortWrapper):
    """Local-adversary model: the exchange never reaches the device."""

    def exchange(self, frames: list[bytes]) -> list[bytes]:
        return []

    def attest(self, nonce: bytes):
        return None


class _ReplayingPort(_PortWrapper):
    """Local-adversary model: sends the first frame in transit twice."""

    def exchange(self, frames: list[bytes]) -> list[bytes]:
        return self._inner.exchange(frames[:1] + frames)


class _RecordingPort(_PortWrapper):
    """Hashes every frame that actually crosses the device boundary, so the
    transcript pins the byte stream without embedding it."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.sent = 0
        self.received = 0
        self._digest = hashlib.sha256()

    def exchange(self, frames: list[bytes]) -> list[bytes]:
        for frame in frames:
            self.sent += 1
            self._digest.update(b"send" + frame)
        replies = self._inner.exchange(frames)
        for frame in replies:
            self.received += 1
            self._digest.update(b"recv" + frame)
        return replies

    def stream_digest(self) -> str:
        return self._digest.hexdigest()[:16]


class _ForgedTagPort(_PortWrapper):
    """Remote-adversary model: replaces the attestation tag in transit."""

    def attest(self, nonce: bytes):
        report = self._inner.attest(nonce)
        if report is None:
            return None
        return replace(report, tag=bytes(b ^ 0xFF for b in report.tag))


class Mirror(_PortWrapper):
    """The untrusted distributor mirror over a repository port: it serves the
    port's bytes through one policy, ``none`` until ``set_policy`` names another.

    ``flip-bit`` inverts one bit of each envelope (the offset taken modulo its
    bit length), ``stale`` serves the metadata set the mirror fetched when it
    was built, ``substitute`` masks each envelope's artifact and keeps its
    token, and ``drop`` answers every envelope fetch with NotFound. Every
    other operation reaches the wrapped port unchanged, so the repository
    behind it only ever serves honest bytes.
    """

    POLICIES = ("none", "flip-bit", "stale", "substitute", "drop")

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self._stale = dict(zip(RoleKind, inner.fetch_roles(list(RoleKind))))
        self.policy, self.offset = "none", 0

    def set_policy(self, policy: str, offset: int = 0) -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"unknown mirror policy {policy!r}")
        self.policy, self.offset = policy, offset

    def fetch_roles(self, roles: list[RoleKind]) -> list[bytes]:
        if self.policy == "stale":
            return [self._stale[role] for role in roles]
        return self._inner.fetch_roles(roles)

    def fetch_envelope(self, name: str) -> bytes:
        if self.policy == "drop":
            raise NotFound(f"envelope {name!r}")
        data = self._inner.fetch_envelope(name)
        if self.policy == "flip-bit":
            return flip_bit(data, self.offset)
        if self.policy == "substitute":
            envelope = parse_envelope(data)
            return serialize_envelope(replace(envelope, artifact=bytes(b ^ 0xA5 for b in envelope.artifact)))
        return data


def _outcome_token(outcome: InstallOutcome) -> str:
    if outcome.status == InstallOutcome.INSTALLED:
        return f"installed:{outcome.version}"
    return f"{outcome.status}:{outcome.reason}"


# --- the world ---------------------------------------------------------------------------

@dataclass
class _DeviceHandle:
    port: object
    device_id: int


class World:
    """All actors for one run: OEM keys, repository, controller, devices.

    Every byte of randomness comes from streams derived from (seed, label),
    so two runs with one seed agree, in-process or multi-process.
    """

    def __init__(self, seed: int = 0, multiprocess: bool = False, mode: Mode = Mode.JSON) -> None:
        self.seed = seed
        self.multiprocess = multiprocess
        self.mode = mode
        self.oem_key = crypto.signing_key_from_seed(derived_rng(seed, "oem").randbytes(32))
        self.rogue_key = crypto.signing_key_from_seed(derived_rng(seed, "rogue").randbytes(32))
        self._processes: list[subprocess.Popen] = []
        self._tmpdir: tempfile.TemporaryDirectory | None = None

        state = self._build_repository(seed, mode)
        if multiprocess:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="assured-repo-")
            save_repository(state, self._tmpdir.name)
            try:
                address = self._spawn(["repo", "serve", "--dir", self._tmpdir.name, "--listen", "127.0.0.1:0"])
            except AssuredError:
                self._tmpdir.cleanup()
                raise
            self.repo = RemoteRepoPort(address)
        else:
            self.repo = LocalRepoPort(state)
        # sync fetches through the mirror; publish, refresh and the clock reach the repository
        self.mirror = Mirror(self.repo)

        trusted_root = parse(self.repo.trusted_root_bytes(), mode)
        self.controller = Controller(
            trusted_root=trusted_root,
            mode=mode,
            policy=LocalPolicy(),
            clock=0,
            rng=derived_rng(seed, "controller"),
        )
        self.devices: dict[str, _DeviceHandle] = {}
        self.envelopes: dict[str, bytes] = {}
        self.artifacts: dict[str, bytes] = {}
        self.verified: dict[str, VerifiedEnvelope] = {}
        self._armed = None  # the adversary port wrapper the next deliver or attest runs through

    def _build_repository(self, seed: int, mode: Mode) -> RepositoryState:
        def keys(label: str, count: int) -> list[crypto.SigningKeyPair]:
            return [
                crypto.signing_key_from_seed(derived_rng(seed, f"{label}-{i}").randbytes(32))
                for i in range(count)
            ]

        return new_repository(
            root_keys=keys("root-key", 2),
            targets_keys=keys("targets-key", 2),
            snapshot_keys=keys("snapshot-key", 1),
            timestamp_keys=keys("timestamp-key", 1),
            clock=0,
            mode=mode,
        )

    def _spawn(self, argv: list[str]) -> str:
        # the server imports this same package, whatever its working directory
        package_parent = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        pythonpath = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
        try:
            process = subprocess.Popen(
                [sys.executable, "-m", "assured", *argv],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                env={**os.environ, "PYTHONPATH": pythonpath},
            )
        except OSError as exc:
            raise AssuredError(f"server process failed to start: {exc}") from exc
        line = process.stdout.readline().strip()  # type: ignore[union-attr]
        if not line.startswith("LISTENING "):
            process.kill()
            process.wait()
            process.stdout.close()  # type: ignore[union-attr]
            raise AssuredError(f"server process failed to start: {line!r}")
        self._processes.append(process)
        return line[len("LISTENING "):]

    def close(self) -> None:
        for handle in self.devices.values():
            if hasattr(handle.port, "close"):
                handle.port.close()
        if hasattr(self.repo, "close"):
            self.repo.close()
        for process in self._processes:
            process.terminate()
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
            process.stdout.close()  # type: ignore[union-attr]
        if self._tmpdir is not None:
            self._tmpdir.cleanup()

    def __enter__(self) -> "World":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --- step implementations (each returns (outcome_token, details)) ----------------

    def enroll(
        self, handle: str, /, *, device_model: int, device_id: int, version: int = 1, install_mode: str = "dual"
    ) -> tuple[str, str]:
        # refused before any device server is spawned or device provisioned
        if handle in self.devices:
            raise ValueError(f"device {handle!r} is already enrolled")
        if any(d.device_id == device_id for d in self.devices.values()):
            raise ValueError(f"device id {device_id} is already enrolled")
        # issuing the factory token checks the constraints before any device exists
        artifact = derived_rng(self.seed, f"artifact:factory:{device_id}").randbytes(FACTORY_ARTIFACT_SIZE)
        token = issue_token(
            self.oem_key,
            artifact,
            Constraints(device_model=device_model, device_id=device_id, new_version=version),
        )
        attestation_key = derived_rng(self.seed, f"katt:{device_id}").randbytes(32)
        rng_seed = derived_seed(self.seed, f"device:{device_id}")
        mode = InstallMode(install_mode)
        if self.multiprocess:
            address = self._spawn(
                [
                    "device", "run",
                    "--listen", "127.0.0.1:0",
                    "--model", str(device_model),
                    "--id", str(device_id),
                    "--oem-public", self.oem_key.public.hex(),
                    "--attestation-key", attestation_key.hex(),
                    "--rng-seed", str(rng_seed),
                    "--install-mode", mode.value,
                ]
            )
            port = RemoteDevicePort(address)
        else:
            device = Device(
                device_model=device_model,
                device_id=device_id,
                oem_public=self.oem_key.public,
                attestation_key=attestation_key,
                install_mode=mode,
                rng=random.Random(rng_seed),
            )
            port = LocalDevicePort(device)
        before = port.verify_count()
        port.provision(artifact, token.raw)
        delta = port.verify_count() - before
        self.controller.enroll(
            device_id=device_id,
            device_model=device_model,
            attestation_key=attestation_key,
            installed_version=version,
            installed_digest=crypto.hash_data(artifact),
        )
        self.devices[handle] = _DeviceHandle(port=port, device_id=device_id)
        return "ok", f"model={device_model} id={device_id} version={version} verify_delta={delta}"

    def issue(
        self,
        name: str,
        /,
        *,
        version: int,
        device_model: int = 0,
        device_id: int = 0,
        prev: int = 0,
        size: int = DEFAULT_ARTIFACT_SIZE,
        key: str = "oem",
    ) -> tuple[str, str]:
        signers = {"oem": self.oem_key, "rogue": self.rogue_key}
        if key not in signers:
            raise ValueError(f"key is not oem or rogue: {key!r}")
        if not 0 <= size <= MAX_ARTIFACT_SIZE:
            raise ValueError(f"size is not within 0..{MAX_ARTIFACT_SIZE}: {size}")
        artifact = derived_rng(self.seed, f"artifact:{name}").randbytes(size)
        try:
            token = issue_token(
                signers[key],
                artifact,
                Constraints(
                    device_model=device_model,
                    device_id=device_id,
                    required_prev_version=prev,
                    new_version=version,
                ),
            )
        except AssuredError as exc:
            return f"error:{type(exc).__name__}", str(exc)
        envelope_bytes = serialize_envelope(build_envelope(token, artifact))
        self.envelopes[name] = envelope_bytes
        self.artifacts[name] = artifact
        return "ok", f"size={size} token_bytes={len(token.raw)} envelope={_hex8(envelope_bytes)}"

    def publish(self, name: str, /) -> tuple[str, str]:
        if name not in self.envelopes:
            raise KeyError(f"no issued envelope named {name!r}")
        try:
            self.repo.publish(name, self.envelopes[name])
        except AssuredError as exc:
            return f"rejected:{type(exc).__name__}", str(exc)
        return "ok", f"envelope={_hex8(self.envelopes[name])}"

    def tamper(self, kind: str, /, *, offset: int = 0) -> tuple[str, str]:
        self.mirror.set_policy(kind, offset)
        return "ok", f"policy={kind} offset={offset}"

    def refresh(self) -> tuple[str, str]:
        self.repo.refresh()
        return "ok", ""

    def clock_advance(self, ticks: int, /) -> tuple[str, str]:
        self.repo.advance_clock(ticks)
        self.controller.advance_clock(ticks)
        return "ok", f"now={self.controller.clock}"

    def sync(self) -> tuple[str, str]:
        before = VERIFY_COUNTER.read()
        try:
            batch = self.controller.sync(self.mirror)
        except AssuredError as exc:
            return f"error:{type(exc).__name__}", str(exc)
        delta = VERIFY_COUNTER.read() - before
        for item in batch:
            self.verified[item.name] = item
        names = ",".join(item.name for item in batch) or "-"
        return f"ok:{len(batch)}", f"new=[{names}] verify_delta={delta}"

    def frame_tamper(self, *, bit: int = 0) -> tuple[str, str]:
        self._armed = lambda port: _TamperingPort(port, bit)
        return "ok", f"bit={bit}"

    def drop(self) -> tuple[str, str]:
        self._armed = _DroppingPort
        return "ok", ""

    def replay(self) -> tuple[str, str]:
        self._armed = _ReplayingPort
        return "ok", ""

    def forge_tag(self) -> tuple[str, str]:
        self._armed = _ForgedTagPort
        return "ok", ""

    def _through_armed(self, port):
        """Wrap ``port`` in the armed adversary, if any, and disarm it."""
        armed, self._armed = self._armed, None
        return port if armed is None else armed(port)

    def deliver(self, handle: str, name: str, /) -> tuple[str, str]:
        device = self.devices[handle]
        if name not in self.verified:
            raise KeyError(f"{name!r} has not been verified by sync")
        port = device.port
        before = port.verify_count()
        try:
            session = self.controller.open_channel(port, device.device_id)
        except ChannelError as exc:
            return f"delivery-failed:{exc.reason}", "handshake"
        recorder = _RecordingPort(port)
        session.port = self._through_armed(recorder)

        def traffic() -> str:
            return f"frames_out={recorder.sent} frames_in={recorder.received} stream={recorder.stream_digest()}"

        try:
            outcome = self.controller.deliver(session, self.verified[name])
        except PolicyDeferred as exc:
            return f"deferred:{exc.reason}", ""
        except DeliveryFailed as exc:
            delta = port.verify_count() - before
            return f"delivery-failed:{exc.reason}", f"device_verify_delta={delta} {traffic()}"
        delta = port.verify_count() - before
        return _outcome_token(outcome), (
            f"device_verify_delta={delta} envelope={_hex8(self.envelopes.get(name, b''))} {traffic()}"
        )

    def attest(self, handle: str, /) -> tuple[str, str]:
        device = self.devices[handle]
        result = self.controller.request_attestation(self._through_armed(device.port), device.device_id)
        nonce = self.controller.nonce_log[-1].hex()[:16]
        return ("verified" if result.verified else f"failed:{result.reason}"), f"nonce={nonce}"

    def corrupt_flash(self, handle: str, /, *, bank: str = "active", bit: int = 0) -> tuple[str, str]:
        device = self.devices[handle]
        if bank in ("0", "1"):
            index = int(bank)
        elif bank in ("active", "inactive"):
            active = device.port.info()["active_bank"]
            index = active if bank == "active" else 1 - active
        else:
            raise ValueError(f"bank is not active, inactive, 0 or 1: {bank!r}")
        device.port.corrupt_flash(index, bit)
        return "ok", f"bank={index} bit={bit}"

    def boot(self, handle: str, /) -> tuple[str, str]:
        port = self.devices[handle].port
        before = port.verify_count()
        result = port.boot()
        delta = port.verify_count() - before
        if result.running:
            return f"running:{result.version}", f"verify_delta={delta} reason={result.reason or '-'}"
        return f"halted:{result.reason}", f"verify_delta={delta}"


# --- runner --------------------------------------------------------------------------------

# op -> (World method, {parameter: the key a script spells it with, where the two
# differ}); a step binds to its method's signature (see the module docstring)
_STEPS = {
    "enroll": ("enroll", {"device_model": "model", "device_id": "id", "install_mode": "mode"}),
    "issue": ("issue", {"device_model": "model", "device_id": "device"}),
    "publish": ("publish", {}),
    "tamper-policy": ("tamper", {}),
    "refresh": ("refresh", {}),
    "clock-advance": ("clock_advance", {}),
    "sync": ("sync", {}),
    "frame-tamper": ("frame_tamper", {}),
    "drop": ("drop", {}),
    "replay": ("replay", {}),
    "forge-tag": ("forge_tag", {}),
    "deliver": ("deliver", {}),
    "attest": ("attest", {}),
    "corrupt-flash": ("corrupt_flash", {}),
    "boot": ("boot", {}),
}


def _execute_step(world: World, step: Step) -> tuple[str, str]:
    if step.op not in _STEPS:
        raise KeyError(f"unknown step {step.op!r}")
    name, spelled = _STEPS[step.op]
    method = getattr(world, name)
    parameters = inspect.signature(method, eval_str=True).parameters.values()
    positional = [p for p in parameters if p.kind is p.POSITIONAL_ONLY]
    if len(step.args) != len(positional):
        raise ValueError(f"{len(step.args)} positional arguments where {step.op!r} takes {len(positional)}")
    keywords = {spelled.get(p.name, p.name): p for p in parameters if p.kind is p.KEYWORD_ONLY}
    for key in step.kwargs:
        if key not in keywords:
            raise ValueError(f"unknown key {key!r}")
    for key, parameter in keywords.items():
        if key not in step.kwargs and parameter.default is parameter.empty:
            raise ValueError(f"missing key {key!r}")
    args = [p.annotation(value) for p, value in zip(positional, step.args)]
    kwargs = {p.name: p.annotation(step.kwargs[key]) for key, p in keywords.items() if key in step.kwargs}
    return method(*args, **kwargs)


def run_scenario(text: str, seed: int = 0, multiprocess: bool = False) -> Transcript:
    """Execute a scenario script; deterministic given (text, seed)."""
    steps = parse_scenario(text)
    transcript = Transcript(header=f"# assured scenario transcript seed={seed} steps={len(steps)}")
    with World(seed=seed, multiprocess=multiprocess) as world:
        for step in steps:
            try:
                outcome, details = _execute_step(world, step)
            except (KeyError, IndexError, ValueError) as exc:
                raise ScenarioError(step.index, f"{step.raw!r}: {exc}") from exc
            verdict = ""
            if step.expected is not None:
                matched = outcome == step.expected
                verdict = f" expect={step.expected} {'PASS' if matched else 'FAIL'}"
                if not matched:
                    transcript.failures += 1
            detail_text = f" | {details}" if details else ""
            transcript.lines.append(f"{step.index:02d} {step.raw.split('->')[0].strip()} | {outcome}{detail_text}{verdict}")
    return transcript


# --- built-in scenarios ----------------------------------------------------------------------

# one device enrolled at version 1 and version 2 for its model issued and published;
# _SETUP also syncs it
_PUBLISHED = """\
enroll dev1 model=100 id=1 version=1
issue fw2 version=2 model=100
publish fw2 -> ok
"""
_SETUP = _PUBLISHED + "sync -> ok:1\n"

HAPPY_PATH = "# full distribution-and-delivery flow\n" + _SETUP + """\
deliver dev1 fw2 -> installed:2
attest dev1 -> verified
boot dev1 -> running:2
"""

DROP_UPDATE = "# adversary suppresses the update and the attestation response\n" + _SETUP + """\
drop
deliver dev1 fw2 -> delivery-failed:missing
drop
attest dev1 -> failed:missing
"""

ROLLBACK = "# re-delivering an already-installed version is rejected on-device\n" + _SETUP + """\
deliver dev1 fw2 -> installed:2
deliver dev1 fw2 -> rejected:version_not_monotonic
"""


# --- adversary suite ---------------------------------------------------------------------------

# (label, attack, detection layer, script); a row reads detected when every
# expectation in its script holds, set-up steps included
ATTACKS = (
    ("mirror-bit-flip", "mirror bit-flip in envelope", "controller.sync", _PUBLISHED + """\
tamper-policy flip-bit offset=600
sync -> error:EnvelopeMismatch
"""),
    ("stale-metadata", "stale-metadata replay", "controller.sync",
     "# mirror replays an old metadata set after the controller has seen newer\n" + _SETUP + """\
tamper-policy stale
sync -> error:VersionRollback
"""),
    ("substitute", "artifact substitution at mirror", "controller.sync", _PUBLISHED + """\
tamper-policy substitute
sync -> error:EnvelopeMismatch
"""),
    ("drop-envelope", "envelope drop at mirror", "controller.sync", _PUBLISHED + """\
tamper-policy drop
sync -> error:NotFound
"""),
    ("frame-tamper", "channel frame tamper (MitM)", "channel.open_frame", _SETUP + """\
frame-tamper bit=77
deliver dev1 fw2 -> delivery-failed:auth_failure
boot dev1 -> running:1
"""),
    ("channel-replay", "channel replay", "channel.open_frame", _SETUP + """\
replay
deliver dev1 fw2 -> delivery-failed:replay_or_reorder
boot dev1 -> running:1
"""),
    ("wrong-device", "wrong-device envelope", "device.constraints", """\
enroll dev1 model=100 id=1 version=1
issue fw2 version=2 model=100 device=99
publish fw2 -> ok
sync -> ok:1
deliver dev1 fw2 -> rejected:wrong_device
"""),
    ("version-rollback", "version rollback (re-deliver old version)", "device.constraints", ROLLBACK),
    ("forged-token", "forged token (non-OEM key)", "device.verify_token", """\
enroll dev1 model=100 id=1 version=1
issue fw2 version=2 model=100 key=rogue
publish fw2 -> ok
sync -> ok:1
deliver dev1 fw2 -> rejected:bad_signature
"""),
    ("forged-attestation", "forged attestation tag", "controller.attestation", _SETUP + """\
deliver dev1 fw2 -> installed:2
forge-tag
attest dev1 -> failed:bad_tag
"""),
    ("flash-corruption", "post-install flash corruption", "device.boot + controller.attestation", _SETUP + """\
deliver dev1 fw2 -> installed:2
corrupt-flash dev1 bank=active bit=123
boot dev1 -> running:1
attest dev1 -> failed:wrong_measurement
"""),
)

BUILTIN_SCENARIOS = {
    "happy-path": HAPPY_PATH,
    "drop-update": DROP_UPDATE,
    "rollback": ROLLBACK,
    **{label: script for label, _, _, script in ATTACKS},
}


@dataclass(frozen=True)
class AdversaryRow:
    attack: str
    layer: str
    detected: bool
    detail: str


def run_adversary_suite(seed: int = 0) -> list[AdversaryRow]:
    """Run every modeled attack's script; each row names its detection layer."""
    rows = []
    for label, attack, layer, script in ATTACKS:
        transcript = run_scenario(script, seed=derived_seed(seed, f"adversary:{label}"))
        rows.append(AdversaryRow(attack=attack, layer=layer, detected=transcript.ok, detail=transcript.text()))
    return rows


def adversary_table(rows: list[AdversaryRow]) -> str:
    width = max(len(r.attack) for r in rows)
    layer_width = max(len(r.layer) for r in rows)
    lines = [f"{'attack':<{width}}  {'detection layer':<{layer_width}}  detected"]
    lines.append("-" * (width + layer_width + 12))
    for row in rows:
        lines.append(f"{row.attack:<{width}}  {row.layer:<{layer_width}}  {'yes' if row.detected else 'NO'}")
    return "\n".join(lines) + "\n"


# --- bench -----------------------------------------------------------------------------------

# (record metric, text label) of each count a BenchReport carries, in record
# order; a count that does not apply to a mode is None and is left out of both
_COUNTS = (
    ("device_verify_count", "device public-key verifications"),
    ("device_metadata_bytes", "device-visible metadata bytes"),
    ("frame_overhead_bytes", "channel frame overhead bytes"),
    ("explicit_auth_bytes", "explicit authorization bytes"),
    ("implicit_auth_bytes", "implicit authorization bytes (modeled)"),
    ("envelope_overhead_bytes", "envelope header overhead bytes"),
)


@dataclass
class BenchReport:
    mode: str
    device_verify_count: int
    device_metadata_bytes: int
    frame_overhead_bytes: int
    role_sizes: dict[str, dict[str, int]]
    notes: list[str]
    wall_ms_informational: float
    explicit_auth_bytes: int | None = None
    implicit_auth_bytes: int | None = None
    envelope_overhead_bytes: int | None = None

    def counts(self) -> list[tuple[str, str, int]]:
        """(metric, label, value) of each count that applies, in record order."""
        return [(metric, label, getattr(self, metric)) for metric, label in _COUNTS
                if getattr(self, metric) is not None]

    def records(self) -> list[dict]:
        values = [(metric, value) for metric, _, value in self.counts()]
        values += [(f"role_size:{role}:{encoding}", size)
                   for role, sizes in self.role_sizes.items() for encoding, size in sizes.items()]
        return [{"mode": self.mode, "metric": metric, "value": value} for metric, value in values]

    def to_text(self) -> str:
        width = max(len(label) for _, label in _COUNTS)
        lines = [f"bench mode={self.mode}"]
        lines += [f"  {label:<{width}} : {value}" for _, label, value in self.counts()]
        lines.append("  per-role serialized sizes:")
        for role, sizes in self.role_sizes.items():
            lines.append(f"    {role:<9} json={sizes['json']:<5} binary={sizes['binary']}")
        lines += [f"  note: {note}" for note in self.notes]
        lines.append(f"  wall-clock (informational only, not comparable across hosts): {self.wall_ms_informational:.2f} ms")
        return "\n".join(lines) + "\n"


def _role_sizes(repo_port) -> dict[str, dict[str, int]]:
    mode = repo_port.mode()
    metas = {role.value: parse(blob, mode) for role, blob in zip(RoleKind, repo_port.fetch_roles(list(RoleKind)))}
    return {role: {"json": len(serialize_canonical(meta, Mode.JSON)),
                   "binary": len(serialize_canonical(meta, Mode.FIXED_BINARY))} for role, meta in metas.items()}


def measured_frame_overhead() -> int:
    keys = crypto.derive_session_keys(bytes(32), bytes(16), bytes(16))
    return len(crypto.seal(keys, 0, b""))


def _assured_update(world: World, frame_overhead: int) -> tuple[Callable[[], str], dict]:
    """The controller delivers a token-authorized envelope over the sealed channel."""
    world.issue("fw2", version=2, device_model=100)
    world.publish("fw2")
    world.sync()
    token_bytes = len(world.verified["fw2"].envelope.token.raw)
    implicit = frame_overhead + HANDSHAKE_AMORTIZED_BYTES
    return (lambda: world.deliver("dev", "fw2")[0]), dict(
        device_metadata_bytes=token_bytes + implicit,
        explicit_auth_bytes=token_bytes,
        implicit_auth_bytes=implicit,
        envelope_overhead_bytes=len(world.envelopes["fw2"]) - len(world.artifacts["fw2"]),
        notes=[
            "implicit authorization = measured frame overhead "
            f"({frame_overhead}) + modeled per-envelope handshake share ({HANDSHAKE_AMORTIZED_BYTES})",
        ],
    )


def _tuf_update(world: World, frame_overhead: int) -> tuple[Callable[[], str], dict]:
    """The device verifies the full metadata chain of a vanilla one-target repository itself."""
    artifact = derived_rng(world.seed, "artifact:fw").randbytes(DEFAULT_ARTIFACT_SIZE)
    world.repo.publish_vanilla("fw", artifact)
    device = world.devices["dev"].port.device
    device.provision_trusted_root(parse(world.repo.trusted_root_bytes(), world.mode))
    blobs = dict(zip(RoleKind, world.repo.fetch_roles(list(RoleKind))))
    mobile_roles = (RoleKind.TARGETS, RoleKind.SNAPSHOT, RoleKind.TIMESTAMP)

    def update() -> str:
        return _outcome_token(device.receive_update_tuf(blobs, "fw", artifact, world.mode, now=world.repo.clock()))

    return update, dict(
        device_metadata_bytes=sum(len(blobs[role]) for role in mobile_roles),
        notes=[
            "metadata bytes = targets + snapshot + timestamp in JSON; "
            "root is the pre-installed trust anchor and is excluded from per-update transfer",
        ],
    )


# mode -> its set-up on a World with "dev" enrolled: (the update, returning its outcome token; report fields)
_BENCH_UPDATES = {"assured": _assured_update, "tuf": _tuf_update}


def run_bench(mode: str = "assured", seed: int = 0) -> BenchReport:
    """Instrumented size/operation-count comparison; nothing is hard-coded.

    Both sides enroll one device through ``World`` and time and count one
    update the same way. ``assured``: end-to-end delivery, counting the
    device's public-key work and the authorization metadata it receives.
    ``tuf``: the device verifies the full metadata chain of a vanilla
    one-target repository itself.

    Metadata byte accounting per update excludes the pre-installed trust
    anchors on both sides (OEM public key / root metadata) and, on the TUF
    side, counts the mobile roles (targets, snapshot, timestamp).
    """
    if mode not in _BENCH_UPDATES:
        raise ValueError(f"unknown bench mode {mode!r}")
    frame_overhead = measured_frame_overhead()
    with World(seed=derived_seed(seed, f"bench-{mode}")) as world:
        world.enroll("dev", device_model=100, device_id=1, version=1)
        update, fields = _BENCH_UPDATES[mode](world, frame_overhead)
        port = world.devices["dev"].port
        started = time.perf_counter()
        before = port.verify_count()
        outcome = update()
        verify_count = port.verify_count() - before
        wall_ms = (time.perf_counter() - started) * 1000.0
        if not outcome.startswith("installed:"):
            raise AssuredError(f"bench update did not install: {outcome}")
        return BenchReport(
            mode=mode,
            device_verify_count=verify_count,
            frame_overhead_bytes=frame_overhead,
            role_sizes=_role_sizes(world.repo),
            wall_ms_informational=wall_ms,
            **fields,
        )
