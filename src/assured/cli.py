"""Command-line interface.

Subcommands mirror the protocol actors: ``oem`` issues keys and tokens,
``repo`` maintains and serves the repository, ``controller`` syncs/delivers/
attests against persisted state, ``device`` simulates a device process, and
``scenario``/``bench``/``adversary-suite`` drive the harness. ``token dump``
hex-dumps a 136-byte token or an envelope for debugging.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import random
import signal
import sys
import threading

from . import crypto, repository
from .authorization import (
    AuthorizationToken,
    Constraints,
    ENVELOPE_MAGIC,
    TOKEN_LEN,
    build_envelope,
    decode_token,
    issue_token,
    parse_envelope,
    serialize_envelope,
)
from .codec import read_file, write_file
from .controller import Controller, LocalPolicy, load_controller, save_controller
from .device import Device, InstallMode, load_flash, save_flash
from .errors import AssuredError, NotFound, ParseError
from .harness import (
    BUILTIN_SCENARIOS,
    adversary_table,
    run_adversary_suite,
    run_bench,
    run_scenario,
)
from .metadata import Mode, parse
from .repository import load_repository, new_repository, save_repository
from .transport import (
    DeviceServer,
    LocalDevicePort,
    LocalRepoPort,
    RemoteDevicePort,
    RemoteRepoPort,
    RepoServer,
)

# the name perfbench/serve.py replaces to reach the server `repo serve` starts
make_repo_server = RepoServer


# --- option converters: a malformed value is a usage error naming its option ------------

def u64(text: str) -> int:
    """An integer the state files and tokens store in 8 bytes."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError(f"{value} is outside 0..2**64-1")
    return value


def hex32(text: str) -> bytes:
    """A 32-byte key or digest as 64 hex digits."""
    value = bytes.fromhex(text)
    if len(value) != 32:
        raise ValueError(f"{len(value)} bytes, not 32")
    return value


def maintenance_window(text: str) -> tuple[int, int]:
    """``start:end`` in ticks, checked by LocalPolicy."""
    start, _, end = text.partition(":")
    return LocalPolicy(window=(int(start), int(end))).window


def model_list(text: str) -> frozenset[int]:
    """Comma-separated models, checked by LocalPolicy."""
    return LocalPolicy(allowed_models=frozenset(int(model) for model in text.split(","))).allowed_models


def _load_oem_key(path: str) -> crypto.SigningKeyPair:
    seed = read_file(path)
    if len(seed) != 32:
        raise SystemExit(f"{path}: OEM key file must hold a 32-byte seed")
    return crypto.signing_key_from_seed(seed)


@contextlib.contextmanager
def _repo_port(spec: str):
    """The repository at a directory or a served address; a connection
    opened for an address is closed when the block exits, however it exits."""
    if os.path.isdir(spec):
        yield LocalRepoPort(load_repository(spec))
    else:
        with contextlib.closing(RemoteRepoPort(spec)) as port:
            yield port


@contextlib.contextmanager
def _controller(args):
    """The controller in the state file, written back when the block exits,
    however it exits, so a nonce drawn by a failed command still counts. A
    seeded rng is derived from the seed and the count of nonces drawn, so
    repeated runs with one seed stay deterministic but never draw a
    handshake or attestation nonce again."""
    ctrl = load_controller(args.state)
    if args.seed is not None:
        ctrl.rng = random.Random(f"{args.seed}:{ctrl.nonces_drawn}")
    try:
        yield ctrl
    finally:
        save_controller(ctrl, args.state)


@contextlib.contextmanager
def _device_port(args):
    """(port, device): a served device (device None, closed on exit) or one
    loaded from its flash file, written back when the block exits, however
    it exits."""
    if getattr(args, "device_addr", None):
        with contextlib.closing(RemoteDevicePort(args.device_addr)) as port:
            yield port, None
    elif args.flash:
        device = load_flash(args.flash, rng=random.Random(args.seed))
        try:
            yield LocalDevicePort(device), device
        finally:
            save_flash(device, args.flash)
    else:
        raise SystemExit("need --device-addr (host:port or socket path) or --flash file")


# --- oem -----------------------------------------------------------------------------

def cmd_oem_keygen(args) -> int:
    seed = random.Random(args.seed).randbytes(32)
    write_file(args.out, seed)
    key = crypto.signing_key_from_seed(seed)
    print(f"wrote {args.out}; public key {key.public.hex()}")
    return 0


def cmd_oem_issue(args) -> int:
    key = _load_oem_key(args.key)
    artifact = read_file(args.artifact)
    constraints = Constraints(
        device_model=args.model,
        device_id=args.device,
        required_prev_version=args.prev,
        new_version=args.new_version,
    )
    token = issue_token(key, artifact, constraints)
    envelope = serialize_envelope(build_envelope(token, artifact))
    write_file(args.out, envelope)
    print(f"wrote {args.out}: token {len(token.raw)} B, artifact {len(artifact)} B")
    return 0


# --- token ---------------------------------------------------------------------------

def _dump_token(token: AuthorizationToken) -> None:
    c = token.constraints
    print(f"artifact_hash          {token.artifact_hash.hex()}")
    print(f"artifact_size          {token.artifact_size}")
    print(f"device_model           {c.device_model}{' (wildcard)' if not c.device_model else ''}")
    print(f"device_id              {c.device_id}{' (wildcard)' if not c.device_id else ''}")
    print(f"required_prev_version  {c.required_prev_version}{' (none)' if not c.required_prev_version else ''}")
    print(f"new_version            {c.new_version}")
    print(f"signature              {token.signature.hex()}")


def cmd_token_dump(args) -> int:
    raw = read_file(args.file)
    if raw[:4] == ENVELOPE_MAGIC:
        envelope = parse_envelope(raw)
        print(f"update envelope: {len(raw)} B total, artifact {len(envelope.artifact)} B")
        _dump_token(envelope.token)
    elif len(raw) == TOKEN_LEN:
        _dump_token(decode_token(raw))
    else:
        raise SystemExit(f"{args.file}: neither an envelope nor a {TOKEN_LEN}-byte token")
    return 0


# --- repo ----------------------------------------------------------------------------

def cmd_repo_init(args) -> int:
    rng = random.Random(args.seed)

    def keys(count: int):
        return [crypto.signing_key_from_seed(rng.randbytes(32)) for _ in range(count)]

    state = new_repository(
        root_keys=keys(2),
        targets_keys=keys(2),
        snapshot_keys=keys(1),
        timestamp_keys=keys(1),
        mode=Mode(args.mode),
    )
    save_repository(state, args.dir)
    print(f"initialized repository in {args.dir} (mode={args.mode})")
    return 0


def _with_repo(args, transform) -> int:
    state = load_repository(args.dir)
    state = transform(state)
    save_repository(state, args.dir)
    return 0


def cmd_repo_publish(args) -> int:
    envelope = read_file(args.envelope)
    return _with_repo(args, lambda state: repository.publish(state, args.name, envelope))


def cmd_repo_refresh(args) -> int:
    return _with_repo(args, repository.refresh_timestamp)


def cmd_repo_advance(args) -> int:
    return _with_repo(args, lambda state: repository.advance_clock(state, args.ticks))


def _serve(server) -> int:
    print(f"LISTENING {server.display_address()}", flush=True)
    # shutdown() blocks until serve_forever() exits, so it must not run on
    # the serving thread itself (the signal handler does)
    signal.signal(
        signal.SIGTERM,
        lambda *_: threading.Thread(target=server.shutdown, daemon=True).start(),
    )
    try:
        server.serve_forever(poll_interval=0.02)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_repo_serve(args) -> int:
    return _serve(make_repo_server(load_repository(args.dir), args.listen))


# --- controller ------------------------------------------------------------------------

def cmd_controller_init(args) -> int:
    with _repo_port(args.repo) as repo:
        mode = repo.mode()
        trusted_root = parse(repo.trusted_root_bytes(), mode)
    ctrl = Controller(
        trusted_root=trusted_root,
        mode=mode,
        policy=LocalPolicy(window=args.window, allowed_models=args.models),
        rng=random.Random(args.seed),
    )
    save_controller(ctrl, args.state)
    print(f"wrote {args.state} (trust anchor: root v{trusted_root.version})")
    return 0


def cmd_controller_enroll(args) -> int:
    with _controller(args) as ctrl:
        ctrl.enroll(
            device_id=args.device,
            device_model=args.model,
            attestation_key=args.attestation_key,
            installed_version=args.version,
            installed_digest=args.digest or crypto.hash_data(b""),
        )
    print(f"enrolled device {args.device} (model {args.model})")
    return 0


def cmd_controller_sync(args) -> int:
    with _controller(args) as ctrl, _repo_port(args.repo) as repo:
        batch = ctrl.sync(repo)
    for item in batch:
        print(f"verified {item.name}: artifact {len(item.envelope.artifact)} B")
    print(f"sync ok: {len(batch)} new envelope(s)")
    return 0


def cmd_controller_deliver(args) -> int:
    with _controller(args) as ctrl, _repo_port(args.repo) as repo, _device_port(args) as (port, _):
        ctrl.seen_targets.pop(args.name, None)  # re-verify and re-deliver idempotently
        batch = ctrl.sync(repo)
        wanted = [item for item in batch if item.name == args.name]
        if not wanted:
            raise NotFound(f"no verified envelope named {args.name!r}")
        session = ctrl.open_channel(port, args.device)
        outcome = ctrl.deliver(session, wanted[0])
    print(f"device reports {outcome.status} (version {outcome.version}) {outcome.reason}")
    return 0 if outcome.status == "installed" else 1


def cmd_controller_attest(args) -> int:
    with _controller(args) as ctrl, _device_port(args) as (port, _):
        result = ctrl.request_attestation(port, args.device, expected_digest=args.expected or None)
    if result.verified:
        print("attestation verified")
        return 0
    print(f"attestation failed: {result.reason}")
    return 1


# --- device ---------------------------------------------------------------------------------

def _new_device(args, attestation_key: bytes, rng: random.Random) -> Device:
    return Device(
        device_model=args.model,
        device_id=args.id,
        oem_public=args.oem_public,
        attestation_key=attestation_key,
        install_mode=InstallMode(args.install_mode),
        rng=rng,
    )


def cmd_device_init(args) -> int:
    rng = random.Random(args.seed)
    attestation_key = args.attestation_key or rng.randbytes(32)
    device = _new_device(args, attestation_key, rng)
    if args.envelope:
        envelope = parse_envelope(read_file(args.envelope))
        device.provision_firmware(envelope.artifact, envelope.token)
    save_flash(device, args.flash)
    print(f"wrote {args.flash}; attestation key {attestation_key.hex()}")
    return 0


def cmd_device_run(args) -> int:
    if args.flash:
        device = load_flash(args.flash, rng=random.Random(args.rng_seed))
    else:
        for required in ("model", "id", "oem_public", "attestation_key"):
            if getattr(args, required) is None:
                raise SystemExit(f"--{required.replace('_', '-')} is required without --flash")
        device = _new_device(args, args.attestation_key, random.Random(args.rng_seed))
    server = DeviceServer(device, args.listen)
    if args.flash:
        server.after_op = lambda: save_flash(device, args.flash)
    return _serve(server)


def cmd_device_boot(args) -> int:
    with _device_port(args) as (_, device):
        result = device.boot()
    if result.running:
        print(f"running version {result.version}" + (f" ({result.reason})" if result.reason else ""))
        return 0
    print(f"halted: {result.reason}")
    return 1


# --- harness ----------------------------------------------------------------------------------

def cmd_scenario_run(args) -> int:
    if os.path.exists(args.file):
        script = read_file(args.file)
        try:
            text = script.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.file} is not utf-8", position=exc.start) from exc
    elif args.file in BUILTIN_SCENARIOS:
        text = BUILTIN_SCENARIOS[args.file]
    else:
        raise SystemExit(f"{args.file}: no such scenario file or builtin "
                         f"(builtins: {', '.join(sorted(BUILTIN_SCENARIOS))})")
    transcript = run_scenario(text, seed=args.seed, multiprocess=args.multiprocess)
    output = transcript.text()
    if args.out:
        write_file(args.out, output.encode())
    print(output, end="")
    return 0 if transcript.ok else 1


def _write_records(path: str, records: list[dict]) -> None:
    """One JSON object per line, keys sorted."""
    write_file(path, "".join(json.dumps(record, sort_keys=True) + "\n" for record in records).encode())


def cmd_bench(args) -> int:
    modes = [args.mode] if args.mode != "both" else ["assured", "tuf"]
    records = []
    for mode in modes:
        report = run_bench(mode=mode, seed=args.seed)
        print(report.to_text())
        records.extend(report.records())
    if args.records:
        _write_records(args.records, records)
        print(f"wrote {len(records)} records to {args.records}")
    return 0


def cmd_adversary_suite(args) -> int:
    rows = run_adversary_suite(seed=args.seed)
    print(adversary_table(rows), end="")
    if args.records:
        _write_records(args.records, [dataclasses.asdict(row) for row in rows])
    undetected = [row for row in rows if not row.detected]
    for row in undetected:
        print(f"UNDETECTED: {row.attack} ({row.detail})", file=sys.stderr)
    if undetected:
        print(f"{len(undetected)} attack(s) UNDETECTED", file=sys.stderr)
        return 1
    print(f"all {len(rows)} attacks detected")
    return 0


# --- parser ------------------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # options that several commands take, each declared once in a parent parser
    seed, run_seed, repo_dir, state, target, records = (argparse.ArgumentParser(add_help=False) for _ in range(6))
    seed.add_argument("--seed", type=int)
    run_seed.add_argument("--seed", type=int, default=0)
    repo_dir.add_argument("--dir", required=True)
    state.add_argument("--state", required=True)
    target.add_argument("--device", type=u64, required=True)
    target.add_argument("--device-addr")
    target.add_argument("--flash")
    records.add_argument("--records", help="write machine-readable JSONL records here")

    parser = argparse.ArgumentParser(prog="assured", description="secure firmware update toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name: str, func, *parents, **kwargs) -> argparse.ArgumentParser:
        """A subcommand that runs ``func``, taking the options of ``parents``."""
        parsed = subparsers.add_parser(name, parents=list(parents), **kwargs)
        parsed.set_defaults(func=func)
        return parsed

    oem = sub.add_parser("oem", help="OEM key and token operations").add_subparsers(dest="sub", required=True)
    keygen = command(oem, "keygen", cmd_oem_keygen, seed, help="generate an OEM signing key")
    keygen.add_argument("--out", required=True)
    issue = command(oem, "issue", cmd_oem_issue, help="issue a token and envelope for an artifact")
    issue.add_argument("--key", required=True)
    issue.add_argument("--artifact", required=True)
    issue.add_argument("--new-version", type=u64, required=True)
    issue.add_argument("--model", type=u64, default=0)
    issue.add_argument("--device", type=u64, default=0)
    issue.add_argument("--prev", type=u64, default=0)
    issue.add_argument("--out", required=True)

    token = sub.add_parser("token", help="token utilities").add_subparsers(dest="sub", required=True)
    dump = command(token, "dump", cmd_token_dump, help="hex-dump a token or envelope")
    dump.add_argument("file")

    repo = sub.add_parser("repo", help="repository operations").add_subparsers(dest="sub", required=True)
    init = command(repo, "init", cmd_repo_init, repo_dir, seed)
    init.add_argument("--mode", choices=["json", "binary"], default="json")
    publish = command(repo, "publish", cmd_repo_publish, repo_dir)
    publish.add_argument("--name", required=True)
    publish.add_argument("--envelope", required=True)
    command(repo, "refresh", cmd_repo_refresh, repo_dir)
    advance = command(repo, "advance", cmd_repo_advance, repo_dir)
    advance.add_argument("--ticks", type=int, required=True)
    serve = command(repo, "serve", cmd_repo_serve, repo_dir)
    serve.add_argument("--listen", default="127.0.0.1:0")

    controller = sub.add_parser("controller", help="controller operations").add_subparsers(dest="sub", required=True)
    cinit = command(controller, "init", cmd_controller_init, state, seed)
    cinit.add_argument("--repo", required=True, help="repository dir or host:port")
    cinit.add_argument("--window", type=maintenance_window, help="maintenance window start:end in ticks")
    cinit.add_argument("--models", type=model_list, help="comma-separated allowed models")
    enroll = command(controller, "enroll", cmd_controller_enroll, state, seed)
    enroll.add_argument("--device", type=u64, required=True)
    enroll.add_argument("--model", type=u64, required=True)
    enroll.add_argument("--attestation-key", type=hex32, required=True, help="hex pre-shared master key")
    enroll.add_argument("--version", type=u64, default=0)
    enroll.add_argument("--digest", type=hex32, help="hex digest of the installed artifact")
    csync = command(controller, "sync", cmd_controller_sync, state, seed)
    csync.add_argument("--repo", required=True)
    deliver = command(controller, "deliver", cmd_controller_deliver, state, target, seed)
    deliver.add_argument("--repo", required=True)
    deliver.add_argument("--name", required=True)
    attest = command(controller, "attest", cmd_controller_attest, state, target, seed)
    attest.add_argument("--expected", type=hex32, help="hex expected measurement (default: registry)")

    device = sub.add_parser("device", help="simulated device").add_subparsers(dest="sub", required=True)
    dinit = command(device, "init", cmd_device_init, seed)
    dinit.add_argument("--flash", required=True)
    dinit.add_argument("--model", type=u64, required=True)
    dinit.add_argument("--id", type=u64, required=True)
    dinit.add_argument("--oem-public", type=hex32, required=True, help="hex OEM public key")
    dinit.add_argument("--attestation-key", type=hex32, help="hex master key (generated if omitted)")
    dinit.add_argument("--envelope", help="factory firmware envelope")
    dinit.add_argument("--install-mode", choices=["dual", "single"], default="dual")
    drun = command(device, "run", cmd_device_run)
    drun.add_argument(
        "--listen", default="127.0.0.1:0", help="host:port (0 = ephemeral) or a unix-socket path"
    )
    drun.add_argument("--flash")
    drun.add_argument("--model", type=u64)
    drun.add_argument("--id", type=u64)
    drun.add_argument("--oem-public", type=hex32)
    drun.add_argument("--attestation-key", type=hex32)
    drun.add_argument("--install-mode", choices=["dual", "single"], default="dual")
    drun.add_argument("--rng-seed", type=int)
    dboot = command(device, "boot", cmd_device_boot, seed)
    dboot.add_argument("--flash", required=True)

    scenario = sub.add_parser("scenario", help="run scenario scripts").add_subparsers(dest="sub", required=True)
    srun = command(scenario, "run", cmd_scenario_run, run_seed)
    srun.add_argument("file", help="scenario file or builtin name")
    srun.add_argument("--multiprocess", action="store_true")
    srun.add_argument("--out", help="also write the transcript here")

    bench = command(sub, "bench", cmd_bench, run_seed, records, help="size/operation-count comparison")
    bench.add_argument("--mode", choices=["assured", "tuf", "both"], default="both")
    command(sub, "adversary-suite", cmd_adversary_suite, run_seed, records, help="run all modeled attacks")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AssuredError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
