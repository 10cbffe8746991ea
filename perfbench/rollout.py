"""One benchmark workload, run in a process of its own.

Drives the actors directly through their public APIs -- ``Controller``,
the repository and device ports, the ``repository`` functions -- in one
single-threaded closed loop: each step starts only after the previous one
returned. Every key, image and nonce is derived from ``--seed``.

A round is one release cycle: the OEM issues the next version of one image,
the repository publishes it, the controller syncs (one new envelope) and
resyncs (nothing new), then every enrolled device is updated in turn. An
update is open_channel -> deliver -> request_attestation -> boot.

Prints one JSON object summarising the samples, both at host-reference
speed (``reference.py``) and raw; ``run.py`` turns it into the metrics.

    python3 perfbench/rollout.py --workload fleet-small --seed 1 --seconds 10
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from types import SimpleNamespace

from reference import reference_ms, speed_factors

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEVICE_MODEL = 7
CATALOG_MODEL = 8
RELEASE_NAME = "fw"
FACTORY_IMAGE = 256


@dataclass(frozen=True)
class Workload:
    devices: int
    image_size: int
    catalog: int  # records published (one publish each) and synced at set-up
    multiprocess: bool  # repository and device as server processes over TCP loopback


WORKLOADS = {
    "fleet-small": Workload(devices=32, image_size=4096, catalog=0, multiprocess=False),
    "catalog-1k": Workload(devices=1, image_size=256, catalog=1000, multiprocess=False),
    "image-socket": Workload(devices=1, image_size=256 * 1024, catalog=0, multiprocess=True),
}

# set-up is repeated and its median reported: at least MIN_SETUPS times, then
# again while the repeats have taken less than SETUP_BUDGET_S in total
MIN_SETUPS = 3
MAX_SETUPS = 9
SETUP_BUDGET_S = 2.0
# host-speed references timed on each side of a set-up
SETUP_REFERENCES = 3


def derived_rng(seed: int, label: str) -> random.Random:
    # kept here rather than imported from the program, so one seed gives the
    # same inputs however the program changes
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class CheckFailed(Exception):
    """An operation returned a wrong outcome."""


class LinkCounter:
    """Device port seen from the controller: forwards every call and counts
    the bytes that cross the controller<->device link."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.bytes = 0

    def hello(self, controller_nonce: bytes) -> bytes:
        device_nonce = self.inner.hello(controller_nonce)
        self.bytes += len(controller_nonce) + len(device_nonce)
        return device_nonce

    def exchange(self, frames: list[bytes]) -> list[bytes]:
        replies = self.inner.exchange(frames)
        self.bytes += sum(map(len, frames)) + sum(map(len, replies))
        return replies

    def attest(self, nonce: bytes):
        report = self.inner.attest(nonce)
        self.bytes += len(nonce)
        if report is not None:
            # device id travels as the u64 the tag covers
            self.bytes += 8 + len(report.nonce) + len(report.measurement) + len(report.tag)
        return report

    def __getattr__(self, name):
        return getattr(self.inner, name)


class Servers:
    """Server processes started through ``serve.py``; stopped and waited for
    by ``close``."""

    def __init__(self, workdir: str, trace: bool) -> None:
        self.workdir = workdir
        self.trace = trace
        self.processes: list[subprocess.Popen] = []
        self.trace_files: list[str] = []

    def spawn(self, argv: list[str]) -> str:
        command = [sys.executable, os.path.join(HERE, "serve.py")]
        if self.trace:
            path = os.path.join(self.workdir, f"server-{len(self.trace_files)}.jsonl")
            self.trace_files.append(path)
            command += ["--trace-out", path]
        process = subprocess.Popen(
            command + ["--", *argv], stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True, cwd=ROOT
        )
        self.processes.append(process)
        line = process.stdout.readline().strip()
        if not line.startswith("LISTENING "):
            raise RuntimeError(f"server process failed to start: {line!r}")
        return line[len("LISTENING "):]

    def close(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()
        self.processes = []


class Rollout:
    """The actors of one workload, built by ``setup``."""

    def __init__(self, name: str, seed: int, workdir: str, trace: bool) -> None:
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.servers = Servers(workdir, trace)
        self.remote_ports: list = []

    # --- set-up: keys, repository (and catalog), servers, devices, first sync ---

    def setup(self) -> None:
        from assured import crypto
        from assured.authorization import Constraints, build_envelope, encode_token, issue_token, serialize_envelope
        from assured.controller import Controller
        from assured.device import Device
        from assured.metadata import Mode, parse
        from assured.repository import new_repository, save_repository
        from assured.transport import LocalDevicePort, LocalRepoPort, RemoteDevicePort, RemoteRepoPort

        seed, spec = self.seed, self.spec

        def key(label: str):
            return crypto.signing_key_from_seed(derived_rng(seed, label).randbytes(32))

        self.oem_key = key("oem")
        state = new_repository(
            root_keys=[key("root-0"), key("root-1")],
            targets_keys=[key("targets-0"), key("targets-1")],
            snapshot_keys=[key("snapshot-0")],
            timestamp_keys=[key("timestamp-0")],
            mode=Mode.JSON,
        )
        if spec.multiprocess:
            repo_dir = os.path.join(self.workdir, "repo")
            shutil.rmtree(repo_dir, ignore_errors=True)
            save_repository(state, repo_dir)
            address = self.servers.spawn(["repo", "serve", "--dir", repo_dir, "--listen", "127.0.0.1:0"])
            self.repo = RemoteRepoPort(address)
            self.remote_ports.append(self.repo)
        else:
            self.repo = LocalRepoPort(state)
        catalog_rng = derived_rng(seed, "catalog")
        for i in range(spec.catalog):
            artifact = catalog_rng.randbytes(spec.image_size)
            token = issue_token(self.oem_key, artifact, Constraints(device_model=CATALOG_MODEL, new_version=1))
            self.repo.publish(f"catalog-{i:04d}", serialize_envelope(build_envelope(token, artifact)))

        self.controller = Controller(
            trusted_root=parse(self.repo.trusted_root_bytes(), Mode.JSON),
            mode=Mode.JSON,
            rng=derived_rng(seed, "controller"),
        )
        self.devices: list[tuple[int, LinkCounter]] = []
        for device_id in range(1, spec.devices + 1):
            attestation_key = derived_rng(seed, f"attestation:{device_id}").randbytes(32)
            rng_seed = derived_rng(seed, f"device:{device_id}").getrandbits(63)
            if spec.multiprocess:
                address = self.servers.spawn([
                    "device", "run", "--listen", "127.0.0.1:0",
                    "--model", str(DEVICE_MODEL), "--id", str(device_id),
                    "--oem-public", self.oem_key.public.hex(),
                    "--attestation-key", attestation_key.hex(),
                    "--rng-seed", str(rng_seed), "--install-mode", "dual",
                ])
                port = RemoteDevicePort(address)
                self.remote_ports.append(port)
            else:
                port = LocalDevicePort(Device(
                    device_model=DEVICE_MODEL, device_id=device_id, oem_public=self.oem_key.public,
                    attestation_key=attestation_key, rng=random.Random(rng_seed),
                ))
            factory = derived_rng(seed, f"factory:{device_id}").randbytes(FACTORY_IMAGE)
            token = issue_token(self.oem_key, factory, Constraints(device_model=DEVICE_MODEL, new_version=1))
            port.provision(factory, encode_token(token))
            self.controller.enroll(
                device_id=device_id, device_model=DEVICE_MODEL, attestation_key=attestation_key,
                installed_version=1, installed_digest=crypto.hash_data(factory),
            )
            self.devices.append((device_id, LinkCounter(port)))

        first = self.controller.sync(self.repo)
        if len(first) != spec.catalog:
            raise CheckFailed(f"first sync returned {len(first)} envelopes, expected {spec.catalog}")

    def close(self) -> None:
        for port in self.remote_ports:
            port.close()
        self.remote_ports = []
        self.servers.close()

    # --- one release cycle --------------------------------------------------------------

    def release(self, version: int) -> bytes:
        from assured.authorization import Constraints, build_envelope, issue_token, serialize_envelope

        artifact = derived_rng(self.seed, f"image:{version}").randbytes(self.spec.image_size)
        token = issue_token(self.oem_key, artifact, Constraints(device_model=DEVICE_MODEL, new_version=version))
        return serialize_envelope(build_envelope(token, artifact))


class Samples:
    def __init__(self) -> None:
        self.ms: dict[str, list[float]] = {"publish": [], "sync": [], "resync": [], "update": []}
        self.round_of: dict[str, list[int]] = {name: [] for name in self.ms}
        self.references: list[float] = []  # one before each round
        self.link_bytes: list[int] = []
        self.updated = 0  # installed, attested and booted on the new version
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, name: str, round_index: int, ms: float) -> None:
        self.ms[name].append(ms)
        self.round_of[name].append(round_index)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


def describe(result) -> str:
    if isinstance(result, list):
        return repr([getattr(item, "name", item) for item in result])
    return repr(result)


def run_rounds(world: Rollout, seconds: float, max_rounds: int | None, tracer=None):
    """Closed loop of release cycles for ``seconds`` (or ``max_rounds``).

    Returns the samples, the number of rounds and each round's and
    update's time window. A host-speed reference is timed before each
    round, outside the round's window. The tracer's
    round/update context is cleared around the output checks, so their
    calls count in no round.
    """
    from assured import crypto

    clock = time.perf_counter

    def timed(call):
        t0 = clock()
        try:
            result = call()
        except Exception as exc:  # a raised error is a wrong outcome, checked below
            result = exc
        return result, (clock() - t0) * 1000.0

    context = tracer if tracer is not None else SimpleNamespace()
    samples = Samples()
    windows: list[tuple] = []
    ctrl, repo = world.controller, world.repo
    rounds = 0
    started = clock()
    while True:
        version = rounds + 2
        samples.references.append(reference_ms())
        context.round, context.update = rounds, None
        round_start = clock()
        envelope_bytes = world.release(version)

        samples.attempted += 3
        published, ms = timed(lambda: repo.publish(RELEASE_NAME, envelope_bytes))
        samples.add("publish", rounds, ms)
        if published is not None:
            samples.fail(f"publish v{version}: {published!r}")

        verifies = crypto.VERIFY_COUNTER.read()
        batch, ms = timed(lambda: ctrl.sync(repo))
        samples.add("sync", rounds, ms)
        verifies = crypto.VERIFY_COUNTER.read() - verifies
        if not isinstance(batch, list) or [item.name for item in batch] != [RELEASE_NAME]:
            samples.fail(f"sync v{version} returned {describe(batch)}")
            batch = []
        elif verifies != 6:
            samples.fail(f"sync v{version} made {verifies} signature verifications, expected 6")

        again, ms = timed(lambda: ctrl.sync(repo))
        samples.add("resync", rounds, ms)
        if again != []:
            samples.fail(f"resync v{version} returned {describe(again)}")

        for index, (device_id, port) in enumerate(world.devices):
            samples.attempted += 1
            context.round, context.update = None, None
            before = port.verify_count()
            context.round, context.update = rounds, index
            port.bytes = 0
            t0 = clock()
            installed, deliver_ms = timed(lambda: ctrl.deliver(ctrl.open_channel(port, device_id), batch[0]))
            context.round, context.update = None, None
            device_verifies = port.verify_count() - before
            context.round, context.update = rounds, index
            attested, attest_ms = timed(lambda: ctrl.request_attestation(port, device_id))
            booted, boot_ms = timed(port.boot)
            windows.append((rounds, index, t0, clock()))
            samples.add("update", rounds, deliver_ms + attest_ms + boot_ms)
            samples.link_bytes.append(port.bytes)
            if getattr(installed, "status", None) != "installed" or installed.version != version:
                problem = f"deliver returned {installed!r}"
            elif device_verifies != 1:
                problem = f"device made {device_verifies} signature verifications in deliver, expected 1"
            elif not getattr(attested, "verified", False):
                problem = f"attestation returned {attested!r}"
            elif not (getattr(booted, "running", False) and booted.version == version):
                problem = f"boot returned {booted!r}"
            else:
                samples.updated += 1
                continue
            samples.fail(f"update device {device_id} v{version}: {problem}")

        windows.append((rounds, None, round_start, clock()))
        rounds += 1
        context.round = context.update = None
        if rounds == max_rounds or (max_rounds is None and clock() - started >= seconds):
            break
    return samples, rounds, windows


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_stats(values: list[float], round_of: list[int], factors: list[float]) -> dict:
    """Median and p90 at reference speed, and of the raw values."""
    scaled = [ms * factors[r] for ms, r in zip(values, round_of)]
    return {
        "n": len(values),
        "p50": statistics.median(scaled),
        "p90": percentile(scaled, 90),
        "raw_p50": statistics.median(values),
        "raw_p90": percentile(values, 90),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", help="trace the run and write the span JSONL here")
    parser.add_argument("--setups", type=int, default=0, help="0: repeat set-up as the budget allows")
    parser.add_argument("--rounds", type=int, help="stop after this many rounds instead of --seconds")
    parser.add_argument("--devices", type=int, help="override the workload's device count")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    if args.devices is not None:
        WORKLOADS[args.workload] = replace(WORKLOADS[args.workload], devices=args.devices)
    import assured.cli  # noqa: F401  (imports every actor module outside the timed set-up)

    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    os.makedirs(args.workdir, exist_ok=True)

    setup_s: list[float] = []
    setup_factors: list[float] = []
    world = None
    try:
        while True:
            if world is not None:
                # drop the previous world before building the next, so peak
                # RSS holds one world at a time
                world.close()
                world = None
                gc.collect()
            world = Rollout(args.workload, args.seed, args.workdir, trace=tracer is not None)
            references = [reference_ms() for _ in range(SETUP_REFERENCES)]
            started = time.perf_counter()
            world.setup()
            setup_s.append(time.perf_counter() - started)
            references += [reference_ms() for _ in range(SETUP_REFERENCES)]
            setup_factors += speed_factors([statistics.median(references)])
            done = len(setup_s)
            if done >= (args.setups or MAX_SETUPS):
                break
            if not args.setups and done >= MIN_SETUPS and sum(setup_s) >= SETUP_BUDGET_S:
                break
        gc.collect()
        samples, rounds, windows = run_rounds(world, args.seconds, args.rounds, tracer)
        nonce_log = len(world.controller.nonce_log)
        archive = getattr(getattr(world.repo, "state", None), "archive", None)
    finally:
        if world is not None:
            world.close()

    factors = speed_factors(samples.references)
    round_s = [end - start for r, update, start, end in windows if update is None]
    result = {
        "assured_file": assured.cli.__file__,
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": [raw * f for raw, f in zip(setup_s, setup_factors)],
        "raw_setup_s": setup_s,
        "rounds": rounds,
        "updates": samples.updated,
        "round_s": sum(t * f for t, f in zip(round_s, factors)),
        "raw_round_s": sum(round_s),
        "reference_ms": statistics.median(samples.references),
        "attempted": samples.attempted,
        "failed": samples.failed,
        "failures": samples.failures,
        "link_bytes_per_update": statistics.median(samples.link_bytes),
        "timings": {name: timing_stats(values, samples.round_of[name], factors) for name, values in samples.ms.items()},
    }
    if tracer is not None:
        import spans

        counters = {"controller.nonce_log.entries": nonce_log}
        if archive is not None:
            counters["repository.archive.entries"] = len(archive)
            counters["repository.archive.bytes"] = sum(len(blob) for entry in archive for blob in entry.values())
        remote = []
        for path in world.servers.trace_files:
            server_spans, server_counters = spans.load_jsonl(path)
            remote.append(server_spans)
            counters.update(server_counters)
        merged = spans.merge(tracer.spans, os.getpid(), remote, windows)
        spans.write_jsonl(args.trace_out, merged, counters)
        result["spans"] = len(merged)
        result["per_layer"] = spans.layer_metrics(merged, rounds, counters)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
