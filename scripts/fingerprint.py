#!/usr/bin/env python3
"""Print one SHA-256 per group of the program's deterministic outputs, then
one overall digest. Two trees that print the same overall digest produce the
same bytes in every group, so a change meant to keep behaviour can be checked
with one command on each tree:

    PYTHONPATH=src python scripts/fingerprint.py

Groups (all in-process, seed 7):
  transcripts  the builtin scenarios and scenarios/*.scn;
  bench        the `run_bench` records of both modes and the
               `run_adversary_suite` rows;
  repository   the directory `save_repository` writes, in both modes, after
               publishes (a non-ASCII name and a re-publish among them), a
               vanilla record, a clock step, a timestamp refresh and a root
               rotation, saved twice into one directory;
  state        a saved controller state file and two flash images, one
               after a delivered update and one after a full-verification
               (plain TUF) install;
  cli          every file, and each command's exit code, that one seeded
               file-based flow through `assured.cli.main` leaves in an empty
               directory: `oem keygen`/`issue`, `repo init`/`publish`,
               `controller init`/`enroll`/`sync`/`deliver --flash`/`attest`,
               `device init`/`boot`, `scenario run --out`, `bench --records`
               and `adversary-suite --records`. A stray temporary file changes
               this digest too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import hashlib
import io
import json
import os
import random
import sys
import tempfile

from assured import crypto
from assured.authorization import Constraints, build_envelope, issue_token, serialize_envelope
from assured.cli import main as cli_main
from assured.controller import save_controller
from assured.device import Device, save_flash
from assured.harness import BUILTIN_SCENARIOS, World, run_adversary_suite, run_bench, run_scenario
from assured.metadata import Mode, RoleKind
from assured.repository import (
    RepositoryState,
    advance_clock,
    fetch_metadata,
    new_repository,
    publish,
    publish_vanilla,
    refresh_timestamp,
    rotate_root,
    save_repository,
)

SEED = 7
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _keys(label: str, count: int) -> list[crypto.SigningKeyPair]:
    return [crypto.signing_key_from_seed(hashlib.sha256(f"{label}-{i}".encode()).digest()) for i in range(count)]


def _repository(mode: Mode) -> RepositoryState:
    return new_repository(
        root_keys=_keys("root", 2),
        targets_keys=_keys("targets", 2),
        snapshot_keys=_keys("snapshot", 1),
        timestamp_keys=_keys("timestamp", 1),
        mode=mode,
    )


def _files(directory: str) -> dict[str, bytes]:
    """Every file under ``directory``, by its path relative to it."""
    files = {}
    for parent, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, directory)] = fh.read()
    return files


def transcripts() -> dict[str, bytes]:
    scripts = {f"builtin:{label}": script for label, script in BUILTIN_SCENARIOS.items()}
    for path in glob.glob(os.path.join(ROOT, "scenarios", "*.scn")):
        with open(path, encoding="utf-8") as fh:
            scripts[f"scenarios/{os.path.basename(path)}"] = fh.read()
    return {name: run_scenario(script, seed=SEED).text().encode() for name, script in scripts.items()}


def bench() -> dict[str, bytes]:
    entries = {f"bench:{mode}": json.dumps(run_bench(mode, seed=SEED).records()) for mode in ("assured", "tuf")}
    rows = [dataclasses.asdict(row) for row in run_adversary_suite(seed=SEED)]
    entries["adversary-suite"] = json.dumps(rows)
    return {name: text.encode() for name, text in entries.items()}


def _envelope(oem: crypto.SigningKeyPair, fill: int, version: int) -> bytes:
    artifact = bytes([fill]) * 300
    return serialize_envelope(build_envelope(issue_token(oem, artifact, Constraints(new_version=version)), artifact))


def repository() -> dict[str, bytes]:
    oem = _keys("oem", 1)[0]
    files = {}
    for mode in Mode:
        state = _repository(mode)
        with tempfile.TemporaryDirectory(prefix="fingerprint-repo-") as directory:
            state = publish(state, "fw", _envelope(oem, 1, 2))
            state = publish(state, "fürmware-☃", _envelope(oem, 2, 2))
            save_repository(state, directory)
            state = publish(state, "fw", _envelope(oem, 3, 3))
            state = publish_vanilla(state, "plain", b"plain artifact")
            state = refresh_timestamp(advance_clock(state, 5))
            state = rotate_root(state, _keys("new-root", 2))
            save_repository(state, directory)
            files.update({f"{mode.value}/{name}": data for name, data in _files(directory).items()})
    return files


def state() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory(prefix="fingerprint-state-") as directory:
        with World(seed=SEED) as world:
            world.enroll("dev1", device_model=100, device_id=1)
            world.issue("fw2", version=2, device_model=100)
            world.publish("fw2")
            world.sync()
            world.deliver("dev1", "fw2")
            world.attest("dev1")
            save_controller(world.controller, os.path.join(directory, "controller.state"))
            save_flash(world.devices["dev1"].port.device, os.path.join(directory, "delivered.flash"))

        repo = publish_vanilla(_repository(Mode.JSON), "fw", b"\x77" * 300)
        oem_public = _keys("oem", 1)[0].public
        device = Device(100, 2, oem_public, bytes(32), rng=random.Random(SEED))
        device.provision_trusted_root(repo.metadata.root)
        blobs = {role: fetch_metadata(repo, role) for role in RoleKind}
        device.receive_update_tuf(blobs, "fw", b"\x77" * 300, repo.mode, now=repo.clock)
        save_flash(device, os.path.join(directory, "tuf.flash"))
        return _files(directory)


def cli_flow() -> dict[str, bytes]:
    oem_key = crypto.signing_key_from_seed(random.Random(1).randbytes(32))  # what `oem keygen --seed 1` writes
    key = "ab" * 32
    flash = ["--device", "9", "--flash", "dev.flash"]
    flow = [
        ["oem", "keygen", "--out", "oem.key", "--seed", "1"],
        ["oem", "issue", "--key", "oem.key", "--artifact", "fw1.bin", "--new-version", "1", "--model", "5",
         "--out", "fw1.env"],
        ["oem", "issue", "--key", "oem.key", "--artifact", "fw2.bin", "--new-version", "2", "--model", "5",
         "--out", "fw2.env"],
        ["repo", "init", "--dir", "repo", "--seed", "2"],
        ["repo", "publish", "--dir", "repo", "--name", "fw2", "--envelope", "fw2.env"],
        ["device", "init", "--flash", "dev.flash", "--model", "5", "--id", "9", "--oem-public", oem_key.public.hex(),
         "--attestation-key", key, "--envelope", "fw1.env", "--seed", "3"],
        ["controller", "init", "--state", "ctrl.bin", "--repo", "repo", "--seed", "4"],
        ["controller", "enroll", "--state", "ctrl.bin", "--device", "9", "--model", "5", "--attestation-key", key,
         "--version", "1", "--digest", hashlib.sha256(b"\x01" * 200).hexdigest()],
        ["controller", "sync", "--state", "ctrl.bin", "--repo", "repo", "--seed", "5"],
        ["controller", "deliver", "--state", "ctrl.bin", "--repo", "repo", "--name", "fw2", *flash, "--seed", "5"],
        ["controller", "attest", "--state", "ctrl.bin", *flash, "--seed", "5"],
        ["device", "boot", "--flash", "dev.flash", "--seed", "6"],
        ["scenario", "run", "happy-path", "--seed", str(SEED), "--out", "happy-path.txt"],
        ["bench", "--seed", str(SEED), "--records", "bench.jsonl"],
        ["adversary-suite", "--seed", str(SEED), "--records", "attacks.jsonl"],
    ]
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="fingerprint-cli-") as directory:
        os.chdir(directory)
        try:
            for name, artifact in (("fw1.bin", b"\x01" * 200), ("fw2.bin", b"\x02" * 300)):
                with open(name, "wb") as fh:
                    fh.write(artifact)
            codes = []
            for argv in flow:
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(cli_main(argv))
        finally:
            os.chdir(here)
        return {"exit codes": " ".join(map(str, codes)).encode(), **_files(directory)}


def digest(entries: dict[str, bytes]) -> str:
    """SHA-256 over the entries in name order, each framed by its name and length."""
    h = hashlib.sha256()
    for name in sorted(entries):
        label = name.encode()
        h.update(len(label).to_bytes(4, "big") + label + len(entries[name]).to_bytes(8, "big") + entries[name])
    return h.hexdigest()


def main() -> int:
    groups = {"transcripts": transcripts, "bench": bench, "repository": repository, "state": state, "cli": cli_flow}
    digests = {}
    for name, group in groups.items():
        digests[name] = digest(group())
        print(f"{name:<12} {digests[name]}")
    print(f"{'overall':<12} {digest({name: value.encode() for name, value in digests.items()})}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
