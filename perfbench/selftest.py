"""One-round count self-test of the traced benchmark.

Runs every workload for exactly one round with tracing on (``fleet-small``
with one device) and compares the per-layer counts with counts derived by
hand from the program's formats: the frame layout in ``crypto.py``, the
envelope layout in ``authorization.py``, 4096-byte delivery chunks, and
thresholds (2, 2, 1, 1). A wrapper that misses a call site shows up here as
a wrong count instead of a silent zero.

The expected numbers describe the program as it is; a change that
legitimately alters the work done (say, fewer serializations per fetch)
changes them too, and this file says which.

    python3 perfbench/selftest.py            # all three workloads
    python3 perfbench/selftest.py catalog-1k
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FRAME_OVERHEAD = 8 + 4 + 32  # sequence || length || ... || HMAC tag
ENVELOPE_HEADER = 4 + 136 + 8  # magic || token || artifact length
CHUNK = 4096  # envelope bytes per delivery frame
TRANSCRIPT = 32  # SHA-256 of the handshake
NONCE = 16
KEY_ID = 32
SNAPSHOT_REGION = 1 + 8 + 8 + 16  # role tag, version, expires, two versions
HANDSHAKE_INPUT = 8 + NONCE + NONCE  # device id || both nonces
STATUS = len('{"reason":"","status":"installed","version":2}')

# (image bytes, catalog records, RPCs per round)
WORKLOADS = {
    "fleet-small": (4096, 0, 0),
    "catalog-1k": (256, 1000, 0),
    # publish 1; sync 4 fetch_metadata + 1 fetch_envelope; resync 4;
    # update hello + 2 exchanges + attest + boot
    "image-socket": (256 * 1024, 0, 15),
}


def expected(image: int, catalog: int, rpcs: int) -> dict[str, float]:
    envelope = ENVELOPE_HEADER + image
    chunks = [CHUNK] * (envelope // CHUNK) + ([envelope % CHUNK] if envelope % CHUNK else [])
    # confirm each way, the envelope chunks, the install status
    plaintexts = [1 + TRANSCRIPT, 1 + TRANSCRIPT] + [1 + c for c in chunks] + [1 + STATUS]
    frames = [FRAME_OVERHEAD + p for p in plaintexts]
    # signature work: deliver 1 + boot 1 + sync 6 + resync 6; issue 1 + targets 2
    # + snapshot 1 + timestamp 1
    verify, sign = 1 + 1 + 6 + 6, 1 + 2 + 1 + 1
    # image hashed by issue, publish, sync, token check, bank recheck,
    # controller digest, attestation and boot; key ids and the snapshot
    # region at publish (4 keys) and at each sync (6 keys); both handshake ends
    hashed = (
        8 * image
        + 4 * KEY_ID + SNAPSHOT_REGION
        + 2 * (6 * KEY_ID + SNAPSHOT_REGION)
        + 2 * HANDSHAKE_INPUT
    )
    return {
        "crypto.verify.calls": verify,
        "crypto.sign.calls": sign,
        "crypto.hash_data.bytes": hashed,
        "crypto.seal.calls": len(frames),
        "crypto.seal.bytes": sum(plaintexts),
        "crypto.open_frame.calls": len(frames),
        "crypto.open_frame.bytes": sum(frames),
        "authorization.verify_token.calls": 2,
        # publish, sync, device install
        "authorization.parse_envelope.calls": 3,
        "authorization.parse_envelope.bytes": 3 * envelope,
        "metadata.parse.calls": 8,
        "metadata.verify_full_chain.calls": 2,
        # archive of the set replaced by the publish 4, each of 8 fetches 4
        "metadata.serialize_canonical.calls": 4 + 8 * 4,
        "metadata.build_and_sign.calls": 3,
        "metadata.serializations_per_fetch": 4.0,
        "repository.fetch_metadata.calls": 8,
        "repository.fetch_envelope.calls": 1,
        "repository.fetch_envelope.bytes": envelope,
        "repository.archive.entries": catalog + 1,
        "controller.sync.calls": 2,
        "controller.sync.failed": 0,
        "controller.sync.envelopes_new_per_fetched": 1.0,
        "controller.nonce_log.entries": 1,
        "device.channel_receive.calls": 2,
        "transport.rpc.calls": rpcs,
        # both handshake nonces, every frame, attestation nonce and report
        "link_bytes_per_update": 2 * NONCE + sum(frames) + NONCE + 8 + NONCE + 32 + 32,
    }


def run_one(workload: str) -> list[str]:
    workdir = os.path.join(ROOT, ".bench_run", f"selftest-{workload}-{os.getpid()}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "rollout.py"), "--workload", workload, "--seed", "1",
             "--seconds", "0", "--rounds", "1", "--devices", "1", "--setups", "1",
             "--workdir", workdir, "--trace-out", os.path.join(workdir, "trace.jsonl")],
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=170, check=True,
        ).stdout
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    measured = dict(result["per_layer"], link_bytes_per_update=result["link_bytes_per_update"])
    problems = [] if result["failed"] == 0 else [f"{result['failed']} failed operations: {result['failures']}"]
    for name, want in expected(*WORKLOADS[workload]).items():
        if measured[name] != want:
            problems.append(f"{name}: measured {measured[name]}, derived {want}")
    return problems


def main(argv: list[str]) -> int:
    failed = False
    for workload in argv or list(WORKLOADS):
        problems = run_one(workload)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
