#!/usr/bin/env python3
"""Time cold start: an ``assured`` server process from spawn to ``LISTENING``.

    python scripts/startup_bench.py [--spawns N]

Spawns ``python -m assured repo serve`` and ``python -m assured device run``
with the argv the benchmark's multi-process workload gives them, ``N`` times
each and alternating, and times each from the spawn to the ``LISTENING``
line the server prints once it can take a connection. Prints the median
milliseconds of each, then the ``assured`` modules that a fresh interpreter
loads for ``import assured.cli``, which is what every command imports before
it runs.

The repository the server loads is made once, by ``assured repo init``, in a
temporary directory. Each spawn starts from source as the environment has it:
with ``PYTHONDONTWRITEBYTECODE`` set, every start compiles the package again.
Uses the standard library only; ``assured`` runs in the child processes,
imported from ``src`` next to this script. Numbers compare between runs on
one host only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
KEY = "ab" * 32  # a 32-byte hex value for the device's OEM public key and attestation key

LOADED = "import sys, assured.cli; print(' '.join(sorted(m for m in sys.modules if m.startswith('assured'))))"


def spawn_ms(argv: list[str]) -> float:
    """Milliseconds from spawning ``assured argv`` to its ``LISTENING`` line."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "assured", *argv],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True, env=ENV,
    )
    try:
        line = process.stdout.readline()
        elapsed = (time.perf_counter() - started) * 1e3
        if not line.startswith("LISTENING "):
            raise SystemExit(f"assured {' '.join(argv)}: no LISTENING line, read {line!r}")
        return elapsed
    finally:
        process.terminate()
        process.wait(timeout=10)
        process.stdout.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--spawns", type=int, default=7, help="spawns of each server (default 7)")
    args = parser.parse_args()
    if args.spawns < 1:
        parser.error("--spawns must be at least 1")

    with tempfile.TemporaryDirectory() as workdir:
        repo_dir = os.path.join(workdir, "repo")
        subprocess.run(
            [sys.executable, "-m", "assured", "repo", "init", "--dir", repo_dir, "--seed", "1"],
            check=True, stdout=subprocess.DEVNULL, env=ENV,
        )
        servers = {
            "repo serve": ["repo", "serve", "--dir", repo_dir, "--listen", "127.0.0.1:0"],
            "device run": [
                "device", "run", "--listen", "127.0.0.1:0", "--model", "1", "--id", "1",
                "--oem-public", KEY, "--attestation-key", KEY, "--rng-seed", "1", "--install-mode", "dual",
            ],
        }
        samples: dict[str, list[float]] = {name: [] for name in servers}
        for _ in range(args.spawns):
            for name, argv in servers.items():
                samples[name].append(spawn_ms(argv))

    print(f"python {sys.version.split()[0]}, bytecode writing {'off' if sys.dont_write_bytecode else 'on'}")
    for name, values in samples.items():
        print(f"{name:<12} {statistics.median(values):7.1f} ms to LISTENING (median of {len(values)})")
    modules = subprocess.run(
        [sys.executable, "-c", LOADED], check=True, capture_output=True, text=True, env=ENV
    ).stdout.split()
    print(f"import assured.cli loads {len(modules)} assured modules: {' '.join(modules)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
