#!/usr/bin/env python3
"""Measure the memory the program keeps per update round, with tracemalloc.

    PYTHONPATH=src python scripts/state_growth.py

Builds one in-process ``harness.World`` with DEVICES enrolled devices and
runs WARMUP + ROUNDS rounds over its ports. Each round publishes a new
IMAGE_SIZE-byte image under one name, syncs the controller, and then
delivers the update to, attests and boots each device; any other outcome
stops the run.

Tracing starts before the warm-up, and one snapshot is taken after it and
one after the last round. So an object made before the measured rounds and
freed during them, such as a bank image an install replaces, counts against
the one that replaced it. Prints the net bytes kept per measured round, then
the TOP allocation sites by traceback (innermost frame last) with the bytes
and blocks each kept per round.

Uses the standard library only. Byte counts depend on the Python version,
not on the host's speed.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

from assured.authorization import Constraints, build_envelope, issue_token, serialize_envelope
from assured.harness import World, derived_rng

DEVICES, IMAGE_SIZE, WARMUP, ROUNDS, TOP = 32, 4096, 20, 200, 12
NAME, MODEL, TRACE_DEPTH = "fw", 7, 12  # TRACE_DEPTH: the frames kept per allocation


def run_round(world: World, version: int) -> None:
    artifact = derived_rng(world.seed, f"image:{version}").randbytes(IMAGE_SIZE)
    token = issue_token(world.oem_key, artifact, Constraints(device_model=MODEL, new_version=version))
    world.repo.publish(NAME, serialize_envelope(build_envelope(token, artifact)))
    ctrl = world.controller
    [verified] = ctrl.sync(world.repo)
    for handle in world.devices.values():
        outcome = ctrl.deliver(ctrl.open_channel(handle.port, handle.device_id), verified)
        attested = ctrl.request_attestation(handle.port, handle.device_id)
        booted = handle.port.boot()
        if not (outcome.status == "installed" and attested.verified and booted.version == version):
            raise SystemExit(f"device {handle.device_id} v{version}: {outcome}, {attested}, {booted}")


def snapshot() -> tracemalloc.Snapshot:
    gc.collect()
    return tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(False, tracemalloc.__file__)])


def main() -> int:
    tracemalloc.start(TRACE_DEPTH)
    with World(seed=1) as world:
        for device_id in range(1, DEVICES + 1):
            world.enroll(f"dev{device_id}", device_model=MODEL, device_id=device_id)
        for index in range(WARMUP + ROUNDS):
            if index == WARMUP:
                before = snapshot()
            run_round(world, 2 + index)  # one call site, so a site's frees and allocations meet
        stats = snapshot().compare_to(before, "traceback")
    tracemalloc.stop()
    print(f"{DEVICES} devices, {IMAGE_SIZE} B image, {ROUNDS} rounds after {WARMUP} warm-up rounds")
    print(f"net kept: {sum(stat.size_diff for stat in stats) / ROUNDS:.0f} B per round")
    for stat in sorted(stats, key=lambda stat: stat.size_diff, reverse=True)[:TOP]:
        print(f"\n{stat.size_diff / ROUNDS:8.0f} B {stat.count_diff / ROUNDS:7.2f} blocks per round")
        for line in stat.traceback.format(limit=4):
            print(f"    {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
