#!/usr/bin/env python3
"""Time the delivery channel alone: channel set-up and seal/open per frame.

    PYTHONPATH=src python scripts/channel_bench.py

Runs ``assured.crypto`` in process, with no transport, protocol or flash work
around it. Prints the median microseconds of three things:

  session  one ``fleet-small``-shaped session: both ``crypto.Channel`` ends
           keyed from fresh nonces, the controller's confirmation and the
           2 chunks of a 4 KiB image's envelope sealed and opened, then the
           device's confirmation and install status sealed and opened
           (5 frames, every key derived and every AES-CTR context keyed);
  seal     one batch of 65 frames of 4096 envelope bytes each, about a
           256 KiB image's delivery, sealed under keys already in use;
  open     the same batch opened.

Each is timed ``ROUNDS`` times after ``WARMUP`` untimed runs. Uses the
standard library and ``assured`` only. Numbers compare between runs on one
host only.
"""

from __future__ import annotations

import statistics
import time

from assured import crypto
from assured.authorization import ENVELOPE_HEADER_LEN
from assured.controller import FRAME_PAYLOAD
from assured.device import InstallOutcome

IMAGE_BYTES, BATCH_FRAMES = 4096, 65
WARMUP, ROUNDS = 200, 2000

MASTER = bytes(range(32))
CONTROLLER_NONCE, DEVICE_NONCE = b"\x0c" * 16, b"\x0d" * 16
ENVELOPE = bytes(ENVELOPE_HEADER_LEN + IMAGE_BYTES)
CHUNKS = [ENVELOPE[i : i + FRAME_PAYLOAD] for i in range(0, len(ENVELOPE), FRAME_PAYLOAD)]
KINDS = [crypto.MSG_CHUNK] * (len(CHUNKS) - 1) + [crypto.MSG_FINAL_CHUNK]
STATUS = InstallOutcome(InstallOutcome.INSTALLED, 2).encode()


def session() -> None:
    controller = crypto.Channel(MASTER, 7, CONTROLLER_NONCE, DEVICE_NONCE, controller=True)
    device = crypto.Channel(MASTER, 7, CONTROLLER_NONCE, DEVICE_NONCE, controller=False)
    to_device = [controller.seal(crypto.MSG_CONFIRM, controller.transcript)]
    to_device += [controller.seal(kind, chunk) for kind, chunk in zip(KINDS, CHUNKS)]
    for frame in to_device:
        device.open(frame)
    to_controller = [device.seal(crypto.MSG_CONFIRM, device.transcript), device.seal(crypto.MSG_STATUS, STATUS)]
    for frame in to_controller:
        controller.open(frame)


KEYS = crypto.derive_session_keys(MASTER, CONTROLLER_NONCE, DEVICE_NONCE)
PLAINTEXT = bytes([crypto.MSG_CHUNK]) + bytes(FRAME_PAYLOAD)
BATCH = [crypto.seal(KEYS, sequence, PLAINTEXT) for sequence in range(BATCH_FRAMES)]


def seal_batch() -> None:
    for sequence in range(BATCH_FRAMES):
        crypto.seal(KEYS, sequence, PLAINTEXT)


def open_batch() -> None:
    for sequence, frame in enumerate(BATCH):
        crypto.open_frame(KEYS, sequence, frame)


def _median_us(run) -> float:
    for _ in range(WARMUP):
        run()
    samples = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        run()
        samples.append((time.perf_counter() - started) * 1e6)
    return statistics.median(samples)


def main() -> int:
    rows = (
        (f"session {len(CHUNKS) + 3} frames", session),
        (f"seal {BATCH_FRAMES} x {FRAME_PAYLOAD} B", seal_batch),
        (f"open {BATCH_FRAMES} x {FRAME_PAYLOAD} B", open_batch),
    )
    for label, run in rows:
        print(f"{label:<24} {_median_us(run):8.1f} us")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
