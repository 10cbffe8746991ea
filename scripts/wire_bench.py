#!/usr/bin/env python3
"""Time the RPC layer alone: round trips to a transport server whose ops do nothing.

    PYTHONPATH=src python scripts/wire_bench.py

Starts a real ``assured.transport`` server in a child process and calls it
over TCP loopback through the program's own client, so each number is the
framing, the socket and the two processes' hand-offs, with no protocol work
behind them. Prints the median microseconds per call of three requests:

  empty   an op with no arguments and no result;
  frames  a list of 65 byte strings of 4141 B each, about the delivery batch
          of a 256 KiB image (4096 envelope bytes per sealed frame);
  value   one byte string of 262144 B.

Each request is timed ``ROUNDS`` times after ``WARMUP`` untimed calls. Uses
the standard library only. Numbers compare between runs on one host only.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

from assured import transport

FRAMES, FRAME_BYTES, VALUE_BYTES = 65, 4141, 262144
WARMUP, ROUNDS = 50, 500


class _NullPort:
    """A port whose every op does nothing."""

    def __init__(self, actor) -> None:
        pass

    def empty(self) -> None:
        return None

    def frames(self, frames: list[bytes]) -> None:
        return None

    def value(self, data: bytes) -> None:
        return None


class _NullServer(transport._Server):
    port_type = _NullPort
    ops = ("empty", "frames", "value")


def _serve(pipe) -> None:
    server = _NullServer(None)
    pipe.send(server.display_address())
    server.serve_forever(poll_interval=0.02)


def _median_us(call) -> float:
    for _ in range(WARMUP):
        call()
    samples = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        call()
        samples.append((time.perf_counter() - started) * 1e6)
    return statistics.median(samples)


def main() -> int:
    context = multiprocessing.get_context("spawn")
    parent, child = context.Pipe()
    server = context.Process(target=_serve, args=(child,), daemon=True)
    server.start()
    try:
        client = transport._LineClient(parent.recv())
        try:
            frames = [bytes([i]) * FRAME_BYTES for i in range(FRAMES)]
            value = bytes(VALUE_BYTES)
            rows = (
                ("empty", lambda: client.call("empty")),
                (f"frames {FRAMES} x {FRAME_BYTES} B", lambda: client.call("frames", frames)),
                (f"value {VALUE_BYTES} B", lambda: client.call("value", value)),
            )
            for label, call in rows:
                print(f"{label:<24} {_median_us(call):8.1f} us")
        finally:
            client.close()
    finally:
        server.terminate()
        server.join(5)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
