"""Host-speed reference for the benchmark's timings.

A shared virtual machine can switch between a fast and a slow state for
tens of seconds to minutes at a time, every process on it slowing together
(on the 2-vCPU VM the baseline was taken on, the states were 1.4x to 1.8x
apart). Raw wall-clock medians then spread more between runs than any
useful regression bound.

So the workload loop times a fixed mix of the kinds of work the program
spends its time in -- SHA-256, HMAC, AES-CTR, base64, JSON, Ed25519, plain
interpreter work -- between rounds, outside every timed region. It uses
only the standard library and ``cryptography``, never the program, so no
change to the program can move it. Each timing is then reported at
reference speed: ``raw_ms * REFERENCE_MS / reference time next to it``.
The raw values are printed beside them.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import statistics
import time

from cryptography.hazmat.primitives.asymmetric import ed25519
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

# the mix's median time on the VM the baseline was taken on, so reported
# values read as milliseconds on that VM in its usual state
REFERENCE_MS = 0.8
# references on each side of a round that its speed estimate takes the median of
WINDOW = 3

_DATA = bytes(range(256)) * 64
_DOC = [[i, f"target-{i:04d}", i * 7, None] for i in range(120)]
_KEY = ed25519.Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = bytes(72)


def reference_ms() -> float:
    """Wall time of one run of the fixed mix, in milliseconds."""
    started = time.perf_counter()
    hashlib.sha256(_DATA).digest()
    hmac.new(_DATA[:32], _DATA, hashlib.sha256).digest()
    Cipher(algorithms.AES(_DATA[:32]), modes.CTR(bytes(16))).encryptor().update(_DATA)
    base64.b64decode(base64.b64encode(_DATA))
    json.loads(json.dumps(_DOC, sort_keys=True, separators=(",", ":")))
    _PUBLIC.verify(_KEY.sign(_MESSAGE), _MESSAGE)
    total = 0
    for i in range(3000):
        total += i * i
    return (time.perf_counter() - started) * 1000.0


def speed_factors(references: list[float]) -> list[float]:
    """Per round: REFERENCE_MS over the median reference in a window of
    rounds around it (one reference is taken before each round)."""
    return [
        REFERENCE_MS / statistics.median(references[max(0, i - WINDOW) : i + WINDOW + 1])
        for i in range(len(references))
    ]
