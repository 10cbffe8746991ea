"""Span tracing for the benchmark, installed from outside the program.

``install`` replaces each traced function with a wrapper that records one
span per call: name, start, end, parent span, the round/update the call
belongs to, and optional attributes (input bytes, results). A function is
replaced at every place it is bound -- its defining module and every module
that imported it with ``from ... import`` -- so no call site is missed.
Spans stay in memory until the run ends.

Nothing here is imported by an untraced run, so the program measured for the
end-to-end metrics is the unmodified one.
"""

from __future__ import annotations

import bisect
import functools
import json
import sys
import time
from dataclasses import fields, is_dataclass


def _arg_len(index):
    return lambda args, result: len(args[index])


def _result_len(args, result):
    return len(result)


def _payload_len(value) -> int:
    """Bytes carried by an RPC argument or result (bytes, lists, dataclasses)."""
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, (list, tuple)):
        return sum(_payload_len(v) for v in value)
    if is_dataclass(value) and not isinstance(value, type):
        return sum(_payload_len(getattr(value, f.name)) for f in fields(value))
    return 0


def _rpc_payload(args, result):
    return _payload_len(args[1:]) + _payload_len(result)


def _count_sync_result(attrs, args, result):
    attrs["new"] = len(result)


# (module, attribute, span name, input-bytes function or None)
FUNCTIONS = (
    ("crypto", "verify", "crypto.verify", None),
    ("crypto", "sign", "crypto.sign", None),
    ("crypto", "hash_data", "crypto.hash_data", _arg_len(0)),
    ("crypto", "seal", "crypto.seal", _arg_len(2)),
    ("crypto", "open_frame", "crypto.open_frame", _arg_len(2)),
    ("authorization", "verify_token", "authorization.verify_token", None),
    ("authorization", "parse_envelope", "authorization.parse_envelope", _arg_len(0)),
    ("authorization", "issue_token", "authorization.issue_token", None),
    ("metadata", "parse", "metadata.parse", _arg_len(0)),
    ("metadata", "verify_full_chain", "metadata.verify_full_chain", None),
    # serialize_canonical's input is an object, so its bytes are the output's
    ("metadata", "serialize_canonical", "metadata.serialize_canonical", _result_len),
    ("metadata", "build_and_sign", "metadata.build_and_sign", None),
    ("repository", "publish", "repository.publish", None),
    ("repository", "fetch_metadata", "repository.fetch_metadata", _result_len),
    ("repository", "fetch_envelope", "repository.fetch_envelope", _result_len),
)

# (module, class, method, span name, attribute function or None)
METHODS = (
    ("controller", "Controller", "sync", "controller.sync", _count_sync_result),
    ("controller", "Controller", "open_channel", "controller.open_channel", None),
    ("controller", "Controller", "deliver", "controller.deliver", None),
    ("controller", "Controller", "request_attestation", "controller.request_attestation", None),
    ("device", "Device", "channel_accept", "device.channel_accept", None),
    ("device", "Device", "channel_receive", "device.channel_receive", None),
    ("device", "Device", "boot", "device.boot", None),
    ("device", "Device", "attest", "device.attest", None),
)

RPC_PORTS = ("RemoteRepoPort", "RemoteDevicePort")
DISPATCHERS = ("_RepoDispatch", "_DeviceDispatch")

# span fields, kept as lists for low per-call cost; PID is added when spans
# of several processes are merged or written
NAME, START, END, PARENT, ROUND, UPDATE, ATTRS, PID = range(8)


class Tracer:
    """In-memory span store. ``round``/``update`` are set by the workload
    loop; spans outside a measured round carry ``None``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.round: int | None = None
        self.update: int | None = None

    def wrap(self, name: str, fn, size=None, after=None):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.round, tracer.update, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = clock()
                span[ATTRS] = {"error": 1}
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if size is not None or after is not None:
                attrs = {}
                if size is not None:
                    attrs["bytes"] = size(args, result)
                if after is not None:
                    after(attrs, args, result)
                span[ATTRS] = attrs
            return result

        return traced

def _span_record(index: int, span: list) -> dict:
    record = {
        "id": index,
        "pid": span[PID],
        "name": span[NAME],
        "start": span[START],
        "end": span[END],
        "parent": span[PARENT],
        "round": span[ROUND],
        "update": span[UPDATE],
    }
    if span[ATTRS]:
        record.update(span[ATTRS])
    return record


def _rebind(original, replacement) -> None:
    """Replace ``original`` wherever an ``assured`` module binds it."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "assured" or mod_name.startswith("assured.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class _CountingStream:
    """A line client's socket or reader: forwards everything and counts the
    bytes sent and lines read, so the program's encoding is untouched."""

    def __init__(self, inner, counter: list[int]) -> None:
        self._inner = inner
        self._counter = counter

    def sendall(self, data):
        self._counter[0] += len(data)
        return self._inner.sendall(data)

    def readline(self, *args):
        line = self._inner.readline(*args)
        self._counter[0] += len(line)
        return line

    def __getattr__(self, name):
        return getattr(self._inner, name)


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method.

    Imports the whole package first so every importing module exists when
    the bindings are replaced.
    """
    import importlib

    import assured.cli  # noqa: F401  (imports every actor module)

    for mod_name, attr, span_name, size in FUNCTIONS:
        module = importlib.import_module(f"assured.{mod_name}")
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(span_name, original, size))
    for mod_name, cls_name, method, span_name, after in METHODS:
        cls = getattr(importlib.import_module(f"assured.{mod_name}"), cls_name)
        setattr(cls, method, tracer.wrap(span_name, getattr(cls, method), None, after))

    transport = importlib.import_module("assured.transport")
    line_bytes = [0]
    original_init = transport._LineClient.__init__

    def client_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self._sock = _CountingStream(self._sock, line_bytes)
        self._reader = _CountingStream(self._reader, line_bytes)

    transport._LineClient.__init__ = client_init

    def rpc_after(op):
        def after(attrs, args, result):
            attrs["op"] = op
            attrs["line_bytes"] = line_bytes[0]
            line_bytes[0] = 0

        return after

    def serve_after(attrs, args, result):
        attrs["op"] = args[1].get("op")

    for cls_name in RPC_PORTS:
        cls = getattr(transport, cls_name)
        for method, fn in list(vars(cls).items()):
            if method.startswith("_") or method == "close" or not callable(fn):
                continue
            setattr(cls, method, tracer.wrap("transport.rpc", fn, _rpc_payload, rpc_after(method)))
    for cls_name in DISPATCHERS:
        cls = getattr(transport, cls_name)
        cls.dispatch = tracer.wrap("transport.serve", cls.dispatch, None, serve_after)


# --- merging and per-layer aggregation ------------------------------------------

_RECORD_KEYS = ("id", "pid", "name", "start", "end", "parent", "round", "update")


def load_jsonl(path: str) -> tuple[list[list], dict[str, int]]:
    """Spans and end-of-run counters written by a traced server process."""
    spans: list[list] = []
    counters: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if "counter" in record:
                counters[record["counter"]] = record["value"]
                continue
            attrs = {k: v for k, v in record.items() if k not in _RECORD_KEYS}
            spans.append(
                [record["name"], record["start"], record["end"], record["parent"],
                 None, None, attrs or None, record["pid"]]
            )
    return spans, counters


def merge(local: list[list], local_pid: int, remote: list[list[list]], windows: list[tuple]) -> list[list]:
    """One span list across processes: each span gets its pid, remote parent
    indices are rebased, and a remote span takes the round and update whose
    client-side time windows hold its start (the monotonic clock is shared
    by every process on the host). ``windows`` holds (round, update, start,
    end), with update None for a whole round."""
    by_kind = {
        kind: sorted((w for w in windows if (w[1] is None) == (kind == "round")), key=lambda w: w[2])
        for kind in ("round", "update")
    }
    starts = {kind: [w[2] for w in ws] for kind, ws in by_kind.items()}

    def find(kind: str, t: float):
        i = bisect.bisect_right(starts[kind], t) - 1
        return by_kind[kind][i] if i >= 0 and t <= by_kind[kind][i][3] else None

    merged = [span + [local_pid] for span in local]
    for spans in remote:
        offset = len(merged)
        for span in spans:
            if span[PARENT] >= 0:
                span[PARENT] += offset
            round_window = find("round", span[START])
            update_window = find("update", span[START])
            span[ROUND] = round_window[0] if round_window else None
            span[UPDATE] = update_window[1] if update_window else None
            merged.append(span)
    return merged


def write_jsonl(path: str, spans: list[list], counters: dict[str, float]) -> None:
    """Spans (each carrying its PID) and end-of-run counters, one JSON object a line."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, span in enumerate(spans):
            fh.write(json.dumps(_span_record(i, span), separators=(",", ":")) + "\n")
        for name, value in sorted(counters.items()):
            fh.write(json.dumps({"counter": name, "value": value}) + "\n")


# span name -> the per-round fields reported for it
SPAN_FIELDS = {
    "crypto.verify": ("calls", "self_ms"),
    "crypto.sign": ("calls", "self_ms"),
    "crypto.hash_data": ("bytes", "self_ms"),
    "crypto.seal": ("calls", "bytes", "self_ms"),
    "crypto.open_frame": ("calls", "bytes", "self_ms"),
    "authorization.verify_token": ("calls", "self_ms"),
    "authorization.parse_envelope": ("calls", "bytes", "self_ms"),
    "authorization.issue_token": ("self_ms",),
    "metadata.parse": ("calls", "bytes", "self_ms"),
    "metadata.verify_full_chain": ("calls", "self_ms"),
    "metadata.serialize_canonical": ("calls", "bytes", "self_ms"),
    "metadata.build_and_sign": ("calls", "self_ms"),
    "repository.publish": ("self_ms",),
    "repository.fetch_metadata": ("calls", "bytes", "self_ms"),
    "repository.fetch_envelope": ("calls", "bytes", "self_ms"),
    "controller.sync": ("calls", "self_ms"),
    "controller.open_channel": ("self_ms",),
    "controller.deliver": ("self_ms",),
    "controller.request_attestation": ("self_ms",),
    "device.channel_accept": ("self_ms",),
    "device.channel_receive": ("calls", "self_ms"),
    "device.boot": ("self_ms",),
    "device.attest": ("self_ms",),
}
FIELD_UNITS = {"calls": "count", "bytes": "B", "self_ms": "ms"}

# derived per-layer metrics: name -> (unit, better)
DERIVED = {
    "metadata.serializations_per_fetch": ("ratio", "lower"),
    "repository.archive.entries": ("count", "lower"),
    "repository.archive.bytes": ("B", "lower"),
    "controller.sync.failed": ("count", "lower"),
    "controller.sync.envelopes_new_per_fetched": ("ratio", "higher"),
    "controller.nonce_log.entries": ("count", "lower"),
    "transport.rpc.calls": ("count", "lower"),
    "transport.rpc.ms": ("ms", "lower"),
    "transport.rpc.payload_bytes": ("B", "lower"),
    "transport.rpc.line_bytes": ("B", "lower"),
    "transport.rpc.line_bytes_per_payload_byte": ("ratio", "lower"),
    "transport.rpc.overhead_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# server-side ops issued by the benchmark's own output checks, not by the program
CHECK_OPS = ("verify_count",)


def per_layer_catalog() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = [
        (f"{span}.{field}", FIELD_UNITS[field], "lower")
        for span, span_fields in SPAN_FIELDS.items()
        for field in span_fields
    ]
    out += [(name, unit, better) for name, (unit, better) in DERIVED.items()]
    return out


_EMPTY = {"calls": 0, "bytes": 0, "self_ms": 0.0, "ms": 0.0, "error": 0, "new": 0, "line": 0}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(merged: list[list], rounds: int, counters: dict[str, float]) -> dict[str, float]:
    """Per-round calls, input bytes and self time of every traced layer.

    A span's self time is its duration minus the durations of its direct
    children; children always nest inside their parent on one thread.
    Spans outside a measured round (set-up, output checks) are left out.
    """
    n = len(merged)
    child_time = [0.0] * n
    for span in merged:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    included = [
        span[ROUND] is not None
        and not (span[NAME] == "transport.serve" and span[ATTRS] and span[ATTRS].get("op") in CHECK_OPS)
        for span in merged
    ]
    totals: dict[str, dict[str, float]] = {}
    for i, span in enumerate(merged):
        if not included[i]:
            continue
        t = totals.setdefault(span[NAME], dict(_EMPTY))
        duration = span[END] - span[START]
        t["calls"] += 1
        t["ms"] += duration * 1000.0
        t["self_ms"] += (duration - child_time[i]) * 1000.0
        attrs = span[ATTRS]
        if attrs:
            t["bytes"] += attrs.get("bytes", 0)
            t["error"] += attrs.get("error", 0)
            t["new"] += attrs.get("new", 0)
            t["line"] += attrs.get("line_bytes", 0)
    def total(name: str) -> dict[str, float]:
        return totals.get(name, _EMPTY)

    per_round = max(rounds, 1)
    metrics: dict[str, float] = {}
    for span, span_fields in SPAN_FIELDS.items():
        for field in span_fields:
            metrics[f"{span}.{field}"] = total(span)[field] / per_round

    serializations_in_fetch = 0
    for i, span in enumerate(merged):
        if not included[i] or span[NAME] != "metadata.serialize_canonical":
            continue
        parent = span[PARENT]
        while parent >= 0:
            if merged[parent][NAME] == "repository.fetch_metadata":
                serializations_in_fetch += 1
                break
            parent = merged[parent][PARENT]
    rpc = total("transport.rpc")
    metrics.update({
        "metadata.serializations_per_fetch": _ratio(serializations_in_fetch, total("repository.fetch_metadata")["calls"]),
        "repository.archive.entries": counters.get("repository.archive.entries", 0),
        "repository.archive.bytes": counters.get("repository.archive.bytes", 0),
        "controller.sync.failed": total("controller.sync")["error"] / per_round,
        "controller.sync.envelopes_new_per_fetched": _ratio(
            total("controller.sync")["new"], total("repository.fetch_envelope")["calls"]
        ),
        "controller.nonce_log.entries": counters.get("controller.nonce_log.entries", 0),
        "transport.rpc.calls": rpc["calls"] / per_round,
        "transport.rpc.ms": rpc["ms"] / per_round,
        "transport.rpc.payload_bytes": rpc["bytes"] / per_round,
        "transport.rpc.line_bytes": rpc["line"] / per_round,
        "transport.rpc.line_bytes_per_payload_byte": _ratio(rpc["line"], rpc["bytes"]),
        "transport.rpc.overhead_ms": (rpc["ms"] - total("transport.serve")["ms"]) / per_round,
    })
    return metrics
