#!/usr/bin/env python3
"""Compare two source checkouts on benchmark workloads in alternating pairs.

    python3 scripts/bench_pairs.py --base ../parent --change . --workload catalog-1k --pairs 10
    python3 scripts/bench_pairs.py --base ../parent --change . \
        --workload fleet-small --workload catalog-1k --workload image-socket

Pair i runs ``perfbench/run.py --trace 0`` once per workload in each checkout
with the same seed (``--seed`` + i), the base first in even pairs and the
change first in odd ones, so a drift in the host's speed falls on both sides
of every workload. Each run uses its own checkout's ``perfbench/`` and
``src/``, and lasts the ``run_seconds`` that the change's ``BENCHMARK.json``
sets.

Prints one JSON object. Per workload and end-to-end metric: the median and
quartiles of each side, the relative change of the medians, how many pairs
the change won (by the metric's direction in the change's
``BENCHMARK.json``; lower is better when it names none), whether the medians
lie further apart than the base's interquartile range, and ``beyond_bound``:
whether the change's median is worse than the base's by more than the
metric's ``bound`` (null for a metric with no bound). The top-level
``beyond_bound`` lists every such ``workload/metric``. Runs that failed or
reported a wrong outcome are listed and left out of the metrics. Exits 1 if
any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The result object ``run.py`` prints last, or {"error": ...}."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    if proc.returncode != 0 or not result.get("correct"):
        return {"error": f"exit {proc.returncode}, {result.get('failed')} of {result.get('attempted')} failed"}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def benchmark_spec(checkout: str) -> tuple[float, dict[str, dict]]:
    """The run length and each end-to-end metric's entry (direction and
    bound) that the checkout's ``BENCHMARK.json`` sets."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return float(spec["run_seconds"]), {entry["name"]: entry for entry in spec.get("end_to_end", [])}


def summarize(pairs: list[tuple[dict, dict]], spec: dict[str, dict]) -> dict:
    """Per metric, over the pairs in which both runs succeeded."""
    good = [(b, c) for b, c in pairs if "error" not in b and "error" not in c]
    names = [name for name in good[0][0]["metrics"] if name in good[0][1]["metrics"]] if good else []
    out = {}
    for name in names:
        base = [b["metrics"][name]["value"] for b, _ in good]
        change = [c["metrics"][name]["value"] for _, c in good]
        entry = spec.get(name, {})
        sign = -1.0 if entry.get("better", "lower") == "higher" else 1.0
        bound = entry.get("bound")
        b_q1, b_med, b_q3 = quartiles(base)
        c_q1, c_med, c_q3 = quartiles(change)
        out[name] = {
            "unit": good[0][0]["metrics"][name]["unit"],
            "better": "higher" if sign < 0 else "lower",
            "base": {"q1": b_q1, "median": b_med, "q3": b_q3},
            "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
            "relative": (c_med - b_med) / b_med if b_med else None,
            "wins": sum(sign * (c - b) < 0 for b, c in zip(base, change)),
            "losses": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "beyond_base_iqr": abs(c_med - b_med) > b_q3 - b_q1,
            "beyond_bound": None if bound is None else sign * (c_med - b_med) > bound * abs(b_med),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="checkout to compare against")
    parser.add_argument("--change", required=True, help="checkout under test")
    parser.add_argument("--workload", required=True, action="append", help="repeat for more workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    seconds, spec = benchmark_spec(args.change)
    workloads = list(dict.fromkeys(args.workload))

    pairs: dict[str, list[tuple[dict, dict]]] = {workload: [] for workload in workloads}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for workload in workloads:
            runs = {}
            for side in order:
                runs[side] = run_once(getattr(args, side), workload, seed, seconds)
                print(f"pair {i + 1}/{args.pairs} seed {seed} {workload} {side}: "
                      f"{runs[side].get('error') or 'ok'}", file=sys.stderr)
            pairs[workload].append((runs["base"], runs["change"]))

    failures = [
        {"workload": workload, "pair": i, "seed": args.seed + i, "side": side, "error": run["error"]}
        for workload, runs in pairs.items()
        for i, pair in enumerate(runs)
        for side, run in zip(("base", "change"), pair)
        if "error" in run
    ]
    metrics = {workload: summarize(runs, spec) for workload, runs in pairs.items()}
    print(json.dumps({
        "workloads": workloads,
        "pairs": args.pairs,
        "seconds": seconds,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "failures": failures,
        "beyond_bound": [
            f"{workload}/{name}" for workload, by_name in metrics.items()
            for name, summary in by_name.items() if summary["beyond_bound"]
        ],
        "metrics": metrics,
    }, indent=1))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
