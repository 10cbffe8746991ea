"""Rollout benchmark for the assured update pipeline.

    python3 perfbench/run.py --workload fleet-small --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Each workload runs in a fresh child process (``rollout.py``), so
memory and caches never carry over from one workload to the next.

``--trace 0`` measures the end-to-end metrics of the untraced program.
Timings are reported at host-reference speed (see ``reference.py``) and
printed beside the raw values they come from.
``--trace 1`` gives the per-layer metrics: half the time runs untraced,
half with the span wrappers of ``spans.py`` installed (and, on
``image-socket``, in both server processes too); the ratio of their round
times is the tracing overhead. The spans go to
``.bench_run/<workload>.trace.jsonl``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A wrong outcome of any
operation makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("fleet-small", "catalog-1k", "image-socket")
# the whole command must end within 180 s
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("updates_per_s", "1/s"),
    ("update_ms.p50", "ms"),
    ("update_ms.p90", "ms"),
    ("sync_ms.p50", "ms"),
    ("sync_ms.p90", "ms"),
    ("resync_ms.p50", "ms"),
    ("resync_ms.p90", "ms"),
    ("publish_ms.p50", "ms"),
    ("publish_ms.p90", "ms"),
    ("link_bytes_per_update", "B"),
    ("peak_rss_mb", "MB"),
)


class ChildFailed(Exception):
    pass


def run_child(argv: list[str], timeout: float) -> dict:
    """Run ``rollout.py`` in its own process group and return its result.

    The group is killed on timeout, so no server process it started
    outlives it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "rollout.py"), *argv],
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        cwd=ROOT,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ChildFailed(f"workload process timed out after {timeout:.0f} s") from None
    if process.returncode != 0:
        raise ChildFailed(f"workload process exited with code {process.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed("workload process printed no result")
    result = json.loads(lines[-1])
    if not os.path.abspath(result["assured_file"]).startswith(SRC + os.sep):
        raise ChildFailed(f"program imported from {result['assured_file']}, not from {SRC}")
    return result


def child_argv(args, seconds: float, workdir: str, trace_out: str | None = None, setups: int = 0) -> list[str]:
    argv = [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--workdir", workdir, "--setups", str(setups),
    ]
    if trace_out:
        argv += ["--trace-out", trace_out]
    return argv


def end_to_end(result: dict, peak_rss_mb: float, raw: str = "") -> dict[str, float]:
    """The end-to-end metrics at reference speed, or with ``raw="raw_"`` as
    measured (see reference.py)."""
    timings = result["timings"]
    metrics = {
        "setup_s": statistics.median(result[f"{raw}setup_s"]),
        "updates_per_s": result["updates"] / result[f"{raw}round_s"],
        "link_bytes_per_update": result["link_bytes_per_update"],
        "peak_rss_mb": peak_rss_mb,
    }
    for op in ("update", "sync", "resync", "publish"):
        metrics[f"{op}_ms.p50"] = timings[op][f"{raw}p50"]
        metrics[f"{op}_ms.p90"] = timings[op][f"{raw}p90"]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "assured", "__init__.py")):
        print(f"error: no program to measure: {SRC}/assured is missing (run from a source checkout)", file=sys.stderr)
        return 2

    import spans  # noqa: E402  (this directory is on sys.path when run as a script)
    from reference import REFERENCE_MS

    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    try:
        if args.trace == 0:
            result = run_child(child_argv(args, args.seconds, workdir), DEADLINE_S)
            # largest RSS of any finished descendant: the workload process and
            # the servers it waited for
            peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            results = [result]
            values = end_to_end(result, peak_rss_mb)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
            raw = end_to_end(result, peak_rss_mb, raw="raw_")
            counts = result["timings"]
            print(f"workload {args.workload} seed {args.seed}: {result['rounds']} rounds, "
                  f"{result['updates']} updates in {result['raw_round_s']:.2f} s, "
                  f"{len(result['setup_s'])} set-ups; reference mix {result['reference_ms']:.3f} ms "
                  f"(values at {REFERENCE_MS} ms, raw as measured)")
            samples = {"setup_s": len(result["setup_s"]), "updates_per_s": result["updates"],
                       "link_bytes_per_update": result["updates"], "peak_rss_mb": 1}
            for op in ("update", "sync", "resync", "publish"):
                samples[f"{op}_ms.p50"] = samples[f"{op}_ms.p90"] = counts[op]["n"]
        else:
            half = args.seconds / 2.0
            trace_out = os.path.join(RUN_DIR, f"{args.workload}.trace.jsonl")
            plain = run_child(child_argv(args, half, workdir, setups=1), DEADLINE_S / 2)
            traced = run_child(child_argv(args, half, workdir, trace_out, setups=1), DEADLINE_S / 2)
            results = [plain, traced]
            layer = dict(traced["per_layer"])
            layer["trace.overhead_ratio"] = (
                (traced["round_s"] / traced["rounds"]) / (plain["round_s"] / plain["rounds"]) - 1.0
            )
            metrics = {name: (layer[name], unit) for name, unit, _ in spans.per_layer_catalog()}
            print(f"workload {args.workload} seed {args.seed}: traced {traced['rounds']} rounds, "
                  f"untraced {plain['rounds']} rounds; {traced['spans']} spans in {trace_out}")
            samples = {name: traced["rounds"] for name in metrics}
            raw = {}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"  {'metric':44} {'value':>14} {'raw':>14} {'unit':6} samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44} {value:14.4f} {raw.get(name, value):14.4f} {unit:6} {samples[name]}")
    print(f"  {'error_rate':44} {failed / attempted:14.4f} {'ratio':6} {attempted}")
    for result in results:
        for failure in result["failures"]:
            print(f"  FAILED {failure}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
