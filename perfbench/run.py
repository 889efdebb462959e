"""alphacrit benchmark: every end-to-end metric of one workload, or of all.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                    # all workloads, seed 1, a table

Each repetition runs in a fresh child process (child.py) on the inputs the
seed gives; repetitions are started one after another, while the next one is
expected to end within --seconds. Metric names and units come from
BENCHMARK.json. Times are in reference-speed seconds (clock.py): the host's
speed, measured by calibration slices interleaved with the program, is taken
out of them. With --trace 0 the last stdout line reports the end-to-end
metrics (medians over repetitions); with --trace 1 traced and untraced
repetitions alternate and it reports the per-layer metrics (medians over the
traced ones) and the tracing overhead. The line before it holds the run's
environment, output digests, tail percentile and any gate problems. The exit
status is 1 when the correctness gate fails and 2 when the benchmark cannot
run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, crashed repetition)."""


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["workload_names"] = [w["name"] for w in spec["workloads"]]
    return spec


def run_child(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition exceeded {CHILD_TIMEOUT_S}s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def repeat(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Repetitions until the next would end after `seconds`; when tracing,
    traced and untraced ones alternate, traced first, at least one of each."""
    start = perf_counter()
    reps: list[dict] = []
    longest = 0.0
    while True:
        began = perf_counter()
        rep = run_child(workload, seed, trace and len(reps) % 2 == 0)
        rep["traced"] = "layers" in rep
        reps.append(rep)
        longest = max(longest, perf_counter() - began)
        if len(reps) >= (2 if trace else 1) and perf_counter() - start + longest > seconds:
            return reps


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) with max(10, n/100) of the n samples beyond it:
    p99 from 1000 samples on, else the highest percentile with at least ten
    samples beyond it; with ten or fewer samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    beyond = max(10, n // 100)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def end_to_end(reps: list[dict]) -> tuple[dict[str, float], dict]:
    """Medians over repetitions; per-item latency is each item's median over
    repetitions, so every run has one sample per item whatever its length."""
    per_item = [statistics.median(times) for times in zip(*(r["items"] for r in reps))]
    tail_ms, pct = tail(per_item)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "graphs_per_s": statistics.median(r["graphs"] / r["wall_s"] for r in reps),
        "item_p50_ms": 1000 * statistics.median(per_item),
        "item_tail_ms": 1000 * tail_ms,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
    }
    return values, {"tail_percentile": pct, "tail_samples": len(per_item)}


def per_layer(traced: list[dict], untraced: list[dict], names: list[str]) -> dict[str, float]:
    """Medians over traced repetitions; a layer never called reads 0."""
    values = {name: statistics.median(r["layers"].get(name, 0.0) for r in traced) for name in names}
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(r["wall_s"] for r in untraced)
    return values


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result line, detail line) for one workload."""
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
        "loadavg_at_start": os.getloadavg(),
    }
    reps = repeat(workload, seed, seconds, trace)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    problems = [p for r in reps for p in r["problems"]]
    digests = sorted({r["sha256"] for r in reps})
    if len(digests) > 1:
        problems.append(f"output differs between repetitions of one seed: {digests}")
    env["numpy"] = reps[0]["numpy"]
    detail = {
        "workload": workload,
        "env": env,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "rep_wall_s": [r["wall_s"] for r in untraced],
        "rep_raw_wall_s": [r["raw_wall_s"] for r in untraced],
        "slice_share": statistics.median(r["slice_share"] for r in reps),
        "output_sha256": digests,
        "known_failures": sorted({k for r in reps for k in r["known"]}),
        "problems": problems[:50],
    }
    if trace:
        metrics = spec["per_layer"]
        values = per_layer(traced, untraced, [m["name"] for m in metrics if m["name"] != "trace.overhead_s"])
        layers = traced[0]["layers"]
        detail["trace"] = {
            "spans": layers["trace.spans"],
            "layer_self_s": sum(v for k, v in layers.items() if k.endswith(".self_s")),
            "traced_wall_s": layers["trace.wall_s"],
        }
    else:
        metrics = spec["end_to_end"]
        values, detail["latency"] = end_to_end(untraced)
    counted = untraced or traced
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in counted),
        "failed": sum(r["failed"] for r in counted),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    return result, detail


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *spec["workload_names"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "alphacrit").is_dir():
        print(f"no alphacrit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = spec["workload_names"] if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, detail = measure(spec, name, args.seed, args.seconds, bool(args.trace))
            results[name] = result
            print(json.dumps(detail))
            if args.workload == "all":
                for metric, m in result["metrics"].items():
                    print(f"{name:14} {metric:40} {m['value']:14.6g} {m['unit']}")
                print(f"{name:14} correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}", flush=True)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if args.workload != "all" else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
