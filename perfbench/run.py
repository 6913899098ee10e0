"""cqmac benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload region-l2 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py              # all three workloads, untraced

Each workload runs in its own worker process, one CLI call (an item) at a
time, with BLAS pinned to one thread. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs a separate traced process and reports the
per-layer metrics. Item times are scaled to a reference host speed by a
calibration kernel timed before every item (``workloads.CALIBRATION``); the
unscaled figures are printed and kept in the result file. The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines above it give every metric with its unit and sample
count. Full results, including the machine record, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CALIBRATION, CALIBRATION_REF_MS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

# Set-up is measured in this many processes per run; the median is reported.
SETUP_PROCESSES = 5
SETUP_TIMEOUT_S = 60
# Time a worker may take beyond --seconds: set-up plus the last item.
WORKER_GRACE_S = 90
TAIL_BEYOND = 10

E2E_UNITS = {"setup_s": "s", "item_ms.p50": "ms", "item_ms.tail": "ms",
             "items_per_s": "1/s", "peak_rss_mb": "MB", "fail_ratio": "ratio"}
# fail_ratio is 0 when the program is correct; it is printed, and carried by
# "failed"/"attempted" in the JSON line, but is not a bounded metric.
BOUNDED = ("setup_s", "item_ms.p50", "item_ms.tail", "items_per_s", "peak_rss_mb")


class BenchError(RuntimeError):
    pass


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it printed READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                            text=True, cwd=ROOT,
                            env=dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1"))
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND items above it (>= 50)."""
    for p in range(99, 50, -1):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            return p
    return 50


def percentile(ordered: list[float], pct: int) -> float:
    if pct == 50:
        return statistics.median(ordered)
    return ordered[math.ceil(pct * len(ordered) / 100) - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    result_path = OUT / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROCESSES - 1):
            proc, setup = start_worker([*common, "--setup-only"])
            finish(proc, SETUP_TIMEOUT_S)
            setups.append(setup)
    proc, setup = start_worker([*common, "--trace", str(trace), "--result", str(result_path)])
    setups.append(setup)
    finish(proc, seconds + WORKER_GRACE_S)
    result = json.loads(result_path.read_text(encoding="utf-8"))

    items = result["items"]
    failed = sum(1 for it in items if it["problems"])
    summary = {"workload": workload, "attempted": len(items), "failed": failed,
               "env": result["env"]}
    if trace:
        summary["metrics"] = result["per_layer"]
        traced = sum(1 for it in items if it["traced"])
        summary["samples"] = dict.fromkeys(summary["metrics"], traced)
    else:
        ref_ms = CALIBRATION_REF_MS[CALIBRATION[workload]]
        times = sorted(it["ms"] * ref_ms / it["cal_ms"] for it in items)
        raw = sorted(it["ms"] for it in items)
        pct = tail_percentile(len(times))
        values = {
            "setup_s": statistics.median(setups),
            "item_ms.p50": statistics.median(times),
            "item_ms.tail": percentile(times, pct),
            "items_per_s": len(items) / (sum(times) / 1e3),
            "peak_rss_mb": result["peak_rss_mb"],
            "fail_ratio": failed / len(items),
        }
        summary["unscaled"] = {
            "item_ms.p50": statistics.median(raw),
            "item_ms.tail": percentile(raw, pct),
            "items_per_s": len(items) / result["wall_s"],
            "calibration_ms.p50": statistics.median(it["cal_ms"] for it in items),
        }
        summary["metrics"] = {name: {"value": value, "unit": E2E_UNITS[name]}
                              for name, value in values.items()}
        summary["samples"] = {"setup_s": len(setups), "item_ms.p50": len(times),
                              "item_ms.tail": len(times), "items_per_s": len(items),
                              "peak_rss_mb": 1, "fail_ratio": len(items)}
        summary["tail_percentile"] = pct
        result["setup_s_samples"] = setups
    result["summary"] = summary
    result_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    problems = [(it["key"], p) for it in items for p in it["problems"]]
    for key, problem in problems[:5]:
        print(f"check failed: {workload} item {key}: {problem}", file=sys.stderr)
    if len(problems) > 5:
        print(f"... and {len(problems) - 5} more failed checks", file=sys.stderr)
    return summary


def print_summary(summary: dict) -> None:
    env = summary["env"]
    print(f"== {summary['workload']}: {summary['attempted']} items, {summary['failed']} failed; "
          f"{env['cores']} cores, {env['blas_name']} {env['blas_version']}, "
          f"{env['blas_threads']} BLAS thread(s), Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}")
    for name, metric in summary["metrics"].items():
        note = f"n={summary['samples'][name]}"
        if name == "item_ms.tail":
            note += f", p{summary['tail_percentile']}"
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']:<6} {note}")
    for name, value in summary.get("unscaled", {}).items():
        print(f"  {'(unscaled) ' + name:<42} {value:>14.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cqmac benchmark")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cqmac" / "__init__.py").is_file():
        print(f"error: no cqmac source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(w, args.seed, args.seconds, args.trace) for w in chosen]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for summary in summaries:
        print_summary(summary)
        prefix = "" if len(chosen) == 1 else summary["workload"] + "/"
        metrics.update({prefix + name: metric for name, metric in summary["metrics"].items()
                        if args.trace or name in BOUNDED})
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
