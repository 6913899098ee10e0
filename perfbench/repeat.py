"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --runs 10 --first-seed 100 --out perfbench/out/repeat.json

For every workload and metric it reports the values, the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and their distance as
a share of the median (the spread). It exits with 1 if a spread exceeds the
metric's bound in ``BENCHMARK.json`` (the unscaled item times are summarised
too, but not checked); ``setup_s`` is left out of that check,
as in the benchmark's acceptance rule, because set-up time follows the
host's speed level at the moment each process starts. With ``--against
FIRST.json`` (an earlier output of this script) it also exits with 1 if a
median is worse than the earlier one by more than the bound, ``setup_s``
included.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--against", type=Path, help="an earlier output to compare medians with")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    first = json.loads(args.against.read_text(encoding="utf-8")) if args.against else None
    broken = []
    summary = {"runs": args.runs, "first_seed": args.first_seed, "seconds": args.seconds,
               "workloads": {}}
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        unscaled: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed item(s)", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            saved = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json")
                               .read_text(encoding="utf-8"))
            for name, value in saved["summary"]["unscaled"].items():
                unscaled.setdefault(name, []).append(value)
        rows = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            median, bound = statistics.median(vals), metrics[name]["bound"]
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound, "values": vals}
            line = f"{workload:12} {name:12} median {median:12.5g} spread {spread:.4f}"
            if name != "setup_s" and spread > bound:
                broken.append(f"{workload} {name}: spread {spread:.4f} > bound {bound}")
            if first is not None:
                before = first["workloads"][workload][name]["median"]
                worse = (median - before if metrics[name]["better"] == "lower"
                         else before - median) / before
                line += f" worse by {worse:+.4f} than --against"
                if worse > bound:
                    broken.append(f"{workload} {name}: median worse by {worse:.4f} > bound {bound}")
            print(f"{line} (bound {bound})", flush=True)
        summary["workloads"][workload] = rows
        for name, vals in unscaled.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            rows["unscaled " + name] = {"median": median, "spread": (q3 - q1) / median,
                                        "values": vals}
            print(f"{workload:12} (unscaled) {name} median {median:.5g} "
                  f"spread {(q3 - q1) / median:.4f}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for problem in broken:
        print(f"out of bound: {problem}", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
