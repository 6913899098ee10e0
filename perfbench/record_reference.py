"""Record the reference outputs that the benchmark checks items against.

Runs every item of every workload's pool once, single-threaded BLAS, and
writes ``reference.json``. Run it from the repository root only at a commit
whose outputs are the accepted ones:

    python3 perfbench/record_reference.py [--workload NAME ...]
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from cqmac import cli  # noqa: E402


def record(workload: str, out_dir: Path, input_path: Path) -> dict:
    entries = {}
    for key in workloads.all_keys(workload):
        stderr = io.StringIO()
        argv = workloads.item_argv(workload, key, input_path, out_dir)
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        got = workloads.extract(workload, key, code, stderr.getvalue(), out_dir)
        entries[key] = workloads.reference_entry(workload, got)
        print(f"{workload} {key}: ok", file=sys.stderr)
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    path = workloads.REFERENCE_PATH
    reference = workloads.load_reference(path) if path.exists() else {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out_dir = Path(tmp)
        input_path = out_dir / "pair.json"
        workloads.write_pair_json(input_path)
        for workload in args.workload or workloads.WORKLOADS:
            reference[workload] = record(workload, out_dir, input_path)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
