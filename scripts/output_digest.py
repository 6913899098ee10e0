"""One SHA-256 per benchmark workload over the outputs of all its reference items.

Runs every item that ``perfbench/workloads.py`` lists (``all_keys``): 48
region-l2, 24 simulate-n3 and 24 verify items, each a ``cqmac`` CLI call made
in process, with BLAS pinned to one thread. A workload's digest covers each
item's exit code, stderr and output files, so two trees that print the same
digests wrote the same bytes. The input channel set is written by
``write_pair_json`` to a fixed relative path, so the simulate JSON's
``config.input`` is the same for every tree.

Usage: python3 scripts/output_digest.py [--tree PATH] [WORKLOAD ...]

``--tree`` digests another checkout (its ``src/`` and ``perfbench/``), such as
the parent commit's; workload names limit the run.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path


def digest(workload: str, workloads, cli) -> str:
    """The workload's digest, run in the current directory."""
    h = hashlib.sha256()
    input_path, out_dir = Path("pair.json"), Path("out")
    for key in workloads.all_keys(workload):
        out_dir.mkdir()
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(workloads.item_argv(workload, key, input_path, out_dir))
        h.update(f"{key}\0{code}\0{stderr.getvalue()}\0".encode())
        for path in sorted(out_dir.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
            path.unlink()
        out_dir.rmdir()
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to digest (default: this one)")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help="workloads to run (default: all of the benchmark's)")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    # one BLAS thread, set before numpy is first imported (through cqmac)
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS"), "1"))
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads

    from cqmac import cli

    if not Path(cli.__file__).resolve().is_relative_to(tree):
        raise SystemExit(f"cqmac was imported from {cli.__file__}, not from {tree}")
    unknown = set(args.workloads) - set(workloads.WORKLOADS)
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            workloads.write_pair_json(Path("pair.json"))
            for workload in args.workloads or workloads.WORKLOADS:
                print(workload, digest(workload, workloads, cli), flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
