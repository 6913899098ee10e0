"""One workload in its own process: set up, print READY, run items, write a result.

Started by ``run.py``; not meant to be run by hand. BLAS is pinned to one
thread before numpy is imported. Set-up covers imports, writing the
channel-set input from library constructors and loading it back through
the same loader the CLI uses.

Untraced runs time every item, and the workload's calibration kernel just
before it (see ``workloads.CALIBRATION``). Traced runs alternate untraced and traced
items, and each traced item repeats the input of the untraced item before
it, so that the tracing overhead compares the same inputs under the same
host load.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def environment() -> dict:
    """Cores, BLAS build and runtime threads, interpreter and library versions."""
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": None,
        "blas_config": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if getter is not None and config is not None:
                getter.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                env["blas_threads"] = getter()
                env["blas_config"] = config().decode()
                return env
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))

    import workloads
    from cqmac import cli
    from cqmac.channels import load_compound_json

    out_dir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        input_path = out_dir / "pair.json"
        workloads.write_pair_json(input_path)
        load_compound_json(input_path.read_text(encoding="utf-8"))
        if args.setup_only:
            print("READY", flush=True)
            return 0
        ref = workloads.load_reference()[args.workload]
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        print("READY", flush=True)
        result = run_items(args, workloads, cli, ref, input_path, out_dir, tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    result["env"] = environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        import numpy as np

        from tracer import SPAN_COLUMNS, unit_of

        from cqmac.suites import SUITES

        # complete (untraced, traced) pairs only, so both halves ran the same inputs
        pairs = result["items"][: len(result["items"]) // 2 * 2]
        traced = [it for it in pairs if it["traced"]]
        untraced = [it for it in pairs if not it["traced"]]
        rate_t = len(traced) / (sum(it["ms"] for it in traced) / 1e3)
        rate_u = len(untraced) / (sum(it["ms"] for it in untraced) / 1e3)
        metrics = tracer.metrics(len(traced), 100.0 * (rate_u - rate_t) / rate_u, list(SUITES))
        result["per_layer"] = {name: {"value": value, "unit": unit_of(name)}
                               for name, value in metrics.items()}
        spans = HERE / "out" / f"spans-{args.workload}.npy"
        np.save(spans, tracer.span_array())
        result["spans"] = {"path": str(spans), "columns": SPAN_COLUMNS, "names": tracer.names}
    args.result.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


def run_items(args, workloads, cli, ref, input_path, out_dir, tracer) -> dict:
    items = []
    # per-layer metrics are not scaled, so traced runs skip the calibration
    calibrate = None if tracer else workloads.calibration_kernel(args.workload)
    if calibrate is not None:
        calibrate()  # warm-up
    started = time.perf_counter()
    index = 0
    while True:
        # at least one item; a traced run needs one untraced and one traced
        if time.perf_counter() - started >= args.seconds and index >= (1 if tracer is None else 2):
            break
        traced = tracer is not None and index % 2 == 1
        # a traced item repeats the input of the untraced item before it
        key = workloads.item_key(args.workload, args.seed, index // 2 if tracer else index)
        argv = workloads.item_argv(args.workload, key, input_path, out_dir)
        stderr = io.StringIO()
        gc.collect()  # start every item from the same collector state
        cal_ms = None
        if calibrate is not None:
            t0 = time.perf_counter()
            calibrate()
            cal_ms = (time.perf_counter() - t0) * 1e3
        with contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                # look cli.main up at call time: the tracer rebinds it
                code = tracer.run(index, lambda: cli.main(argv)) if traced else cli.main(argv)
            except Exception as exc:  # a crashing item is a failed item; the run goes on
                code = exc
            ms = (time.perf_counter() - t0) * 1e3
        try:
            if isinstance(code, Exception):
                raise ValueError(f"raised {code!r}")
            got = workloads.extract(args.workload, key, code, stderr.getvalue(), out_dir)
            problems = workloads.check(args.workload, key, got, ref[key])
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"bad output: {exc}"]
        items.append({"key": key, "ms": ms, "cal_ms": cal_ms, "traced": traced,
                      "problems": problems})
        index += 1
    wall = time.perf_counter() - started
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "wall_s": wall, "items": items}


if __name__ == "__main__":
    sys.exit(main())
