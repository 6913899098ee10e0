"""Workload definitions: the items each workload runs and how outputs are checked.

An item is one ``cqmac`` CLI call, made in-process through ``cqmac.cli.main``.
The workload seed picks the order in which a fixed pool of CLI seeds is
visited, so every item has a reference output recorded at the seed commit
(``reference.json``, written by ``record_reference.py``).

Outputs are compared at stated tolerances, never byte for byte: simulate
JSON differs in the last bits between BLAS thread counts.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("region-l2", "simulate-n3", "verify")

REGION_WEIGHTS = ("1:0", "1:1", "0:1")
# Pool sizes: region-l2 pairs 16 seeds with 3 weights (coprime, so 48 items
# visit every pair once); the other two use 24 CLI seeds each.
POOL = {"region-l2": 16, "simulate-n3": 24, "verify": 24}

# A region corner fails when its weighted objective falls below the
# reference by more than this; a better optimum passes.
REGION_OBJECTIVE_TOL = 1e-6
# Fidelities in the simulate report.
SIMULATE_FIDELITY_TOL = 1e-9
# Worst margins as printed by ``cqmac verify`` (four significant digits).
VERIFY_MARGIN_RTOL = 1e-2
VERIFY_MARGIN_ATOL = 1e-12

# Host-speed calibration. On a small shared host the speed of a vCPU drifts
# between levels up to about 1.6x apart, for seconds to minutes at a time, so
# run-to-run spreads of plain wall-clock medians reach the bounds. Untraced
# runs therefore time a short fixed kernel just before every item, and report
# item times scaled by the kernel's reference time over its measured time:
# milliseconds at the host speed where the kernel takes CALIBRATION_REF_MS.
# The kernel is numpy only, never cqmac, so a change to the program cannot
# move it. Each workload uses the shape that dominates its own time, because
# the drift hits small-call and large-matrix code differently: tiny LAPACK
# calls through numpy's Python layer for region-l2 (18 eigvalsh per objective
# evaluation) and verify (about 10k svd and 18k eigvalsh per item), and a
# 256x256 eigh plus matrix product for simulate-n3 (512x512 recovery eigh).
CALIBRATION = {"region-l2": "small", "simulate-n3": "large", "verify": "small"}
# Median kernel times on the reference host: a 2-vCPU Intel Xeon VM, with
# scipy-openblas 0.3.31 pinned to one thread.
CALIBRATION_REF_MS = {"small": 12.0, "large": 17.0}

_VERIFY_LINE = re.compile(
    r"^(PASS|FAIL) (\w+): samples=(\d+) violations=(\d+) worst_margin=(\S+)$"
)


def pair_compound_set():
    """{id (x) id, id (x) dephasing(0.1)} built from library constructors."""
    from cqmac.channels import CompoundSet, channel_tensor, dephasing_channel, identity_channel

    ident = channel_tensor(identity_channel(2), identity_channel(2))
    deph = channel_tensor(identity_channel(2), dephasing_channel(0.1))
    return CompoundSet((ident, deph), ("id", "deph"))


def write_pair_json(path: Path) -> None:
    from cqmac.channels import dump_compound_json

    path.write_text(dump_compound_json(pair_compound_set()) + "\n", encoding="utf-8")


def calibration_kernel(workload: str):
    """The workload's calibration kernel: a fixed numpy computation, no cqmac."""
    import numpy as np

    rng = np.random.default_rng(0)
    if CALIBRATION[workload] == "small":
        a = rng.standard_normal((8, 8))
        a = a + a.T
        eigvalsh = np.linalg.eigvalsh

        def kernel():
            for _ in range(1000):
                eigvalsh(a)
    else:
        a = rng.standard_normal((256, 256))
        a = a + a.T
        eigh = np.linalg.eigh

        def kernel():
            for _ in range(2):
                eigh(a)
                a @ a
    return kernel


def item_key(workload: str, seed: int, index: int) -> str:
    """Reference key of item ``index`` in a run with workload seed ``seed``."""
    pool = list(range(POOL[workload]))
    random.Random(f"{workload}:{seed}").shuffle(pool)
    cli_seed = pool[index % len(pool)]
    if workload == "region-l2":
        return f"{cli_seed}|{REGION_WEIGHTS[index % len(REGION_WEIGHTS)]}"
    return str(cli_seed)


def all_keys(workload: str) -> list[str]:
    seeds = range(POOL[workload])
    if workload == "region-l2":
        return [f"{s}|{w}" for s in seeds for w in REGION_WEIGHTS]
    return [str(s) for s in seeds]


def item_argv(workload: str, key: str, input_path: Path, out_dir: Path) -> list[str]:
    if workload == "region-l2":
        cli_seed, weights = key.split("|")
        return ["region", "--input", str(input_path), "--l", "2", "--budget", "2",
                "--weights", weights, "--seed", cli_seed,
                "--out-csv", str(out_dir / "region.csv")]
    if workload == "simulate-n3":
        return ["simulate", "--input", str(input_path), "--l", "3", "--budget", "4",
                "--m1", "2", "--m2", "2", "--seed", key,
                "--out-json", str(out_dir / "simulate.json")]
    if workload == "verify":
        return ["verify", "--seed", key]
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# output extraction: the numbers the reference records
# ---------------------------------------------------------------------------


def extract(workload: str, key: str, exit_code: int, stderr: str, out_dir: Path) -> dict:
    """The checked numbers of one item's output. Raises ValueError if unreadable."""
    if exit_code != 0:
        raise ValueError(f"exit code {exit_code}")
    if workload == "region-l2":
        lines = (out_dir / "region.csv").read_text(encoding="utf-8").splitlines()
        if lines[0] != "r1,r2,tag" or len(lines) != 2:
            raise ValueError(f"unexpected CSV: {lines!r}")
        r1, r2, tag = lines[1].split(",")
        if tag != "w" + key.split("|")[1]:
            raise ValueError(f"corner tag {tag!r} does not match the weights")
        return {"r1": float(r1), "r2": float(r2)}
    if workload == "simulate-n3":
        report = json.loads((out_dir / "simulate.json").read_text(encoding="utf-8"))
        (block,) = report["blocks"]
        return {
            "worst_fidelities": [run["worst_fidelity"] for run in block["runs"]],
            "best_worst_fidelity": block["best_worst_fidelity"],
            "chain_violations": sum(c["violations"] for c in block["chain"].values()),
            "converse_violations": block["converse"]["violations"],
        }
    if workload == "verify":
        suites = {}
        for line in stderr.splitlines():
            match = _VERIFY_LINE.match(line)
            if match:
                status, name, samples, violations, margin = match.groups()
                suites[name] = {
                    "passed": status == "PASS",
                    "samples": int(samples),
                    "violations": int(violations),
                    "worst_margin": float(margin),
                }
        if not suites:
            raise ValueError("no suite lines in the verify output")
        return {"suites": suites}
    raise KeyError(workload)


def reference_entry(workload: str, got: dict) -> dict:
    """The part of an extracted output that the reference keeps."""
    if workload == "region-l2":
        return got
    if workload == "simulate-n3":
        return {k: got[k] for k in ("worst_fidelities", "best_worst_fidelity")}
    return {
        name: {"samples": s["samples"], "worst_margin": s["worst_margin"]}
        for name, s in got["suites"].items()
    }


def check(workload: str, key: str, got: dict, ref: dict) -> list[str]:
    """Problems with one item's output against its reference; empty when correct."""
    problems = []
    if workload == "region-l2":
        w1, w2 = (float(x) for x in key.split("|")[1].split(":"))
        objective = w1 * got["r1"] + w2 * got["r2"]
        ref_objective = w1 * ref["r1"] + w2 * ref["r2"]
        if min(got["r1"], got["r2"]) < 0:
            problems.append(f"negative rate {got}")
        if objective < ref_objective - REGION_OBJECTIVE_TOL:
            problems.append(f"objective {objective:.12g} below reference {ref_objective:.12g}")
    elif workload == "simulate-n3":
        if len(got["worst_fidelities"]) != len(ref["worst_fidelities"]):
            problems.append("seed count differs from the reference")
        for i, (a, b) in enumerate(zip(got["worst_fidelities"], ref["worst_fidelities"])):
            if abs(a - b) > SIMULATE_FIDELITY_TOL:
                problems.append(f"seed {i} worst fidelity {a!r} vs reference {b!r}")
        if abs(got["best_worst_fidelity"] - ref["best_worst_fidelity"]) > SIMULATE_FIDELITY_TOL:
            problems.append("best worst-fidelity differs from the reference")
        if got["chain_violations"] or got["converse_violations"]:
            problems.append(
                f"violations: chain {got['chain_violations']}, "
                f"converse {got['converse_violations']}"
            )
    elif workload == "verify":
        suites = got["suites"]
        if set(suites) != set(ref):
            problems.append(f"suite set {sorted(suites)} differs from the reference")
        for name, r in ref.items():
            s = suites.get(name)
            if s is None:
                continue
            if not s["passed"] or s["violations"]:
                problems.append(f"{name}: {s['violations']} violation(s)")
            if s["samples"] != r["samples"]:
                problems.append(f"{name}: {s['samples']} samples, reference {r['samples']}")
            tol = VERIFY_MARGIN_ATOL + VERIFY_MARGIN_RTOL * abs(r["worst_margin"])
            if abs(s["worst_margin"] - r["worst_margin"]) > tol:
                problems.append(
                    f"{name}: worst margin {s['worst_margin']:.3e}, "
                    f"reference {r['worst_margin']:.3e}"
                )
    return problems


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
