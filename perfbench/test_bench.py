"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py

They start the benchmark as a user would, with ``--seconds 0`` so that a
run is one untraced item (plus one traced item with ``--trace 1``), and take
about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# Per-layer metrics that must be nonzero on the workload that exercises them.
ACTIVE = {
    "region-l2": [
        "optimizer.pareto_trace.calls", "optimizer.objective.evals",
        "optimizer.objective.us_per_eval", "kernel.eigvalsh.calls",
        "kernel.eigvalsh.calls_per_eval", "nm.minimize.calls", "nm.self_ms",
        "optimizer.nm.iterations", "channels.load_compound_json.calls",
        "channels.blocked_tensor_power.calls", "regions.compound_rect_powered.calls",
        "cli.self_ms",
    ],
    "simulate-n3": [
        "codesim.sample_et_code.calls", "codesim.hybrid_chain_report.calls",
        "codesim.et_entanglement_fidelity.calls", "codesim.performance.calls",
        "codesim.combine_hybrid.calls", "codesim.converse_check.calls",
        "codesim.sample_cq_codebook.calls", "kernel.eigh.calls", "kernel.eigh.max_dim",
        "codesim.decoder.kraus_ops", "codesim.branch.nonzero_ratio",
        "channels.KrausChannel.calls", "channels.apply_channel_mat.calls",
        "channels.tensor_power.calls",
    ],
    "verify": [
        "qmatrix.trace_norm.calls", "qmatrix.sqrt_psd.calls",
        "qmatrix.partial_trace_mat.calls", "qmatrix.permute_mat.calls",
        "qmatrix.tensor.calls", "qmatrix.fidelity.calls", "qmatrix.hermitian_eig.calls",
        "kernel.svd.calls", "entropic.effective_cqq_state.calls",
        "entropic.von_neumann_entropy.calls", "regions.compound_rect.calls",
        "channels.build_net.calls", "channels.choi_matrix.calls",
        "channels.KrausChannel.calls",
    ] + [f"suites.{s}.self_ms" for s in ("eig_reconstruction", "partial_trace",
         "fidelity_monotone", "gentle_measurement", "pure_fidelity_perturbation",
         "product_fidelity_bound", "alicki_fannes", "entropy_additivity",
         "holevo_identity", "data_processing", "compound_monotonicity",
         "diamond_bounds", "net_cover", "timeshare", "code_identities")],
}
STRUCTURAL = ("codesim.decoder.kraus_ops", "codesim.branch.nonzero_ratio",
              "kernel.eigh.max_dim", "kernel.eigvalsh.calls_per_eval",
              "optimizer.objective.evals", "optimizer.nm.iterations",
              "optimizer.nm.converged_ratio")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, root: Path = ROOT) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def copy_benchmark(dest: Path) -> Path:
    """A tree at ``dest`` holding only the benchmark's files; returns it."""
    shutil.rmtree(dest, ignore_errors=True)
    (dest / "perfbench").mkdir(parents=True)
    for f in (*HERE.glob("*.py"), HERE / "reference.json"):
        shutil.copyfile(f, dest / "perfbench" / f.name)
    return dest


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    """Two traced runs per workload with the same seed."""
    return {w: [values(bench("--workload", w, "--seed", "5", "--seconds", "0",
                             "--trace", "1")) for _ in range(2)]
            for w in workloads.WORKLOADS}


def test_benchmark_json_matches_emitted_metrics(traced):
    from cqmac.suites import SUITES

    expected = list(Tracer().metrics(1, 0.0, list(SUITES)))
    assert [m["name"] for m in BENCHMARK["per_layer"]] == expected
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.BOUNDED)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for runs in traced.values():
        assert list(runs[0]) == expected


def test_every_active_metric_is_nonzero(traced):
    for workload, names in ACTIVE.items():
        got = traced[workload][0]
        missing = [n for n in names if not got[n] > 0]
        assert not missing, f"{workload}: zero {missing}"
    for layer in LAYERS:
        assert any(runs[0][f"{layer}.self_ms"] > 0 for runs in traced.values()), layer


def test_structural_counts_repeat_exactly(traced):
    for workload, (first, second) in traced.items():
        for name in STRUCTURAL:
            assert first[name] == second[name], (workload, name)
    sim, region = traced["simulate-n3"][0], traced["region-l2"][0]
    assert sim["kernel.eigh.max_dim"] == 512
    assert sim["codesim.decoder.kraus_ops"] == 664
    assert region["kernel.eigvalsh.calls_per_eval"] == 18


def test_tracer_restores_every_binding():
    import numpy as np

    import cqmac.channels
    import cqmac.codesim
    import cqmac.suites

    before = (np.linalg.svd, cqmac.codesim.apply_channel_mat,
              cqmac.channels.KrausChannel.__post_init__, dict(cqmac.suites.SUITES))
    tracer = Tracer()
    tracer.install()
    assert cqmac.codesim.apply_channel_mat is not before[1]
    assert cqmac.codesim.apply_channel_mat is cqmac.channels.apply_channel_mat
    tracer.uninstall()
    after = (np.linalg.svd, cqmac.codesim.apply_channel_mat,
             cqmac.channels.KrausChannel.__post_init__, dict(cqmac.suites.SUITES))
    assert after == before


def perturb(workload: str, entry: dict) -> None:
    if workload == "region-l2":
        entry["r1"] += 0.5
        entry["r2"] += 0.5
    elif workload == "simulate-n3":
        entry["worst_fidelities"][0] += 1e-6
    else:
        entry["eig_reconstruction"]["samples"] += 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_fail_ratio_zero_then_positive_with_perturbed_reference(workload):
    seed = 7
    clean = bench("--workload", workload, "--seed", str(seed), "--seconds", "0")
    assert clean["correct"] and clean["failed"] == 0 and clean["attempted"] == 1

    # the same benchmark and program, with one reference value perturbed
    tree = copy_benchmark(HERE / "out" / f"perturbed-{workload}")
    (tree / "src").symlink_to(ROOT / "src", target_is_directory=True)
    reference = workloads.load_reference()
    perturb(workload, reference[workload][workloads.item_key(workload, seed, 0)])
    (tree / "perfbench" / "reference.json").write_text(json.dumps(reference), encoding="utf-8")
    dirty = bench("--workload", workload, "--seed", str(seed), "--seconds", "0", root=tree)
    assert not dirty["correct"] and dirty["failed"] / dirty["attempted"] > 0


def test_refuses_to_run_without_the_program():
    bare = copy_benchmark(HERE / "out" / "bare")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
