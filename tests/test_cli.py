import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cqmac import codesim
from cqmac.channels import (
    CompoundSet,
    channel_tensor,
    dephasing_channel,
    dump_compound_json,
    identity_channel,
)
from cqmac.cli import main
from cqmac.suites import SUITES

UNKNOWN_SUITE = f"error: unknown suite 'does_not_exist'; available: {', '.join(SUITES)}\n"


@pytest.fixture
def identity_set_file(tmp_path, identity_qmac) -> Path:
    path = tmp_path / "identity.json"
    path.write_text(dump_compound_json(CompoundSet((identity_qmac,), ("id",))))
    return path


@pytest.fixture
def pair_set_file(tmp_path, id_deph_set) -> Path:
    path = tmp_path / "pair.json"
    path.write_text(dump_compound_json(id_deph_set))
    return path


class TestRegionCommand:
    def test_runs_and_is_deterministic(self, tmp_path, identity_set_file):
        out_csv = tmp_path / "region.csv"
        out_svg = tmp_path / "region.svg"
        args = [
            "region", "--input", str(identity_set_file), "--l", "1",
            "--budget", "3", "--seed", "11", "--weights", "1:1",
            "--out-csv", str(out_csv), "--out-svg", str(out_svg),
        ]
        assert main(args) == 0
        first_csv = out_csv.read_bytes()
        first_svg = out_svg.read_bytes()
        assert main(args) == 0
        assert out_csv.read_bytes() == first_csv
        assert out_svg.read_bytes() == first_svg
        root = ET.fromstring(first_svg.decode())
        assert root.tag.endswith("svg")

    def test_svg_axis_consistent_with_csv(self, tmp_path, identity_set_file):
        out_csv = tmp_path / "region.csv"
        out_svg = tmp_path / "region.svg"
        assert main([
            "region", "--input", str(identity_set_file), "--l", "1",
            "--budget", "2", "--seed", "3", "--weights", "1:1",
            "--out-csv", str(out_csv), "--out-svg", str(out_svg),
        ]) == 0
        rows = out_csv.read_text().strip().splitlines()[1:]
        corners = [(float(r.split(",")[0]), float(r.split(",")[1])) for r in rows]
        svg = out_svg.read_text()
        root = ET.fromstring(svg)
        path = next(el for el in root.iter() if el.tag.endswith("path"))
        coords = path.attrib["d"].replace("M", "").replace("L", "").split()
        xs = [float(c) for c in coords[0::2]]
        ys = [float(c) for c in coords[1::2]]
        # staircase stays inside the plotting frame and reaches the corner
        top = max(max(r1, r2) for r1, r2 in corners) * 1.1
        margin, size, span = 60.0, 600.0, 480.0
        assert all(margin - 1e-6 <= x <= size - margin + 1e-6 for x in xs)
        assert all(margin - 1e-6 <= y <= size - margin + 1e-6 for y in ys)
        best_r1 = max(r1 for r1, _ in corners)
        assert any(abs(x - (margin + span * best_r1 / top)) < 1e-3 for x in xs)

    def test_csv_sorted_by_r1(self, tmp_path, pair_set_file):
        out_csv = tmp_path / "region.csv"
        assert main([
            "region", "--input", str(pair_set_file), "--l", "1",
            "--budget", "2", "--seed", "5", "--weights", "1:0,0:1",
            "--out-csv", str(out_csv),
        ]) == 0
        rows = out_csv.read_text().strip().splitlines()[1:]
        r1_vals = [float(r.split(",")[0]) for r in rows]
        assert r1_vals == sorted(r1_vals)

    def test_reports_restart_convergence(self, tmp_path, pair_set_file, id_deph_set, capsys):
        """stderr counts the restarts whose Nelder-Mead run converged."""
        from cqmac.optimizer import pareto_trace

        assert main([
            "region", "--input", str(pair_set_file), "--l", "1", "--budget", "2",
            "--seed", "5", "--weights", "1:0,0:1", "--out-csv", str(tmp_path / "r.csv"),
        ]) == 0
        statuses = pareto_trace(id_deph_set, 1, [(1, 0), (0, 1)], budget=2, seed=5).statuses
        converged = statuses.count(0)
        assert f"region: {converged} of 4 restarts converged\n" in capsys.readouterr().err

    def test_negative_zero_weight_tagged_as_zero(self, tmp_path, pair_set_file):
        csvs = []
        for weights in (["--weights=-0:1"], ["--weights", "0:1"]):
            out_csv = tmp_path / f"region{len(csvs)}.csv"
            assert main([
                "region", "--input", str(pair_set_file), "--l", "1", "--budget", "1",
                *weights, "--out-csv", str(out_csv),
            ]) == 0
            csvs.append(out_csv.read_bytes())
        assert b"w0:1" in csvs[0]
        assert csvs[0] == csvs[1]

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main([
            "region", "--input", str(bad), "--out-csv", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_missing_file_exit_2(self, tmp_path):
        code = main([
            "region", "--input", str(tmp_path / "absent.json"),
            "--out-csv", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_cptp_violation_exit_3(self, tmp_path):
        bad = {
            "members": [
                {
                    "in_dims": [2],
                    "out_dims": [2],
                    "kraus": [[[1.2, 0.0], [0.0, 0.0], [0.0, 0.0], [1.2, 0.0]]],
                }
            ]
        }
        path = tmp_path / "cptp.json"
        path.write_text(json.dumps(bad))
        code = main([
            "region", "--input", str(path), "--out-csv", str(tmp_path / "x.csv"),
        ])
        assert code == 3

    def test_budget_exceeded_exit_4(self, tmp_path, identity_set_file, capsys):
        """At l=9 the identity's factor product u, (512·512, 512·512), is above
        2^25 entries: exit 4 with the array named."""
        code = main([
            "region", "--input", str(identity_set_file), "--l", "9",
            "--out-csv", str(tmp_path / "x.csv"),
        ])
        assert code == 4
        assert "factor product u of shape (262144, 262144)" in capsys.readouterr().err


class TestSimulateCommand:
    def test_budget_exceeded_exit_4_before_any_work(
        self, tmp_path, identity_set_file, monkeypatch, capsys
    ):
        """At n=5 the identity's word blocks, (2^5, 1 + 4^5, m2, 4^5), hold
        67174400 > 2^25 entries: refused before a codebook is built."""

        def refuse(*args, **kwargs):
            raise AssertionError("built past the budget")

        monkeypatch.setattr(codesim, "pgm_codebook", refuse)
        code = main([
            "simulate", "--input", str(identity_set_file), "--l", "5", "--budget", "1",
            "--out-json", str(tmp_path / "r.json"),
        ])
        err = capsys.readouterr().err
        assert code == 4 and "word blocks of shape (32, 1025, 2, 1024) has 67174400 entries" in err

    @pytest.mark.parametrize("command", ["simulate", "region"])
    @pytest.mark.parametrize("in_dims", [[4], [2, 1, 2]], ids=["one-part", "three-part"])
    def test_input_not_two_part_exit_2_before_sampling(
        self, tmp_path, monkeypatch, capsys, command, in_dims
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled a code for a malformed input")

        monkeypatch.setattr(codesim, "sample_et_code", refuse)
        path = tmp_path / "set.json"
        path.write_text(json.dumps({**_identity_obj(4), "in_dims": in_dims}))
        assert main(_argv(command, path, tmp_path)) == 2
        err = capsys.readouterr().err
        assert "error: compound members must have a two-part (A, B) input" in err

    def test_identity_perfect_and_deterministic(self, tmp_path, identity_set_file):
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "trend.csv"
        args = [
            "simulate", "--input", str(identity_set_file), "--l", "1",
            "--budget", "3", "--seed", "2", "--m1", "2", "--m2", "2",
            "--out-json", str(out_json), "--out-csv", str(out_csv),
        ]
        assert main(args) == 0
        report = json.loads(out_json.read_text())
        block = report["blocks"][0]
        assert block["best_worst_fidelity"] >= 1.0 - 1e-9
        assert block["converse"]["violations"] == 0
        for chain in block["chain"].values():
            assert chain["violations"] == 0
        first = out_json.read_bytes()
        assert main(args) == 0
        assert out_json.read_bytes() == first

    def test_trend_lists_blocklengths(self, tmp_path, identity_set_file):
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "trend.csv"
        assert main([
            "simulate", "--input", str(identity_set_file), "--l", "1,2",
            "--budget", "2", "--seed", "3",
            "--out-json", str(out_json), "--out-csv", str(out_csv),
        ]) == 0
        rows = out_csv.read_text().strip().splitlines()
        assert rows[0] == "n,best_fidelity,mean_fidelity"
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "2"]


    def test_config_records_tie_tolerance(self, tmp_path, identity_set_file):
        out_json = tmp_path / "report.json"
        assert main(["simulate", "--input", str(identity_set_file), "--budget", "1",
                     "--out-json", str(out_json)]) == 0
        assert json.loads(out_json.read_text())["config"]["best_seed_tie_rtol"] == 1e-12


def test_simulate_never_forms_the_dense_decoder(monkeypatch, identity_qmac, mild_dephasing_qmac):
    """The dense (C (x) X)^n decoder is a test oracle: simulate reads the word blocks only."""
    from cqmac import cli

    def refuse(self):
        raise AssertionError("dense decoder formed")

    monkeypatch.setattr(codesim.EtTransmissionCode, "decoder", property(refuse))
    cset = CompoundSet((identity_qmac, mild_dephasing_qmac), ("id", "deph"))
    out = cli._simulate_one(cset, 3, 2, 2, 2, 0)
    assert out["converse"]["violations"] == 0
    assert all(chain["violations"] == 0 for chain in out["chain"].values())


def test_best_seed_survives_decoder_rounding(monkeypatch, identity_qmac, mild_dephasing_qmac):
    """On the pair set at n=1 seeds tie at 0.86 up to rounding; scaling one
    tied seed's decoder by 1 + 1e-15 reorders the raw values, not the pick."""
    from cqmac import cli, codesim
    from cqmac.channels import KrausChannel

    cset = CompoundSet((identity_qmac, mild_dephasing_qmac), ("id", "deph"))
    base = cli._simulate_one(cset, 1, 2, 2, 4, 0)
    worst = [r["worst_fidelity"] for r in base["runs"]]
    tied = [i for i, w in enumerate(worst) if max(worst) - w <= 1e-12 * max(worst)]
    assert len(tied) >= 2 and base["best_seed_index"] == tied[0]

    combine = codesim.combine_hybrid
    built = []

    def perturbed(*args, **kwargs):
        code = combine(*args, **kwargs)
        built.append(code)
        if len(built) - 1 != tied[-1]:
            return code
        scaled = tuple(
            KrausChannel(br.stacked * (1 + 1e-15), br.in_dims, br.out_dims, trace_nonincreasing=True)
            for br in code.branches
        )
        return replace(code, branches=scaled)

    monkeypatch.setattr(codesim, "combine_hybrid", perturbed)
    out = cli._simulate_one(cset, 1, 2, 2, 4, 0)
    raw = [r["worst_fidelity"] for r in out["runs"]]
    assert raw[tied[-1]] > max(raw[i] for i in tied[:-1])
    assert out["best_seed_index"] == base["best_seed_index"]


class TestVerifyCommand:
    def test_single_suite_passes(self):
        assert main(["verify", "--suite", "gentle_measurement", "--seed", "1"]) == 0

    def test_seed_change_same_verdict(self):
        assert main(["verify", "--suite", "holevo_identity", "--seed", "1"]) == 0
        assert main(["verify", "--suite", "holevo_identity", "--seed", "999"]) == 0

    def test_zero_tolerance_fails(self):
        # every suite whose default tolerance absorbs rounding fails at --tol 0:
        # the override reaches the stacked and the per-instance evaluations
        for suite in ("entropy_additivity", "eig_reconstruction", "partial_trace",
                      "holevo_identity", "code_identities"):
            assert main(["verify", "--suite", suite, "--tol", "0"]) == 1, suite

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "--suite", "does_not_exist"]) == 2
        assert capsys.readouterr().err == UNKNOWN_SUITE

    def test_unknown_suite_refused_before_any_suite_runs(self, capsys):
        assert main(["verify", "--suite", "eig_reconstruction,does_not_exist"]) == 2
        assert capsys.readouterr().err == UNKNOWN_SUITE

    @pytest.mark.parametrize("selection", [",", " , ,"])
    def test_empty_suite_selection_exit_2(self, capsys, selection):
        assert main(["verify", "--suite", selection]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "suites passed" not in err


class TestNetCommand:
    def test_duplicates_collapse(self, tmp_path, identity_qmac):
        cset = CompoundSet((identity_qmac, identity_qmac, identity_qmac))
        path = tmp_path / "dups.json"
        path.write_text(dump_compound_json(cset))
        out = tmp_path / "net.json"
        assert main(["net", "--input", str(path), "--theta", "0.2", "--out-json", str(out)]) == 0
        net = json.loads(out.read_text())
        assert len(net["members"]) == 1

    def test_distinct_kept(self, tmp_path, pair_set_file):
        out = tmp_path / "net.json"
        assert main([
            "net", "--input", str(pair_set_file), "--theta", "0.01",
            "--out-json", str(out),
        ]) == 0
        net = json.loads(out.read_text())
        assert len(net["members"]) == 2

    def test_theta_just_under_six_on_distant_pair(self, tmp_path, replacement_pair, capsys):
        """Choi distances reach 2 d_in = 8, beyond the diameter 2 that a covering
        bound for theta < 6 would assume: the packing bound holds."""
        path = tmp_path / "replacements.json"
        path.write_text(dump_compound_json(replacement_pair))
        out = tmp_path / "net.json"
        assert main(["net", "--input", str(path), "--theta", "5.9999", "--out-json", str(out)]) == 0
        assert len(json.loads(out.read_text())["members"]) == 2
        assert "kept 2 of 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["region", "simulate", "net"])
def test_repeated_labels_exit_2(tmp_path, id_deph_set, command, capsys):
    """Results keyed by label would keep one of two members named alike."""
    obj = json.loads(dump_compound_json(id_deph_set))
    obj["labels"] = ["a", "a"]
    path = tmp_path / "twins.json"
    path.write_text(json.dumps(obj))
    assert main(_argv(command, path, tmp_path) + ["--budget", "1"] * (command != "net")) == 2
    err = capsys.readouterr().err
    assert "labels must be distinct" in err and "Traceback" not in err


def _identity_obj(d: int = 2) -> dict:
    flat = [[int(i == j), 0] for i in range(d) for j in range(d)]
    return {"in_dims": [d], "out_dims": [d], "kraus": [flat]}


def _with(**fields) -> dict:
    return {"members": [{**_identity_obj(), **fields}], "labels": ["id"]}


def _run_net(tmp_path: Path, text: str) -> int:
    path = tmp_path / "set.json"
    path.write_text(text)
    return main(["net", "--input", str(path), "--out-json", str(tmp_path / "net.json")])


class TestLoaderRejects:
    @pytest.mark.parametrize(
        "obj",
        [
            _with(kraus=5),
            _with(kraus=[[1, 2, 3, 4]]),
            _with(kraus=[[["nan", 0], [0, 0], [0, 0], [1, 0]]]),
            _with(kraus=[[[float("nan"), 0], [0, 0], [0, 0], [1, 0]]]),
            _with(kraus=[[[1, 0], [0, 0], [0, 0], [float("inf"), 0]]]),
            _with(in_dims=[0]),
            {"members": [{**_identity_obj(4), "in_dims": [-2, -2]}]},
            {"members": 5},
            {"members": [_identity_obj()], "labels": 7},
        ],
        ids=[
            "kraus-int", "kraus-flat-numbers", "entry-string", "entry-nan",
            "entry-inf", "zero-dim", "negative-dims", "members-int", "labels-int",
        ],
    )
    def test_malformed_set_exit_2(self, tmp_path, obj, capsys):
        assert _run_net(tmp_path, json.dumps(obj)) == 2
        assert "error:" in capsys.readouterr().err


def _scaled_identity_file(tmp_path: Path, scale: float) -> Path:
    """The (2, 2) -> 4 identity with its Kraus operator scaled by ``scale``."""
    flat = [[scale * (i == j), 0.0] for i in range(4) for j in range(4)]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({"in_dims": [2, 2], "out_dims": [4], "kraus": [flat]}))
    return path


class TestLoadTolerance:
    @pytest.mark.parametrize(
        "command, level, out",
        [("region", "1", "--out-csv"), ("region", "2", "--out-csv"), ("simulate", "2", "--out-json")],
    )
    def test_defect_within_load_tolerance_runs(self, tmp_path, command, level, out):
        # defect 5e-7: accepted at load, and above the 1e-8 every later check uses
        path = _scaled_identity_file(tmp_path, 1.0 + 2.5e-7)
        argv = [command, "--input", str(path), "--l", level, "--budget", "1"]
        assert main(argv + [out, str(tmp_path / "out")]) == 0

    def test_defect_beyond_load_tolerance_exit_3(self, tmp_path, capsys):
        path = _scaled_identity_file(tmp_path, 1.0 + 1e-6)
        assert main(["net", "--input", str(path), "--out-json", str(tmp_path / "n.json")]) == 3
        assert "defect 2.000e-06" in capsys.readouterr().err

    def test_overflowing_gram_exit_3(self, tmp_path):
        # a finite entry whose square overflows: rejected with no RuntimeWarning
        obj = {"in_dims": [1], "out_dims": [1], "kraus": [[[1.3407807929942597e154, 0.0]]]}
        assert _run_net(tmp_path, json.dumps(obj)) == 3


_KEYS = st.sampled_from(["members", "labels", "in_dims", "out_dims", "kraus"]) | st.text(max_size=3)
_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 5) | st.text(max_size=3)
    | st.floats(allow_nan=True, allow_infinity=True)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=24,
)


@st.composite
def _near_valid_sets(draw):
    """Valid identity channels with one field or one Kraus entry replaced."""
    d = draw(st.integers(1, 3))
    flat = [[1.0 if i == j else 0.0, 0.0] for i in range(d) for j in range(d)]
    member = {"in_dims": [d], "out_dims": [d], "kraus": [flat]}
    target = draw(st.sampled_from(["in_dims", "out_dims", "kraus", "entry", None]))
    if target == "entry":
        flat[draw(st.integers(0, d * d - 1))][draw(st.integers(0, 1))] = draw(_SCALARS)
    elif target is not None:
        member[target] = draw(_JSON)
    if draw(st.booleans()):
        return member
    labels = draw(st.just(["a"]) | st.lists(st.text(max_size=2), max_size=2) | _JSON)
    return {"members": [member] * draw(st.integers(0, 2)), "labels": labels}


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(value=_JSON | _near_valid_sets())
def test_net_input_fuzz_gives_documented_exit(tmp_path, value):
    assert _run_net(tmp_path, json.dumps(value)) in (0, 2, 3, 4)


ROOT = Path(__file__).resolve().parents[1]


def _run_python(args: list[str], timeout: float, blas_threads: str | None = None):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )


def _run_cli(argv: list[str], timeout: float, blas_threads: str | None = None):
    return _run_python(["-m", "cqmac.cli", *argv], timeout, blas_threads)


def _argv(command: str, set_file: Path, tmp_path: Path) -> list[str]:
    """The smallest valid command line of each subcommand."""
    return {
        "region": ["region", "--input", str(set_file), "--out-csv", str(tmp_path / "x.csv")],
        "simulate": ["simulate", "--input", str(set_file), "--out-json", str(tmp_path / "x.json")],
        "verify": ["verify", "--suite", "timeshare"],
        "net": ["net", "--input", str(set_file), "--out-json", str(tmp_path / "x.json")],
    }[command]


class TestArguments:
    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("region", ["--l", "0"], "blocking levels must be >= 1"),
            ("region", ["--l", "x"], "expected comma-separated integers"),
            ("region", ["--weights", "1"], "is not a pair a:b"),
            ("region", ["--weights", "nan:1"], "must be finite, >= 0 and not 0:0"),
            ("region", ["--weights", "1:0,inf:1"], "must be finite, >= 0 and not 0:0"),
            ("region", ["--weights", "0:0"], "must be finite, >= 0 and not 0:0"),
            ("region", ["--weights=-1:1"], "must be finite, >= 0 and not 0:0"),
            ("region", ["--l", "1,2"], "region traces one blocking level"),
            ("region", ["--budget", "0"], "expected an integer >= 1"),
            ("region", ["--alphabet", "0"], "expected an integer >= 1"),
            ("region", ["--alphabet", "-1"], "expected an integer >= 1"),
            ("region", ["--seed", "-1"], "expected an integer >= 0"),
            ("simulate", ["--budget", "0"], "expected an integer >= 1"),
            ("simulate", ["--m1", "0"], "expected an integer >= 1"),
            ("simulate", ["--m2", "0"], "expected an integer >= 1"),
            ("simulate", ["--m2", "two"], "expected an integer >= 1"),
            ("simulate", ["--seed", "-1"], "expected an integer >= 0"),
            ("verify", ["--seed", "-1"], "expected an integer >= 0"),
            ("verify", ["--tol", "nan"], "expected a finite number"),
            ("verify", ["--tol", "inf"], "expected a finite number"),
            ("net", ["--theta", "0"], "expected a finite number > 0"),
            ("net", ["--theta", "-1"], "expected a finite number > 0"),
            ("net", ["--theta", "inf"], "expected a finite number > 0"),
        ],
        ids=[
            "region-l-zero", "region-l-text", "region-weights-unpaired", "region-weights-nan",
            "region-weights-inf", "region-weights-zero-pair", "region-weights-negative",
            "region-l-list",
            "region-budget-zero", "region-alphabet-zero", "region-alphabet-negative",
            "region-seed-negative", "simulate-budget-zero",
            "simulate-m1-zero", "simulate-m2-zero", "simulate-m2-text", "simulate-seed-negative",
            "verify-seed-negative", "verify-tol-nan", "verify-tol-inf",
            "net-theta-zero", "net-theta-negative", "net-theta-inf",
        ],
    )
    def test_bad_argument_exit_2(
        self, tmp_path, identity_set_file, command, extra, message, capsys
    ):
        argv = [*_argv(command, identity_set_file, tmp_path), *extra]
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse rejects the value itself
            status = exc.code
        assert status == 2
        err = capsys.readouterr().err
        flag = extra[0].partition("=")[0]  # --weights=-1:1: a bare -1:1 would read as a flag
        assert f"error: argument {flag}: " in err and message in err
        assert "Traceback" not in err

    def test_net_theta_nan_exits_2_promptly(self, tmp_path, pair_set_file):
        # in a subprocess, so a cover loop that never ends fails the test
        proc = _run_cli(
            ["net", "--input", str(pair_set_file), "--theta", "nan",
             "--out-json", str(tmp_path / "net.json")],
            timeout=60,
        )
        assert proc.returncode == 2
        assert "--theta" in proc.stderr and "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def simulate_runs(tmp_path_factory):
    """Per BLAS thread count, (JSON, CSV) of two fresh-process runs of one
    simulate config on the id/full-dephasing pair; each count runs once per
    module and the tests below share the outputs."""
    root = tmp_path_factory.mktemp("simulate")
    set_file = root / "pair.json"
    pair = CompoundSet(
        tuple(channel_tensor(identity_channel(2), ch)
              for ch in (identity_channel(2), dephasing_channel(full=True))),
        ("id", "dephB"),
    )
    set_file.write_text(dump_compound_json(pair))
    runs: dict[str, list[tuple[bytes, bytes]]] = {}

    def outputs(threads: str) -> list[tuple[bytes, bytes]]:
        if threads not in runs:
            runs[threads] = []
            for run in range(2):
                out_json = root / f"t{threads}-r{run}.json"
                out_csv = root / f"t{threads}-r{run}.csv"
                proc = _run_cli(
                    ["simulate", "--input", str(set_file), "--l", "1,2", "--budget", "2",
                     "--seed", "4", "--out-json", str(out_json), "--out-csv", str(out_csv)],
                    timeout=120,
                    blas_threads=threads,
                )
                assert proc.returncode == 0, proc.stderr
                runs[threads].append((out_json.read_bytes(), out_csv.read_bytes()))
        return runs[threads]

    return outputs


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_byte_identical_at_fixed_blas_threads(simulate_runs, threads):
    """The determinism contract: fresh processes, same config, seed and BLAS
    thread count, identical files. Across thread counts see the next test."""
    first, second = simulate_runs(threads)
    assert first == second


def test_verify_byte_identical_at_fixed_blas_threads():
    """The determinism contract for ``verify``: two fresh processes with the
    same seed and BLAS thread count print identical lines."""
    runs = [_run_cli(["verify", "--seed", "5"], timeout=120, blas_threads="1") for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stderr == runs[1].stderr and "15/15 suites passed" in runs[0].stderr


def _assert_floats_close(a, b, tol: float, where: str = "report") -> None:
    """Same structure and non-float values; floats equal to ``tol``."""
    if isinstance(a, float) and isinstance(b, float):
        assert abs(a - b) <= tol * max(1.0, abs(a)), f"{where}: {a!r} vs {b!r}"
    elif isinstance(a, dict) and isinstance(b, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_floats_close(a[key], b[key], tol, f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_floats_close(x, y, tol, f"{where}[{i}]")
    else:
        assert a == b, f"{where}: {a!r} vs {b!r}"


def test_simulate_agrees_across_blas_threads(simulate_runs):
    """Between 1 and 2 BLAS threads the reports differ only by rounding: every
    float agrees to 1e-12 and the same seed wins each block."""
    one, two = (json.loads(simulate_runs(threads)[0][0]) for threads in ("1", "2"))
    assert [b["best_seed_index"] for b in one["blocks"]] == [
        b["best_seed_index"] for b in two["blocks"]
    ]
    _assert_floats_close(one, two, 1e-12)


_SCIPY_PROBE = """
import json, sys
from cqmac.cli import main

set_file, out = sys.argv[1:]


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


codes = [
    main(["simulate", "--input", set_file, "--l", "1", "--budget", "1",
          "--out-json", out + "/sim.json"]),
    main(["verify", "--suite", "timeshare"]),
    main(["net", "--input", set_file, "--out-json", out + "/net.json"]),
]
before = scipy_modules()
codes.append(main(["region", "--input", set_file, "--budget", "1", "--weights", "1:1",
                   "--out-csv", out + "/region.csv"]))
print(json.dumps({"codes": codes, "before": before, "after": scipy_modules()}))
"""


def test_only_region_loads_scipy(tmp_path, pair_set_file):
    """In one fresh process, simulate, verify and net load no scipy module;
    region then loads scipy.optimize and still runs."""
    proc = _run_python(["-c", _SCIPY_PROBE, str(pair_set_file), str(tmp_path)], timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["codes"] == [0, 0, 0, 0]
    assert seen["before"] == []
    assert "scipy.optimize" in seen["after"]
    assert (tmp_path / "region.csv").read_text().startswith("r1,r2")
