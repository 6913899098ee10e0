"""Acceptance criteria, one test per criterion, with stated tolerances.

Each test prints a PASS line with its runtime when it succeeds; pytest -s
shows the full scoreboard.
"""

import time

import numpy as np
import pytest

from cqmac import codesim
from cqmac.channels import (
    CompoundSet,
    CqChannel,
    channel_tensor,
    dephasing_channel,
    dump_compound_json,
    erasure_channel,
    identity_channel,
)
from cqmac.cli import main
from cqmac.entropic import (
    coherent_information_b_cx,
    effective_cqq_state,
    mutual_information_x_c,
)
from cqmac.qmatrix import (
    PureState,
    maximally_entangled,
    maximally_mixed,
    tensor,
)
from cqmac.regions import Rect, compound_rect, compound_rect_powered, contains, fatten
from cqmac.suites import (
    suite_alicki_fannes,
    suite_compound_monotonicity,
    suite_gentle_measurement,
    suite_product_fidelity_bound,
    suite_pure_fidelity_perturbation,
)
from oracles import cq_tensor, cqq_tensor, permute_vec, random_et_code


def _announce(num: int, label: str, started: float):
    print(f"PASS criterion {num}: {label} ({time.perf_counter() - started:.2f}s)")


def _identity_qmac():
    return channel_tensor(identity_channel(2), identity_channel(2))


def _deph_qmac(full=True, flip=0.1):
    return channel_tensor(identity_channel(2), dephasing_channel(flip, full=full))


def test_criterion_1_identity_region(tmp_path):
    started = time.perf_counter()
    qmac = _identity_qmac()
    set_file = tmp_path / "identity.json"
    set_file.write_text(dump_compound_json(CompoundSet((qmac,), ("id",))))
    out_csv = tmp_path / "region.csv"
    code = main([
        "region", "--input", str(set_file), "--l", "1", "--budget", "50",
        "--seed", "7", "--weights", "1:1", "--out-csv", str(out_csv),
    ])
    assert code == 0
    rows = out_csv.read_text().strip().splitlines()[1:]
    corners = [(float(r.split(",")[0]), float(r.split(",")[1])) for r in rows]
    assert any(r1 >= 0.98 and r2 >= 0.98 for r1, r2 in corners)

    rect = compound_rect_powered(
        [qmac], 1, np.array([0.5, 0.5]), CqChannel.basis(2), maximally_entangled(2)
    )
    assert rect.r1_max == pytest.approx(1.0, abs=1e-7)
    assert rect.r2_max == pytest.approx(1.0, abs=1e-7)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _announce(1, "identity QMAC region corner dominates (0.98, 0.98)", started)


def test_criterion_2_dephasing_compound():
    started = time.perf_counter()
    cset = CompoundSet((_identity_qmac(), _deph_qmac(full=True)), ("id", "dephB"))
    rect = compound_rect(
        cset, 1, np.array([0.5, 0.5]), CqChannel.basis(2), maximally_entangled(2)
    )
    assert rect.r1_max == pytest.approx(1.0, abs=1e-7)
    assert rect.r2_max == pytest.approx(0.0, abs=1e-7)
    result = suite_compound_monotonicity(seed=1001, samples=100)
    assert result.violations == 0
    _announce(2, "compound {id, dephase-B} rectangle is (1, 0); monotone on 100 sets", started)


def test_criterion_3_erasure_coherent_information():
    started = time.perf_counter()
    qmac = channel_tensor(identity_channel(2), erasure_channel(2, 0.5))
    omega = effective_cqq_state(
        qmac, np.array([0.5, 0.5]), CqChannel.basis(2), maximally_entangled(2)
    )
    assert coherent_information_b_cx(omega) == pytest.approx(0.0, abs=1e-7)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _announce(3, "50% erasure on B has zero coherent rate at Bell input", started)


def test_criterion_4_inequality_suites():
    started = time.perf_counter()
    for suite, seed in (
        (suite_gentle_measurement, 41),
        (suite_pure_fidelity_perturbation, 42),
        (suite_product_fidelity_bound, 43),
        (suite_alicki_fannes, 44),
    ):
        result = suite(seed=seed, samples=500)
        assert result.violations == 0, result
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _announce(4, "gentle/fidelity/continuity suites: 4 x 500 instances, 0 violations", started)


def test_criterion_5_time_sharing():
    started = time.perf_counter()
    cset = CompoundSet((_identity_qmac(), _deph_qmac(full=False, flip=0.1)), ("id", "deph"))
    p = np.array([0.5, 0.5])
    v = CqChannel.basis(2)
    bell = maximally_entangled(2)
    point_mass = np.array([1.0, 0.0])

    rect_a = compound_rect(cset, 1, p, v, bell)
    rect_b = compound_rect(cset, 1, point_mass, v, bell)
    mix = (
        0.5 * (rect_a.r1_max + rect_b.r1_max),
        0.5 * (rect_a.r2_max + rect_b.r2_max),
    )
    assert abs(rect_a.r1_max - rect_b.r1_max) > 0.5  # genuinely distinct corners

    # route 1: explicit tensor-product state assembly per member
    blocked_rect_states = Rect(
        min(
            mutual_information_x_c(
                cqq_tensor(
                    effective_cqq_state(m, p, v, bell),
                    effective_cqq_state(m, point_mass, v, bell),
                )
            )
            for m in cset.members
        )
        / 2.0,
        min(
            coherent_information_b_cx(
                cqq_tensor(
                    effective_cqq_state(m, p, v, bell),
                    effective_cqq_state(m, point_mass, v, bell),
                )
            )
            for m in cset.members
        )
        / 2.0,
    )
    assert contains(fatten(blocked_rect_states, 0.05), mix, tol=1e-9)

    # route 2: the blocked compound rectangle from the product ansatz
    p2 = np.outer(p, point_mass).reshape(-1)
    v2 = cq_tensor(v, v)
    psi_prod = tensor(bell.vec.reshape(-1, 1), bell.vec.reshape(-1, 1)).reshape(-1)
    psi2 = PureState(permute_vec(psi_prod, (2, 2, 2, 2), [0, 2, 1, 3]), (4, 4))
    blocked_rect = compound_rect(cset, 2, p2, v2, psi2)
    assert contains(fatten(blocked_rect, 0.05), mix, tol=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _announce(5, "half/half time-sharing point inside the doubled-blocking region", started)


def test_criterion_6_code_identities():
    started = time.perf_counter()
    qmac = _identity_qmac()
    rng = np.random.default_rng(606)
    for i in range(200):
        code = random_et_code(rng)
        assert codesim._completeness_defect(code.branches) <= 1e-7
        p_et = codesim.performance(code, qmac)
        eg = codesim.et_to_eg(code, qmac)
        assert codesim._completeness_defect(eg.branches) <= 1e-7
        assert codesim.performance(eg, qmac) >= p_et - 1e-12
        if i < 50:
            padded = codesim.pad(code, 1)
            assert codesim._completeness_defect(padded.branches) <= 1e-7
            assert codesim.performance(padded, qmac) == pytest.approx(p_et, abs=1e-10)
            other = random_et_code(rng)
            joint = codesim.concatenate([code, other])
            assert codesim._completeness_defect(joint.branches) <= 1e-7
            expect = p_et * codesim.performance(other, qmac)
            assert codesim.performance(joint, qmac) == pytest.approx(expect, abs=1e-10)
    _announce(6, "conversion/pad/concatenation identities on 200 random codes", started)


def test_criterion_7_simulator_sanity():
    started = time.perf_counter()
    qmac = _identity_qmac()
    v = CqChannel.basis(2)
    p = np.array([0.5, 0.5])

    # exact hybrid on the identity channel
    outs = codesim.effective_a_outputs(qmac, v, maximally_mixed(2))
    cb = codesim.pgm_codebook([outs], [(0,), (1,)])
    tb = codesim.effective_b_channel(qmac, p, v)
    et = codesim.sample_et_code([tb], 2, 1, 2, seed=77)
    code = codesim.combine_hybrid(cb, et, v, qmac)
    assert abs(codesim.performance(code, qmac) - 1.0) <= 1e-12

    # dephasing compound pair, 100 seeds, chain audited per instance
    cset = CompoundSet((qmac, _deph_qmac(full=False, flip=0.1)), ("id", "deph"))
    a_fams = [codesim.effective_a_outputs(m, v, maximally_mixed(2)) for m in cset.members]
    b_chans = [codesim.effective_b_channel(m, p, v) for m in cset.members]
    best = 0.0
    chain_violations = 0
    for idx in range(100):
        ss = np.random.SeedSequence([707, 3, idx])
        s1, s2 = (int(s) for s in ss.generate_state(2))
        book = codesim.sample_cq_codebook(a_fams, p, 3, 2, seed=s1)
        enc = codesim.sample_et_code(b_chans, 2, 3, 2, seed=s2)
        hybrid = codesim.combine_hybrid(book, enc, v, cset.members[0])
        worst = min(codesim.performance(hybrid, m) for m in cset.members)
        best = max(best, worst)
        for member in cset.members:
            rep = codesim.hybrid_chain_report(book, enc, v, member, p, code=hybrid)
            chain_violations += rep["violations"]
    assert best >= 0.8
    assert chain_violations == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _announce(7, f"hybrid simulator: exact identity, best worst-case {best:.3f} >= 0.8", started)


def test_criterion_8_determinism(tmp_path):
    started = time.perf_counter()
    qmac = _identity_qmac()
    set_file = tmp_path / "identity.json"
    set_file.write_text(dump_compound_json(CompoundSet((qmac,), ("id",))))

    region_args = lambda tag: [
        "region", "--input", str(set_file), "--l", "1", "--budget", "4",
        "--seed", "13", "--weights", "1:1,1:0",
        "--out-csv", str(tmp_path / f"r{tag}.csv"),
        "--out-svg", str(tmp_path / f"r{tag}.svg"),
    ]
    assert main(region_args("a")) == 0
    assert main(region_args("b")) == 0
    assert (tmp_path / "ra.csv").read_bytes() == (tmp_path / "rb.csv").read_bytes()
    assert (tmp_path / "ra.svg").read_bytes() == (tmp_path / "rb.svg").read_bytes()

    sim_args = lambda tag: [
        "simulate", "--input", str(set_file), "--l", "1", "--budget", "3",
        "--seed", "29", "--m1", "2", "--m2", "2",
        "--out-json", str(tmp_path / f"s{tag}.json"),
        "--out-csv", str(tmp_path / f"s{tag}.csv"),
    ]
    assert main(sim_args("a")) == 0
    assert main(sim_args("b")) == 0
    assert (tmp_path / "sa.json").read_bytes() == (tmp_path / "sb.json").read_bytes()
    assert (tmp_path / "sa.csv").read_bytes() == (tmp_path / "sb.csv").read_bytes()
    _announce(8, "same seed reproduces byte-identical CSV/SVG/JSON outputs", started)
