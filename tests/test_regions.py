import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqmac.channels import CompoundSet, CqChannel, KrausChannel, blocked_tensor_power
from cqmac.entropic import (
    RateKernel,
    checked_probs,
    coherent_information_b_cx,
    effective_cqq_state,
    mutual_information_x_c,
)
from cqmac.qmatrix import DimensionMismatchError, PureState, maximally_entangled, tensor
from cqmac.regions import (
    Rect,
    compound_rect,
    compound_rect_powered,
    compound_rects,
    contains,
    corners_csv,
    fatten,
    kraus_groups,
    per_use_minima,
    staircase_svg,
    timeshare_closure,
    union,
)
from cqmac.suites import suite_compound_monotonicity, suite_timeshare
from oracles import cq_tensor, cqq_tensor, intersect, permute_vec, random_kraus_ops


class TestOneShot:
    def test_identity(self, identity_qmac, basis_v, bell_psi, uniform_p):
        rect = compound_rect_powered([identity_qmac], 1, uniform_p, basis_v, bell_psi)
        assert rect.r1_max == pytest.approx(1.0, abs=1e-9)
        assert rect.r2_max == pytest.approx(1.0, abs=1e-9)

    def test_depolarizing(self, depolarizing_qmac, basis_v, bell_psi, uniform_p):
        rect = compound_rect_powered([depolarizing_qmac], 1, uniform_p, basis_v, bell_psi)
        assert rect.r1_max == pytest.approx(0.0, abs=1e-8)
        assert rect.r2_max == pytest.approx(0.0, abs=1e-8)

    def test_erasure(self, erasure_qmac, basis_v, bell_psi, uniform_p):
        rect = compound_rect_powered([erasure_qmac], 1, uniform_p, basis_v, bell_psi)
        assert rect.r1_max == pytest.approx(1.0, abs=1e-7)
        assert rect.r2_max == pytest.approx(0.0, abs=1e-7)


class TestCompoundRect:
    def test_singleton_matches_one_shot(self, identity_qmac, basis_v, bell_psi, uniform_p):
        rect = compound_rect(CompoundSet((identity_qmac,)), 1, uniform_p, basis_v, bell_psi)
        single = compound_rect_powered([identity_qmac], 1, uniform_p, basis_v, bell_psi)
        assert rect == single

    def test_duplicates(self, identity_qmac, basis_v, bell_psi, uniform_p):
        rect = compound_rect(
            CompoundSet((identity_qmac, identity_qmac)), 1, uniform_p, basis_v, bell_psi
        )
        assert rect.r1_max == pytest.approx(1.0, abs=1e-9)
        assert rect.r2_max == pytest.approx(1.0, abs=1e-9)

    def test_dephasing_pair(self, id_deph_set, basis_v, bell_psi, uniform_p):
        rect = compound_rect(id_deph_set, 1, uniform_p, basis_v, bell_psi)
        assert rect.r1_max == pytest.approx(1.0, abs=1e-7)
        assert rect.r2_max == pytest.approx(0.0, abs=1e-7)

    def test_monotone_suite(self):
        assert suite_compound_monotonicity(seed=17, samples=30).violations == 0

    def test_additivity_at_doubled_blocking(self, id_deph_set, basis_v, bell_psi, uniform_p):
        rect1 = compound_rect(id_deph_set, 1, uniform_p, basis_v, bell_psi)
        p2 = np.outer(uniform_p, uniform_p).reshape(-1)
        v2 = cq_tensor(basis_v, basis_v)
        psi_prod = tensor(bell_psi.vec.reshape(-1, 1), bell_psi.vec.reshape(-1, 1)).reshape(-1)
        psi2 = PureState(permute_vec(psi_prod, (2, 2, 2, 2), [0, 2, 1, 3]), (4, 4))
        rect2 = compound_rect(id_deph_set, 2, p2, v2, psi2)
        assert rect2.r1_max == pytest.approx(rect1.r1_max, abs=1e-7)
        assert rect2.r2_max == pytest.approx(rect1.r2_max, abs=1e-7)

    @pytest.mark.parametrize("a, b", [(1, 1), (1, 2)])
    def test_blocked_power_wire_order(self, rng, a, b):
        """The product of a level-a and a level-b input, fed to the level-(a+b)
        blocked power on sender-blocked wires (p_a (x) p_b, letters V_x (x) V_y
        on A^(a+b), psi grid kron(psi_a, psi_b) on B^(a+b)), rates at exactly
        (a r_a + b r_b) / (a + b) per use on a random one-member QMAC."""
        qmac = KrausChannel(random_kraus_ops(rng, 4, 3, 2), (2, 2), (3,))

        def unit(shape):
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return z / np.linalg.norm(z, axis=-1, keepdims=True)

        def level_input(l):
            return rng.dirichlet(np.ones(2**l)), unit((2**l, 2**l)), unit((1, 4**l)).reshape(2**l, -1)

        def per_use_rates(l, p, letters, psi):
            groups = kraus_groups([blocked_tensor_power(qmac, l)])
            return np.array(per_use_minima(RateKernel.inputs(groups, letters.shape, psi.shape),
                                           l, p, letters, psi))

        ins_a, ins_b = level_input(a), level_input(b)
        expected = (a * per_use_rates(a, *ins_a) + b * per_use_rates(b, *ins_b)) / (a + b)
        product = [np.kron(x, y) for x, y in zip(ins_a, ins_b)]
        np.testing.assert_allclose(per_use_rates(a + b, *product), expected, rtol=0, atol=1e-12)


class TestTrustBoundary:
    """``compound_rect`` refuses what ``effective_cqq_state`` refuses."""

    def _qmac(self, rng, in_dims):
        from cqmac.channels import KrausChannel

        return KrausChannel(random_kraus_ops(rng, int(np.prod(in_dims)), 4, 2), in_dims, (4,))

    @pytest.mark.parametrize("p, error", [([0.5, 0.6], ValueError), ([1.5, -0.5], ValueError),
                                          ([np.nan, 0.5], ValueError),
                                          ([0.5, 0.25, 0.25], DimensionMismatchError)],
                             ids=["sum", "negative", "nan", "alphabet"])
    def test_bad_distribution(self, id_deph_set, basis_v, bell_psi, p, error):
        with pytest.raises(error):
            effective_cqq_state(id_deph_set.members[0], np.array(p), basis_v, bell_psi)
        with pytest.raises(error):
            compound_rect(id_deph_set, 1, np.array(p), basis_v, bell_psi)

    def test_psi_needs_two_parts(self, id_deph_set, basis_v, uniform_p):
        psi = PureState(np.eye(4)[0], (1, 2, 2))
        with pytest.raises(DimensionMismatchError):
            compound_rect(id_deph_set, 1, uniform_p, basis_v, psi)

    def test_member_input_mismatch(self, rng, id_deph_set, basis_v, uniform_p):
        psi = PureState(np.eye(6)[0], (2, 3))  # V(x) (x) psi input is 2 x 3, members take 4
        with pytest.raises(DimensionMismatchError):
            compound_rect(id_deph_set, 1, uniform_p, basis_v, psi)
        odd = CompoundSet((self._qmac(rng, (2, 3)), self._qmac(rng, (2, 3))))
        with pytest.raises(DimensionMismatchError):
            compound_rect(odd, 1, uniform_p, basis_v, maximally_entangled(2))
        members = [id_deph_set.members[0], self._qmac(rng, (2, 3))]
        with pytest.raises(DimensionMismatchError):
            compound_rect_powered(members, 1, uniform_p, basis_v, maximally_entangled(2))

    @pytest.mark.parametrize("l", [1, 2])
    def test_split_feeds_each_sender_its_part(self, id_deph_set, l):
        """V must fill A^l and psi's input B^l: a 4^l-dimensional V with a trivial
        psi fills the (A, B) input's product but feeds V into B."""
        v, psi, p = CqChannel.basis(4**l), PureState([1.0], (1, 1)), np.full(4**l, 4.0**-l)
        with pytest.raises(DimensionMismatchError):
            compound_rect(id_deph_set, l, p, v, psi)
        powered = [blocked_tensor_power(m, l) for m in id_deph_set.members]
        with pytest.raises(DimensionMismatchError):
            compound_rect_powered(powered, l, p, v, psi)
        with pytest.raises(DimensionMismatchError):
            effective_cqq_state(powered[1], p, v, psi)

    @staticmethod
    def _stack(rng, n=3):
        """Raw numbers of n two-member compound sets with their (p, V, psi)."""
        kraus = np.array([[random_kraus_ops(rng, 4, 4, 2) for _ in range(2)] for _ in range(n)])
        letters = np.array([CqChannel.from_vectors(rng.standard_normal((2, 2))).vectors
                            for _ in range(n)])
        psi = np.array([maximally_entangled(2).vec.reshape(2, 2)] * n)
        return kraus, rng.dirichlet(np.ones(2), size=n), letters, psi

    def test_stacked_rects_match_compound_rect(self, rng):
        from cqmac.channels import KrausChannel

        kraus, p, letters, psi = self._stack(rng)
        rects = compound_rects(kraus, p, letters, psi)
        assert len(rects) == 3
        for ops, pi, vecs, grid, rect in zip(kraus, p, letters, psi, rects):
            cset = CompoundSet(tuple(KrausChannel(k, (2, 2), (4,)) for k in ops))
            assert rect == compound_rect(cset, 1, pi, CqChannel(vecs), PureState(grid, (2, 2)))

    @pytest.mark.parametrize("poison", ["scaled", "nan"])
    def test_stacked_member_checked_as_kraus_channel(self, rng, poison):
        from cqmac.channels import CptpError, KrausChannel

        kraus, p, letters, psi = self._stack(rng)
        bad = kraus.copy()
        if poison == "scaled":
            bad[1, 1] *= 1.01
        else:
            bad[1, 1, 0, 2, 3] = np.nan
        with pytest.raises(CptpError) as one:
            KrausChannel(bad[1, 1], (2, 2), (4,))
        with pytest.raises(CptpError) as stacked:
            compound_rects(bad, p, letters, psi)
        assert str(stacked.value) == str(one.value)

    @pytest.mark.parametrize("field", ["p", "letters", "psi"])
    def test_stacked_ensemble_checked_as_constructors(self, rng, field):
        kraus, p, letters, psi = self._stack(rng)
        args = {"p": p, "letters": letters, "psi": psi}
        bad = args[field] = args[field].copy()
        if field == "p":
            bad[2] = [0.5, 0.6]
        elif field == "letters":
            bad[2, 1] *= 1.01
        else:
            bad[2, 0, 0] = np.nan
        with pytest.raises(ValueError):
            {"p": lambda: checked_probs(bad[2], 2), "letters": lambda: CqChannel(bad[2]),
             "psi": lambda: PureState(bad[2], (2, 2))}[field]()
        with pytest.raises(ValueError, match="sum to" if field == "p" else "unit vectors"):
            compound_rects(kraus, **args)

    def test_stacked_input_dimension_checked(self, rng):
        kraus, p, letters, psi = self._stack(rng)
        with pytest.raises(DimensionMismatchError):
            compound_rects(kraus, p, letters[:, :, :1], psi)
        with pytest.raises(DimensionMismatchError):  # one p for three sets
            compound_rects(kraus, p[:1], letters, psi)

    @pytest.mark.parametrize("letters", [np.ones(2), np.array(1.0)])
    def test_stacked_letters_without_alphabet_axis(self, rng, letters):
        """1-D and 0-D letters are refused by shape, not by an indexing error."""
        kraus, p, _, psi = self._stack(rng)
        with pytest.raises(DimensionMismatchError):
            compound_rects(kraus, p, letters, psi)

    def test_one_member_is_one_shot(self, rng, basis_v, bell_psi):
        t = self._qmac(rng, (2, 2))
        p = np.array([0.25, 0.75])
        rect = compound_rect_powered([t], 1, p, basis_v, bell_psi)
        omega = effective_cqq_state(t, p, basis_v, bell_psi)
        assert rect == compound_rect(CompoundSet((t,)), 1, p, basis_v, bell_psi)
        assert rect.r1_max == pytest.approx(mutual_information_x_c(omega), abs=1e-12)
        assert rect.r2_max == pytest.approx(max(0.0, coherent_information_b_cx(omega)), abs=1e-12)


class TestRegionOps:
    def test_fatten_membership(self):
        out = fatten(Rect(1.0, 1.0), 0.1)
        assert contains(out, (1.1, 1.1), tol=1e-12)

    def test_union_not_convex(self):
        region = union(Rect(1.0, 0.0), Rect(0.0, 1.0))
        assert not contains(region, (0.6, 0.6))
        assert contains(region, (1.0, 0.0))
        assert contains(region, (0.0, 1.0))

    def test_intersect(self):
        region = intersect(Rect(1.0, 0.5), Rect(0.5, 1.0))
        assert region.rects == (Rect(0.5, 0.5),)

    def test_negative_clamps(self):
        assert Rect(-0.3, 0.5).r1_max == 0.0

    @given(
        st.floats(0, 2),
        st.floats(0, 2),
        st.floats(0, 2),
        st.floats(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_contains_downward_closed(self, r1, r2, x, y):
        region = union(Rect(r1, r2))
        if contains(region, (x, y), tol=0.0):
            assert contains(region, (x / 2, y / 2), tol=0.0)
            assert contains(region, (0.0, 0.0), tol=0.0)

    def test_canonical_form_drops_dominated(self):
        region = union(Rect(1.0, 1.0), Rect(0.5, 0.5), Rect(1.0, 0.2))
        assert region.rects == (Rect(1.0, 1.0),)


class TestTimeshare:
    def test_convex_unchanged(self):
        region = union(Rect(1.0, 1.0))
        assert timeshare_closure(region, 4).corners() == region.corners()

    def test_corner_midpoint(self):
        region = union(Rect(1.0, 0.0), Rect(0.0, 1.0))
        closed = timeshare_closure(region, 2)
        assert contains(closed, (0.5, 0.5), tol=1e-12)

    def test_idempotent(self):
        region = union(Rect(1.0, 0.2), Rect(0.7, 0.9), Rect(0.1, 1.4))
        once = timeshare_closure(region, 3)
        twice = timeshare_closure(once, 3)
        assert once.corners() == twice.corners()

    def test_output_contains_input(self):
        region = union(Rect(1.0, 0.0), Rect(0.4, 0.3), Rect(0.0, 1.0))
        closed = timeshare_closure(region, 2)
        for corner in region.corners():
            assert contains(closed, corner, tol=1e-12)

    def test_suite(self):
        assert suite_timeshare(seed=23, samples=10).violations == 0

    def test_blocked_product_reproduces_mixture(
        self, id_deph_set, identity_qmac, basis_v, bell_psi, uniform_p
    ):
        """Half/half time sharing of two ansatz points sits inside the
        doubled-blocking region built from the product ansatz."""
        omegas_a = [
            effective_cqq_state(m, uniform_p, basis_v, bell_psi)
            for m in id_deph_set.members
        ]
        # second ansatz: classical-only weighting (product psi)
        e0 = np.zeros(4)
        e0[0] = 1.0
        psi_b = PureState(e0, (2, 2))
        omegas_b = [
            effective_cqq_state(m, uniform_p, basis_v, psi_b)
            for m in id_deph_set.members
        ]
        point_a = (
            min(mutual_information_x_c(w) for w in omegas_a),
            min(coherent_information_b_cx(w) for w in omegas_a),
        )
        point_b = (
            min(mutual_information_x_c(w) for w in omegas_b),
            min(coherent_information_b_cx(w) for w in omegas_b),
        )
        mix = (0.5 * (point_a[0] + point_b[0]), 0.5 * (point_a[1] + point_b[1]))
        blocked = [
            (
                mutual_information_x_c(prod := cqq_tensor(wa, wb)) / 2.0,
                coherent_information_b_cx(prod) / 2.0,
            )
            for wa, wb in zip(omegas_a, omegas_b)
        ]
        rect = Rect(min(b[0] for b in blocked), min(b[1] for b in blocked))
        assert contains(fatten(rect, 0.05), mix, tol=1e-9)


class TestEmission:
    def test_csv_sorted(self):
        text = corners_csv([(1.0, 0.0, "a"), (0.25, 0.75, "b")])
        lines = text.strip().splitlines()
        assert lines[0] == "r1,r2,tag"
        assert lines[1].startswith("0.25")

    @pytest.mark.parametrize("order", [0, 1])
    def test_csv_sorts_on_printed_values(self, order):
        """Two r1 that differ only after the 12th digit print alike, so the tag
        orders their rows, whichever row holds which value."""
        r1 = [1.0000000000000007, 1.0000000000000009][:: 1 - 2 * order]
        rows = [(r1[0], 0.5, "w1:0"), (r1[1], 0.5, "w1:1")]
        for given in (rows, rows[::-1]):
            assert corners_csv(given).splitlines()[1:] == ["1,0.5,w1:0", "1,0.5,w1:1"]

    def test_csv_prints_roundoff_as_zero(self):
        """A rate below the 1e-12 floor prints as 0 and sorts as 0; one just
        above it prints as itself."""
        rows = [(3e-16, 0.0, "w1:0"), (0.0, 0.5, "w0:1"), (2e-12, 3e-16, "w1:1")]
        assert corners_csv(rows).splitlines()[1:] == ["0,0,w1:0", "0,0.5,w0:1", "2e-12,0,w1:1"]

    def test_svg_valid_xml(self):
        svg = staircase_svg(union(Rect(1.0, 0.4), Rect(0.3, 1.2)))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "600" in svg
