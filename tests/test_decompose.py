import numpy as np
import pytest

from entcore.decompose import (
    check_all_orthogonal,
    concentrate,
    count_parameters,
    count_tree_parameters,
    extract_tripartites,
    hosvd,
    level_tripartite_parameters,
    reconstruct,
)
from entcore.equivalence import (
    LU,
    EquivalenceCertificate,
    LocalOperatorSet,
    derive_certificate,
    verify_certificate,
)
from entcore.states import (
    apply_local,
    ghz_state,
    haar_unitary,
    paper4_state,
    paper6_state,
    random_state,
)
from entcore.tensor_ops import PairingPlan, mode_multiply, rescale, tensor_norm, unfold


def sorted_four_qubit_params(rng):
    # real positive parameters with the first pair's singular value dominant
    while True:
        a = rng.uniform(0.1, 1.0, size=4)
        a /= np.linalg.norm(a)
        if np.hypot(a[0], a[1]) < np.hypot(a[2], a[3]):
            a = np.array([a[2], a[3], a[0], a[1]])
        if np.hypot(a[0], a[1]) - np.hypot(a[2], a[3]) > 0.05:
            return a


def test_four_qubit_family_rescales_to_reference_matrix():
    a = np.array([0.4, 0.5, 0.3, 0.2])
    a /= np.linalg.norm(a)
    t = rescale(paper4_state(a), PairingPlan.default(4))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1], expected[0, 2] = a[0], a[1]
    expected[1, 0], expected[2, 0] = a[2], a[3]
    assert np.allclose(t, expected, atol=1e-15)  # generator renormalizes params
    assert np.count_nonzero(t) == 4
    # for an order-2 tensor the mode-0 unfolding is the matrix itself
    assert np.array_equal(unfold(t, 0), t)


class TestHosvd:
    def test_bipartite_reduces_to_ordinary_svd(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        t /= np.linalg.norm(t)
        h = hosvd(t)
        s = np.linalg.svd(t, compute_uv=False)
        off = h.core - np.diag(np.diag(h.core))
        assert np.max(np.abs(off)) < 1e-12
        assert np.allclose(np.abs(np.diag(h.core)), s, atol=1e-12)

    def test_four_qubit_singular_values(self):
        a = np.array([0.4, 0.5, 0.3, 0.2])
        a /= np.linalg.norm(a)
        t = rescale(paper4_state(a), PairingPlan.default(4))
        h = hosvd(t)
        expected = sorted([np.hypot(a[0], a[1]), np.hypot(a[2], a[3])], reverse=True)
        for spectrum in h.mode_spectra:
            assert np.allclose(spectrum[:2], expected, atol=1e-12)
            assert np.all(spectrum[2:] < 1e-12)
        assert h.local_ranks == [2, 2]

    def test_six_qubit_superdiagonal_core(self):
        b = np.array([0.8, 0.45, 0.35, 0.2])
        b /= np.linalg.norm(b)
        t = rescale(paper6_state(b), PairingPlan.default(6))
        h = hosvd(t)
        assert h.local_ranks == [4, 4, 4]
        expected = np.zeros((4, 4, 4))
        for j in range(4):
            expected[j, j, j] = b[j]
        assert np.allclose(h.core, expected, atol=1e-12)

    def test_factors_are_unitary_and_reconstruction_holds(self):
        rng = np.random.default_rng(1)
        t = random_state((2, 3, 4), seed=11)
        h = hosvd(t)
        for u in h.factors:
            assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12)
        back = h.core
        for k, u in enumerate(h.factors):
            back = mode_multiply(back, u, k)
        assert np.linalg.norm(back - t) < 1e-12
        # truncated expansion reproduces the state as well
        back = h.truncated_core()
        for k, u in enumerate(h.factors):
            back = mode_multiply(back, u[:, : h.local_ranks[k]], k)
        assert np.linalg.norm(back - t) < 1e-12

    def test_gauge_fix_makes_hosvd_deterministic(self):
        t = random_state((3, 2, 2), seed=5)
        h1 = hosvd(t)
        h2 = hosvd(t.copy())
        for u1, u2 in zip(h1.factors, h2.factors):
            assert np.array_equal(u1, u2)

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            hosvd(np.ones(3))


class TestAllOrthogonality:
    def test_hosvd_core_passes_direct_inner_product_oracle(self):
        core = hosvd(random_state((2, 2, 2, 2), seed=2)).core
        report = check_all_orthogonal(core, tol=1e-10)
        assert report.passed
        # independent oracle: explicit pairwise subtensor inner products
        for k in range(core.ndim):
            rows = unfold(core, k)
            for alpha in range(rows.shape[0]):
                for beta in range(rows.shape[0]):
                    if alpha != beta:
                        assert abs(np.vdot(rows[alpha], rows[beta])) < 1e-10

    def test_six_qubit_core_norms_are_sorted_amplitudes(self):
        b = np.array([0.7, 0.5, 0.4, 0.3])
        b /= np.linalg.norm(b)
        core = hosvd(rescale(paper6_state(b), PairingPlan.default(6))).core
        report = check_all_orthogonal(core)
        assert report.passed
        for norms in report.mode_norms:
            assert np.allclose(norms, b, atol=1e-12)

    def test_generic_tensor_fails(self):
        report = check_all_orthogonal(random_state((3, 3, 3), seed=3), tol=1e-10)
        assert not report.passed
        assert report.violations


class TestExtracts:
    def test_four_qubit_extracts_match_reference_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = sorted_four_qubit_params(rng)
            tree = concentrate(paper4_state(a))
            (ex_u, ex_v) = tree.levels[0].extracts
            sa, sb = np.hypot(a[0], a[1]), np.hypot(a[2], a[3])
            exp_u = [
                np.array([[1.0, 0.0], [0.0, 0.0]]),
                np.array([[0.0, a[3]], [a[2], 0.0]]) / sb,
            ]
            exp_v = [
                np.array([[0.0, a[1]], [a[0], 0.0]]) / sa,
                np.array([[1.0, 0.0], [0.0, 0.0]]),
            ]
            for got, want in zip(ex_u.slices, exp_u):
                assert np.allclose(got, want, atol=1e-10)
            for got, want in zip(ex_v.slices, exp_v):
                assert np.allclose(got, want, atol=1e-10)

    def test_six_qubit_extracts_are_unit_matrices(self):
        b = np.array([0.8, 0.45, 0.35, 0.2])
        b /= np.linalg.norm(b)
        tree = concentrate(paper6_state(b))
        # column-major wrapping of the standard basis vectors
        units = [np.zeros((2, 2)) for _ in range(4)]
        units[0][0, 0] = units[1][1, 0] = units[2][0, 1] = units[3][1, 1] = 1.0
        for ext in tree.levels[0].extracts:
            assert len(ext.slices) == 4
            assert not ext.complement_slices
            for got, want in zip(ext.slices, units):
                assert np.allclose(got, want, atol=1e-12)

    def test_full_rank_extract_has_empty_complement(self):
        h = hosvd(rescale(random_state((2, 2, 2, 2), seed=6), PairingPlan.default(4)))
        extracts = extract_tripartites(h, ((2, 2), (2, 2)))
        for ext in extracts:
            assert ext.dims[0] == 4
            assert not ext.complement_slices
            assert np.allclose(
                ext.full_matrix.conj().T @ ext.full_matrix, np.eye(4), atol=1e-12
            )

    def test_slices_and_complement_assemble_to_unitary(self):
        a = sorted_four_qubit_params(np.random.default_rng(7))
        tree = concentrate(paper4_state(a))
        for ext in tree.levels[0].extracts:
            full = ext.full_matrix
            assert np.allclose(full.conj().T @ full, np.eye(4), atol=1e-10)

    def test_pair_dims_must_factor_composite(self):
        h = hosvd(rescale(random_state((2, 2, 2, 2), seed=8), PairingPlan.default(4)))
        with pytest.raises(ValueError):
            extract_tripartites(h, ((3, 2), (2, 2)))


class TestConcentrate:
    def test_twelve_qubit_hierarchy_shape(self):
        state = random_state((2,) * 12, seed=9)
        tree = concentrate(state, stop_order=2)
        assert [len(level.extracts) for level in tree.levels] == [6, 3, 2]
        assert tree.tripartite_extract_count == 10
        assert tree.terminal.ndim == 2
        tri_flags = [ext.is_tripartite for level in tree.levels for ext in level.extracts]
        assert tri_flags.count(False) == 1  # the singleton strip at the last level

    def test_four_qubit_ghz_hand_oracle(self):
        # rescaled GHZ is diag(1/sqrt2, 0, 0, 1/sqrt2): hand SVD gives slices
        # wrapping e0 and e3 and a diagonal 2x2 core
        tree = concentrate(ghz_state(4), stop_order=2)
        assert len(tree.levels) == 1
        assert tree.levels[0].ranks == (2, 2)
        e00 = np.zeros((2, 2))
        e00[0, 0] = 1.0
        e11 = np.zeros((2, 2))
        e11[1, 1] = 1.0
        for ext in tree.levels[0].extracts:
            assert np.allclose(ext.slices[0], e00, atol=1e-12)
            assert np.allclose(ext.slices[1], e11, atol=1e-12)
        assert np.allclose(tree.terminal, np.diag([1 / np.sqrt(2)] * 2), atol=1e-12)

    def test_tripartite_input_is_already_terminal(self):
        state = random_state((2, 2, 2), seed=10)
        tree = concentrate(state, stop_order=3)
        assert tree.levels == []
        assert np.array_equal(tree.terminal, state)

    def test_stop_order_validation(self):
        with pytest.raises(ValueError):
            concentrate(random_state((2, 2, 2), seed=11), stop_order=4)
        # certificates share the walker's validation: an LU orbit pair must not
        # yield a misleading mode-count error (1) or an empty certificate (5)
        psi = random_state((2, 2, 2, 2), seed=11)
        ops = LocalOperatorSet(tuple(haar_unitary(2, seed=40 + i) for i in range(4)), LU)
        psip = apply_local(psi, ops)
        for stop_order in (1, 5):
            with pytest.raises(ValueError, match="stop_order must be 2 or 3"):
                derive_certificate(psi, psip, ops, stop_order=stop_order)
        with pytest.raises(ValueError, match="stop_order must be 2 or 3"):
            verify_certificate(psi, psip, EquivalenceCertificate(LU, ops, [], stop_order=5))

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            concentrate(np.zeros((2, 2, 2)))

    def test_norm_conserved_at_every_level(self):
        state = random_state((2,) * 8, seed=13)
        tree = concentrate(state, stop_order=2)
        for level in tree.levels:
            assert level.core_norm == pytest.approx(1.0, abs=1e-12)


class TestReconstruct:
    @pytest.mark.parametrize("dims", [(2, 2, 2, 2, 2), (3, 2, 2, 3), (2, 3, 2, 2, 2, 2)])
    @pytest.mark.parametrize("stop_order", [2, 3])
    def test_roundtrip_random_states(self, dims, stop_order):
        state = random_state(dims, seed=sum(dims) + stop_order)
        tree = concentrate(state, stop_order=stop_order)
        assert np.linalg.norm(reconstruct(tree) - state) < 1e-10

    def test_six_qubit_roundtrip_exact(self):
        b = np.array([0.8, 0.45, 0.35, 0.2])
        state = paper6_state(b)
        tree = concentrate(state)
        assert np.linalg.norm(reconstruct(tree) - state) < 1e-12

    def test_terminal_only_tree_reconstructs_identically(self):
        state = random_state((2, 2, 2), seed=14)
        tree = concentrate(state)
        assert np.array_equal(reconstruct(tree), state)

    def test_malformed_tree_rejected(self):
        state = random_state((2, 2, 2, 2), seed=15)
        tree = concentrate(state)
        tree.levels[0].extracts[0].slices.pop()
        with pytest.raises(ValueError):
            reconstruct(tree)


class TestLocalRankInvariance:
    def test_local_unitaries_do_not_change_level_ranks(self):
        state = paper4_state([0.6, 0.4, 0.5, 0.2])
        ops = [haar_unitary(2, seed=20 + i) for i in range(4)]
        rotated = apply_local(state, ops)
        t1 = concentrate(state, stop_order=2)
        t2 = concentrate(rotated, stop_order=2)
        for l1, l2 in zip(t1.levels, t2.levels):
            assert l1.ranks == l2.ranks


class TestParameterCounts:
    def test_reference_values(self):
        # direct arithmetic: 2*(prod-1) - 2*sum(d^2-1)
        assert count_parameters((2, 2, 2, 2)) == 2 * 15 - 2 * 12 == 6
        assert count_parameters((2, 2, 2)) == 2 * 7 - 2 * 9 == -4
        assert count_parameters((1, 1, 1, 1)) == 0
        assert count_parameters((1,)) == 0

    def test_worst_case_identity_random_dims(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            dims = tuple(int(d) for d in rng.integers(1, 5, size=n))
            plan = PairingPlan.default(n)
            pair_dims = plan.pair_dims(dims)
            worst_ranks = [ia * ib for ia, ib in pair_dims]
            n3 = level_tripartite_parameters(pair_dims, worst_ranks)
            nm = count_parameters(worst_ranks)
            assert n3 + nm == count_parameters(dims)

    def test_tree_counts_for_six_qubit_example(self):
        b = np.array([0.8, 0.45, 0.35, 0.2])
        tree = concentrate(paper6_state(b))
        counts = count_tree_parameters(tree)
        assert len(counts.per_level) == 1
        n3, nm = counts.per_level[0]
        # ranks (4,4,4), pair dims (2,2): per mode 2*(4*4-1) - 2*(4+4-2) = 18
        assert n3 == 3 * 18
        assert nm == count_parameters((4, 4, 4))
        assert counts.total == n3 + nm

    def test_terminal_only_tree_has_empty_level_list(self):
        tree = concentrate(random_state((2, 2, 2), seed=17))
        counts = count_tree_parameters(tree)
        assert counts.per_level == []
        assert counts.total == count_parameters((2, 2, 2))
