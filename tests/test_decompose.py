import numpy as np
import pytest

from entcore import decompose
from entcore.decompose import (
    GAUGE_EPS,
    TripartiteExtract,
    complete_basis,
    concentrate,
    count_parameters,
    count_tree_parameters,
    extract_tripartites,
    cutoff_rank,
    hosvd,
    left_svd,
    level_tripartite_parameters,
    reconstruct,
)
from entcore.equivalence import (
    INCONCLUSIVE,
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
    product_state,
    random_state,
    w_state,
)
from entcore.tensor_ops import (
    mode_multiply,
    pair_dims,
    rescale,
    tensor_norm,
    unfold,
    vectorize,
    wrap,
)


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
    t = rescale(paper4_state(a))
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
        t = rescale(paper4_state(a))
        h = hosvd(t)
        expected = sorted([np.hypot(a[0], a[1]), np.hypot(a[2], a[3])], reverse=True)
        for spectrum in h.mode_spectra:
            assert np.allclose(spectrum[:2], expected, atol=1e-12)
            assert np.all(spectrum[2:] < 1e-12)
        assert h.local_ranks == [2, 2]

    def test_six_qubit_superdiagonal_core(self):
        b = np.array([0.8, 0.45, 0.35, 0.2])
        b /= np.linalg.norm(b)
        t = rescale(paper6_state(b))
        h = hosvd(t)
        assert h.local_ranks == [4, 4, 4]
        expected = np.zeros((4, 4, 4))
        for j in range(4):
            expected[j, j, j] = b[j]
        assert np.allclose(h.core, expected, atol=1e-12)

    def test_factors_are_unitary_and_reconstruction_holds(self):
        # full-rank, then rank-deficient levels (GHZ, W, product): every factor
        # is cut to its local rank and the core's shape is the local ranks
        inputs = [
            random_state((2, 3, 4), seed=11),
            rescale(ghz_state(6)),
            rescale(w_state(6)),
            rescale(product_state((2,) * 6, seed=1)),
        ]
        for t in inputs:
            h = hosvd(t)
            for k, u in enumerate(h.factors):
                assert u.shape == (t.shape[k], h.local_ranks[k])
                assert np.allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-12)
            assert h.core.shape == tuple(h.local_ranks)
            back = h.core
            for k, u in enumerate(h.factors):
                back = mode_multiply(back, u, k)
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

    def test_tall_unfolding_gets_a_thin_factor(self):
        # mode 2 unfolds to 12 x 6: twelve rows, but only six singular vectors
        t = random_state((2, 3, 12), seed=12)
        h = hosvd(t)
        assert [u.shape for u in h.factors] == [(2, 2), (3, 3), (12, 6)]
        assert h.core.shape == (2, 3, 6)
        for k, u in enumerate(h.factors):
            assert np.allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-12)
            s = np.linalg.svd(unfold(t, k), compute_uv=False)
            assert np.allclose(h.mode_spectra[k], s, rtol=0, atol=1e-14)
        back = h.core
        for k, u in enumerate(h.factors):
            back = mode_multiply(back, u, k)
        assert np.linalg.norm(back - t) < 1e-12

    def test_gauge_fix_pivots_on_first_entry_above_eps(self):
        u = np.zeros((4, 4), dtype=complex)  # column 0 is zero: left alone
        u[:, 1] = [0.5 * GAUGE_EPS, -0.5 * GAUGE_EPS, 1j, 1.0]  # pivot is row 2
        u[:, 2] = [-0.6, 0.8j, 0.0, 0.0]  # pivot is row 0
        u[0, 3] = 0.5 * GAUGE_EPS * 1j  # all below GAUGE_EPS: left alone
        fixed = decompose._gauge_fix_columns(u)
        assert np.array_equal(fixed[:, [0, 3]], u[:, [0, 3]])
        assert np.allclose(fixed[:, 1], -1j * u[:, 1], rtol=0, atol=1e-15)
        assert np.allclose(fixed[:, 2], -u[:, 2], rtol=0, atol=1e-15)
        assert fixed[2, 1] == 1.0 and fixed[0, 2] == 0.6
        assert u[2, 1] == 1j  # the input is not modified

    def test_gauge_fix_matches_per_column_loop(self):
        # the per-column rule as a loop; array and scalar complex division may
        # round differently, by one ulp
        u = np.linalg.svd(random_state((6, 6), seed=15))[0]
        u[:2, 1] = 0.0
        u[:, 3] = 0.5 * GAUGE_EPS
        want = u.copy()
        for j in range(u.shape[1]):
            nz = np.flatnonzero(np.abs(u[:, j]) > GAUGE_EPS)
            if nz.size:
                want[:, j] = u[:, j] * (abs(u[nz[0], j]) / u[nz[0], j])
        assert np.allclose(decompose._gauge_fix_columns(u), want, rtol=0, atol=4e-16)


LEFT_SVD_CASES = {
    "2x8": lambda: random_state((2, 8), seed=20),
    "4x128": lambda: random_state((4, 128), seed=21),
    "9x729": lambda: random_state((9, 729), seed=22),
    "4x4096": lambda: random_state((4, 4096), seed=23),
    "256x64": lambda: random_state((256, 64), seed=24),
    "81x81": lambda: random_state((81, 81), seed=25),
    "ghz-4x1024": lambda: unfold(rescale(ghz_state(12)), 0),
    "ghz-64x8": lambda: ghz_state(9).reshape(64, 8),
    "w-16x256": lambda: unfold(rescale(rescale(w_state(12))), 0),
    "w-1024x4": lambda: unfold(rescale(w_state(12)), 0).T,
}


class TestLeftSvd:
    @pytest.mark.parametrize("name", LEFT_SVD_CASES)
    def test_matches_full_svd(self, name, monkeypatch):
        m = LEFT_SVD_CASES[name]()
        qr_calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: qr_calls.append(a) or qr(*a, **kw))
        u, s = left_svd(m)
        monkeypatch.undo()
        j, w = m.shape
        # the R-factor route is taken exactly for wide matrices at or above the floor
        assert len(qr_calls) == int(w > j and m.size >= decompose._QR_MIN_ENTRIES)
        want = np.linalg.svd(m, compute_uv=False)
        assert s.shape == want.shape and u.shape == (j, min(j, w))
        assert np.allclose(s, want, rtol=0, atol=1e-14 * want[0])
        assert np.allclose(u.conj().T @ u, np.eye(u.shape[1]), rtol=0, atol=1e-12)
        assert np.linalg.norm(u @ (u.conj().T @ m) - m) < 1e-12
        assert cutoff_rank(s) == cutoff_rank(want)

    def test_floor_cases_sit_on_both_sides(self):
        sizes = {name: LEFT_SVD_CASES[name]().size for name in ("2x8", "4x128", "9x729")}
        assert sizes["2x8"] < decompose._QR_MIN_ENTRIES <= sizes["4x128"] < sizes["9x729"]

    def test_rank_deficient_unfoldings_keep_their_rank(self):
        for name in ("ghz-4x1024", "ghz-64x8", "w-16x256", "w-1024x4"):
            assert cutoff_rank(left_svd(LEFT_SVD_CASES[name]())[1]) == 2


class TestTwoModeHosvd:
    @pytest.mark.parametrize("shape", [(5, 12), (12, 5), (6, 6)])
    def test_one_svd_gives_both_modes(self, shape):
        t = random_state(shape, seed=30)
        h = hosvd(t)
        assert np.array_equal(h.mode_spectra[0], h.mode_spectra[1])
        r = min(shape)
        assert [u.shape for u in h.factors] == [(shape[0], r), (shape[1], r)]
        # mode 1 unfolds to t.T; its gauge-fixed left singular vectors are factor 1
        want = decompose._gauge_fix_columns(np.linalg.svd(t.T, full_matrices=False)[0])
        assert np.allclose(h.factors[1], want, rtol=0, atol=1e-12)
        assert h.core.shape == (r, r)
        off = h.core - np.diag(np.diag(h.core))
        assert np.max(np.abs(off)) < 1e-12
        assert np.linalg.norm(h.factors[0] @ h.core @ h.factors[1].T - t) < 1e-12


class TestCompleteBasis:
    def test_leading_columns_kept_and_result_unitary(self):
        u = np.linalg.qr(random_state((6, 2), seed=13))[0]
        full = complete_basis(u)
        assert full.shape == (6, 6)
        assert np.array_equal(full[:, :2], u)
        assert np.allclose(full.conj().T @ full, np.eye(6), atol=1e-12)
        assert np.array_equal(complete_basis(u.copy()), full)

    def test_square_input_returned_as_is(self):
        u = haar_unitary(3, seed=14)
        assert complete_basis(u) is u


class TestAllOrthogonality:
    def test_hosvd_core_passes_direct_inner_product_oracle(self):
        core = hosvd(random_state((2, 2, 2, 2), seed=2)).core
        # explicit pairwise subtensor inner products
        for k in range(core.ndim):
            rows = unfold(core, k)
            for alpha in range(rows.shape[0]):
                for beta in range(rows.shape[0]):
                    if alpha != beta:
                        assert abs(np.vdot(rows[alpha], rows[beta])) < 1e-10

    def test_six_qubit_core_norms_are_sorted_amplitudes(self):
        b = np.array([0.7, 0.5, 0.4, 0.3])
        b /= np.linalg.norm(b)
        core = hosvd(rescale(paper6_state(b))).core
        for k in range(core.ndim):
            rows = unfold(core, k)
            assert np.allclose(np.linalg.norm(rows, axis=1), b, atol=1e-12)
            gram = rows @ rows.conj().T
            assert np.allclose(gram - np.diag(np.diag(gram)), 0, atol=1e-10)

    def test_generic_tensor_fails(self):
        # the pairwise oracle has teeth: a generic tensor fails it, its HOSVD core passes
        t = random_state((3, 3, 3), seed=3)
        for k in range(t.ndim):
            gram = unfold(t, k) @ unfold(t, k).conj().T
            assert np.max(np.abs(gram - np.diag(np.diag(gram)))) > 1e-3
        core = hosvd(t).core
        for k in range(core.ndim):
            gram = unfold(core, k) @ unfold(core, k).conj().T
            assert np.allclose(gram - np.diag(np.diag(gram)), 0, atol=1e-10)


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
            assert ext.complement_slices.shape == (0, 2, 2)
            for got, want in zip(ext.slices, units):
                assert np.allclose(got, want, atol=1e-12)

    def test_full_rank_extract_has_empty_complement(self):
        h = hosvd(rescale(random_state((2, 2, 2, 2), seed=6)))
        extracts = extract_tripartites(h, ((2, 2), (2, 2)))
        for ext in extracts:
            assert ext.dims[0] == 4
            assert ext.complement_slices.shape == (0, 2, 2)
            assert np.allclose(
                ext.full_matrix.conj().T @ ext.full_matrix, np.eye(4), atol=1e-12
            )

    def test_slices_and_complement_assemble_to_unitary(self):
        a = sorted_four_qubit_params(np.random.default_rng(7))
        tree = concentrate(paper4_state(a))
        for ext in tree.levels[0].extracts:
            full = ext.full_matrix
            assert np.allclose(full.conj().T @ full, np.eye(4), atol=1e-10)

    def test_slices_are_one_reshape_of_the_factor_columns(self):
        # mixed dims with an odd trailing (3, 1) pair, then a qutrit GHZ (rank 3 of 9)
        psi = random_state((2, 3, 3, 2, 3), seed=9)
        dims = pair_dims(psi.shape)
        h = hosvd(rescale(psi))
        extracts = extract_tripartites(h, dims)
        h2 = hosvd(rescale(ghz_state(6, 3)))
        extracts += extract_tripartites(h2, pair_dims((3,) * 6))
        assert [e.dims for e in extracts] == [
            (6, 2, 3), (6, 3, 2), (3, 3, 1), (3, 3, 3), (3, 3, 3), (3, 3, 3)
        ]
        for ext, u in zip(extracts, h.factors + h2.factors):
            _, ia, ib = ext.dims
            for i, got in enumerate(ext.slices):
                assert np.array_equal(got, wrap(u[:, i], ia, ib))
            want = np.column_stack([vectorize(s) for s in ext.slices])
            assert np.array_equal(ext.basis_matrix, want)

    def test_extract_without_slices_has_an_empty_basis(self):
        ext = TripartiteExtract(np.zeros((0, 2, 3)))
        assert ext.basis_matrix.shape == (6, 0)
        assert ext.full_matrix.shape == (6, 6)

    def test_pair_dims_must_factor_composite(self):
        h = hosvd(rescale(random_state((2, 2, 2, 2), seed=8)))
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
        # derivation shares the walker's validation: an LU orbit pair must not
        # yield a misleading mode-count error (1) or an empty certificate (5);
        # verification reports a bad stop order as inconclusive, not an error
        psi = random_state((2, 2, 2, 2), seed=11)
        ops = LocalOperatorSet(tuple(haar_unitary(2, seed=40 + i) for i in range(4)), LU)
        psip = apply_local(psi, ops)
        for stop_order in (1, 5):
            with pytest.raises(ValueError, match="stop_order must be 2 or 3"):
                derive_certificate(psi, psip, ops, stop_order=stop_order)
        verdict = verify_certificate(psi, psip, EquivalenceCertificate(LU, ops, [], stop_order=5))
        assert verdict.status == INCONCLUSIVE
        assert verdict.witness == "certificate stop order 5 is not 2 or 3"

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            concentrate(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("stop_order", [2, 3])
    def test_tiny_state_is_not_the_zero_tensor(self, stop_order):
        # its squares underflow to 0, but no entry is 0
        state = random_state((2,) * 7, seed=1) * 1e-200
        tree = concentrate(state, stop_order=stop_order)
        assert tensor_norm(reconstruct(tree) - state) <= 1e-13 * tensor_norm(state)

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
        ext = tree.levels[0].extracts[0]
        ext.slices = ext.slices[:-1]
        with pytest.raises(ValueError, match=r"core shape \(4, 4\) does not match level ranks \(3, 4\)"):
            reconstruct(tree)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            # both modes keep rank 4, so only the pairing tells the reflowed extract apart
            (
                lambda exts: exts.__setitem__(0, TripartiteExtract(exts[0].slices.reshape(4, 4, 1))),
                r"extract pair dims \(\(4, 1\), \(2, 2\)\) are not the pairing of \(2, 2, 2, 2\)",
            ),
            (lambda exts: exts.pop(), r"core shape \(4, 4\) does not match level ranks \(4,\)"),
        ],
        ids=["pairing", "missing-extract"],
    )
    def test_level_out_of_step_with_its_extracts_rejected(self, tamper, message):
        tree = concentrate(random_state((2, 2, 2, 2), seed=15))
        tamper(tree.levels[0].extracts)
        with pytest.raises(ValueError, match=message):
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
            pairs = pair_dims(dims)
            worst_ranks = [ia * ib for ia, ib in pairs]
            n3 = level_tripartite_parameters(pairs, worst_ranks)
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


def _tree_of_another_shape():
    tree = concentrate(random_state((2, 2, 2, 2), seed=18))
    tree.original_shape = (4, 4)
    return tree


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: extract_tripartites(hosvd(random_state((4, 4, 4), seed=19)), [(2, 2), (2, 2)]),
            "^2 pair dims for 3 modes$",
            id="extract-pair-count",
        ),
        pytest.param(lambda: concentrate(np.ones(2)), "^need at least two modes$", id="concentrate-order-one"),
        pytest.param(
            lambda: reconstruct(_tree_of_another_shape()),
            r"^reconstructed shape \(2, 2, 2, 2\) != original \(4, 4\)$",
            id="reconstruct-original-shape",
        ),
        pytest.param(
            lambda: count_parameters([2, 0]), r"^dimensions must be integers >= 1, got \[2, 0\]$", id="count-dims"
        ),
    ],
)
def test_validation_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
