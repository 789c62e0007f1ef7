import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcore.cli import _pairing_label
from entcore.decompose import concentrate, hosvd
from entcore.equivalence import LU, LocalOperatorSet, derive_certificate, invariant_filter
from entcore.tensor_ops import (
    as_tensor,
    mode_multiply,
    multiply_modes,
    pair_dims,
    realign,
    rescale,
    tensor_norm,
    unfold,
    unrescale,
    vectorize,
    wrap,
)


def random_tensor(rng, dims):
    t = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return t / np.linalg.norm(t)


class TestUnfoldFold:
    def test_order_one_tensor_unfolds_to_column(self):
        v = np.arange(5, dtype=complex)
        m = unfold(v, 0)
        assert m.shape == (5, 1)
        assert np.array_equal(m[:, 0], v)

    def test_matrix_unfold_modes(self):
        rng = np.random.default_rng(3)
        t = random_tensor(rng, (3, 4))
        assert np.array_equal(unfold(t, 0), t)
        assert np.array_equal(unfold(t, 1), t.T)

    def test_cyclic_column_order(self):
        # mode-1 unfolding of a 2x3x4 tensor: columns run over (j2, j0), j2 slowest
        rng = np.random.default_rng(4)
        t = random_tensor(rng, (2, 3, 4))
        m = unfold(t, 1)
        assert m.shape == (3, 8)
        for j1 in range(3):
            for j2 in range(4):
                for j0 in range(2):
                    assert m[j1, j2 * 2 + j0] == t[j0, j1, j2]

    @pytest.mark.parametrize("dims", [(2,), (3, 2), (2, 3, 4), (2, 2, 2, 2), (2, 1, 3, 2, 2), (2,) * 6])
    def test_fold_unfold_roundtrip_is_exact(self, dims):
        # unfold only permutes entries: folding back (reshape to the rolled
        # dims, then undo the cyclic transpose) gives the tensor bit for bit
        rng = np.random.default_rng(hash(dims) % (2**32))
        t = random_tensor(rng, dims)
        n = len(dims)
        for k in range(n):
            back = np.transpose(unfold(t, k).reshape(dims[k:] + dims[:k]), np.roll(np.arange(n), k))
            assert np.array_equal(back, t)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2)), 2)
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2)), -1)


class TestModeMultiply:
    def test_identity_leaves_tensor_unchanged(self):
        rng = np.random.default_rng(5)
        t = random_tensor(rng, (2, 3, 4))
        for k, d in enumerate((2, 3, 4)):
            assert np.allclose(mode_multiply(t, np.eye(d), k), t)

    def test_matches_unfolding_contract(self):
        rng = np.random.default_rng(6)
        t = random_tensor(rng, (2, 3, 4))
        a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        out = mode_multiply(t, a, 1)
        assert out.shape == (2, 5, 4)
        assert np.allclose(unfold(out, 1), a @ unfold(t, 1))

    def test_composition_collapses_to_product(self):
        rng = np.random.default_rng(7)
        t = random_tensor(rng, (2, 2, 2))
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        via_two = mode_multiply(mode_multiply(t, a, 1), b, 1)
        via_one = mode_multiply(t, b @ a, 1)
        assert np.allclose(via_two, via_one, atol=1e-14)

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(8)
        t = random_tensor(rng, (3, 3, 3))
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(z)
        assert tensor_norm(mode_multiply(t, q, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mode_multiply(np.zeros((2, 3)), np.zeros((4, 4)), 1)


@st.composite
def all_modes_problems(draw):
    """A tensor, possibly a transposed view, and one matrix per mode.

    Matrices have 0-5 rows (square, widening, truncating or empty), and each
    is real or complex.
    """
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    rows = draw(st.lists(st.integers(0, 5), min_size=len(dims), max_size=len(dims)))
    real = draw(st.lists(st.booleans(), min_size=len(dims), max_size=len(dims)))
    perm = draw(st.permutations(range(len(dims))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stored = random_tensor(rng, tuple(dims[p] for p in np.argsort(perm)))
    t = stored.transpose(perm)
    mats = []
    for r, d, is_real in zip(rows, dims, real):
        a = rng.standard_normal((r, d))
        mats.append(a if is_real else a + 1j * rng.standard_normal((r, d)))
    return t, mats


class TestMultiplyModes:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(all_modes_problems())
    def test_equals_the_mode_multiply_loop(self, problem):
        t, mats = problem
        expected = t
        for k, a in enumerate(mats):
            expected = mode_multiply(expected, a, k)
        out = multiply_modes(t, mats)
        assert out.shape == expected.shape == tuple(a.shape[0] for a in mats)
        assert out.dtype == expected.dtype
        scale = max(np.linalg.norm(expected), np.finfo(float).tiny)
        assert np.linalg.norm(out - expected) <= 1e-13 * scale

    def test_zero_tensor_has_an_empty_core(self):
        assert hosvd(np.zeros((2, 2, 2, 2))).core.shape == (0, 0, 0, 0)
        assert multiply_modes(np.zeros((0, 0, 0, 0)), [np.zeros((2, 0))] * 4).shape == (2, 2, 2, 2)

    @pytest.mark.parametrize(
        "mats, message",
        [
            ([np.eye(2)], "1 operators for an order-2 state"),
            ([np.eye(2), np.ones(3)], "mode-1 operator must be a matrix"),
            # the reshape alone would accept these: 3 * 2 entries either way
            ([np.eye(3), np.eye(2)], "operator columns 3 do not match mode-0 dimension 2"),
        ],
    )
    def test_rejects_operators_that_do_not_fit(self, mats, message):
        with pytest.raises(ValueError, match=message):
            multiply_modes(np.zeros((2, 3)), mats)


class TestPairingPlan:
    """The adjacent pairing plan: :func:`pair_dims` derives it from the dims, the CLI labels it."""

    def test_default_even(self):
        assert pair_dims((2, 3, 4, 5, 6, 7)) == ((2, 3), (4, 5), (6, 7))

    def test_default_odd_has_trailing_singleton(self):
        assert pair_dims((2, 3, 4, 5, 6)) == ((2, 3), (4, 5), (6, 1))

    def test_parse(self):
        # the label of the adjacent pairing, as in the CLI column
        assert _pairing_label(5) == "(0-1)(2-3)(4)"

    def test_trailing_singleton_is_valid_for_odd_count(self):
        assert pair_dims((2, 3, 4)) == ((2, 3), (4, 1))
        assert pair_dims((5,)) == ((5, 1),)

    def test_pair_dims_and_rescaled_dims(self):
        t = np.zeros((2, 3, 4, 5, 6))
        assert pair_dims(t.shape) == ((2, 3), (4, 5), (6, 1))
        assert rescale(t).shape == (6, 20, 6)


class TestRescale:
    def test_four_qubit_basis_ket(self):
        # |0001> maps to composite basis (0, 1), per the second-member-fastest pair index
        t = np.zeros((2, 2, 2, 2), dtype=complex)
        t[0, 0, 0, 1] = 1.0
        r = rescale(t)
        assert r.shape == (4, 4)
        assert r[0, 1] == 1.0
        assert np.count_nonzero(r) == 1

    def test_six_qubit_basis_ket(self):
        t = np.zeros((2,) * 6, dtype=complex)
        t[0, 1, 0, 1, 0, 1] = 1.0
        r = rescale(t)
        assert r.shape == (4, 4, 4)
        assert r[1, 1, 1] == 1.0
        assert np.count_nonzero(r) == 1

    def test_norm_and_inner_products_preserved_exactly(self):
        rng = np.random.default_rng(9)
        a = random_tensor(rng, (2, 3, 2, 2))
        b = random_tensor(rng, (2, 3, 2, 2))
        assert tensor_norm(rescale(a)) == tensor_norm(a)
        assert np.vdot(rescale(a), rescale(b)) == np.vdot(a, b)

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 1e-300, 1e300])
    def test_norm_at_any_scale(self, scale):
        # np.linalg.norm gives 0.0 at 1e-200 and inf, with an overflow warning, at 1e200;
        # warnings are errors in this suite
        rng = np.random.default_rng(11)
        a = random_tensor(rng, (2, 3, 2, 2))
        assert tensor_norm(a * scale) == pytest.approx(tensor_norm(a) * scale, rel=1e-14, abs=0)

    def test_norm_beyond_the_largest_double_is_inf(self):
        assert tensor_norm(np.full(4, 1.5e308 + 1.5e308j)) == np.inf
        assert tensor_norm(np.array([0.0, 5e-324])) == 5e-324

    def test_unrescale_inverts(self):
        rng = np.random.default_rng(10)
        t = random_tensor(rng, (2, 3, 4, 5, 2))
        assert np.array_equal(unrescale(rescale(t), t.shape), t)

    def test_plan_must_cover_tensor(self):
        # the plan of the four target dims makes a (4, 4) tensor, not a (4, 2) one
        with pytest.raises(ValueError):
            unrescale(np.zeros((4, 2)), (2, 2, 2, 2))


class TestWrapVectorize:
    def test_unit_vector_wraps_to_corner(self):
        assert np.array_equal(wrap(np.array([1, 0, 0, 0]), 2, 2), np.array([[1, 0], [0, 0]]))

    def test_column_major_fill_matches_reference_layout(self):
        a3, a4 = 0.6, 0.8
        u = np.array([0.0, a3, a4, 0.0])
        expected = np.array([[0.0, a4], [a3, 0.0]])
        assert np.allclose(wrap(u, 2, 2), expected)

    def test_rectangular_wrap_layout(self):
        u = np.arange(6, dtype=complex)
        w = wrap(u, 2, 3)
        for i in range(2):
            for j in range(3):
                assert w[i, j] == u[j * 2 + i]

    def test_wrap_vectorize_roundtrip(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        assert np.array_equal(vectorize(wrap(u, 3, 4)), u)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert np.array_equal(wrap(vectorize(m), 3, 4), m)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wrap(np.zeros(5), 2, 3)
        with pytest.raises(ValueError, match="^vector of size 5 does not wrap to 2x3$"):
            wrap(np.zeros((6, 5)), 2, 3)

    def test_stack_wraps_vector_by_vector(self):
        rng = np.random.default_rng(13)
        u = rng.standard_normal((4, 5, 6)) + 1j * rng.standard_normal((4, 5, 6))
        w = wrap(u, 2, 3)
        assert w.shape == (4, 5, 2, 3) and w.flags.c_contiguous
        for idx in np.ndindex(4, 5):
            assert np.array_equal(w[idx], wrap(u[idx], 2, 3))
        assert np.array_equal(vectorize(w), u)
        assert np.array_equal(wrap(vectorize(w), 2, 3), w)

    def test_empty_stack_wraps(self):
        w = wrap(np.zeros((0, 6), dtype=complex), 2, 3)
        assert w.shape == (0, 2, 3)
        assert vectorize(w).shape == (0, 6)


class TestRealign:
    def test_kronecker_product_realigns_to_rank_one(self):
        rng = np.random.default_rng(12)
        for i1, i2 in ((2, 2), (2, 3), (3, 2), (3, 3)):
            x = rng.standard_normal((i1, i1)) + 1j * rng.standard_normal((i1, i1))
            y = rng.standard_normal((i2, i2)) + 1j * rng.standard_normal((i2, i2))
            s = np.linalg.svd(realign(np.kron(x, y), i1, i2), compute_uv=False)
            assert s[1] <= 1e-12 * s[0]

    def test_identity_realigns_to_rank_one(self):
        s = np.linalg.svd(realign(np.eye(4), 2, 2), compute_uv=False)
        assert s[1] <= 1e-12 * s[0]

    def test_row_content_is_vectorized_block(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        r = realign(a, 2, 3)
        assert r.shape == (4, 9)
        # row j*i1 + i holds the column-major vectorization of block (i, j)
        block = a[1 * 3 : 2 * 3, 0 * 3 : 1 * 3]
        assert np.array_equal(r[0 * 2 + 1], block.ravel(order="F"))

    def test_generic_matrix_has_full_realignment_rank(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        s = np.linalg.svd(realign(a, 2, 2), compute_uv=False)
        # SVD oracle: all four singular values well separated from zero
        assert s[-1] > 1e-3 * s[0]
        assert np.linalg.matrix_rank(realign(a, 2, 2)) == 4

    def test_stack_realigns_matrix_by_matrix(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((2, 3, 6, 6)) + 1j * rng.standard_normal((2, 3, 6, 6))
        r = realign(a, 2, 3)
        assert r.shape == (2, 3, 4, 9) and r.flags.c_contiguous
        for idx in np.ndindex(2, 3):
            assert np.array_equal(r[idx], realign(a[idx], 2, 3))

    def test_shape_validation(self):
        # a matrix, or a stack of them, must be i1*i2 square
        for shape in ((4, 5), (6, 6), (3, 6, 6), (16,)):
            with pytest.raises(ValueError, match="realign expects 4x4 matrices"):
                realign(np.zeros(shape), 2, 2)


class TestAsTensor:
    def test_reshapes_flat_coefficients_last_index_fastest(self):
        t = as_tensor([1, 2, 3, 4, 5, 6], dims=(2, 3))
        assert t[0, 2] == 3
        assert t[1, 0] == 4

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_tensor([1.0, np.nan])
        with pytest.raises(ValueError):
            as_tensor([1.0, np.inf + 0j])

    def test_scalar_is_a_one_mode_tensor(self):
        t = as_tensor(2.0)
        assert t.shape == (1,) and t[0] == 2.0

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            as_tensor([1.0], dims=(0,))
        with pytest.raises(ValueError):
            as_tensor([1.0, 2.0], dims=(3,))

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (2, 0, 3)])
    @pytest.mark.parametrize(
        "call",
        [
            as_tensor,
            concentrate,
            lambda t: invariant_filter(t, t, LU),
            lambda t: derive_certificate(t, t, LocalOperatorSet((np.eye(2), np.eye(2)), LU)),
        ],
        ids=["as_tensor", "concentrate", "invariant_filter", "derive_certificate"],
    )
    def test_rejects_a_zero_length_axis(self, call, shape):
        # an empty tensor is not the zero tensor, and the callers must not call it that
        with pytest.raises(ValueError, match=re.escape(f"tensor shape {shape} has a zero-length axis")):
            call(np.zeros(shape))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: mode_multiply(np.zeros((2, 3)), np.ones(2), 0), "^mode operator must be a matrix$", id="mode-op"
        ),
        pytest.param(
            lambda: mode_multiply(np.zeros((2, 3)), np.eye(2), 2),
            "^mode 2 out of range for an order-2 tensor$",
            id="mode-range",
        ),
        pytest.param(lambda: vectorize(np.ones(3)), "^vectorize expects a matrix$", id="vectorize-vector"),
    ],
)
def test_validation_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("entries", [[0j, 0j], [1.0, np.inf], [np.nan, 1.0]], ids=["zero", "inf", "nan"])
def test_norm_of_a_zero_or_non_finite_tensor_is_its_peak(entries):
    # no scaling can help: the largest part is returned as it is
    norm = tensor_norm(np.array(entries, dtype=np.complex128))
    peak = max(np.max(np.abs(np.real(entries))), np.max(np.abs(np.imag(entries))))
    assert norm == peak or (np.isnan(norm) and np.isnan(peak))
