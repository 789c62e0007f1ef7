import re

import numpy as np
import pytest

from entcore.states import (
    StateSpec,
    apply_local,
    ghz_state,
    haar_unitary,
    make_state,
    paper4_state,
    paper6_state,
    product_state,
    random_invertible,
    random_state,
    w_state,
)
from entcore.tensor_ops import tensor_norm


class TestFamilies:
    def test_paper4_single_term_limit(self):
        t = paper4_state([1.0, 0.0, 0.0, 0.0])
        assert t[0, 0, 0, 1] == 1.0
        assert np.count_nonzero(t) == 1

    def test_paper4_layout_and_normalization(self):
        t = paper4_state([3.0, 0.0, 4.0, 0.0])
        assert t[0, 0, 0, 1] == pytest.approx(0.6)
        assert t[0, 1, 0, 0] == pytest.approx(0.8)
        assert tensor_norm(t) == pytest.approx(1.0, abs=1e-12)

    def test_paper6_layout(self):
        b = np.array([0.5, 0.5, 0.5, 0.5])
        t = paper6_state(b)
        assert t[0, 0, 0, 0, 0, 0] == pytest.approx(0.5)
        assert t[0, 1, 0, 1, 0, 1] == pytest.approx(0.5)
        assert t[1, 0, 1, 0, 1, 0] == pytest.approx(0.5)
        assert t[1, 1, 1, 1, 1, 1] == pytest.approx(0.5)

    def test_ghz_bell_case(self):
        t = ghz_state(2, 2)
        s = np.linalg.svd(t, compute_uv=False)
        assert np.allclose(s, [1 / np.sqrt(2)] * 2, atol=1e-14)

    def test_w_state_layout(self):
        t = w_state(3)
        assert t[0, 0, 1] == pytest.approx(1 / np.sqrt(3))
        assert t[1, 0, 0] == pytest.approx(1 / np.sqrt(3))
        assert np.count_nonzero(t) == 3

    def test_product_state_default_is_origin_ket(self):
        t = product_state((2, 3, 2))
        assert t[0, 0, 0] == 1.0
        assert np.count_nonzero(t) == 1

    def test_seeded_product_state_has_rank_one_unfoldings(self):
        from entcore.tensor_ops import unfold

        t = product_state((2, 2, 3), seed=7)
        for k in range(3):
            s = np.linalg.svd(unfold(t, k), compute_uv=False)
            assert s[0] == pytest.approx(1.0, abs=1e-12)
            assert np.all(s[1:] < 1e-12)

    def test_all_generators_unit_norm(self):
        for spec in (
            StateSpec("ghz", dims=(3, 3, 3)),
            StateSpec("w", dims=(2,) * 4),
            StateSpec("product", dims=(2, 3), seed=1),
            StateSpec("random", dims=(2, 2, 2), seed=2),
            StateSpec("paper4", params=(0.2, 0.4, 0.1, 0.5)),
            StateSpec("paper6", params=(0.9, 0.3, 0.2, 0.1)),
        ):
            assert tensor_norm(make_state(spec)) == pytest.approx(1.0, abs=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StateSpec("nope")
        with pytest.raises(ValueError):
            StateSpec("paper4", params=(1.0, 2.0))
        with pytest.raises(ValueError):
            StateSpec("paper4", params=(0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            StateSpec("paper6", dims=(2, 2, 2), params=(1, 1, 1, 1))
        with pytest.raises(ValueError, match="^ghz needs uniform local dimensions$"):
            StateSpec("ghz", dims=(2, 3))

    @pytest.mark.parametrize("family", ["paper4", "paper6"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_family_parameters_rejected(self, family, bad):
        with pytest.raises(ValueError, match="needs finite parameters"):
            StateSpec(family, params=(bad, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="needs finite parameters"):
            (paper4_state if family == "paper4" else paper6_state)((1.0, bad, 1.0, 1.0))

    @pytest.mark.parametrize("scale", [1e308, 1e-320])
    def test_extreme_family_parameters_normalize(self, scale):
        # the squared norm of these overflows or underflows; the state's does not
        t = paper4_state((scale, scale, 0.0, -scale))
        assert tensor_norm(t) == pytest.approx(1.0, abs=1e-12)
        assert t[0, 0, 0, 1] == pytest.approx(1 / np.sqrt(3))
        assert t[1, 0, 0, 0] == pytest.approx(-1 / np.sqrt(3))
        assert t[0, 1, 0, 0] == 0.0

    @pytest.mark.parametrize(
        "family, dims, rule",
        [
            ("ghz", (), "ghz needs n >= 2 parties of dimension >= 2"),
            ("ghz", (2,), "ghz needs n >= 2 parties of dimension >= 2"),
            ("ghz", (2, 1), "ghz needs n >= 2 parties of dimension >= 2"),
            ("w", (2,), "w needs n >= 2 qubits"),
        ],
        ids=["ghz-0", "ghz-1", "ghz-2x1", "w-1"],
    )
    def test_spec_of_too_few_parties_or_levels_names_the_rule(self, family, dims, rule):
        # the spec itself is rejected, before make_state, as the generators reject such arguments
        with pytest.raises(ValueError, match=rule):
            StateSpec(family, dims=dims)
        with pytest.raises(ValueError, match=rule):
            (ghz_state(len(dims), min(dims, default=2)) if family == "ghz" else w_state(len(dims)))

    @pytest.mark.parametrize("family", ["product", "random"])
    @pytest.mark.parametrize("dims", [(), (0, 2), (2, -1)])
    def test_spec_of_empty_or_non_positive_dims_names_the_rule(self, family, dims):
        # rejected by the spec, as ghz and w specs are, not first by the generator
        with pytest.raises(ValueError, match=rf"^{family} needs one or more dims, each >= 1, got {re.escape(str(dims))}$"):
            StateSpec(family, dims=dims, seed=1)

    @pytest.mark.parametrize(
        "family, params, dims",
        [("ghz", None, (2, 2)), ("w", None, (2, 2, 2)), ("paper4", (1, 1, 1, 1), (2,) * 4)],
    )
    def test_spec_fills_in_the_default_dims(self, family, params, dims):
        spec = StateSpec(family, params=params)
        assert spec.dims == dims
        assert make_state(spec).shape == dims

    def test_determinism_and_seed_separation(self):
        a = random_state((2, 2, 2), seed=42)
        b = random_state((2, 2, 2), seed=42)
        assert np.array_equal(a, b)
        distinct = 0
        for k in range(100):
            x = random_state((2, 2), seed=1000 + 2 * k)
            y = random_state((2, 2), seed=1001 + 2 * k)
            if np.linalg.norm(x - y) > 1e-3:
                distinct += 1
        assert distinct == 100


class TestHaarUnitary:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_unitarity(self, d):
        u = haar_unitary(d, seed=d)
        assert np.linalg.norm(u.conj().T @ u - np.eye(d)) < 1e-12

    def test_scalar_case_is_unit_modulus(self):
        u = haar_unitary(1, seed=3)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_first_moment_matches_haar_measure(self):
        # Monte-Carlo oracle: E|U_00|^2 = 1/d; |U_00|^2 ~ Beta(1, d-1)
        d, n = 2, 10_000
        rng_seeds = range(n)
        total = 0.0
        for s in rng_seeds:
            total += abs(haar_unitary(d, seed=s)[0, 0]) ** 2
        mean = total / n
        var = (d - 1) / (d**2 * (d + 1))
        assert abs(mean - 1.0 / d) < 3.0 * np.sqrt(var / n)

    def test_determinism(self):
        assert np.array_equal(haar_unitary(4, seed=9), haar_unitary(4, seed=9))


class TestRandomInvertible:
    def test_condition_number_bound(self):
        for seed in range(20):
            m = random_invertible(3, 10.0, seed=seed)
            s = np.linalg.svd(m, compute_uv=False)
            assert s[0] / s[-1] <= 10.0 + 1e-9

    def test_cond_one_is_unitary(self):
        m = random_invertible(3, 1.0, seed=1)
        assert np.linalg.norm(m.conj().T @ m - np.eye(3)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            random_invertible(2, 0.5)


class TestApplyLocal:
    def test_identity_set_is_noop(self):
        t = random_state((2, 3, 2), seed=4)
        out = apply_local(t, [np.eye(2), np.eye(3), np.eye(2)])
        assert np.allclose(out, t)

    def test_unitaries_preserve_norm(self):
        t = random_state((2, 2, 3), seed=5)
        ops = [haar_unitary(2, seed=6), haar_unitary(2, seed=7), haar_unitary(3, seed=8)]
        assert tensor_norm(apply_local(t, ops)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(9)
        t = random_state((2, 2, 2), seed=10)
        ops = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
        out = apply_local(t, ops)
        # brute-force coefficient transformation
        expected = np.zeros((2, 2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for a in range(2):
                        for b in range(2):
                            for c in range(2):
                                expected[i, j, k] += (
                                    ops[0][i, a] * ops[1][j, b] * ops[2][k, c] * t[a, b, c]
                                )
        assert np.allclose(out, expected, atol=1e-13)

    def test_no_renormalization(self):
        t = random_state((2, 2), seed=11)
        out = apply_local(t, [2.0 * np.eye(2), np.eye(2)])
        assert tensor_norm(out) == pytest.approx(2.0, abs=1e-12)

    def test_operator_count_must_match(self):
        with pytest.raises(ValueError):
            apply_local(random_state((2, 2), seed=12), [np.eye(2)])

    def test_operator_dims_must_match(self):
        # each operator's columns must match its own mode, not another one
        with pytest.raises(ValueError, match="do not match mode-0 dimension 2"):
            apply_local(random_state((2, 3), seed=13), [np.eye(3), np.eye(2)])


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: product_state((2, 0)), r"^bad dims \(2, 0\)$", id="product-state-dims"),
        pytest.param(lambda: random_state(()), r"^bad dims \(\)$", id="random-state-dims"),
        pytest.param(lambda: StateSpec("w", dims=(2, 3)), "^w is a qubit family$", id="w-qutrit"),
        pytest.param(lambda: StateSpec("product"), "^product needs dims$", id="product-no-dims"),
        pytest.param(lambda: StateSpec("random"), "^random needs dims$", id="random-no-dims"),
        pytest.param(lambda: haar_unitary(0), "^dimension must be >= 1$", id="haar-dim"),
        pytest.param(lambda: random_invertible(0, 10.0), "^dimension must be >= 1$", id="invertible-dim"),
    ],
)
def test_validation_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
