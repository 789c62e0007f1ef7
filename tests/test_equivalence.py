import os
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import entcore
from entcore import decompose, equivalence
from entcore.decompose import (
    concentrate,
    cut_to_ranks,
    cutoff_rank,
    extract_tripartites,
    hosvd,
    left_svd,
    reconstruct,
    walk,
)
from entcore.equivalence import (
    EQUIVALENT,
    INCONCLUSIVE,
    INEQUIVALENT,
    LU,
    SLOCC,
    MATRIX_RANK,
    SINGULAR_VALUE_SUM,
    SQRT_SINGULAR_VALUE_SUM,
    EquivalenceCertificate,
    LocalOperatorSet,
    derive_certificate,
    invariant_filter,
    kron_factorize,
    realign_rank1_check,
    search_equivalence,
    search_p_tilde,
    spectral_preservation_check,
    verify_certificate,
)
from entcore.states import (
    apply_local,
    ghz_state,
    haar_unitary,
    paper4_state,
    product_state,
    random_invertible,
    random_state,
    w_state,
)
from entcore.tensor_ops import pair_dims, realign, rescale, unfold


def lu_ops(dims, seed):
    return LocalOperatorSet(
        tuple(haar_unitary(d, seed=seed + i) for i, d in enumerate(dims)), LU
    )


def slocc_ops(dims, seed, cond=10.0):
    return LocalOperatorSet(
        tuple(random_invertible(d, cond, seed=seed + i) for i, d in enumerate(dims)), SLOCC
    )


def project_particle(psi, k, seed=0):
    """``psi`` with particle ``k`` sent through a random operator of rank one below its dimension."""
    ops = [np.eye(d) for d in psi.shape]
    d = psi.shape[k]
    ops[k] = random_invertible(d, 10.0, seed=seed) @ np.diag([1.0] * (d - 1) + [0.0])
    return apply_local(psi, ops)


def projected_pair(dims, seed, k):
    """A random state and its image under ``project_particle`` of particle ``k``."""
    psi = random_state(dims, seed=seed)
    return psi, project_particle(psi, k)


class TestLocalOperatorSet:
    def test_lu_requires_unitary(self):
        with pytest.raises(ValueError):
            LocalOperatorSet((np.diag([1.0, 2.0]),), LU)

    def test_slocc_rejects_singular(self):
        with pytest.raises(ValueError):
            LocalOperatorSet((np.array([[1.0, 0.0], [0.0, 0.0]]),), SLOCC)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            LocalOperatorSet((np.eye(2),), "other")


class TestDeriveAndVerify:
    def test_identity_operators_give_identity_blocks(self):
        psi = random_state((2, 2, 2, 2), seed=0)
        ops = LocalOperatorSet(tuple(np.eye(2) for _ in range(4)), LU)
        cert = derive_certificate(psi, psi.copy(), ops)
        for level in cert.levels:
            for k in range(len(level.p_blocks)):
                pt = level.p_tilde(k)
                assert np.allclose(pt, np.eye(pt.shape[0]), atol=1e-12)
        assert verify_certificate(psi, psi, cert).status == EQUIVALENT

    def test_sixteen_qubit_lu_orbit(self):
        # the 2^14-wide unfoldings of the first level are factored without
        # their right singular bases
        dims = (2,) * 16
        psi = random_state(dims, seed=16)
        ops = lu_ops(dims, seed=1600)
        psip = apply_local(psi, ops)
        assert np.linalg.norm(reconstruct(concentrate(psi, stop_order=2)) - psi) < 1e-10
        assert invariant_filter(psi, psip, LU).status == INCONCLUSIVE
        cert = derive_certificate(psi, psip, ops)
        assert verify_certificate(psi, psip, cert).status == EQUIVALENT

    def test_lu_orbit_roundtrip(self):
        psi = random_state((2, 2, 2, 2), seed=1)
        ops = lu_ops((2, 2, 2, 2), seed=100)
        psip = apply_local(psi, ops)
        cert = derive_certificate(psi, psip, ops)
        verdict = verify_certificate(psi, psip, cert)
        assert verdict.status == EQUIVALENT
        assert verdict.residuals["reassembly"] < 1e-10

    def test_slocc_orbit_roundtrip(self):
        psi = random_state((2, 3, 2, 2, 2), seed=2)
        ops = slocc_ops((2, 3, 2, 2, 2), seed=200)
        psip = apply_local(psi, ops)
        cert = derive_certificate(psi, psip, ops)
        assert verify_certificate(psi, psip, cert).status == EQUIVALENT

    def test_rank_deficient_orbit_has_small_y_blocks_in_lu(self):
        psi = paper4_state([0.6, 0.5, 0.4, 0.2])
        ops = lu_ops((2, 2, 2, 2), seed=300)
        psip = apply_local(psi, ops)
        cert = derive_certificate(psi, psip, ops)
        for level in cert.levels:
            for y in level.y_blocks:
                assert np.linalg.norm(y) < 1e-10
            for p in level.p_blocks:
                assert np.linalg.norm(p.conj().T @ p - np.eye(p.shape[0])) < 1e-10

    def test_wrong_operators_rejected(self):
        psi = random_state((2, 2, 2, 2), seed=3)
        psip = random_state((2, 2, 2, 2), seed=4)
        with pytest.raises(ValueError, match="not related"):
            derive_certificate(psi, psip, lu_ops((2, 2, 2, 2), seed=400))

    @pytest.mark.parametrize("n", [3, 4])
    def test_rank_mismatch_names_the_cutoff(self, n):
        # b = product + 3e-10 GHZ and its image under diag(1, 1e-2) x I x ...
        # are SLOCC-equivalent by construction and the premise holds, but at
        # RANK_RTOL level 1's ranks read [2, 2] vs [1, 1] (stop order 2, so
        # that 3 qubits have a level): the error states that measurement, not
        # that the states are unrelated
        b = product_state((2,) * n) + 3e-10 * ghz_state(n)
        ops = LocalOperatorSet((np.diag([1.0, 1e-2]),) + (np.eye(2),) * (n - 1), SLOCC)
        message = (
            r"^local ranks differ at RANK_RTOL \(\[2, 2\] vs \[1, 1\]\), "
            "so no level-by-level certificate exists at this cutoff$"
        )
        with pytest.raises(ValueError, match=message):
            derive_certificate(b, apply_local(b, ops), ops, stop_order=2)

    def test_slocc_certificate_relabelled_lu_is_inconclusive(self):
        # LU verification rechecks every operator's unitarity, whatever the
        # certificate's derivation assumed
        psi = random_state((2,) * 4, seed=6)
        ops = slocc_ops((2,) * 4, seed=1300)
        psip = apply_local(psi, ops)
        cert = derive_certificate(psi, psip, ops)
        assert verify_certificate(psi, psip, cert).status == EQUIVALENT
        relabelled = EquivalenceCertificate(LU, cert.operators, cert.levels, cert.stop_order)
        verdict = verify_certificate(psi, psip, relabelled)
        assert verdict.status == INCONCLUSIVE
        assert re.match(r"operator 0 unitarity defect \d\.\d{3}e[+-]\d\d", verdict.witness)

    def test_perturbed_block_fails_verification(self):
        psi = random_state((2, 2, 2, 2), seed=5)
        ops = lu_ops((2, 2, 2, 2), seed=500)
        psip = apply_local(psi, ops)
        cert = derive_certificate(psi, psip, ops)
        rng = np.random.default_rng(6)
        noise = rng.standard_normal(cert.levels[0].p_blocks[0].shape)
        cert.levels[0].p_blocks[0] = cert.levels[0].p_blocks[0] + 1e-2 * noise
        verdict = verify_certificate(psi, psip, cert)
        assert verdict.status == INCONCLUSIVE
        assert "residual" in str(verdict.witness)

    def test_odd_order_orbit_with_singleton_group(self):
        psi = random_state((2, 2, 2, 2, 2), seed=7)
        ops = lu_ops((2, 2, 2, 2, 2), seed=600)
        psip = apply_local(psi, ops)
        cert = derive_certificate(psi, psip, ops)
        assert verify_certificate(psi, psip, cert).status == EQUIVALENT

    def test_stop_order_two_produces_deeper_certificates(self):
        psi = random_state((2,) * 6, seed=8)
        ops = lu_ops((2,) * 6, seed=700)
        psip = apply_local(psi, ops)
        cert = derive_certificate(psi, psip, ops, stop_order=2)
        assert len(cert.levels) == 2
        assert verify_certificate(psi, psip, cert).status == EQUIVALENT

    def test_zero_level_certificate_for_small_states(self):
        psi = random_state((2, 2, 2), seed=9)
        ops = lu_ops((2, 2, 2), seed=800)
        psip = apply_local(psi, ops)
        cert = derive_certificate(psi, psip, ops)
        assert cert.levels == []
        assert verify_certificate(psi, psip, cert).status == EQUIVALENT

    def test_certificate_of_another_hierarchy_is_inconclusive(self):
        # ranks (4, 4, 4) from a random orbit checked against GHZ's (2, 2, 2)
        dims = (2,) * 6
        psi = random_state(dims, seed=1)
        ops = lu_ops(dims, seed=1000)
        cert = derive_certificate(psi, apply_local(psi, ops), ops)
        ghz = ghz_state(6)
        verdict = verify_certificate(ghz, apply_local(ghz, ops), cert)
        assert verdict.status == INCONCLUSIVE
        assert verdict.witness == "level 0: certificate ranks (4, 4, 4) do not match (2, 2, 2) / (2, 2, 2)"

    @pytest.mark.parametrize(
        "derived_stop, checked_stop, reason",
        [
            (2, 3, "certificate has more levels than the concentration hierarchy"),
            (3, 2, "certificate does not reach the terminal order of the hierarchy"),
            (3, 4, "certificate stop order 4 is not 2 or 3"),
        ],
    )
    def test_certificate_of_another_depth_is_inconclusive(self, derived_stop, checked_stop, reason):
        dims = (2,) * 6
        psi = random_state(dims, seed=2)
        ops = lu_ops(dims, seed=1100)
        psip = apply_local(psi, ops)
        cert = derive_certificate(psi, psip, ops, stop_order=derived_stop)
        relabelled = EquivalenceCertificate(cert.mode, ops, cert.levels, stop_order=checked_stop)
        verdict = verify_certificate(psi, psip, relabelled)
        assert verdict.status == INCONCLUSIVE
        assert verdict.witness == reason

    MALFORMED = {
        "cut-p": "level 0: mode 0: P block of shape (3, 3) is not a finite (4, 4) matrix",
        "pop-p": "level 0: [2, 3, 3] P/Y/P_bar blocks for 3 modes",
        "zero-p": "level 0: mode 0: P block is numerically singular",
        "wrong-y": "level 0: mode 0: Y block of shape (2, 2) is not a finite (4, 0) matrix",
        "nan-p": "level 0: mode 1: P block of shape (4, 4) is not a finite (4, 4) matrix",
    }

    @pytest.mark.parametrize("tamper", MALFORMED)
    def test_malformed_level_is_inconclusive(self, tamper):
        dims = (2,) * 6
        psi = random_state(dims, seed=1)
        ops = lu_ops(dims, seed=0)
        psip = apply_local(psi, ops)
        cert = derive_certificate(psi, psip, ops)
        level = cert.levels[0]
        assert level.ranks == (4, 4, 4)
        if tamper == "cut-p":
            level.p_blocks[0] = level.p_blocks[0][:3, :3]
        elif tamper == "pop-p":
            level.p_blocks.pop()
        elif tamper == "zero-p":
            level.p_blocks[0] = np.zeros((4, 4))
        elif tamper == "wrong-y":
            level.y_blocks[0] = np.zeros((2, 2))
        else:
            level.p_blocks[1] = np.where(np.eye(4) > 0, np.nan, level.p_blocks[1])
        verdict = verify_certificate(psi, psip, cert)
        assert verdict.status == INCONCLUSIVE
        assert verdict.witness == self.MALFORMED[tamper]

    def test_certificate_for_another_partner_fails_reassembly(self):
        dims = (2,) * 6
        psi = random_state(dims, seed=1)
        ops = LocalOperatorSet(tuple(haar_unitary(2, seed=i) for i in range(6)), LU)
        cert = derive_certificate(psi, apply_local(psi, ops), ops)
        verdict = verify_certificate(psi, random_state(dims, seed=2), cert)
        assert verdict.status == INCONCLUSIVE
        assert verdict.witness.startswith("reassembly residual")

    def test_nonzero_lu_y_block_is_inconclusive(self):
        psi = ghz_state(6)
        ops = LocalOperatorSet(tuple(haar_unitary(2, seed=10 + i) for i in range(6)), LU)
        psip = apply_local(psi, ops)
        cert = derive_certificate(psi, psip, ops)
        level = cert.levels[0]
        assert level.ranks == (2, 2, 2)
        level.y_blocks[0] = level.y_blocks[0] + 1e-3
        verdict = verify_certificate(psi, psip, cert)
        assert verdict.status == INCONCLUSIVE
        assert verdict.witness == "level 0 mode 0: Y-block norm 2.000e-03"

    def test_mismatched_shapes_still_raise(self):
        psi = random_state((2,) * 4, seed=3)
        ops = lu_ops((2,) * 4, seed=1200)
        cert = derive_certificate(psi, apply_local(psi, ops), ops)
        with pytest.raises(ValueError, match="shape mismatch"):
            verify_certificate(psi, random_state((2,) * 5, seed=4), cert)
        other = random_state((3, 2, 2, 2), seed=5)
        with pytest.raises(ValueError, match="operator dims"):
            verify_certificate(other, other, cert)

    def test_passing_certificate_operators_rebuild_partner_state(self):
        # any passing certificate reproduces the partner state from its operators
        psi = random_state((3, 2, 2, 2), seed=10)
        ops = slocc_ops((3, 2, 2, 2), seed=900)
        psip = apply_local(psi, ops)
        cert = derive_certificate(psi, psip, ops)
        verdict = verify_certificate(psi, psip, cert)
        assert verdict.status == EQUIVALENT
        rebuilt = apply_local(psi, cert.operators)
        assert np.linalg.norm(rebuilt - psip) <= 1e-8 * np.linalg.norm(psip)


class TestRealignRankOne:
    def test_direct_kronecker_passes_and_factors(self):
        a1 = haar_unitary(2, seed=0)
        a2 = haar_unitary(2, seed=1)
        pt = np.kron(a1, a2)
        passed, factors = realign_rank1_check(np.eye(4), np.eye(4), pt, 2, 2, mode=LU)
        assert passed
        g1, g2 = factors
        assert np.linalg.norm(np.kron(g1, g2) - pt) < 1e-10

    def test_orbit_extract_pair_with_derived_blocks(self):
        psi = paper4_state([0.55, 0.45, 0.5, 0.3])
        ops = lu_ops((2, 2, 2, 2), seed=20)
        psip = apply_local(psi, ops)
        cert = derive_certificate(psi, psip, ops)
        t1 = concentrate(psi)
        t2 = concentrate(psip)
        for k in range(2):
            u = t1.levels[0].extracts[k].full_matrix
            up = t2.levels[0].extracts[k].full_matrix
            passed, factors = realign_rank1_check(u, up, cert.levels[0].p_tilde(k), 2, 2, mode=LU)
            assert passed
            # the connecting operator is the inverse pair operator
            b = np.kron(ops.ops[2 * k], ops.ops[2 * k + 1])
            g1, g2 = factors
            assert np.linalg.norm(np.kron(g1, g2) - np.linalg.inv(b)) < 1e-8

    def test_generic_invertible_fails(self):
        rng = np.random.default_rng(2)
        phi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        passed, factors = realign_rank1_check(np.eye(4), np.eye(4), phi, 2, 2)
        assert not passed
        assert factors is None

    def test_singular_u_prime_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            realign_rank1_check(np.eye(4), np.zeros((4, 4)), np.eye(4), 2, 2)

    def test_lu_mode_demands_a_unitary_operator(self):
        # 2 I is a Kronecker product, but not unitary
        u = haar_unitary(4, seed=0)
        assert realign_rank1_check(u, u, 2 * np.eye(4), 2, 2, mode=SLOCC)[0]
        assert realign_rank1_check(u, u, 2 * np.eye(4), 2, 2, mode=LU) == (False, None)

    def test_one_realignment_per_call(self, monkeypatch):
        # kron_factorize alone decides rank one, on a product and on a generic operator
        calls = []

        def counting(*args):
            calls.append(args)
            return realign(*args)

        monkeypatch.setattr(equivalence, "realign", counting)
        product = np.kron(haar_unitary(2, seed=0), haar_unitary(2, seed=1))
        rng = np.random.default_rng(2)
        generic = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for pt, mode, passes in ((product, LU, True), (generic, SLOCC, False)):
            calls.clear()
            assert realign_rank1_check(np.eye(4), np.eye(4), pt, 2, 2, mode)[0] is passes
            assert len(calls) == 1


class TestKronFactorize:
    def test_real_structured_factors(self):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        phi = np.kron(sx, h)
        a1, a2 = kron_factorize(phi, 2, 2)
        assert np.linalg.norm(np.kron(a1, a2) - phi) < 1e-12

    def test_identity_splits_into_identities(self):
        a1, a2 = kron_factorize(np.eye(4), 2, 2)
        assert np.allclose(np.kron(a1, a2), np.eye(4), atol=1e-12)
        # gauge: largest entry of the first factor real positive
        assert a1[0, 0].real > 0
        assert abs(a1[0, 0].imag) < 1e-12

    def test_scalar_absorbed_by_gauge(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c = -0.7 + 1.9j
        a1, a2 = kron_factorize(c * np.kron(a, b), 2, 3)
        assert np.linalg.norm(np.kron(a1, a2) - c * np.kron(a, b)) < 1e-10
        pivot = a1.flat[np.argmax(np.abs(a1))]
        assert pivot.real > 0 and abs(pivot.imag) < 1e-10

    def test_zero_matrix_is_not_rank_one(self):
        # a zero realignment has rank 0: no factors, and no 0/0 phase
        with pytest.raises(ValueError, match="not rank one"):
            kron_factorize(np.zeros((4, 4)), 2, 2)


class TestSpectralPreservation:
    def test_kronecker_never_refuted_in_rank_mode(self):
        for seed in range(10):
            a1 = random_invertible(2, 8.0, seed=seed)
            a2 = random_invertible(2, 8.0, seed=100 + seed)
            assert spectral_preservation_check(np.kron(a1, a2), MATRIX_RANK, 64, seed, 2, 2)

    def test_unitary_kronecker_preserves_lu_functionals(self):
        phi = np.kron(haar_unitary(2, seed=4), haar_unitary(2, seed=5))
        assert spectral_preservation_check(phi, SINGULAR_VALUE_SUM, 64, 0, 2, 2, tol=1e-10)
        assert spectral_preservation_check(phi, SQRT_SINGULAR_VALUE_SUM, 64, 0, 2, 2, tol=1e-10)

    def test_generic_invertible_refuted(self):
        refuted = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            phi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            if not spectral_preservation_check(phi, MATRIX_RANK, 64, seed, 2, 2):
                refuted += 1
        assert refuted >= 19

    @pytest.mark.parametrize("samples", [-5, 2.7, "64", None, True])
    def test_samples_must_be_a_non_negative_integer(self, samples):
        # a negative count once drew nothing and so never refuted this operator
        rng = np.random.default_rng(2)
        phi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert not spectral_preservation_check(phi, MATRIX_RANK, 64, 0, 2, 2)
        assert spectral_preservation_check(phi, MATRIX_RANK, 0, 0, 2, 2)
        with pytest.raises(ValueError, match="samples must be a non-negative integer"):
            spectral_preservation_check(phi, MATRIX_RANK, samples, 0, 2, 2)

    def test_nonsquare_pair_dims(self):
        a1 = random_invertible(2, 5.0, seed=6)
        a2 = random_invertible(3, 5.0, seed=7)
        assert spectral_preservation_check(np.kron(a1, a2), MATRIX_RANK, 48, 0, 2, 3)


class TestInvariantFilter:
    def test_ghz_vs_w_lu_inequivalent_with_spectrum_witness(self):
        verdict = invariant_filter(ghz_state(3), w_state(3), LU)
        assert verdict.status == INEQUIVALENT
        assert "singular values differ" in str(verdict.witness)

    def test_ghz_w_witness_matches_reduced_density_oracle(self):
        # brute-force reduced density matrices of both states, particle 0
        def reduced_spectrum(state):
            rho = np.zeros((2, 2), dtype=complex)
            flat = state.reshape(2, -1)
            rho = flat @ flat.conj().T
            return np.sqrt(np.sort(np.linalg.eigvalsh(rho))[::-1])

        ghz_sigma = reduced_spectrum(ghz_state(3))
        w_sigma = reduced_spectrum(w_state(3))
        assert np.allclose(ghz_sigma, [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert np.allclose(w_sigma, [np.sqrt(2.0 / 3.0), np.sqrt(1.0 / 3.0)], atol=1e-12)

    def test_orbit_pair_is_inconclusive(self):
        psi = random_state((2, 2, 2, 2), seed=11)
        psip = apply_local(psi, lu_ops((2, 2, 2, 2), seed=30))
        verdict = invariant_filter(psi, psip, LU)
        assert verdict.status == INCONCLUSIVE

    def test_never_inequivalent_on_generated_orbits(self):
        rng = np.random.default_rng(31)
        for case in range(20):
            order = 3 + case % 4
            dims = tuple(int(d) for d in rng.integers(2, 4, size=order))
            psi = random_state(dims, seed=320 + case)
            lu_pair = apply_local(psi, lu_ops(dims, seed=340 + 10 * case))
            assert invariant_filter(psi, lu_pair, LU).status == INCONCLUSIVE
            slocc_pair = apply_local(psi, slocc_ops(dims, seed=360 + 10 * case))
            assert invariant_filter(psi, slocc_pair, SLOCC).status == INCONCLUSIVE

    def test_product_vs_bell_slocc_rank_witness(self):
        verdict = invariant_filter(product_state((2, 2)), ghz_state(2), SLOCC)
        assert verdict.status == INEQUIVALENT
        assert "local rank 1 vs 2" in str(verdict.witness)

    @pytest.mark.parametrize("mode", [LU, SLOCC])
    def test_level_rank_witness_when_particle_spectra_match(self, mode):
        # every qubit of both states is maximally mixed, but the (0-1) pair is
        # entangled with the rest in GHZ and not in two Bell pairs
        bell = ghz_state(2)
        verdict = invariant_filter(ghz_state(4), np.multiply.outer(bell, bell), mode)
        assert verdict.status == INEQUIVALENT
        assert verdict.witness == "level 1 mode 0: local rank 2 vs 1"

    @pytest.mark.parametrize(
        "psi, psip, mode, witness, comparisons",
        [
            pytest.param(
                product_state((2,) * 6, seed=1), random_state((2,) * 6, seed=2), SLOCC,
                "particle 0: local rank 1 vs 2", 1, id="particle 0",
            ),
            pytest.param(
                ghz_state(6), w_state(6), LU,
                "particle 0: singular values differ by 2.989e-01 "
                "([0.707107 0.707107] vs [0.912871 0.408248])", 1, id="particle 0 spectrum",
            ),
            # particle 1 is the second of pair mode 0 (I_a = 2, I_b = 3): the transposed reshape
            pytest.param(
                *projected_pair((2, 3, 2, 3, 2, 3), 3, 1), SLOCC,
                "particle 1: local rank 3 vs 2", 2, id="odd particle 1",
            ),
            pytest.param(
                *projected_pair((2,) * 6, 4, 3), SLOCC,
                "particle 3: local rank 2 vs 1", 4, id="odd particle 3",
            ),
            # particles 0-2 match; particle 3, the second of pair mode 1, does not
            pytest.param(
                np.multiply.outer(random_state((2, 3, 2), seed=1), random_state((3, 2, 3), seed=2)),
                np.multiply.outer(random_state((2, 3, 2), seed=1), random_state((3, 2, 3), seed=3)), LU,
                "particle 3: singular values differ by 1.081e-01 "
                "([0.729307 0.612308 0.30527 ] vs [0.831594 0.504181 0.232925])", 4,
                id="odd particle 3 spectrum",
            ),
            # rank-one spectra: printed to the local rank, so the level-1 reading
            # and the direct SVD print alike whatever rounding noise lies below it
            pytest.param(
                product_state((2, 2, 2, 2, 2, 3), seed=1),
                apply_local(product_state((2, 2, 2, 2, 2, 3), seed=1), slocc_ops((2, 2, 2, 2, 2, 3), seed=1)),
                LU, "particle 0: singular values differ by 5.384e+00 ([1.] vs [6.383642])", 1,
                id="rank-deficient spectrum",
            ),
            # the last particle of an odd order is a pair mode of its own
            pytest.param(
                *projected_pair((2,) * 7, 5, 6), SLOCC,
                "particle 6: local rank 2 vs 1", 7, id="lone last particle",
            ),
            pytest.param(
                *projected_pair((2, 2, 2, 2, 3), 6, 4), SLOCC,
                "particle 4: local rank 3 vs 2", 5, id="lone last qutrit",
            ),
            # an interior (2, 1) pair holds two particles, not a lone one: particle 2 differs
            pytest.param(
                np.multiply.outer(np.array([[1.0], [0.0]]), random_state((2, 2, 2), seed=1)),
                np.multiply.outer(np.array([[1.0], [0.0]]), random_state((2, 2, 2), seed=2)), LU,
                "particle 2: singular values differ by 2.303e-01 "
                "([0.925566 0.378587] vs [0.793221 0.608934])", 3, id="interior unit particle",
            ),
            # every qubit of both states is maximally mixed, but the (0-1) pair is
            # entangled with the rest in GHZ and not in three Bell pairs
            pytest.param(
                np.multiply.outer(ghz_state(4), ghz_state(2)),
                np.multiply.outer(np.multiply.outer(ghz_state(2), ghz_state(2)), ghz_state(2)), LU,
                "level 1 mode 0: local rank 2 vs 1", 7, id="level 1 mode 0",
            ),
        ],
    )
    def test_first_mismatch_fixes_witness_and_comparisons(self, psi, psip, mode, witness, comparisons):
        verdict = invariant_filter(psi, psip, mode)
        assert verdict.status == INEQUIVALENT
        assert verdict.witness == witness
        assert verdict.residuals["comparisons"] == comparisons
        assert reference_filter(psi, psip, mode) == (INEQUIVALENT, witness, comparisons)

    def test_copies_only_the_states_it_hands_off(self, monkeypatch):
        handed = []
        real_hand_off = equivalence.hand_off

        def recording_hand_off(*hierarchies):
            handed.extend(hierarchies)
            real_hand_off(*hierarchies)

        monkeypatch.setattr(equivalence, "hand_off", recording_hand_off)
        equivalence._HANDOFF.clear()
        bell = ghz_state(2)
        rejected = [
            (product_state((2,) * 6, seed=1), random_state((2,) * 6, seed=2)),  # at particle 0
            (np.multiply.outer(ghz_state(4), bell), np.multiply.outer(np.multiply.outer(bell, bell), bell)),
        ]
        for psi, psip in rejected:
            assert invariant_filter(psi, psip, SLOCC).status == INEQUIVALENT
        assert handed == [] and not equivalence._HANDOFF
        psi = random_state((2,) * 6, seed=3)
        psip = apply_local(psi, lu_ops((2,) * 6, seed=4))
        assert invariant_filter(psi, psip, LU).status == INCONCLUSIVE
        # hand_off swapped each state for a read-only copy of its own
        assert [h.state.shape for h in handed] == [psi.shape] * 2
        for h, t in zip(handed, (psi, psip)):
            assert not h.state.flags.writeable and not np.shares_memory(h.state, t)
            assert np.array_equal(h.state, t)
        states = [h.state for h in handed]
        real_hand_off(*handed)  # a second hand-off, as derive makes, copies nothing again
        assert all(h.state is t for h, t in zip(handed, states))
        equivalence._HANDOFF.clear()

    def test_shape_mismatch_trivially_inequivalent(self):
        verdict = invariant_filter(np.ones((2, 2)) / 2.0, np.ones((2, 2, 2)) / np.sqrt(8), SLOCC)
        assert verdict.status == INEQUIVALENT

    def test_slocc_mode_ignores_spectra(self):
        # same ranks, different spectra: SLOCC filter stays inconclusive
        a = np.diag([0.8, 0.6]).astype(complex)
        b = np.diag([0.9, np.sqrt(1 - 0.81)]).astype(complex)
        assert invariant_filter(a, b, SLOCC).status == INCONCLUSIVE
        assert invariant_filter(a, b, LU).status == INEQUIVALENT


def reference_filter(psi, psip, mode):
    """``(status, witness, comparisons)`` of the filter with a direct ``left_svd`` per particle.

    The reference the level-1 reading of the particle spectra must match:
    every particle's unfolding, then every mode of every level of the walk to
    stop order 3, compared as ``invariant_filter`` compares them.
    """
    comparisons = 0

    def compare(label, sa, sb):
        nonlocal comparisons
        comparisons += 1
        ra, rb = cutoff_rank(sa), cutoff_rank(sb)
        if ra != rb:
            return f"{label}: local rank {ra} vs {rb}"
        dev = float(np.max(np.abs(sa - sb))) if sa.size else 0.0
        if mode == LU and dev > equivalence.EQUIV_RTOL:
            return (
                f"{label}: singular values differ by {dev:.3e} "
                f"({np.array2string(sa[:ra], precision=6)} vs {np.array2string(sb[:rb], precision=6)})"
            )
        return None

    spectra = [
        (f"particle {k}", left_svd(unfold(psi, k))[1], left_svd(unfold(psip, k))[1])
        for k in range(psi.ndim)
    ]
    for level, (h, hp) in enumerate(zip(walk(psi, 3), walk(psip, 3)), start=1):
        for k, (sa, sb) in enumerate(zip(h.mode_spectra, hp.mode_spectra)):
            spectra.append((f"level {level} mode {k}", sa, sb))
    for label, sa, sb in spectra:
        witness = compare(label, sa, sb)
        if witness:
            return INEQUIVALENT, witness, comparisons
    return INCONCLUSIVE, "all compared invariants match", comparisons


def printed_values(witness):
    """``witness`` with each printed number to 4 significant digits and runs of blanks as one.

    The level-1 reading and the direct SVD agree to rounding, which can
    still move the last printed digit of a spectrum and how numpy pads it.
    """
    witness = re.sub(r"-?\d+\.\d*(?:e[+-]\d+)?", lambda m: f"{float(m.group()):.3e}", witness)
    return re.sub(r"\s+", " ", witness).replace("[ ", "[").replace(" ]", "]")


# unit dimensions too: a (2, 1) pair is two particles, and only the last of an odd order is alone
FILTER_DIMS = st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=9).filter(
    lambda dims: np.prod(dims) <= 2**12
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    dims=FILTER_DIMS,
    family=st.sampled_from(("random", "ghz", "w", "product")),
    partner=st.sampled_from(("lu orbit", "slocc orbit", "projected", "other tail", "unrelated")),
    mode=st.sampled_from((LU, SLOCC)),
    seed=st.integers(0, 2**32 - 1),
)
def test_particle_spectra_read_off_level_one(dims, family, partner, mode, seed):
    n = len(dims)
    # GHZ and W states, and a head and tail, need two particles
    assume(n > 1 or (family in ("random", "product") and partner != "other tail"))
    if family == "ghz":
        dims = (max(dims[0], 2),) * n
        psi = ghz_state(n, dims[0])
    elif family == "w":
        dims = (2,) * n
        psi = w_state(n)
    elif family == "product":
        psi = product_state(dims, seed=seed)
    else:
        psi = random_state(dims, seed=seed)
    dims = tuple(dims)
    if partner == "lu orbit":
        psip = apply_local(psi, lu_ops(dims, seed=seed % 1000))
    elif partner == "slocc orbit":
        psip = apply_local(psi, slocc_ops(dims, seed=seed % 1000))
    elif partner == "projected":
        # a unit particle projected to rank zero would zero the state: project one of dimension > 1
        projectable = [p for p, d in enumerate(dims) if d > 1]
        assume(projectable)
        psip = project_particle(psi, projectable[seed % len(projectable)], seed=seed % 1000)
    elif partner == "other tail":
        # both share one state of the first particles; the rest differ
        split = 1 + seed % (n - 1)
        head = random_state(dims[:split], seed=seed)
        psi = np.multiply.outer(head, random_state(dims[split:], seed=seed + 1))
        psip = np.multiply.outer(head, random_state(dims[split:], seed=seed + 2))
    else:
        psip = random_state(dims, seed=seed + 1)
    # the spectra read off level 1 are the direct ones, and level 1 is its hosvd
    level1 = []
    derived = list(equivalence._particle_spectra(psi, psip, level1))
    assert len(derived) == n and len(level1) == (n + 1) // 2
    for p, pair in enumerate(derived):
        for t, s in zip((psi, psip), pair):
            direct = left_svd(unfold(t, p))[1]
            assert s.shape == direct.shape
            assert np.max(np.abs(s - direct)) <= 1e-12 * direct[0]
    if n > 4:
        for i, t in enumerate((psi, psip)):
            ours = cut_to_ranks(rescale(t), [u[i] for u, _ in level1], [s[i] for _, s in level1])
            theirs = hosvd(rescale(t))
            assert all(np.array_equal(a, b) for a, b in zip(ours.factors, theirs.factors))
            assert np.array_equal(ours.core, theirs.core)
            assert all(np.array_equal(a, b) for a, b in zip(ours.mode_spectra, theirs.mode_spectra))
    # and the filter decides as the direct particle loop does
    verdict = invariant_filter(psi, psip, mode)
    status, witness, comparisons = reference_filter(psi, psip, mode)
    assert (verdict.status, printed_values(verdict.witness), verdict.residuals["comparisons"]) == (
        status,
        printed_values(witness),
        comparisons,
    )


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2), (3, 2, 2, 3)])
def test_few_party_filter_factors_each_pair_mode_once(monkeypatch, dims):
    # one left_svd of both states per pair mode; the walk of a two-mode level takes none
    calls = []
    real_left_svd = equivalence.left_svd

    def counting_left_svd(m):
        calls.append(np.shape(m))
        return real_left_svd(m)

    monkeypatch.setattr(equivalence, "left_svd", counting_left_svd)
    monkeypatch.setattr(decompose, "left_svd", counting_left_svd)
    equivalence._HANDOFF.clear()
    psi = random_state(dims, seed=1)
    psip = apply_local(psi, lu_ops(dims, seed=2))
    assert invariant_filter(psi, psip, LU).status == INCONCLUSIVE
    # two pair modes, each factored once for a stack of both states
    assert [shape[0] for shape in calls] == [2, 2]
    equivalence._HANDOFF.clear()


@pytest.mark.parametrize("psi", [ghz_state(4), random_state((2, 3, 3, 2), seed=5)], ids=["ghz", "random"])
def test_four_party_filter_hands_on_the_level_concentrate_builds(psi):
    # a two-mode level 1 is hosvd's one SVD, not the pair SVDs: in GHZ's
    # degenerate subspaces the two need not pick the same bases
    equivalence._HANDOFF.clear()
    ops = lu_ops(psi.shape, seed=3)
    psip = apply_local(psi, ops)
    assert invariant_filter(psi, psip, LU).status == INCONCLUSIVE
    derive_certificate(psi, psip, ops)
    handed = list(equivalence._HANDOFF)
    equivalence._HANDOFF.clear()
    assert [h.state.shape for h in handed] == [psi.shape] * 2
    for h, t in zip(handed, (psi, psip)):
        ours = extract_tripartites(h.kept[0], pair_dims(t.shape))
        theirs = concentrate(t).levels[0].extracts
        assert len(ours) == len(theirs) == 2
        assert all(np.array_equal(a.slices, b.slices) for a, b in zip(ours, theirs))


def test_kron_is_numpy_kron():
    rng = np.random.default_rng(0)
    for (m, n), (p, q) in (((2, 2), (2, 2)), ((3, 3), (3, 3)), ((4, 4), (4, 4)), ((2, 3), (3, 2))):
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        b = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        assert np.array_equal(equivalence._kron(a, b), np.kron(a, b))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_rank1_factors_of_a_plane_are_its_product_vectors(seed):
    # the plane spanned by a (x) b and c (x) d, given by any basis of it,
    # holds exactly these two product directions
    rng = np.random.default_rng(seed)
    a, b, c, d = rng.standard_normal((4, 2, 2)) @ [1, 1j]
    assume(abs(np.linalg.det(np.column_stack([a, c]))) > 0.1 * np.linalg.norm(a) * np.linalg.norm(c))
    assume(abs(np.linalg.det(np.column_stack([b, d]))) > 0.1 * np.linalg.norm(b) * np.linalg.norm(d))
    mix = rng.standard_normal((2, 2, 2)) @ [1, 1j]
    assume(np.linalg.cond(mix) < 100)
    planted = np.stack([np.kron(a, b), np.kron(c, d)])
    s1, s2 = mix.T @ planted
    found = equivalence._rank1_factors_2x2(s1, s2)
    assert found is not None and len(found) == 2
    # |cos| of the angle between each found direction (row) and each planted one (column)
    dirs = np.stack([np.kron(z, w) for z, w in found])
    cos = np.abs(dirs.conj() @ planted.T) / np.outer(np.linalg.norm(dirs, axis=1), np.linalg.norm(planted, axis=1))
    # in one order or the other, each found direction is one planted direction
    assert max(cos[0, 0] + cos[1, 1], cos[0, 1] + cos[1, 0]) > 2 - 1e-9


def planted_lu_problem(trial, r, dims=(2, 2), base=5000, cond=None):
    """Bases joined by an LU connector; unitary, or of condition up to ``cond`` when it is given."""
    i1, i2 = dims
    side = i1 * i2
    u = haar_unitary(side, seed=base + trial) if cond is None else random_invertible(side, cond, seed=base + trial)
    p0 = np.zeros((side, side), dtype=complex)
    p0[:r, :r] = haar_unitary(r, seed=base + 100 + trial)
    if r < side:
        p0[r:, r:] = haar_unitary(side - r, seed=base + 200 + trial)
    k = np.kron(haar_unitary(i1, seed=base + 300 + trial), haar_unitary(i2, seed=base + 400 + trial))
    return u, k.conj().T @ u @ p0


def non_local_rotation(side, size, seed=9):
    """``exp(i size H)``, ``H`` random Hermitian: moves a planted problem off its orbit by about ``size``."""
    g = np.random.default_rng(seed).standard_normal((side, side, 2)) @ [1, 1j]
    lam, v = np.linalg.eigh(g + g.conj().T)
    return v @ np.diag(np.exp(1j * size * lam)) @ v.conj().T


def planted_slocc_problem(trial, r, dims=(2, 2), base=7000, cond=10.0):
    i1, i2 = dims
    side = i1 * i2
    rng = np.random.default_rng(base + trial)
    u = haar_unitary(side, seed=base + trial)
    pt = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    pt[r:, :r] = 0
    k = np.kron(
        random_invertible(i1, cond, seed=base + 100 + trial),
        random_invertible(i2, cond, seed=base + 200 + trial),
    )
    return u, np.linalg.inv(k) @ u @ pt


class TestSearchPTilde:
    def test_trivial_case_found_at_first_restart(self):
        u = haar_unitary(4, seed=0)
        res = search_p_tilde(u, u, 4, 2, 2, mode=LU, budget=5, seed=0)
        assert res is not None
        assert res.restart_index == 0
        assert res.strategy == "direct"
        assert np.allclose(res.p_tilde(), np.eye(4), atol=1e-10)

    def test_zero_budget_tries_nothing(self):
        # restart 0's deterministic candidates count against the budget too
        u = haar_unitary(4, seed=0)
        assert search_p_tilde(u, u, 4, 2, 2, budget=0) is None

    # every split falls to the null-space solve at restart 0: (2, 2) r = 2 through the plane's
    # product vectors, r = 1, 3 and 5 through the Schmidt pairs the zero-block map reads
    PLANTED_LU = [(2, 2, r) for r in (1, 2, 3)] + [(3, 2, r) for r in range(1, 6)]

    @pytest.mark.parametrize(
        "i1, i2, r",
        PLANTED_LU,
        ids=[f"{r}" if (i1, i2) == (2, 2) else f"{i1}x{i2}-{r}" for i1, i2, r in PLANTED_LU],
    )
    def test_planted_lu_problems_solved(self, i1, i2, r):
        for trial in range(5):
            u, up = planted_lu_problem(trial, r, (i1, i2))
            res = search_p_tilde(u, up, r, i1, i2, mode=LU, budget=50, seed=trial)
            assert res is not None
            assert res.objective <= 1e-8
            pt = res.p_tilde()
            assert np.linalg.norm(pt.conj().T @ pt - np.eye(i1 * i2)) < 1e-8
            if (i1, i2, r, trial) == (2, 2, 2, 1):
                # no other candidate source solves this one
                assert res.strategy == "null"

    # every split of a 2x3 or 3x3 pair whose zero-block map has a one-dimensional null
    # space, and the 2x2 r = 2 split, whose map has a two-dimensional one
    NULL_SOLVED = [(2, 2, 2)] + [
        (i1, i2, r) for i1, i2 in ((2, 3), (3, 2), (3, 3)) for r in range(2, i1 * i2 - 1)
    ]

    @pytest.mark.parametrize("i1, i2, r", NULL_SOLVED, ids=[f"{i1}x{i2}-{r}" for i1, i2, r in NULL_SOLVED])
    def test_null_space_solves_planted_lu_problems(self, i1, i2, r, monkeypatch):
        # the zero-block condition is linear in z (x) w: one SVD solves it
        # at restart 0 (on a qubit pair with a quadratic for the plane's
        # product vectors)
        calls = self.count_candidate_calls(monkeypatch)
        for trial in range(5):
            u, up = planted_lu_problem(trial, r, (i1, i2))
            res = search_p_tilde(u, up, r, i1, i2, LU, budget=50, seed=trial)
            assert (res.restart_index, res.strategy) == (0, "null")
            assert res.objective <= 1e-13
        assert calls["_null_phases"] == 5

    @pytest.mark.parametrize("r", [1, 8])
    def test_null_space_on_the_read_columns_solves_the_outer_splits(self, r, monkeypatch):
        # at r = 1 and 8 of a 3x3 pair the zero-block map reads only the three
        # Schmidt-paired columns, so on all nine its null space has 7
        # dimensions; on the three it reads it is a line, whose phases are
        # those of z (x) w there
        returned = []
        real = equivalence._null_phases

        def recording(*args):
            returned.append(real(*args))
            return returned[-1]

        monkeypatch.setattr(equivalence, "_null_phases", recording)
        for trial in range(5):
            u, up = planted_lu_problem(trial, r, (3, 3))
            m = equivalence._phase_tensor(
                np.linalg.inv(u), up, equivalence._reduced_bases(u, up, r, 3, 3), r, 3, 3
            ).reshape(9, -1).T
            assert 9 - cutoff_rank(np.linalg.svd(m, compute_uv=False)) == 7
            res = search_p_tilde(u, up, r, 3, 3, LU, budget=50, seed=trial)
            assert (res.restart_index, res.strategy) == (0, "null")
            assert res.objective <= 1e-13
        assert [len(zw) for zw in returned] == [1] * 5

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_planted_slocc_problems_solved(self, r):
        for trial in range(5):
            u, up = planted_slocc_problem(trial, r)
            res = search_p_tilde(u, up, r, 2, 2, mode=SLOCC, budget=50, seed=trial)
            assert res is not None
            assert res.objective <= 1e-8

    # (dims, r, trial, cond) of planted problems the search solved before its
    # restarts were stacked: at condition 10 on restart 0, at 1e3 only on a
    # later restart (21, 3, 24 and 35 then), so the stacked solve finds them
    PLANTED_SLOCC = [
        *[((2, 3), r, trial, 10.0) for r in (1, 2, 4, 5) for trial in (0, 1)],
        *[((3, 3), r, trial, 10.0) for r in (1, 8) for trial in (0, 1, 2)],
        ((2, 3), 2, 4, 1e3),
        ((2, 3), 5, 7, 1e3),
        ((3, 3), 1, 3, 1e3),
        ((3, 3), 8, 4, 1e3),
    ]

    @pytest.mark.parametrize(
        "dims, r, trial, cond",
        PLANTED_SLOCC,
        ids=[f"{i1}x{i2}-{r}-{t}-cond{c:g}" for (i1, i2), r, t, c in PLANTED_SLOCC],
    )
    def test_planted_slocc_problems_beyond_qubit_pairs_solved(self, dims, r, trial, cond):
        u, up = planted_slocc_problem(trial, r, dims, cond=cond)
        res = search_p_tilde(u, up, r, *dims, mode=SLOCC, budget=50, seed=trial)
        assert res is not None
        assert res.objective <= equivalence.EQUIV_RTOL
        pt = res.p_tilde()
        assert not pt[r:, :r].any()
        assert realign_rank1_check(u, up, pt, *dims, SLOCC)[0]

    @pytest.mark.parametrize("r", [4, 9])
    def test_stacking_changes_no_start(self, r, monkeypatch):
        # eight starts on a planted 3x3 problem of condition 1e3, under the
        # search's barrier bound: the planted factors, the identity and six
        # seeded restarts.  At r = 4 the planted factors converge at once,
        # restarts 7, 9 and 19 leave the barrier, and the identity and
        # restarts 13, 18 and 23 stop when, at their last rate, they cannot
        # converge in the iterations left; at r = 9 there is no lower-left
        # block, so no start moves.
        u, up = planted_slocc_problem(1, r, (3, 3), cond=1e3)
        bound = equivalence.COND_LIMIT * equivalence._condition(up)
        w2, w1 = equivalence._als_operators(np.linalg.inv(u), up, r, 3, 3)
        a1, a2 = equivalence._als_starts((1,), [0, 0, 7, 9, 13, 18, 19, 23], 3, 3)
        # the first identity start becomes the planted factors, which converge at once
        a1[0], a2[0] = random_invertible(3, 1e3, seed=7101), random_invertible(3, 1e3, seed=7201)
        sizes = []
        resids = []
        real = equivalence._min_right_vectors

        def recording(m, cols):
            sizes.append(len(m))
            v, sv = real(m, cols)
            resids.append(sv[:, -1])
            return v, sv

        monkeypatch.setattr(equivalence, "_min_right_vectors", recording)
        b1, b2 = equivalence._als_kron_factors(w2, w1, a1, a2, bound)
        stacked_sizes = sizes[::2]
        stops = []
        iterations = []
        for j in range(8):
            sizes.clear()
            resids.clear()
            c1, c2 = equivalence._als_kron_factors(w2, w1, a1[j : j + 1], a2[j : j + 1], bound)
            assert np.array_equal(c1[0], b1[j]) and np.array_equal(c2[0], b2[j])
            iterations.append(len(sizes) // 2)
            if sizes:
                # each iteration's residual is the second half-step's smallest singular value
                res = [s[0] for s in resids[1::2]]
                k = len(res)
                rate = min(res[-1] / res[-2], 1.0) if k > 1 else 0.0
                cond = equivalence._condition(c1[0]) * equivalence._condition(c2[0])
                stops.append(
                    "converged"
                    if res[-1] < 1e-14
                    else "past the barrier"
                    if cond > bound
                    else "cannot converge"
                    if res[-1] * rate ** (60 - k) > 1e-14
                    else "ran out"
                )
        # at each iteration the stack holds exactly the starts still going
        assert stacked_sizes == [sum(n > k for n in iterations) for k in range(max(iterations))]
        if r == 9:
            assert iterations == [0] * 8
            assert np.array_equal(b1, a1) and np.array_equal(b2, a2)
        else:
            assert stops == [
                "converged",
                "cannot converge",
                "past the barrier",
                "past the barrier",
                "cannot converge",
                "cannot converge",
                "past the barrier",
                "cannot converge",
            ]

    def test_start_stops_at_the_first_iteration_past_the_barrier(self, monkeypatch):
        # the search bounds cond(A1) cond(A2) by COND_LIMIT cond(U) cond(U');
        # a start stops at the first iterate past it, where the unprojected
        # P~ = U^{-1} kron(A1, A2) U' already fails the barrier
        bounds = []
        real = equivalence._als_kron_factors

        def recording(*args):
            bounds.append(args[4])
            return real(*args)

        u, up = planted_slocc_problem(1, 4, (3, 3), cond=1e3)
        monkeypatch.setattr(equivalence, "_als_kron_factors", recording)
        search_p_tilde(u, up, 4, 3, 3, SLOCC, budget=2, seed=1)
        bound = equivalence.COND_LIMIT * equivalence._condition(up)
        assert bounds == [bound, bound]
        monkeypatch.undo()

        iterates = []
        real_vectors = equivalence._min_right_vectors

        def recording_vectors(m, cols):
            v, sv = real_vectors(m, cols)
            iterates.append(v[0])
            return v, sv

        monkeypatch.setattr(equivalence, "_min_right_vectors", recording_vectors)
        u_inv = np.linalg.inv(u)
        w2, w1 = equivalence._als_operators(u_inv, up, 4, 3, 3)
        # restarts that leave the barrier after 2 to 4 iterations, while still
        # able to converge in the iterations left
        a1, a2 = equivalence._als_starts((1,), [7, 19, 24, 34], 3, 3)
        for j in range(4):
            start = a1[j : j + 1], a2[j : j + 1]
            iterates.clear()
            b1, b2 = equivalence._als_kron_factors(w2, w1, *start, bound)
            # each iteration sets A2, then A1
            pairs = [(v1.reshape(3, 3), v2.reshape(3, 3)) for v2, v1 in zip(iterates[::2], iterates[1::2])]
            conds = [equivalence._condition(c1) * equivalence._condition(c2) for c1, c2 in pairs]
            k = len(pairs)
            assert 1 < k < 60
            assert max(conds[:-1]) <= bound < conds[-1]
            assert np.array_equal(b1[0], pairs[-1][0]) and np.array_equal(b2[0], pairs[-1][1])
            assert equivalence._condition(u_inv @ np.kron(b1[0], b2[0]) @ up) > equivalence.COND_LIMIT
            # without the bound the start goes on from there
            iterates.clear()
            equivalence._als_kron_factors(w2, w1, *start, np.inf)
            assert len(iterates) > 2 * k
            assert np.array_equal(iterates[2 * k - 1].reshape(3, 3), b1[0])
            assert np.array_equal(iterates[2 * k - 2].reshape(3, 3), b2[0])

    def test_constraint_operators_match_the_einsum_reference(self):
        # vec(A1) @ w2 and vec(A2) @ w1 are the half-steps' constraint matrices,
        # equal to rounding to the direct contraction; 2x3 tells the factors apart
        u, up = planted_slocc_problem(0, 4, (2, 3))
        u_inv = np.linalg.inv(u)
        w2, w1 = equivalence._als_operators(u_inv, up, 4, 2, 3)
        u_rows, up_cols = u_inv.reshape(6, 2, 3)[4:], up.reshape(2, 3, 6)[:, :, :4]
        rng = np.random.default_rng(0)
        a1, a2 = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (2, 3))
        m2 = np.einsum("apq,pP,PQb->abqQ", u_rows, a1, up_cols).reshape(-1, 9)
        m1 = np.einsum("apq,qQ,PQb->abpP", u_rows, a2, up_cols).reshape(-1, 4)
        got2 = (a1.reshape(1, 4) @ w2).reshape(-1, 9)
        got1 = (a2.reshape(1, 9) @ w1).reshape(-1, 4)
        assert np.linalg.norm(got2 - m2) <= 1e-14 * np.linalg.norm(m2)
        assert np.linalg.norm(got1 - m1) <= 1e-14 * np.linalg.norm(m1)

    @pytest.mark.parametrize("budget", [-1, 2.7, 3.0, "5", None, True])
    def test_budget_must_be_a_non_negative_integer(self, budget):
        u = haar_unitary(4, seed=0)
        with pytest.raises(ValueError, match="budget must be a non-negative integer"):
            search_p_tilde(u, u, 2, 2, 2, budget=budget)

    @pytest.mark.parametrize("seed", [-1, 2.7, "3", (1, -2), [0, 1.5], (0, (1, -1)), False, (1, True)])
    def test_seed_is_checked_before_any_candidate(self, seed):
        # the direct basis change solves u against u at restart 0, which
        # draws nothing: a bad seed must fail all the same
        u = haar_unitary(4, seed=0)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            search_p_tilde(u, u, 2, 2, 2, budget=50, seed=seed)

    def test_seed_forms_naming_one_stream(self):
        # found by a seeded ALS start on a later restart (13, 2 and 15 for the
        # three seeds), so the pick depends on the seed's entropy
        u, up = planted_slocc_problem(3, 2, (2, 3), cond=1e3)
        for same in ([None, 0, (0,), np.int64(0)], [11, (11,), [11], ((11,),)], [(3, 1), [3, (1,)]]):
            picks = [search_p_tilde(u, up, 2, 2, 3, SLOCC, budget=50, seed=seed) for seed in same]
            assert len({(res.restart_index, res.strategy, res.p_tilde().tobytes()) for res in picks}) == 1
            assert picks[0].restart_index > 0

    def test_first_candidate_within_tolerance_is_returned(self, monkeypatch):
        # a 3x3 r = 1 problem moved off its orbit by 1e-10: the null-space
        # phase solve scores 2.6e-11, within EQUIV_RTOL, so the search takes
        # it and tries no other candidate in search of a lower score
        calls = self.count_candidate_calls(monkeypatch)
        u, up = planted_lu_problem(0, 1, (3, 3))
        res = search_p_tilde(u, non_local_rotation(9, 1e-10) @ up, 1, 3, 3, LU, budget=50, seed=0)
        assert (res.restart_index, res.strategy) == (0, "null")
        assert 1e-13 < res.objective <= equivalence.EQUIV_RTOL
        assert calls["_null_phases"] == 1

    @pytest.mark.parametrize("mode", [LU, SLOCC])
    @pytest.mark.parametrize("i1, i2, r", [(2, 2, 1), (2, 2, 3), (3, 3, 1), (2, 3, 2)])
    def test_vacuous_zero_block_condition_solved(self, i1, i2, r, mode):
        # in the product basis the phase tensor vanishes, so unit phases
        # already solve the zero-block condition, though its null space, the
        # whole space, gives the null-space solve no candidate
        side = i1 * i2
        p0 = np.zeros((side, side), dtype=complex)
        p0[:r, :r] = haar_unitary(r, seed=1)
        p0[r:, r:] = haar_unitary(side - r, seed=2)
        k = np.kron(haar_unitary(i1, seed=3), haar_unitary(i2, seed=4))
        u = np.eye(side, dtype=complex)
        res = search_p_tilde(u, k.conj().T @ u @ p0, r, i1, i2, mode=mode, budget=50, seed=0)
        assert res is not None
        assert res.objective <= 1e-14

    def test_found_blocks_give_kronecker_connector(self):
        u, up = planted_slocc_problem(0, 2)
        res = search_p_tilde(u, up, 2, 2, 2, mode=SLOCC, budget=50, seed=0)
        phi = u @ res.p_tilde() @ np.linalg.inv(up)
        a1, a2 = kron_factorize(phi, 2, 2)
        assert np.linalg.norm(np.kron(a1, a2) - phi) <= 1e-7 * np.linalg.norm(phi)

    def test_ghz_vs_w_extract_pair_not_found(self):
        tg = concentrate(ghz_state(3), stop_order=2)
        tw = concentrate(w_state(3), stop_order=2)
        u = tg.levels[0].extracts[0].full_matrix
        up = tw.levels[0].extracts[0].full_matrix
        # budgeted run comes back empty: recorded as inconclusive, not disproof
        assert search_p_tilde(u, up, 2, 2, 2, mode=SLOCC, budget=25, seed=0) is None

    def test_determinism_for_fixed_inputs(self):
        u, up = planted_slocc_problem(3, 2)
        r1 = search_p_tilde(u, up, 2, 2, 2, mode=SLOCC, budget=20, seed=5)
        r2 = search_p_tilde(u, up, 2, 2, 2, mode=SLOCC, budget=20, seed=5)
        assert r1.objective == r2.objective
        assert np.array_equal(r1.p_tilde(), r2.p_tilde())

    @pytest.mark.parametrize("r", [0, 5])
    def test_rank_range_validated(self, r):
        with pytest.raises(ValueError, match="out of range 1..4"):
            search_p_tilde(np.eye(4), np.eye(4), r, 2, 2)

    @pytest.mark.parametrize("r", [-1, 2.5, np.float64(2.0), 2.0, "2", None, True])
    def test_rank_split_must_be_an_integer(self, r):
        # a ValueError, not a TypeError from slicing the blocks or comparing a
        # string; a bool is not an integer here
        with pytest.raises(ValueError, match="r must be a non-negative integer"):
            search_p_tilde(np.eye(4), np.eye(4), r, 2, 2)

    @pytest.mark.parametrize("side", ["u", "u_prime"])
    @pytest.mark.parametrize(
        "bad, reason",
        [
            (np.zeros((4, 4)), "is numerically singular"),
            (np.diag([1.0, 1.0, 1.0, 0.0]), "is numerically singular"),
            (np.full((4, 4), np.nan), "has non-finite entries"),
        ],
        ids=["zeros", "diag-1110", "nan"],
    )
    def test_bad_bases_rejected_before_any_candidate(self, bad, reason, side, monkeypatch):
        # a ValueError naming the basis, not a LinAlgError from inverting it
        calls = self.count_candidate_calls(monkeypatch)
        u = haar_unitary(4, seed=0)
        bases = {"u": u, "u_prime": u, side: bad}
        with pytest.raises(ValueError, match=f"^{side} {reason}$"):
            search_p_tilde(bases["u"], bases["u_prime"], 2, 2, 2, SLOCC, budget=50, seed=0)
        assert calls == Counter()

    @staticmethod
    def count_candidate_calls(monkeypatch) -> Counter:
        calls = Counter()
        for name in (
            "_matching_candidates",
            "_reduced_bases",
            "_phase_tensor",
            "_null_phases",
            "_als_kron_factors",
        ):
            real = getattr(equivalence, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(equivalence, name, counting)
        return calls

    def test_exact_direct_candidate_stops_the_stream(self, monkeypatch):
        calls = self.count_candidate_calls(monkeypatch)
        u = haar_unitary(4, seed=0)
        res = search_p_tilde(u, u, 2, 2, 2, SLOCC)
        assert calls == Counter()
        assert res.strategy == "direct"

    # every split of the three pair shapes the search workload draws
    NON_UNITARY_LU = [((i1, i2), r) for i1, i2 in ((2, 2), (2, 3), (3, 3)) for r in range(1, i1 * i2)]

    @pytest.mark.parametrize("dims, r", NON_UNITARY_LU, ids=[f"{i1}x{i2}-{r}" for (i1, i2), r in NON_UNITARY_LU])
    def test_lu_mode_runs_no_als_on_non_unitary_bases(self, dims, r, monkeypatch):
        # restart 0's closed forms decide LU mode on any bases; on planted LU
        # problems whose bases are not unitary (condition 10) only the direct
        # change and the matches apply, and neither finds the connector
        calls = self.count_candidate_calls(monkeypatch)
        for trial in range(6):
            u, up = planted_lu_problem(trial, r, dims, cond=10.0)
            assert search_p_tilde(u, up, r, *dims, LU, budget=50, seed=trial) is None
        assert calls["_als_kron_factors"] == calls["_reduced_bases"] == 0

    def test_reduced_bases_built_once_per_search(self, monkeypatch):
        # a planted problem moved off its orbit by a non-local rotation of size
        # 1e-7: the reduced spectra still match to 1e-6, so the phase solve
        # runs, and no candidate reaches EQUIV_RTOL
        calls = self.count_candidate_calls(monkeypatch)
        u, up = planted_lu_problem(0, 2)
        assert search_p_tilde(u, non_local_rotation(4, 1e-7) @ up, 2, 2, 2, LU, budget=5, seed=0) is None
        assert calls["_reduced_bases"] == calls["_phase_tensor"] == 1


LU_SPLITS = [((i1, i2), r) for i1, i2 in ((2, 2), (2, 3), (3, 2), (3, 3)) for r in range(1, i1 * i2)]


def reduced_spectra_gap(u, r, i1, i2):
    """Smallest gap between eigenvalues of either partial trace of ``u``'s rank-``r`` projector."""
    proj = (u[:, :r] @ u[:, :r].conj().T).reshape(i1, i2, i1, i2)
    return min(
        np.min(np.diff(np.linalg.eigvalsh(rho)))
        for rho in (np.einsum("iqjq->ij", proj), np.einsum("aiaj->ij", proj))
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(split=st.sampled_from(LU_SPLITS), trial=st.integers(0, 10_000))
def test_lu_phases_closed_form_at_every_split(split, trial):
    # with non-degenerate reduced spectra, the null-space phase solve finds
    # every planted LU problem at restart 0, the outer splits r = 1 and
    # side - 1 included, so one restart is budget enough
    dims, r = split
    u, up = planted_lu_problem(trial, r, dims)
    assume(reduced_spectra_gap(u, r, *dims) > 1e-3)
    res = search_p_tilde(u, up, r, *dims, LU, budget=1, seed=trial)
    assert res is not None
    assert (res.restart_index, res.strategy) == (0, "null")
    assert res.objective <= equivalence.EQUIV_RTOL


# (dims, r, mode) of the gate property: 3x3 SLOCC problems, mostly unsolved, are left out
GATE_PROBLEMS = [
    ((i1, i2), r, mode)
    for i1, i2 in ((2, 2), (2, 3), (3, 3))
    for r in range(1, i1 * i2)
    for mode in (LU, SLOCC)
    if mode == LU or (i1, i2) != (3, 3)
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    problem=st.sampled_from(GATE_PROBLEMS),
    trial=st.integers(0, 10_000),
    cond=st.sampled_from((10.0, 1e3)),
    budget=st.integers(1, 30),
)
def test_every_found_connector_passes_the_benchmark_gate(problem, trial, cond, budget):
    # the checks of the search workload's gate, whichever candidate the search
    # takes, the null-space solve's on 2x3 and 3x3 LU problems included; at
    # condition 1e3 the SLOCC scores sit near the rounding floor
    dims, r, mode = problem
    i1, i2 = dims
    if mode == LU:
        u, up = planted_lu_problem(trial, r, dims)
    else:
        u, up = planted_slocc_problem(trial, r, dims, cond=cond)
    res = search_p_tilde(u, up, r, i1, i2, mode, budget=budget, seed=trial)
    if res is None:
        return
    pt = res.p_tilde()
    assert res.p.shape == (r, r)
    assert not pt[r:, :r].any()
    if mode == LU:
        assert np.linalg.norm(pt.conj().T @ pt - np.eye(i1 * i2)) <= equivalence.EQUIV_RTOL
    assert res.objective <= equivalence.EQUIV_RTOL
    s = np.linalg.svd(realign(u @ pt @ np.linalg.inv(up), i1, i2), compute_uv=False)
    assert s[1] <= equivalence.EQUIV_RTOL * s[0]


def barrier_accepts(u, up, r, i1, i2, a1, a2):
    """Whether the search takes the SLOCC candidate of the factors ``a1, a2``."""
    pt = np.linalg.inv(u) @ np.kron(a1, a2) @ up
    pt[r:, :r] = 0
    if equivalence._condition(pt) > equivalence.COND_LIMIT:
        return False
    return equivalence._realign_ratio(u @ pt @ np.linalg.inv(up), i1, i2) <= equivalence.EQUIV_RTOL


SLOCC_SPLITS = [((i1, i2), r) for i1, i2 in ((2, 2), (2, 3), (3, 3)) for r in range(1, i1 * i2)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    split=st.sampled_from(SLOCC_SPLITS),
    trial=st.integers(0, 10_000),
    cond=st.sampled_from((10.0, 1e3)),
)
def test_barrier_bound_loses_no_accepted_start(split, trial, cond):
    # sixteen starts as the search draws them, with the search's bound and
    # with none: a start whose unbounded run ends in a candidate the search
    # takes never leaves the barrier, so the bound leaves its factors as they were
    dims, r = split
    i1, i2 = dims
    u, up = planted_slocc_problem(trial, r, dims, cond=cond)
    w2, w1 = equivalence._als_operators(np.linalg.inv(u), up, r, i1, i2)
    starts = equivalence._als_starts((trial,), range(16), i1, i2)
    bound = equivalence.COND_LIMIT * equivalence._condition(up)
    b1, b2 = equivalence._als_kron_factors(w2, w1, *starts, bound)
    c1, c2 = equivalence._als_kron_factors(w2, w1, *starts, np.inf)
    for j in range(16):
        if barrier_accepts(u, up, r, i1, i2, c1[j], c2[j]):
            assert np.array_equal(b1[j], c1[j]) and np.array_equal(b2[j], c2[j])


def stall_rule_kron_factors(w2, w1, a1, a2, cond_bound, iters=60, ctol=1e-14):
    """``_als_kron_factors`` with the stall rule that the projection rule
    replaced: a start stops on convergence, past the barrier, or after three
    iterations in a row without a 0.1% gain, else runs all ``iters``."""
    (n, i1, _), i2 = a1.shape, a2.shape[1]
    a1, a2 = a1.copy(), a2.copy()
    if w2.shape[1] == 0:
        return a1, a2
    live = np.arange(n)
    prev = np.full(n, np.inf)
    stalls = np.zeros(n, dtype=int)
    for _ in range(iters):
        v2, _ = equivalence._min_right_vectors(a1[live].reshape(-1, 1, i1 * i1) @ w2, i2 * i2)
        a2[live] = v2.reshape(-1, i2, i2)
        v1, sv = equivalence._min_right_vectors(a2[live].reshape(-1, 1, i2 * i2) @ w1, i1 * i1)
        a1[live] = v1.reshape(-1, i1, i1)
        resid = sv[:, -1] if sv.shape[1] >= i1 * i1 else np.zeros(live.size)
        stalled = resid > prev[live] * 0.999
        stalls[live] = np.where(stalled, stalls[live] + 1, 0)
        prev[live] = resid
        stopped = (resid < ctol) | (stalls[live] >= 3)
        if cond_bound < np.inf:
            s1 = np.linalg.svd(a1[live], compute_uv=False)
            s2 = np.linalg.svd(a2[live], compute_uv=False)
            stopped |= s1[:, 0] * s2[:, 0] > cond_bound * (s1[:, -1] * s2[:, -1])
        live = live[~stopped]
        if live.size == 0:
            break
    return a1, a2


@pytest.mark.parametrize("cond", [10.0, 1e3], ids=["cond10", "cond1e3"])
@pytest.mark.parametrize("dims", [(2, 3), (3, 3)], ids=["2x3", "3x3"])
def test_retiring_starts_loses_no_candidate(dims, cond, monkeypatch):
    # a start that cannot converge in the iterations left gives no candidate
    # the search takes: on every split of planted SLOCC problems, the search
    # picks the same candidate as with the stall rule
    i1, i2 = dims
    picks = []
    for als in (equivalence._als_kron_factors, stall_rule_kron_factors):
        monkeypatch.setattr(equivalence, "_als_kron_factors", als)
        picks.append([])
        for r in range(1, i1 * i2):
            for trial in range(3):
                u, up = planted_slocc_problem(trial, r, dims, cond=cond)
                res = search_p_tilde(u, up, r, i1, i2, SLOCC, budget=50, seed=trial)
                picks[-1].append(res and (res.strategy, res.restart_index, repr(res.objective)))
    assert picks[0] == picks[1]
    assert any(pick and pick[0] == "als" for pick in picks[0])


def loop_phase_tensor(u_inv, u_prime, bases, r, i1, i2):
    """``_phase_tensor`` as one Kronecker product of the two intertwiners and two
    matmuls per ``(p, q)``: the reference for the two-basis-change form."""
    (v1, v1p), (v2, v2p) = bases
    t = np.empty((i1, i2, i1 * i2 - r, r), dtype=np.complex128)
    for p in range(i1):
        e1 = np.outer(v1[:, p], v1p[:, p].conj())
        for q in range(i2):
            e2 = np.outer(v2[:, q], v2p[:, q].conj())
            t[p, q] = (u_inv @ np.kron(e1, e2) @ u_prime)[r:, :r]
    return t


@pytest.mark.parametrize("dims, r", LU_SPLITS, ids=[f"{i1}x{i2}-{r}" for (i1, i2), r in LU_SPLITS])
def test_phase_tensor_matches_the_loop(dims, r):
    # the entries are bounded by 1 on unitary bases, so the two orders of
    # summation agree to rounding, absolutely
    i1, i2 = dims
    side = i1 * i2
    for trial in range(3):
        u, up = haar_unitary(side, seed=trial), haar_unitary(side, seed=50 + trial)
        haar = [(haar_unitary(d, seed=100 + 10 * trial + k), haar_unitary(d, seed=200 + 10 * trial + k))
                for k, d in enumerate(dims)]
        pu, pup = planted_lu_problem(trial, r, dims)
        for a, b, bases in ((u, up, haar), (pu, pup, equivalence._reduced_bases(pu, pup, r, i1, i2))):
            a_inv = np.linalg.inv(a)
            got = equivalence._phase_tensor(a_inv, b, bases, r, i1, i2)
            want = loop_phase_tensor(a_inv, b, bases, r, i1, i2)
            assert got.shape == want.shape == (i1, i2, side - r, r)
            assert np.max(np.abs(got - want)) <= 1e-12


def four_draw_als_starts(entropy, restarts, i1, i2):
    """``_als_starts`` drawing each seeded pair in four ``standard_normal`` calls,
    the real then imaginary part of ``A1``, then of ``A2``: the reference for its one draw."""
    a1, a2 = [], []
    for restart in restarts:
        if restart == 0:
            g = [np.eye(d, dtype=np.complex128) for d in (i1, i2)]
        else:
            rng = np.random.default_rng(entropy + (restart,))
            g = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (i1, i2)]
            g = [m / np.linalg.norm(m) for m in g]
        a1.append(g[0])
        a2.append(g[1])
    return np.stack(a1), np.stack(a2)


def one_at_a_time_first_found(restarts, a1, a2, u, u_inv, up, up_inv, r):
    """``_first_found`` as one candidate at a time, each built from its own Kronecker
    product and scored with the barrier: the reference for the one pass."""
    i1, i2 = a1.shape[-1], a2.shape[-1]
    for restart, b1, b2 in zip(restarts, a1, a2):
        pt_full = u_inv @ np.kron(b1, b2) @ up
        p, y, pbar = pt_full[:r, :r], pt_full[:r, r:], pt_full[r:, r:]
        pt = equivalence._block_upper(p, y, pbar)
        if equivalence._condition(pt) > equivalence.COND_LIMIT:
            continue
        objective = equivalence._realign_ratio(u @ pt @ up_inv, i1, i2)
        if objective <= equivalence.EQUIV_RTOL:
            return equivalence.SearchResult(p, y, pbar, objective, restart, "als")
    return None


@pytest.mark.parametrize("entropy", [(0,), (1,), (3, 1)])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_one_draw_starts_are_the_four_draw_starts(dims, entropy):
    # bit for bit: one standard_normal call reads the stream the four calls read
    got = equivalence._als_starts(entropy, range(50), *dims)
    want = four_draw_als_starts(entropy, range(50), *dims)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# planted SLOCC problems of every split, with the four of condition 1e3 that
# PLANTED_SLOCC pins, two of which are found only on a later restart
ONE_PASS_PROBLEMS = [
    *[(dims, r, trial, cond) for dims, r in SLOCC_SPLITS for trial in (0, 1) for cond in (10.0, 1e3)],
    *[(dims, r, trial, cond) for dims, r, trial, cond in TestSearchPTilde.PLANTED_SLOCC if cond == 1e3],
]


def test_one_pass_scoring_loses_nothing(monkeypatch):
    # the later restarts built and scored in one pass pick the candidate that
    # one-at-a-time scoring with four-draw starts picks, to the last byte
    picks = []
    for first_found, starts in (
        (equivalence._first_found, equivalence._als_starts),
        (one_at_a_time_first_found, four_draw_als_starts),
    ):
        monkeypatch.setattr(equivalence, "_first_found", first_found)
        monkeypatch.setattr(equivalence, "_als_starts", starts)
        picks.append([])
        for dims, r, trial, cond in ONE_PASS_PROBLEMS:
            u, up = planted_slocc_problem(trial, r, dims, cond=cond)
            res = search_p_tilde(u, up, r, *dims, SLOCC, budget=50, seed=trial)
            picks[-1].append(res and (res.strategy, res.restart_index, repr(res.objective),
                                      res.p.tobytes(), res.y.tobytes(), res.p_bar.tobytes()))
    assert picks[0] == picks[1]
    # the stacked restarts give some of the picks
    assert any(pick is not None and pick[1] > 0 for pick in picks[0])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(side=st.sampled_from((2, 4, 6, 9)), seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 12.0))
def test_lu_candidates_never_meet_the_barrier(side, seed, spread):
    # an LU candidate is block_upper(polar(P), 0, polar(P_bar)), unitary to
    # rounding whatever P~ it comes from, ill-conditioned or singular, so the
    # COND_LIMIT barrier, which search_p_tilde applies in SLOCC mode only,
    # could never reject it
    rng = np.random.default_rng(seed)
    pt = (rng.standard_normal((side, side, 2)) @ [1, 1j]) * 10.0 ** rng.uniform(-spread, spread, side)
    pt[:, rng.integers(side)] *= rng.integers(2)
    for r in range(1, side + 1):
        p, y, pbar = equivalence._blocks(pt, r, LU)
        assert not y.any()
        assert equivalence._condition(equivalence._block_upper(p, y, pbar)) <= 1 + 1e-12


class TestSearchEquivalence:
    def test_unrelated_pair_is_inconclusive(self):
        psi = random_state((2, 2, 2, 2), seed=12)
        phi = random_state((2, 2, 2, 2), seed=13)
        verdict = search_equivalence(psi, phi, SLOCC, budget=8, seed=0)
        assert verdict.status == INCONCLUSIVE

    @pytest.mark.parametrize("mode, ops", [(LU, lu_ops), (SLOCC, slocc_ops)])
    def test_interior_unit_dimension_pair_is_searched(self, mode, ops):
        # (2, 1) is a real pair, not the odd trailing mode: it needs two operators
        dims = (2, 1, 2, 2)
        psi = random_state(dims, seed=1)
        psip = apply_local(psi, ops(dims, seed=5))
        verdict = search_equivalence(psi, psip, mode)
        assert "operators for an order-4 state" not in str(verdict.witness)
        assert verdict.status != INEQUIVALENT
        if verdict.status == EQUIVALENT:
            assert verify_certificate(psi, psip, verdict.witness).status == EQUIVALENT

    IDENTICAL_PAIRS = [
        *[(product_state, (2,) * 5, LU, s) for s in (0, 1, 2)],
        *[(product_state, (2,) * 4, LU, s) for s in (1, 2)],
        *[(random_state, (2, 2, 2), SLOCC, s) for s in (0, 1, 2)],
        (random_state, (2, 3, 2), SLOCC, 0),
    ]

    @pytest.mark.parametrize(
        "family, dims, mode, seed",
        IDENTICAL_PAIRS,
        ids=[f"{f.__name__}-{'x'.join(map(str, d))}-{m}-{s}" for f, d, m, s in IDENTICAL_PAIRS],
    )
    def test_identical_pair_is_certified(self, family, dims, mode, seed):
        # the direct basis change solves each mode to ~1e-16 at restart 0, and
        # the search stops at the first candidate within EQUIV_RTOL, so no
        # later candidate (e.g. -I on one mode) replaces it
        psi = family(dims, seed=seed)
        verdict = search_equivalence(psi, psi.copy(), mode, budget=50, seed=seed)
        assert verdict.status == EQUIVALENT, verdict.witness
        assert verify_certificate(psi, psi.copy(), verdict.witness).status == EQUIVALENT

    def test_bipartite_states_have_no_search_surface(self):
        verdict = search_equivalence(ghz_state(2), ghz_state(2), SLOCC, budget=4, seed=0)
        assert verdict.status == INCONCLUSIVE

    def test_level_rank_mismatch_searches_no_mode(self):
        equivalence._HANDOFF.clear()
        psi, psip = product_state((2,) * 6, seed=1), random_state((2,) * 6, seed=2)
        verdict = search_equivalence(psi, psip, LU)
        assert verdict.status == INCONCLUSIVE
        assert verdict.witness == "local ranks differ: [1, 1, 1] vs [4, 4, 4]"
        assert verdict.residuals == {"searched_modes": 0}
        assert not equivalence._HANDOFF

    def test_zero_budget_finds_no_connector_and_drops_the_filters_walks(self):
        equivalence._HANDOFF.clear()
        psi = random_state((2,) * 6, seed=3)
        psip = apply_local(psi, lu_ops((2,) * 6, seed=4))
        assert invariant_filter(psi, psip, LU).status == INCONCLUSIVE
        assert len(equivalence._HANDOFF) == 2
        verdict = search_equivalence(psi, psip, LU, budget=0)
        assert verdict.status == INCONCLUSIVE
        assert verdict.witness == "no connecting block matrix found for mode 0 within budget 0"
        assert verdict.residuals == {"searched_modes": 0, "objectives": []}
        assert not equivalence._HANDOFF

    @pytest.mark.parametrize("budget", [-3, 2.7, True])
    def test_budget_is_checked_before_any_walk(self, budget, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("walked before checking the budget")

        monkeypatch.setattr(equivalence, "walk", no_walk)
        psi = random_state((2,) * 4, seed=3)
        with pytest.raises(ValueError, match="budget must be a non-negative integer"):
            search_equivalence(psi, psi, LU, budget=budget)

    @pytest.mark.parametrize("seed", [-1, 2.7, (0, -1), True])
    def test_seed_is_checked_before_any_walk(self, seed, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("walked before checking the seed")

        monkeypatch.setattr(equivalence, "walk", no_walk)
        psi = random_state((2,) * 4, seed=3)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            search_equivalence(psi, psi, LU, seed=seed)

    def test_factorisation_failure_is_inconclusive(self, monkeypatch):
        def not_rank_one(*args):
            raise ValueError("realignment is not rank one")

        equivalence._HANDOFF.clear()
        monkeypatch.setattr(equivalence, "kron_factorize", not_rank_one)
        psi = random_state((2, 2, 2, 2), seed=0)
        verdict = search_equivalence(psi, psi.copy(), SLOCC, budget=5, seed=0)
        assert verdict.status == INCONCLUSIVE
        assert verdict.witness == "realignment is not rank one"
        assert not equivalence._HANDOFF

    @pytest.mark.parametrize("seed", [None, (3, 1), [3, 1]])
    def test_seed_may_be_none_or_a_sequence(self, seed):
        # each mode's search is seeded by (seed, mode), so a sequence nests
        psi = random_state((2, 2, 2), seed=0)
        verdict = search_equivalence(psi, psi.copy(), SLOCC, budget=5, seed=seed)
        assert verdict.status == EQUIVALENT, verdict.witness


@pytest.mark.parametrize("mode", [LU, SLOCC])
@pytest.mark.parametrize("n", [4, 5, 7, 9])
@pytest.mark.parametrize("pair", ["zero-zero", "zero-random", "random-zero"])
def test_zero_state_is_rejected_before_any_walk(monkeypatch, n, mode, pair):
    # a zero state has no levels: it once crashed the walk at 7 and 9 qubits
    # and passed the filter at 4 and 5, only to crash the search
    def no_walk(*args, **kwargs):
        raise AssertionError("walked a zero state")

    monkeypatch.setattr(equivalence, "walk", no_walk)
    monkeypatch.setattr(equivalence, "left_svd", no_walk)
    zero, rand = np.zeros((2,) * n), random_state((2,) * n, seed=n)
    psi, psip = {"zero-zero": (zero, zero), "zero-random": (zero, rand), "random-zero": (rand, zero)}[pair]
    name = "psi" if psi is zero else "psi_prime"
    message = re.escape(f"cannot check equivalence of the zero tensor ({name})")
    ops = LocalOperatorSet(tuple(np.eye(2) for _ in range(n)), mode)
    for stage in (
        lambda: invariant_filter(psi, psip, mode),
        lambda: search_equivalence(psi, psip, mode),
        lambda: derive_certificate(psi, psip, ops),
    ):
        with pytest.raises(ValueError, match=message):
            stage()


MODE_STAGES = {
    "invariant_filter": lambda mode: invariant_filter(ghz_state(2), ghz_state(2), mode),
    "LocalOperatorSet": lambda mode: LocalOperatorSet((np.eye(2),), mode),
    "search_p_tilde": lambda mode: search_p_tilde(np.eye(4), np.eye(4), 2, 2, 2, mode),
    "search_equivalence": lambda mode: search_equivalence(ghz_state(2), ghz_state(2), mode),
    "realign_rank1_check": lambda mode: realign_rank1_check(np.eye(4), np.eye(4), 2 * np.eye(4), 2, 2, mode),
    "verify_certificate": lambda mode: verify_certificate(
        ghz_state(2), ghz_state(2), EquivalenceCertificate(mode, LocalOperatorSet((np.eye(2),) * 2, LU), [])
    ),
}


@pytest.mark.parametrize("mode", ["bogus", "LU", "Slocc", None])
@pytest.mark.parametrize("stage", sorted(MODE_STAGES))
def test_unknown_mode_is_rejected_before_any_work(monkeypatch, stage, mode):
    # search_equivalence once walked both states and answered inconclusive,
    # realign_rank1_check read "LU" as SLOCC and passed 2 I, and
    # verify_certificate skipped the LU checks for any mode but "lu"
    def no_walk(*args, **kwargs):
        raise AssertionError("walked before checking the mode")

    monkeypatch.setattr(equivalence, "walk", no_walk)
    monkeypatch.setattr(equivalence, "left_svd", no_walk)
    with pytest.raises(ValueError, match=re.escape(f"mode must be 'lu' or 'slocc', got {mode!r}")):
        MODE_STAGES[stage](mode)


def test_import_does_not_load_scipy():
    # entcore depends on numpy alone: neither the import nor a search that
    # only the null-space phase solve (one SVD plus a quadratic) solves loads scipy
    src = os.path.dirname(os.path.dirname(entcore.__file__))
    u, up = planted_lu_problem(1, 2)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import numpy as np; import entcore\n"
        f"u, up = np.array({u.tolist()!r}), np.array({up.tolist()!r})\n"
        "res = entcore.search_p_tilde(u, up, 2, 2, 2, mode=entcore.LU, budget=50, seed=1)\n"
        "print(res.strategy, 'scipy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["null", "False"]


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: LocalOperatorSet((np.ones((2, 3)),), SLOCC),
            r"^operator 0 is not square: shape \(2, 3\)$",
            id="operator-not-square",
        ),
        pytest.param(
            lambda: LocalOperatorSet((np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]])), SLOCC),
            "^operator 1 has non-finite entries$",
            id="operator-non-finite",
        ),
        pytest.param(
            lambda: derive_certificate(
                random_state((2,) * 3, seed=1), random_state((2,) * 4, seed=2), lu_ops((2,) * 3, seed=3)
            ),
            r"^shape mismatch: \(2, 2, 2\) vs \(2, 2, 2, 2\)$",
            id="derive-shapes",
        ),
        pytest.param(
            lambda: derive_certificate(random_state((2,) * 3, seed=1), random_state((2,) * 3, seed=2),
                                       lu_ops((2,) * 4, seed=3)),
            r"^operator dims \(2, 2, 2, 2\) do not match state dims \(2, 2, 2\)$",
            id="derive-operator-dims",
        ),
        pytest.param(
            lambda: realign_rank1_check(np.eye(4), np.eye(4), np.eye(3), 2, 2),
            r"^p_tilde must be 4x4, got \(3, 3\)$",
            id="rank1-check-shape",
        ),
        pytest.param(
            lambda: equivalence.SpectralFunctional("trace"), "^unknown functional kind 'trace'$", id="functional"
        ),
        pytest.param(
            lambda: spectral_preservation_check(np.eye(3), MATRIX_RANK, 1, 0, 2, 2),
            r"^phi must be 4x4, got \(3, 3\)$",
            id="sampler-shape",
        ),
        pytest.param(
            lambda: search_p_tilde(np.eye(4), np.eye(3), 2, 2, 2), "^u and u_prime must be 4x4$", id="search-bases"
        ),
        pytest.param(
            lambda: search_equivalence(random_state((2,) * 3, seed=1), random_state((2,) * 4, seed=2), LU),
            r"^shape mismatch: \(2, 2, 2\) vs \(2, 2, 2, 2\)$",
            id="search-equivalence-shapes",
        ),
    ],
)
def test_validation_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
