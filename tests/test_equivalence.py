import os
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entcore
from entcore import equivalence
from entcore.decompose import concentrate, cut_to_ranks, cutoff_rank, hosvd, left_svd, reconstruct, walk
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
from entcore.tensor_ops import realign, rescale, unfold


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
            # the last particle of an odd order is a pair mode of its own
            pytest.param(
                *projected_pair((2,) * 7, 5, 6), SLOCC,
                "particle 6: local rank 2 vs 1", 7, id="lone last particle",
            ),
            pytest.param(
                *projected_pair((2, 2, 2, 2, 3), 6, 4), SLOCC,
                "particle 4: local rank 3 vs 2", 5, id="lone last qutrit",
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
        copies = []
        real_copy = equivalence.read_only_copy

        def counting_copy(t):
            copies.append(np.shape(t))
            return real_copy(t)

        monkeypatch.setattr(equivalence, "read_only_copy", counting_copy)
        bell = ghz_state(2)
        rejected = [
            (product_state((2,) * 6, seed=1), random_state((2,) * 6, seed=2)),  # at particle 0
            (np.multiply.outer(ghz_state(4), bell), np.multiply.outer(np.multiply.outer(bell, bell), bell)),
        ]
        for psi, psip in rejected:
            assert invariant_filter(psi, psip, SLOCC).status == INEQUIVALENT
        assert copies == []
        psi = random_state((2,) * 6, seed=3)
        assert invariant_filter(psi, apply_local(psi, lu_ops((2,) * 6, seed=4)), LU).status == INCONCLUSIVE
        assert copies == [psi.shape] * 2

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
                f"({np.array2string(sa, precision=6)} vs {np.array2string(sb, precision=6)})"
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
    """``witness`` with each printed number to 4 significant digits and values below 1e-13 as 0.

    A witness prints the whole spectra, so also the singular values below the
    cutoff, which are rounding noise on either path and set how numpy pads
    and rounds the rest of the array.
    """
    def value(match):
        v = float(match.group())
        return "0" if abs(v) < 1e-13 else f"{v:.3e}"

    witness = re.sub(r"-?\d+\.\d*(?:e[+-]\d+)?", value, witness)
    return re.sub(r"\s+", " ", witness).replace("[ ", "[").replace(" ]", "]")


FILTER_DIMS = st.lists(st.sampled_from((2, 3)), min_size=4, max_size=9).filter(
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
    if family == "ghz":
        dims = (dims[0],) * n
        psi = ghz_state(n, dims[0])
    elif family == "w":
        dims = (2,) * n
        psi = w_state(n)
    elif family == "product":
        psi = product_state(dims, seed=seed)
    else:
        psi = random_state(dims, seed=seed)
    dims = tuple(dims)
    k = seed % n
    if partner == "lu orbit":
        psip = apply_local(psi, lu_ops(dims, seed=seed % 1000))
    elif partner == "slocc orbit":
        psip = apply_local(psi, slocc_ops(dims, seed=seed % 1000))
    elif partner == "projected":
        psip = project_particle(psi, k, seed=seed % 1000)
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
    assert len(derived) == n
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


def test_kron_is_numpy_kron():
    rng = np.random.default_rng(0)
    for (m, n), (p, q) in (((2, 2), (2, 2)), ((3, 3), (3, 3)), ((4, 4), (4, 4)), ((2, 3), (3, 2))):
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        b = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        assert np.array_equal(equivalence._kron(a, b), np.kron(a, b))


def planted_lu_problem(trial, r, dims=(2, 2), base=5000):
    i1, i2 = dims
    side = i1 * i2
    u = haar_unitary(side, seed=base + trial)
    p0 = np.zeros((side, side), dtype=complex)
    p0[:r, :r] = haar_unitary(r, seed=base + 100 + trial)
    if r < side:
        p0[r:, r:] = haar_unitary(side - r, seed=base + 200 + trial)
    k = np.kron(haar_unitary(i1, seed=base + 300 + trial), haar_unitary(i2, seed=base + 400 + trial))
    return u, k.conj().T @ u @ p0


def planted_slocc_problem(trial, r, base=7000):
    rng = np.random.default_rng(base + trial)
    u = haar_unitary(4, seed=base + trial)
    pt = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    pt[r:, :r] = 0
    k = np.kron(
        random_invertible(2, 10.0, seed=base + 100 + trial),
        random_invertible(2, 10.0, seed=base + 200 + trial),
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

    # (3, 2) puts the qubit factor second, so the pencil solves the transposed tensor
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
                assert res.strategy == "pencil"

    def test_singular_pencil_gives_no_candidate(self):
        # at r = 1 on a qubit pair both pencil matrices have rank one, so every
        # compression is numerically singular and its eigenvalues are rounding
        # noise: the phase ALS, not the pencil, must solve these
        for trial in range(5):
            u, up = planted_lu_problem(trial, 1)
            res = search_p_tilde(u, up, 1, 2, 2, mode=LU, budget=50, seed=trial)
            assert res is not None
            assert res.objective <= 1e-8
            assert res.strategy != "pencil"

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_planted_slocc_problems_solved(self, r):
        for trial in range(5):
            u, up = planted_slocc_problem(trial, r)
            res = search_p_tilde(u, up, r, 2, 2, mode=SLOCC, budget=50, seed=trial)
            assert res is not None
            assert res.objective <= 1e-8

    @pytest.mark.parametrize("mode", [LU, SLOCC])
    @pytest.mark.parametrize("i1, i2, r", [(2, 2, 1), (2, 2, 3), (3, 3, 1), (2, 3, 2)])
    def test_vacuous_zero_block_condition_solved(self, i1, i2, r, mode):
        # in the product basis the phase tensor vanishes, so unit phases
        # already solve the zero-block condition while the pencil is 0/0
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

    def test_rank_range_validated(self):
        with pytest.raises(ValueError):
            search_p_tilde(np.eye(4), np.eye(4), 0, 2, 2)

    @staticmethod
    def count_candidate_calls(monkeypatch) -> Counter:
        calls = Counter()
        for name in (
            "_matching_candidates",
            "_reduced_bases",
            "_phase_tensor",
            "_pencil_phase_candidates",
            "_phase_als",
            "_als_kron_factors",
        ):
            real = getattr(equivalence, name)

            def counting(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(equivalence, name, counting)
        return calls

    def test_exact_direct_candidate_stops_the_stream(self, monkeypatch):
        calls = self.count_candidate_calls(monkeypatch)
        u = haar_unitary(4, seed=0)
        res = search_p_tilde(u, u, 2, 2, 2, SLOCC)
        assert calls == Counter()
        assert res.strategy == "direct"

    def test_reduced_bases_built_once_per_search(self, monkeypatch):
        # a planted problem moved off its orbit by a non-local rotation of size
        # 1e-7: the reduced spectra still match to 1e-6, so every restart runs
        # the phase solve, and no candidate reaches EQUIV_RTOL
        calls = self.count_candidate_calls(monkeypatch)
        u, up = planted_lu_problem(0, 2)
        g = np.random.default_rng(9).standard_normal((4, 4, 2)) @ [1, 1j]
        lam, v = np.linalg.eigh(g + g.conj().T)
        nudge = v @ np.diag(np.exp(1e-7j * lam)) @ v.conj().T
        assert search_p_tilde(u, nudge @ up, 2, 2, 2, LU, budget=5, seed=0) is None
        assert calls["_phase_als"] == 5
        assert calls["_reduced_bases"] == calls["_phase_tensor"] == 1


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
        # the direct basis change solves each mode to ~1e-16 at restart 0; a
        # later candidate (e.g. -I on one mode) that scores lower only by
        # float noise must not replace it
        psi = family(dims, seed=seed)
        verdict = search_equivalence(psi, psi.copy(), mode, budget=50, seed=seed)
        assert verdict.status == EQUIVALENT, verdict.witness
        assert verify_certificate(psi, psi.copy(), verdict.witness).status == EQUIVALENT

    def test_bipartite_states_have_no_search_surface(self):
        verdict = search_equivalence(ghz_state(2), ghz_state(2), SLOCC, budget=4, seed=0)
        assert verdict.status == INCONCLUSIVE


def test_import_does_not_load_scipy():
    # entcore depends on numpy alone: neither the import nor a search that
    # only the phase pencil (numpy eigenvalues of C^{-1} A) solves loads scipy
    src = os.path.dirname(os.path.dirname(entcore.__file__))
    u, up = planted_lu_problem(1, 2)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import numpy as np; import entcore\n"
        f"u, up = np.array({u.tolist()!r}), np.array({up.tolist()!r})\n"
        "res = entcore.search_p_tilde(u, up, 2, 2, 2, mode=entcore.LU, budget=50, seed=1)\n"
        "print(res.strategy, 'scipy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["pencil", "False"]
