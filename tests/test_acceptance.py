"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (run with ``pytest -s`` to see
them); a failing assertion marks the criterion FAIL.
"""

import time

import numpy as np
import pytest

from entcore.decompose import (
    concentrate,
    count_parameters,
    level_tripartite_parameters,
    reconstruct,
)
from entcore.equivalence import (
    EQUIVALENT,
    INEQUIVALENT,
    LU,
    SLOCC,
    MATRIX_RANK,
    LocalOperatorSet,
    derive_certificate,
    invariant_filter,
    kron_factorize,
    search_p_tilde,
    spectral_preservation_check,
    verify_certificate,
)
from entcore.states import (
    apply_local,
    ghz_state,
    haar_unitary,
    paper4_state,
    paper6_state,
    product_state,
    random_invertible,
    random_state,
    w_state,
)
from entcore.tensor_ops import pair_dims, realign, unfold


def _report(number, detail):
    print(f"ACCEPTANCE {number}: PASS — {detail}")


def _phase_gauge_distance(got, want):
    overlap = np.vdot(got, want)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return np.linalg.norm(got * phase - want)


def _draw_four_qubit_params(rng):
    while True:
        a = rng.uniform(0.1, 1.0, size=4)
        a /= np.linalg.norm(a)
        if np.hypot(a[0], a[1]) < np.hypot(a[2], a[3]):
            a = np.array([a[2], a[3], a[0], a[1]])
        if np.hypot(a[0], a[1]) - np.hypot(a[2], a[3]) > 0.05:
            return a


def test_criterion_1_four_qubit_regression():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(20):
        a = _draw_four_qubit_params(rng)
        sa, sb = np.hypot(a[0], a[1]), np.hypot(a[2], a[3])
        tree = concentrate(paper4_state(a))
        assert len(tree.levels) == 1
        assert np.allclose(tree.terminal, np.diag([sa, sb]), atol=1e-10)
        expected = {
            0: [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, a[3]], [a[2], 0.0]]) / sb],
            1: [np.array([[0.0, a[1]], [a[0], 0.0]]) / sa, np.array([[1.0, 0.0], [0.0, 0.0]])],
        }
        for mode, ext in enumerate(tree.levels[0].extracts):
            assert ext.dims == (2, 2, 2)
            for got, want in zip(ext.slices, expected[mode]):
                assert _phase_gauge_distance(got, want) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"20 four-qubit draws match the reference core and extracts ({elapsed:.3f}s)")


def test_criterion_2_six_qubit_regression():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    units = [np.zeros((2, 2)) for _ in range(4)]
    units[0][0, 0] = units[1][1, 0] = units[2][0, 1] = units[3][1, 1] = 1.0
    for _ in range(5):
        b = np.sort(rng.uniform(0.2, 1.0, size=4))[::-1]
        b[0] += 0.3  # enforce distinct descending amplitudes
        b /= np.linalg.norm(b)
        tree = concentrate(paper6_state(b))
        assert len(tree.levels) == 1
        assert tree.levels[0].ranks == (4, 4, 4)
        for ext in tree.levels[0].extracts:
            assert len(ext.slices) == 4
            for got, want in zip(ext.slices, units):
                assert np.allclose(got, want, atol=1e-10)
        expected = np.zeros((4, 4, 4))
        for j in range(4):
            expected[j, j, j] = b[j]
        assert np.allclose(tree.terminal, expected, atol=1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"six-qubit extracts are the unit-matrix tuples, terminal is the "
               f"amplitude superdiagonal ({elapsed:.3f}s)")


def test_criterion_3_reconstruction_sweep():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst = 0.0
    runs = 0
    for case in range(100):
        order = 2 + case % 7  # orders 2..8
        dims = tuple(int(d) for d in rng.integers(2, 4, size=order))
        state = random_state(dims, seed=3000 + case)
        for stop_order in (2, 3):
            tree = concentrate(state, stop_order=stop_order)
            err = np.linalg.norm(reconstruct(tree) - state)
            worst = max(worst, err)
            assert err <= 1e-10
            runs += 1
    elapsed = time.perf_counter() - start
    assert runs == 200
    assert elapsed < 60.0
    _report(3, f"200 reconstructions at orders 2-8, worst error {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_4_twelve_qubit_hierarchy_shape():
    tree = concentrate(random_state((2,) * 12, seed=404), stop_order=2)
    per_level = [len(level.extracts) for level in tree.levels]
    tri = tree.tripartite_extract_count
    assert tri == 10
    assert tree.terminal.ndim == 2
    _report(4, f"12-qubit state gives {per_level} extracts per level, {tri} tripartite, "
               "one bipartite terminal")


def test_criterion_5_certificate_soundness_both_directions():
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    max_y = 0.0
    for mode in (LU, SLOCC):
        for case in range(100):
            order = 4 + case % 3
            dims = tuple(int(d) for d in rng.integers(2, 4, size=order))
            psi = random_state(dims, seed=5000 + case)
            if mode == LU:
                ops = LocalOperatorSet(
                    tuple(haar_unitary(d, seed=6000 + 10 * case + i) for i, d in enumerate(dims)),
                    LU,
                )
            else:
                ops = LocalOperatorSet(
                    tuple(
                        random_invertible(d, 10.0, seed=7000 + 10 * case + i)
                        for i, d in enumerate(dims)
                    ),
                    SLOCC,
                )
            psip = apply_local(psi, ops)
            cert = derive_certificate(psi, psip, ops)
            verdict = verify_certificate(psi, psip, cert)
            assert verdict.status == EQUIVALENT
            # converse direction: reassembling from the certificate's operators
            rebuilt = apply_local(psi, cert.operators)
            assert np.linalg.norm(rebuilt - psip) <= 1e-8 * np.linalg.norm(psip)
            if mode == LU:
                for level in cert.levels:
                    for y in level.y_blocks:
                        max_y = max(max_y, float(np.linalg.norm(y)))
    assert max_y <= 1e-8
    elapsed = time.perf_counter() - start
    _report(5, f"100 LU + 100 SLOCC orbits verified both directions, max LU Y-norm "
               f"{max_y:.2e} ({elapsed:.1f}s)")


def test_criterion_6_worst_case_parameter_identity():
    assert count_parameters((2, 2, 2, 2)) == 6
    assert count_parameters((2, 2, 2)) == -4
    rng = np.random.default_rng(606)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        dims = tuple(int(d) for d in rng.integers(1, 6, size=n))
        pairs = pair_dims(dims)
        worst_ranks = [ia * ib for ia, ib in pairs]
        n3 = level_tripartite_parameters(pairs, worst_ranks)
        nm = count_parameters(worst_ranks)
        assert n3 + nm == count_parameters(dims)
    _report(6, "N3 + NM equals the flat parameter count at full ranks for 50 random "
               "dimension tuples (exact integers)")


def test_criterion_7_realignment_criterion():
    rng = np.random.default_rng(707)
    worst_planted = 0.0
    worst_recovery = 0.0
    for case in range(100):
        i1, i2 = (2, 2) if case % 2 else (2, 3)
        if case % 3 == 0:
            a1 = haar_unitary(i1, seed=7100 + case)
            a2 = haar_unitary(i2, seed=7200 + case)
        else:
            a1 = random_invertible(i1, 10.0, seed=7300 + case)
            a2 = random_invertible(i2, 10.0, seed=7400 + case)
        phi = np.kron(a1, a2)
        s = np.linalg.svd(realign(phi, i1, i2), compute_uv=False)
        ratio = s[1] / s[0]
        worst_planted = max(worst_planted, ratio)
        assert ratio <= 1e-10
        g1, g2 = kron_factorize(phi, i1, i2)
        rec = np.linalg.norm(np.kron(g1, g2) - phi) / np.linalg.norm(phi)
        worst_recovery = max(worst_recovery, rec)
        assert rec <= 1e-8
    min_generic = np.inf
    for case in range(100):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        s_m = np.linalg.svd(m, compute_uv=False)
        if s_m[-1] < 1e-6 * s_m[0]:
            continue
        s = np.linalg.svd(realign(m, 2, 2), compute_uv=False)
        min_generic = min(min_generic, s[1] / s[0])
        assert s[1] / s[0] > 1e-3
    _report(7, f"100 planted Kronecker ratios <= {worst_planted:.1e}, recovery error "
               f"<= {worst_recovery:.1e}; 100 generic ratios >= {min_generic:.1e}")


def test_criterion_8_rank_sampler_refutation_power():
    refuted = 0
    for case in range(100):
        rng = np.random.default_rng(8000 + case)
        while True:
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            s_m = np.linalg.svd(m, compute_uv=False)
            if s_m[-1] > 1e-6 * s_m[0]:
                break
        if not spectral_preservation_check(m, MATRIX_RANK, 64, 8000 + case, 2, 2):
            refuted += 1
    assert refuted >= 95
    for case in range(25):
        a1 = random_invertible(2, 10.0, seed=8500 + case)
        a2 = random_invertible(2, 10.0, seed=8600 + case)
        assert spectral_preservation_check(np.kron(a1, a2), MATRIX_RANK, 64, case, 2, 2)
    _report(8, f"rank sampler refuted {refuted}/100 generic operators within 64 samples; "
               "25 Kronecker operators never refuted")


def test_criterion_9_sound_negatives_and_planted_search():
    # GHZ vs W: LU-inequivalent with the mode-spectrum witness ...
    verdict = invariant_filter(ghz_state(3), w_state(3), LU)
    assert verdict.status == INEQUIVALENT
    assert "singular values differ" in str(verdict.witness)

    # ... whose spectra match an independent reduced-density computation
    def particle_spectrum(state, k):
        rows = unfold(state, k)
        rho = rows @ rows.conj().T
        return np.sqrt(np.sort(np.linalg.eigvalsh(rho))[::-1])

    assert np.allclose(particle_spectrum(ghz_state(3), 0), [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert np.allclose(
        particle_spectrum(w_state(3), 0),
        [np.sqrt(2.0 / 3.0), np.sqrt(1.0 / 3.0)],
        atol=1e-12,
    )

    # product vs Bell: SLOCC-inequivalent by local rank
    verdict = invariant_filter(product_state((2, 2)), ghz_state(2), SLOCC)
    assert verdict.status == INEQUIVALENT
    assert "local rank" in str(verdict.witness)

    # planted-solution search: >= 90% recovery at budget 50 on dims <= 4
    successes = 0
    total = 0
    for mode in (LU, SLOCC):
        for case in range(25):
            r = 1 + case % 3
            base = 9000 + (0 if mode == LU else 500) + 37 * r
            u = haar_unitary(4, seed=base + case)
            if mode == LU:
                pt = np.zeros((4, 4), dtype=complex)
                pt[:r, :r] = haar_unitary(r, seed=base + 100 + case)
                pt[r:, r:] = haar_unitary(4 - r, seed=base + 200 + case)
                k = np.kron(
                    haar_unitary(2, seed=base + 300 + case),
                    haar_unitary(2, seed=base + 400 + case),
                )
                up = k.conj().T @ u @ pt
            else:
                rng = np.random.default_rng(base + case)
                pt = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                pt[r:, :r] = 0
                k = np.kron(
                    random_invertible(2, 10.0, seed=base + 300 + case),
                    random_invertible(2, 10.0, seed=base + 400 + case),
                )
                up = np.linalg.inv(k) @ u @ pt
            total += 1
            if search_p_tilde(u, up, r, 2, 2, mode=mode, budget=50, seed=case) is not None:
                successes += 1
    assert successes >= 0.9 * total
    _report(9, f"GHZ/W and product/Bell rejected soundly; planted search recovered "
               f"{successes}/{total} block matrices at budget 50")
