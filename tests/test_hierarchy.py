"""The concentration hierarchy is defined once, by ``decompose.walk``.

Concentration, certificate derivation and verification, the invariant
filter and the search must all see the same levels, and filter -> derive ->
verify must walk each state once: each stage takes the walks the stage
before it handed off (``decompose.hand_off`` / ``decompose.take``), and no
walk is taken twice.
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entcore
from entcore import decompose, equivalence, states, tensor_ops
from entcore.decompose import concentrate, reconstruct
from entcore.equivalence import (
    EQUIVALENT,
    INCONCLUSIVE,
    INEQUIVALENT,
    LU,
    SLOCC,
    LocalOperatorSet,
    derive_certificate,
    invariant_filter,
    verify_certificate,
)
from entcore.states import apply_local, haar_unitary, random_invertible, random_state


@pytest.fixture(autouse=True)
def empty_handoff():
    """Each test starts with no handed-off walk, whatever the tests before it left."""
    decompose._HANDOFF.clear()


def orbit(dims, seed, mode=LU):
    """A random state, its image under seeded local operators, and the operators.

    LU draws Haar unitaries; SLOCC draws invertibles of condition number 10,
    whose inverses differ from their adjoints.
    """
    psi = random_state(dims, seed=seed)
    if mode == LU:
        mats = [haar_unitary(d, seed=seed + 1 + i) for i, d in enumerate(dims)]
    else:
        mats = [random_invertible(d, 10.0, seed=seed + 1 + i) for i, d in enumerate(dims)]
    ops = LocalOperatorSet(tuple(mats), mode)
    return psi, apply_local(psi, ops), ops


def levels_to(order, stop_order):
    # pairing halves the mode count, rounding up, until it reaches stop_order
    count = 0
    while order > stop_order:
        order = (order + 1) // 2
        count += 1
    return count


SMALL_DIMS = st.lists(st.sampled_from((2, 3)), min_size=2, max_size=7).filter(
    lambda dims: math.prod(dims) <= 2**9
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    dims=SMALL_DIMS,
    stop_order=st.sampled_from((2, 3)),
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from((LU, SLOCC)),
)
def test_tree_and_certificate_share_the_hierarchy(dims, stop_order, seed, mode):
    psi, psip, ops = orbit(tuple(dims), seed, mode)
    tree = concentrate(psi, stop_order=stop_order)
    assert np.linalg.norm(reconstruct(tree) - psi) < 1e-10
    cert = derive_certificate(psi, psip, ops, stop_order=stop_order)
    verdict = verify_certificate(psi, psip, cert)
    assert verdict.status == EQUIVALENT
    # each level's pairing follows from its input dims, which the ranks above fix
    assert [lvl.ranks for lvl in cert.levels] == [lvl.ranks for lvl in tree.levels]
    # verify took the walks derive handed off; a second verify walks both states afresh
    assert not decompose._HANDOFF
    fresh = verify_certificate(psi, psip, cert)
    assert fresh.status == verdict.status
    assert fresh.residuals == verdict.residuals


def hosvd_counter(monkeypatch):
    """Count the levels built; return ``hosvd_calls(fn, *args, **kwargs) -> (count, out)``.

    Every level ends in ``decompose.cut_to_ranks``: each ``hosvd`` call, and
    the filter's level 1, which it cuts from the SVDs its particle stage took.
    """
    calls = []
    real_cut = decompose.cut_to_ranks

    def counting_cut(t, bases, spectra):
        calls.append(np.shape(t))
        return real_cut(t, bases, spectra)

    def hosvd_calls(fn, *args, **kwargs):
        calls.clear()
        out = fn(*args, **kwargs)
        return len(calls), out

    # a module that imports the name holds its own reference: patch each one
    for module in (decompose, equivalence):
        monkeypatch.setattr(module, "cut_to_ranks", counting_cut)
    return hosvd_calls


@pytest.mark.parametrize("order", [6, 9])
@pytest.mark.parametrize("stop_order", [2, 3])
def test_each_consumer_walks_each_state_once(monkeypatch, order, stop_order):
    """Concentration walks to ``stop_order``; filter, derive and verify walk each state once.

    The filter walks both states to stop order 3, the certificates' default,
    whatever ``stop_order`` is: one more level to order 2 would factor a
    3-mode core, whose spectra the filter has already compared one level up.
    It walks on every call, and hands its walks to a derive at stop order 3;
    a derive at stop order 2 walks both states itself.  Verify takes derive's
    walks, so a second verify, with nothing left to take, walks both again.
    """
    hosvd_calls = hosvd_counter(monkeypatch)
    psi, psip, ops = orbit((2,) * order, seed=order)
    n_levels = levels_to(order, stop_order)
    n_filter = levels_to(order, 3)
    assert n_levels >= 1

    count, _ = hosvd_calls(concentrate, psi, stop_order=stop_order)
    assert count == n_levels
    for _ in range(2):  # the second filter does not take the walks the first handed off
        count, verdict = hosvd_calls(invariant_filter, psi, psip, LU)
        assert verdict.status == INCONCLUSIVE
        assert count == 2 * n_filter
    count, cert = hosvd_calls(derive_certificate, psi, psip, ops, stop_order=stop_order)
    assert count == (0 if stop_order == 3 else 2 * n_levels)
    count, verdict = hosvd_calls(verify_certificate, psi, psip, cert)
    assert verdict.status == EQUIVALENT
    assert count == 0
    assert not decompose._HANDOFF
    count, verdict = hosvd_calls(verify_certificate, psi.copy(), psip.copy(), cert)
    assert verdict.status == EQUIVALENT
    assert count == 2 * n_levels


@pytest.mark.parametrize("case", ["psi changed in place", "states swapped", "stop order relabelled"])
def test_verify_reuses_no_hierarchy_of_another_state(monkeypatch, case):
    """A handed-off walk stands in for a walk only of an equal state to the same stop order."""
    hosvd_calls = hosvd_counter(monkeypatch)
    psi, psip, ops = orbit((2,) * 6, seed=6)
    cert = derive_certificate(psi, psip, ops, stop_order=3)
    n_levels = len(cert.levels)
    if case == "psi changed in place":
        psi[(0,) * psi.ndim] += 0.5
        count, verdict = hosvd_calls(verify_certificate, psi, psip, cert)
        assert count == n_levels  # psi walked again, psi' taken
        assert verdict.residuals["reassembly"] > equivalence.EQUIV_RTOL
    elif case == "states swapped":
        # matching is by content, so each argument takes the walk of its own state
        count, verdict = hosvd_calls(verify_certificate, psip, psi, cert)
        assert count == 0
    else:
        cert.stop_order = 2
        count, verdict = hosvd_calls(verify_certificate, psi, psip, cert)
        # the certificate's one level is checked against fresh walks to order 2
        assert count == 2 * n_levels
        assert "does not reach the terminal order" in verdict.witness
    assert verdict.status == INCONCLUSIVE


def test_derive_walks_states_changed_since_the_filter(monkeypatch):
    hosvd_calls = hosvd_counter(monkeypatch)
    psi, psip, ops = orbit((2,) * 6, seed=6)
    assert invariant_filter(psi, psip, LU).status == INCONCLUSIVE
    # a common phase keeps the pair related by ops but changes every entry
    psi *= 1j
    psip *= 1j
    count, cert = hosvd_calls(derive_certificate, psi, psip, ops)
    assert count == 2 * len(cert.levels)
    count, verdict = hosvd_calls(verify_certificate, psi, psip, cert)
    assert count == 0
    assert verdict.status == EQUIVALENT


def test_an_inequivalent_filter_hands_nothing_on(monkeypatch):
    """A filter that stops at a level mismatch walked part way, and leaves no walk behind."""
    hosvd_calls = hosvd_counter(monkeypatch)
    psi = random_state((2,) * 6, seed=3)
    bell = np.array([[1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2)
    # every particle has rank 2 in both states, but psi' holds a Bell pair on (0, 1)
    psip = np.multiply.outer(bell, random_state((2,) * 4, seed=4))
    count, verdict = hosvd_calls(invariant_filter, psi, psip, SLOCC)
    assert verdict.status == INEQUIVALENT
    assert verdict.witness.startswith("level 1 mode 0")
    assert count == 2
    assert not decompose._HANDOFF


def test_threads_interleaving_checks_get_the_serial_verdicts():
    """Concurrent filter -> derive -> verify runs on different pairs share one hand-off."""
    pairs = [orbit((2,) * 6, seed=s, mode=m) for s, m in ((6, LU), (7, SLOCC), (8, LU), (9, SLOCC))]

    def check(psi, psip, ops):
        flt = invariant_filter(psi, psip, ops.mode)
        verdict = verify_certificate(psi, psip, derive_certificate(psi, psip, ops))
        return flt.status, flt.residuals, verdict.status, verdict.residuals

    serial = [check(*pair) for pair in pairs]
    assert all(out[2] == EQUIVALENT for out in serial)
    rounds = 40
    results = [[] for _ in pairs]
    start = threading.Barrier(len(pairs))

    def worker(i):
        start.wait(timeout=30)
        for _ in range(rounds):
            results[i].append(check(*pairs[i]))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(pairs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out, runs in zip(serial, results):
        assert runs == [out] * rounds


def test_all_modes_products_make_no_mode_multiply_call(monkeypatch):
    """Cores, rebuilds, operator application and the core relation are all-modes
    products through ``tensor_ops.multiply_modes``, never a ``mode_multiply`` loop."""
    calls = []
    real_mode_multiply = tensor_ops.mode_multiply

    def counting_mode_multiply(t, a, k):
        calls.append(k)
        return real_mode_multiply(t, a, k)

    # a module that imports the name holds its own reference: patch each one
    for module in (entcore, tensor_ops, decompose, states, equivalence):
        if hasattr(module, "mode_multiply"):
            monkeypatch.setattr(module, "mode_multiply", counting_mode_multiply)
    psi, psip, ops = orbit((2,) * 6, seed=6)
    tree = concentrate(psi, stop_order=2)
    assert np.linalg.norm(reconstruct(tree) - psi) < 1e-10
    assert np.linalg.norm(apply_local(psi, ops) - psip) < 1e-12
    cert = derive_certificate(psi, psip, ops)
    assert verify_certificate(psi, psip, cert).status == EQUIVALENT
    assert calls == []
