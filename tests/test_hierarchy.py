"""The concentration hierarchy is defined once, by ``decompose.walk``.

Concentration, certificate derivation and verification, and the invariant
filter must all see the same levels, and each must walk each state at most
once: verifying a derived certificate reuses the walks derivation kept.
"""

import math

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
    LU,
    SLOCC,
    EquivalenceCertificate,
    LocalOperatorSet,
    derive_certificate,
    invariant_filter,
    verify_certificate,
)
from entcore.states import apply_local, haar_unitary, random_invertible, random_state


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


def hand_built(cert):
    """The certificate's blocks in a new certificate, which keeps no hierarchy."""
    return EquivalenceCertificate(cert.mode, cert.operators, cert.levels, cert.stop_order)


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
    # the hierarchies the certificate kept give what fresh walks give
    fresh = verify_certificate(psi, psip, hand_built(cert))
    assert fresh.status == verdict.status
    assert fresh.residuals == verdict.residuals


def hosvd_counter(monkeypatch):
    """Patch ``decompose.hosvd`` to count; return ``hosvd_calls(fn, *args, **kwargs) -> (count, out)``."""
    calls = []
    real_hosvd = decompose.hosvd

    def counting_hosvd(t):
        calls.append(np.shape(t))
        return real_hosvd(t)

    def hosvd_calls(fn, *args, **kwargs):
        calls.clear()
        out = fn(*args, **kwargs)
        return len(calls), out

    monkeypatch.setattr(decompose, "hosvd", counting_hosvd)
    return hosvd_calls


@pytest.mark.parametrize("order", [6, 9])
@pytest.mark.parametrize("stop_order", [2, 3])
def test_each_consumer_walks_each_state_once(monkeypatch, order, stop_order):
    """Concentration walks to ``stop_order``, derive walks both states to it.

    Verify of a derived certificate reuses the walks it kept, also on equal
    copies of the states; a hand-built certificate keeps none, so verify walks
    both states.  The filter walks both states to stop order 3, the
    certificates' default, whatever ``stop_order`` is: one more level to order
    2 would factor a 3-mode core, whose spectra the filter has already
    compared one level up.
    """
    hosvd_calls = hosvd_counter(monkeypatch)
    psi, psip, ops = orbit((2,) * order, seed=order)
    n_levels = levels_to(order, stop_order)
    assert n_levels >= 1

    count, _ = hosvd_calls(concentrate, psi, stop_order=stop_order)
    assert count == n_levels
    count, cert = hosvd_calls(derive_certificate, psi, psip, ops, stop_order=stop_order)
    assert count == 2 * n_levels
    count, verdict = hosvd_calls(verify_certificate, psi, psip, cert)
    assert verdict.status == EQUIVALENT
    assert count == 0
    count, verdict = hosvd_calls(verify_certificate, psi.copy(), psip.copy(), cert)
    assert verdict.status == EQUIVALENT
    assert count == 0
    count, verdict = hosvd_calls(verify_certificate, psi, psip, hand_built(cert))
    assert verdict.status == EQUIVALENT
    assert count == 2 * n_levels
    count, verdict = hosvd_calls(invariant_filter, psi, psip, LU)
    assert verdict.status == INCONCLUSIVE
    assert count == 2 * levels_to(order, 3)


@pytest.mark.parametrize("case", ["psi changed in place", "states swapped", "stop order relabelled"])
def test_verify_reuses_no_hierarchy_of_another_state(monkeypatch, case):
    """A kept hierarchy stands in for a walk only of an equal state to the same stop order."""
    hosvd_calls = hosvd_counter(monkeypatch)
    psi, psip, ops = orbit((2,) * 6, seed=6)
    cert = derive_certificate(psi, psip, ops, stop_order=3)
    n_levels = len(cert.levels)
    if case == "psi changed in place":
        psi[(0,) * psi.ndim] += 0.5
        count, verdict = hosvd_calls(verify_certificate, psi, psip, cert)
        assert count == n_levels  # psi walked again, psi' reused
        assert verdict.residuals["reassembly"] > equivalence.EQUIV_RTOL
    elif case == "states swapped":
        count, verdict = hosvd_calls(verify_certificate, psip, psi, cert)
        assert count == 2 * n_levels
    else:
        cert.stop_order = 2
        count, verdict = hosvd_calls(verify_certificate, psi, psip, cert)
        # the certificate's one level is checked against fresh walks to order 2
        assert count == 2 * n_levels
        assert "does not reach the terminal order" in verdict.witness
    assert verdict.status == INCONCLUSIVE


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
