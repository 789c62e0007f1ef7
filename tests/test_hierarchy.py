"""The concentration hierarchy is defined once, by ``decompose.walk``.

Concentration, certificate derivation and verification, and the invariant
filter must all see the same levels, and each must walk each state once.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcore import decompose
from entcore.decompose import concentrate, reconstruct
from entcore.equivalence import (
    EQUIVALENT,
    INCONCLUSIVE,
    LU,
    LocalOperatorSet,
    derive_certificate,
    invariant_filter,
    verify_certificate,
)
from entcore.states import apply_local, haar_unitary, random_state


def lu_orbit(dims, seed):
    psi = random_state(dims, seed=seed)
    ops = LocalOperatorSet(tuple(haar_unitary(d, seed=seed + 1 + i) for i, d in enumerate(dims)), LU)
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
@given(dims=SMALL_DIMS, stop_order=st.sampled_from((2, 3)), seed=st.integers(0, 2**32 - 1))
def test_tree_and_certificate_share_the_hierarchy(dims, stop_order, seed):
    psi, psip, ops = lu_orbit(tuple(dims), seed)
    tree = concentrate(psi, stop_order=stop_order)
    assert np.linalg.norm(reconstruct(tree) - psi) < 1e-10
    cert = derive_certificate(psi, psip, ops, stop_order=stop_order)
    assert verify_certificate(psi, psip, cert).status == EQUIVALENT
    assert [(lvl.plan, lvl.ranks) for lvl in cert.levels] == [
        (lvl.plan, lvl.ranks) for lvl in tree.levels
    ]


@pytest.mark.parametrize("order", [6, 9])
@pytest.mark.parametrize("stop_order", [2, 3])
def test_each_consumer_walks_each_state_once(monkeypatch, order, stop_order):
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
    psi, psip, ops = lu_orbit((2,) * order, seed=order)
    n_levels = levels_to(order, stop_order)
    assert n_levels >= 1

    count, _ = hosvd_calls(concentrate, psi, stop_order=stop_order)
    assert count == n_levels
    count, cert = hosvd_calls(derive_certificate, psi, psip, ops, stop_order=stop_order)
    assert count == 2 * n_levels
    count, verdict = hosvd_calls(verify_certificate, psi, psip, cert)
    assert verdict.status == EQUIVALENT
    assert count == 2 * n_levels
    count, verdict = hosvd_calls(invariant_filter, psi, psip, LU)
    assert verdict.status == INCONCLUSIVE
    assert count == 2 * levels_to(order, 2)
