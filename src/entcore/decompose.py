"""Mode-wise SVD factorization, recursive state concentration and exact rebuild.

:func:`walk` is the one definition of the concentration hierarchy: until
the core has at most ``stop_order`` modes it pair-rescales, factors every
composite mode through the leading left singular vectors of its unfolding,
and recurses on the core.  :func:`hosvd` takes every mode's left singular
vectors and hands them to :func:`cut_to_ranks`, the one place that cuts a
level to its local ranks; its core is one all-modes product
(:func:`~entcore.tensor_ops.multiply_modes`) of the input with the factors'
conjugate transposes.  A caller that needs each mode's uncut basis before
the level is built (the invariant filter reads the particle spectra off
them) takes them one mode at a time with :func:`left_svd`; at a level of
three or more modes it ends in the same cut, so its level equals the
:func:`hosvd` one.  :func:`left_svd` is
the one SVD rule: a wide unfolding is first reduced to the small
triangular factor of its QR decomposition, so no right basis of the long
side is ever built; a two-mode tensor takes one SVD for both of its modes.
:func:`concentrate` and :mod:`entcore.equivalence` both consume that walk;
this module keeps no state between calls.

:func:`concentrate` records one extract per composite mode and level,
holding the wrapped factor columns (the slices) in one array, off which its
dims and the level's ranks are read.  Where a square basis is needed, the
slices are completed by :func:`complete_basis`, the one completion rule;
the complement is never stored.  The tree of extracts plus the terminal
core reproduces the input state exactly up to floating-point error.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .tensor_ops import (
    as_tensor,
    multiply_modes,
    pair_dims,
    rescale,
    tensor_norm,
    unfold,
    unrescale,
    vectorize,
    wrap,
)

__all__ = [
    "ConcentrationLevel",
    "ConcentrationTree",
    "HosvdResult",
    "ParameterCount",
    "TripartiteExtract",
    "RANK_RTOL",
    "complete_basis",
    "concentrate",
    "count_parameters",
    "count_tree_parameters",
    "cut_to_ranks",
    "cutoff_rank",
    "extract_tripartites",
    "hosvd",
    "left_svd",
    "reconstruct",
    "walk",
]

# Relative cutoff for counting a singular value toward the local rank.
RANK_RTOL = 1e-10
# Threshold below which a vector component does not qualify as the phase pivot.
GAUGE_EPS = 1e-12
# Smallest wide matrix that left_svd reduces through its R factor first.
_QR_MIN_ENTRIES = 512


def cutoff_rank(s) -> int:
    """Count the descending singular values ``s`` above ``RANK_RTOL * s[0]``; 0 if empty or zero."""
    if len(s) == 0 or not s[0] > 0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def left_svd(m) -> tuple[np.ndarray, np.ndarray]:
    """Thin left singular vectors and descending singular values of the matrix ``m``.

    A ``J x W`` matrix wider than tall (``W > J``) with at least 512 entries
    is first reduced to ``J x J``: with ``m.T = Q R`` (``R`` from
    ``np.linalg.qr(m.T, mode="r")``), ``m = R^T Q^T`` and ``Q^T`` has
    orthonormal rows, so ``R^T`` has the left singular vectors and the
    singular values of ``m``.  QR and the small SVD are both backward stable,
    so unlike an eigensolver on the Gram matrix ``m m^H`` this does not square
    the condition number, and neither ``Q`` nor a right basis is formed.
    Smaller or non-wide matrices take the thin SVD directly: below the floor
    the extra LAPACK call costs more than the smaller SVD saves.  A stack of
    matrices (``m`` of shape ``(..., J, W)``) is factored matrix by matrix in
    the same two LAPACK calls, each result equal to that of its matrix alone.
    """
    m = np.asarray(m)
    j, w = m.shape[-2:]
    if w > j and j * w >= _QR_MIN_ENTRIES:
        m = np.swapaxes(np.linalg.qr(np.swapaxes(m, -1, -2), mode="r"), -1, -2)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u, s


def _gauge_fix_columns(u: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component above ``GAUGE_EPS`` is real positive.

    Columns with no such component are left unchanged.
    """
    big = np.abs(u) > GAUGE_EPS
    cols = np.flatnonzero(big.any(axis=0))
    pivots = u[big.argmax(axis=0)[cols], cols]
    u = u.copy()
    u[:, cols] *= np.abs(pivots) / pivots
    return u


def complete_basis(u: np.ndarray) -> np.ndarray:
    """Square unitary whose leading columns are the orthonormal columns of ``u``.

    The trailing columns are those of ``np.linalg.qr(u, mode="complete")``, so
    equal inputs give equal bases.  A square ``u`` is returned as it is.
    """
    j, r = u.shape
    if r == j:
        return u
    q, _ = np.linalg.qr(u, mode="complete")
    return np.concatenate([u, q[:, r:]], axis=1)


@dataclass(eq=False)
class HosvdResult:
    """Per-mode factors cut to the local ranks, the all-orthogonal core and the full spectra."""

    factors: list[np.ndarray]
    core: np.ndarray
    mode_spectra: list[np.ndarray]

    @property
    def local_ranks(self) -> list[int]:
        """The core's shape: factor ``k`` has ``local_ranks[k]`` columns."""
        return list(self.core.shape)


def hosvd(t) -> HosvdResult:
    """Rank-truncated HOSVD of ``t``: each mode's leading left singular vectors and their core.

    Factor ``k`` is the ``J_k x r_k`` matrix of the leading left singular
    vectors of the ``J_k x W_k`` unfolding ``unfold(t, k)``, from
    :func:`left_svd`, by descending singular value, phase-fixed so the result
    is deterministic for non-degenerate spectra.  The local rank ``r_k`` is
    :func:`cutoff_rank` of the mode's spectrum: the singular values above
    ``RANK_RTOL`` relative to the largest.  A two-mode ``t`` takes one thin SVD
    ``t = U S V^H``: mode 1 unfolds to ``t.T = conj(V) S U^T``, so its factor
    is ``conj(V)`` with the same spectrum, and the core is diagonal.  Neither a
    right basis nor a completion of the left one is built (see
    :func:`complete_basis`).  The core is ``t`` multiplied on every mode by
    that factor's conjugate transpose, in one
    :func:`~entcore.tensor_ops.multiply_modes` call, so its shape is the
    local ranks; ``mode_spectra`` keep every singular value.  The cut, the
    phase fix and the core are :func:`cut_to_ranks`.
    """
    t = np.asarray(t, dtype=np.complex128)
    if t.ndim < 2:
        raise ValueError("need at least two modes")
    if t.ndim == 2:
        u, s, vh = np.linalg.svd(t, full_matrices=False)
        return cut_to_ranks(t, [u, vh.T], [s, s])
    return cut_to_ranks(t, *zip(*(left_svd(unfold(t, k)) for k in range(t.ndim))))


def cut_to_ranks(t: np.ndarray, bases, spectra) -> HosvdResult:
    """The :func:`hosvd` of the complex128 ``t`` from each mode's uncut left singular vectors.

    ``bases[k]`` and ``spectra[k]`` are mode ``k``'s left singular vectors
    and descending singular values, as :func:`left_svd` of ``unfold(t, k)``
    gives them.  Each basis is cut to :func:`cutoff_rank` of its spectrum and
    phase-fixed, and the core is ``t`` times every factor's conjugate
    transpose.  This is the one place a level is cut to its local ranks:
    :func:`hosvd` ends here, and so does a caller that took the bases one
    mode at a time.
    """
    factors = [_gauge_fix_columns(u[:, : cutoff_rank(s)]) for u, s in zip(bases, spectra)]
    core = multiply_modes(t, [u.conj().T for u in factors])
    return HosvdResult(factors, core, list(spectra))


@dataclass(eq=False)
class TripartiteExtract:
    """Wrapped leading singular vectors of one composite mode.

    The mode is the extract's position in ``ConcentrationLevel.extracts``.
    ``slices`` is the C-contiguous complex128 ``(r, I_a, I_b)`` stack of the
    ``r`` leading wrapped vectors.  The ``J - r`` complement slices are
    derived, not stored: with the slices their vectorizations are the columns
    of the ``J x J`` unitary :func:`complete_basis` builds from :attr:`basis_matrix`.
    """

    slices: np.ndarray

    @property
    def dims(self) -> tuple[int, int, int]:
        """``(r, I_a, I_b)``: the shape of :attr:`slices`."""
        return self.slices.shape

    @property
    def is_tripartite(self) -> bool:
        """True when both local dimensions exceed one (not a degenerate strip)."""
        return self.dims[1] > 1 and self.dims[2] > 1

    @property
    def basis_matrix(self) -> np.ndarray:
        """``J x r`` matrix whose columns are the vectorized slices."""
        return vectorize(self.slices).T

    @property
    def full_matrix(self) -> np.ndarray:
        """``J x J`` unitary: the basis matrix completed by :func:`complete_basis`."""
        return complete_basis(self.basis_matrix)

    @property
    def complement_slices(self) -> np.ndarray:
        """The ``J - r`` trailing columns of :attr:`full_matrix`, wrapped: a ``(J - r, I_a, I_b)`` stack."""
        r, ia, ib = self.dims
        return wrap(self.full_matrix[:, r:].T, ia, ib)


def extract_tripartites(h: HosvdResult, pair_dims) -> list[TripartiteExtract]:
    """Wrap each factor's columns into slices; the rank is the factor's width."""
    pair_dims = tuple(tuple(p) for p in pair_dims)
    if len(pair_dims) != len(h.factors):
        raise ValueError(f"{len(pair_dims)} pair dims for {len(h.factors)} modes")
    out = []
    for k, ((ia, ib), u) in enumerate(zip(pair_dims, h.factors)):
        if ia * ib != len(u):
            raise ValueError(f"mode {k}: composite dimension {len(u)} does not factor as {ia}x{ib}")
        out.append(TripartiteExtract(wrap(u.T, ia, ib)))
    return out


@dataclass(eq=False)
class ConcentrationLevel:
    input_dims: tuple[int, ...]
    extracts: list[TripartiteExtract]
    core_norm: float

    @property
    def ranks(self) -> tuple[int, ...]:
        """The local ranks, the core's shape: each extract's slice count."""
        return tuple(len(ext.slices) for ext in self.extracts)


@dataclass(eq=False)
class ConcentrationTree:
    """Hierarchy of per-level extracts plus the terminal low-order core."""

    original_shape: tuple[int, ...]
    levels: list[ConcentrationLevel]
    terminal: np.ndarray
    stop_order: int

    @property
    def tripartite_extract_count(self) -> int:
        return sum(1 for level in self.levels for e in level.extracts if e.is_tripartite)


def walk(t, stop_order: int) -> Iterator[HosvdResult]:
    """Lazily yield the concentration hierarchy of ``t``, outermost level first.

    Each level is the :func:`hosvd` of its input rescaled under the adjacent
    pairing (:func:`~entcore.tensor_ops.pair_dims` of the input's dims); its
    core, already cut to the local ranks, is the next level's input.  The walk
    stops once the core has at most ``stop_order`` modes, which is checked on
    the call, not on the first level.
    """
    if stop_order not in (2, 3):
        raise ValueError("stop_order must be 2 or 3")

    def levels(cur):
        while cur.ndim > stop_order:
            h = hosvd(rescale(cur))
            yield h
            cur = h.core

    return levels(t)


def concentrate(state, stop_order: int = 3) -> ConcentrationTree:
    """Recursively rescale and factor ``state`` until the core has <= ``stop_order`` modes.

    Levels are recorded outermost-first; see :func:`walk`.
    """
    t = as_tensor(state)
    if t.ndim < 2:
        raise ValueError("need at least two modes")
    if not t.any():
        raise ValueError("cannot concentrate the zero tensor")
    levels = []
    core = t
    for h in walk(t, stop_order):
        extracts = extract_tripartites(h, pair_dims(core.shape))
        levels.append(ConcentrationLevel(core.shape, extracts, tensor_norm(h.core)))
        core = h.core
    return ConcentrationTree(t.shape, levels, core, stop_order)


def reconstruct(tree: ConcentrationTree) -> np.ndarray:
    """Replay a concentration tree innermost-first back into the full state; ``ValueError`` if it is inconsistent."""
    cur = np.asarray(tree.terminal, dtype=np.complex128)
    for level in reversed(tree.levels):
        if cur.shape != level.ranks:
            raise ValueError(f"core shape {cur.shape} does not match level ranks {level.ranks}")
        pairs = tuple(ext.dims[1:] for ext in level.extracts)
        if pairs != pair_dims(level.input_dims):
            raise ValueError(f"extract pair dims {pairs} are not the pairing of {level.input_dims}")
        cur = unrescale(multiply_modes(cur, [ext.basis_matrix for ext in level.extracts]), level.input_dims)
    if cur.shape != tuple(tree.original_shape):
        raise ValueError(f"reconstructed shape {cur.shape} != original {tree.original_shape}")
    return cur


def count_parameters(dims) -> int:
    """Entanglement-class parameter count for the given local dimensions.

    Evaluates ``2*(prod(I) - 1) - 2*sum(I_i^2 - 1)`` exactly; the result may
    be negative and is returned raw.
    """
    dims = [int(d) for d in dims]
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"dimensions must be integers >= 1, got {dims}")
    total = 1
    for d in dims:
        total *= d
    return 2 * (total - 1) - 2 * sum(d * d - 1 for d in dims)


def level_tripartite_parameters(pair_dims, ranks) -> int:
    """Parameter count of one level's extracts: sum over modes of
    ``2*(r*I_a*I_b - 1) - 2*(I_a^2 + I_b^2 - 2)``."""
    return sum(
        2 * (int(r) * ia * ib - 1) - 2 * (ia * ia + ib * ib - 2)
        for (ia, ib), r in zip(pair_dims, ranks)
    )


@dataclass
class ParameterCount:
    total: int
    per_level: list[tuple[int, int]]


def count_tree_parameters(tree: ConcentrationTree) -> ParameterCount:
    """Per level ``(N_3, N_M)`` pairs and the tree total.

    ``N_3`` counts the level's extract parameters, ``N_M`` the residual core's.
    The total replaces each level's residual by the next level's split, so it
    sums the ``N_3`` terms plus the terminal core's count.  Values may be
    negative and are never clamped.
    """
    per_level = []
    for level in tree.levels:
        n3 = level_tripartite_parameters(pair_dims(level.input_dims), level.ranks)
        nm = count_parameters(level.ranks)
        per_level.append((n3, nm))
    total = sum(n3 for n3, _ in per_level) + count_parameters(tree.terminal.shape)
    return ParameterCount(total, per_level)
