"""Mode-wise SVD factorization, recursive state concentration and exact rebuild.

:func:`walk` is the one definition of the concentration hierarchy.  It
repeats three steps until the residual core has at most ``stop_order``
modes: pair-rescale, factor every composite mode with a full SVD of its
unfolding (:func:`hosvd`), then recurse on the core truncated to the local
ranks.  :func:`concentrate` and the equivalence machinery (certificates,
verification, the invariant filter and the search) all consume that walk.

:func:`concentrate` records one extract per composite mode and level,
holding the wrapped leading singular vectors (the slices) and the wrapped
trailing ones (the complement).  The tree of extracts plus the terminal core
reproduces the input state exactly up to floating-point error.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .tensor_ops import (
    PairingPlan,
    as_tensor,
    mode_multiply,
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
    "OrthogonalityReport",
    "ParameterCount",
    "TripartiteExtract",
    "RANK_RTOL",
    "check_all_orthogonal",
    "concentrate",
    "count_parameters",
    "count_tree_parameters",
    "cutoff_rank",
    "extract_tripartites",
    "hosvd",
    "reconstruct",
    "walk",
]

# Relative cutoff for counting a singular value toward the local rank.
RANK_RTOL = 1e-10
# Threshold below which a vector component does not qualify as the phase pivot.
GAUGE_EPS = 1e-12


def cutoff_rank(s) -> int:
    """Count the descending singular values ``s`` above ``RANK_RTOL * s[0]``; 0 if empty or zero."""
    if len(s) == 0 or not s[0] > 0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def _gauge_fix_columns(u: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component above ``GAUGE_EPS`` is real positive."""
    u = u.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        nz = np.flatnonzero(np.abs(col) > GAUGE_EPS)
        if nz.size:
            pivot = col[nz[0]]
            u[:, j] = col * (abs(pivot) / pivot)
    return u


@dataclass(eq=False)
class HosvdResult:
    """Per-mode unitary factors, the all-orthogonal core and rank data."""

    factors: list[np.ndarray]
    core: np.ndarray
    local_ranks: list[int]
    mode_spectra: list[np.ndarray]

    def truncated_core(self) -> np.ndarray:
        """Core restricted to the first ``r_k`` indices of every mode."""
        return np.ascontiguousarray(self.core[tuple(slice(0, r) for r in self.local_ranks)])


def hosvd(t) -> HosvdResult:
    """Factor every mode of ``t`` with a full SVD of its unfolding.

    Factor ``k`` holds the left singular vectors of ``unfold(t, k)`` by
    descending singular value, phase-fixed so the result is deterministic for
    non-degenerate spectra.  The core is ``t`` multiplied by each conjugate
    transpose, and ``local_ranks[k]`` counts singular values above
    ``RANK_RTOL`` relative to the mode's largest.
    """
    t = np.asarray(t, dtype=np.complex128)
    if t.ndim < 2:
        raise ValueError("need at least two modes")
    factors, spectra, ranks = [], [], []
    for k in range(t.ndim):
        u, s, _ = np.linalg.svd(unfold(t, k), full_matrices=True)
        factors.append(_gauge_fix_columns(u))
        spectra.append(s)
        ranks.append(cutoff_rank(s))
    core = t
    for k, u in enumerate(factors):
        core = mode_multiply(core, u.conj().T, k)
    return HosvdResult(factors, core, ranks, spectra)


@dataclass
class OrthogonalityReport:
    """Pairwise subtensor inner products of a candidate core, per mode."""

    passed: bool
    max_off_diagonal: float
    mode_norms: list[np.ndarray]
    violations: list[str] = field(default_factory=list)


def check_all_orthogonal(core, tol: float = 1e-10) -> OrthogonalityReport:
    """Check that fixed-index subtensors are mutually orthogonal per mode.

    Subtensor norms are returned as they are (for an SVD-produced core they
    equal the mode singular values, in descending order); they are reported,
    not normalized away.
    """
    core = np.asarray(core, dtype=np.complex128)
    worst = 0.0
    norms = []
    violations = []
    for k in range(core.ndim):
        mat = unfold(core, k)
        gram = mat @ mat.conj().T
        norms.append(np.sqrt(np.abs(np.diag(gram).real)))
        off = gram - np.diag(np.diag(gram))
        mode_worst = float(np.max(np.abs(off))) if off.size else 0.0
        worst = max(worst, mode_worst)
        if mode_worst > tol:
            alpha, beta = np.unravel_index(np.argmax(np.abs(off)), off.shape)
            violations.append(
                f"mode {k}: |<subtensor {alpha}, subtensor {beta}>| = {mode_worst:.3e} > {tol:.1e}"
            )
    return OrthogonalityReport(not violations, worst, norms, violations)


@dataclass(eq=False)
class TripartiteExtract:
    """Wrapped singular vectors of one composite mode.

    ``slices`` holds the ``r`` leading wrapped vectors (each ``I_a x I_b``)
    and ``complement_slices`` the remaining ``J - r``.  Together their
    vectorizations form the columns of a ``J x J`` unitary.
    """

    mode: int
    slices: list[np.ndarray]
    complement_slices: list[np.ndarray]
    dims: tuple[int, int, int]  # (r, I_a, I_b)

    @property
    def is_tripartite(self) -> bool:
        """True when both local dimensions exceed one (not a degenerate strip)."""
        return self.dims[1] > 1 and self.dims[2] > 1

    @property
    def basis_matrix(self) -> np.ndarray:
        """``J x r`` matrix whose columns are the vectorized slices."""
        _, ia, ib = self.dims
        if not self.slices:
            return np.zeros((ia * ib, 0), dtype=np.complex128)
        return np.column_stack([vectorize(s) for s in self.slices])

    @property
    def full_matrix(self) -> np.ndarray:
        """``J x J`` matrix from slices followed by complement slices."""
        cols = [vectorize(s) for s in self.slices] + [vectorize(s) for s in self.complement_slices]
        return np.column_stack(cols)


def extract_tripartites(h: HosvdResult, pair_dims) -> list[TripartiteExtract]:
    """Wrap each factor's columns into slices split at the local rank."""
    pair_dims = tuple(tuple(p) for p in pair_dims)
    if len(pair_dims) != len(h.factors):
        raise ValueError(f"{len(pair_dims)} pair dims for {len(h.factors)} modes")
    out = []
    for k, ((ia, ib), u) in enumerate(zip(pair_dims, h.factors)):
        jk = u.shape[0]
        if ia * ib != jk:
            raise ValueError(f"mode {k}: composite dimension {jk} does not factor as {ia}x{ib}")
        r = h.local_ranks[k]
        slices = [wrap(u[:, i], ia, ib) for i in range(r)]
        complement = [wrap(u[:, i], ia, ib) for i in range(r, jk)]
        out.append(TripartiteExtract(k, slices, complement, (r, ia, ib)))
    return out


@dataclass(eq=False)
class ConcentrationLevel:
    plan: PairingPlan
    input_dims: tuple[int, ...]
    extracts: list[TripartiteExtract]
    ranks: tuple[int, ...]
    core_norm: float


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


def walk(t, stop_order: int) -> Iterator[tuple]:
    """Lazily yield the concentration hierarchy of ``t``, outermost level first.

    Each level is ``(plan, input_dims, h, core)``: the adjacent pairing
    (:meth:`PairingPlan.default`) of the level's input of shape
    ``input_dims``, the :func:`hosvd` of its rescaling, and the core truncated
    to the local ranks, which is the next level's input.  Everything follows
    from the input's dims; the walk stops once the core has at most
    ``stop_order`` modes, which is checked on the call, not on the first level.
    """
    if stop_order not in (2, 3):
        raise ValueError("stop_order must be 2 or 3")

    def levels(cur):
        while cur.ndim > stop_order:
            plan = PairingPlan.default(cur.ndim)
            h = hosvd(rescale(cur, plan))
            core = h.truncated_core()
            yield plan, cur.shape, h, core
            cur = core

    return levels(t)


def concentrate(state, stop_order: int = 3) -> ConcentrationTree:
    """Recursively rescale and factor ``state`` until the core has <= ``stop_order`` modes.

    Levels are recorded outermost-first; see :func:`walk`.
    """
    t = as_tensor(state)
    if t.ndim < 2:
        raise ValueError("need at least two modes")
    if tensor_norm(t) == 0.0:
        raise ValueError("cannot concentrate the zero tensor")
    levels = []
    core = t
    for plan, input_dims, h, core in walk(t, stop_order):
        extracts = extract_tripartites(h, plan.pair_dims(input_dims))
        levels.append(
            ConcentrationLevel(plan, input_dims, extracts, tuple(h.local_ranks), tensor_norm(core))
        )
    return ConcentrationTree(t.shape, levels, core, stop_order)


def reconstruct(tree: ConcentrationTree) -> np.ndarray:
    """Replay a concentration tree innermost-first back into the full state."""
    cur = np.asarray(tree.terminal, dtype=np.complex128)
    for level in reversed(tree.levels):
        if cur.shape != tuple(level.ranks):
            raise ValueError(f"core shape {cur.shape} does not match level ranks {level.ranks}")
        pair_dims = level.plan.pair_dims(level.input_dims)
        for k, ext in enumerate(level.extracts):
            basis = ext.basis_matrix
            ia, ib = pair_dims[k]
            if basis.shape != (ia * ib, level.ranks[k]):
                raise ValueError(
                    f"mode {k}: slice basis is {basis.shape}, expected {(ia * ib, level.ranks[k])}"
                )
            cur = mode_multiply(cur, basis, k)
        cur = unrescale(cur, level.plan, level.input_dims)
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
        pair_dims = level.plan.pair_dims(level.input_dims)
        n3 = level_tripartite_parameters(pair_dims, level.ranks)
        nm = count_parameters(level.ranks)
        per_level.append((n3, nm))
    total = sum(n3 for n3, _ in per_level) + count_parameters(tree.terminal.shape)
    return ParameterCount(total, per_level)
