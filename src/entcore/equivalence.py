"""LU/SLOCC equivalence machinery over concentration hierarchies.

Two states related mode-by-mode by invertible (SLOCC) or unitary (LU) local
operators admit a certificate connecting their concentration hierarchies: at
every level, each composite mode carries a block upper triangular matrix
``[[P, Y], [0, P_bar]]`` linking the two factor bases, and the truncated
cores are connected by the ``P`` blocks alone.  ``derive_certificate``
computes those blocks from known local operators straight from the relation
``U' = (A_a ⊗ A_b) U P~``; ``verify_certificate`` re-checks every level at the
module tolerances.

For single composite modes the Kronecker structure of the connecting matrix
is detected through the realignment rank-one criterion
(:func:`realign_rank1_check`, :func:`kron_factorize`), refuted cheaply by the
spectral sampler (:func:`spectral_preservation_check`), and searched for by
:func:`search_p_tilde`, which scores one stream of candidates over budgeted
restarts and stops at the first exact one.

Verdicts are three-valued.  Only :func:`invariant_filter` may declare a pair
``inequivalent`` (from sound invariants); a failed search or certificate is
always ``inconclusive``.

Kronecker convention: a pair operator ``A ⊗ B`` acting on a composite index
``j = p*I_b + q`` is ``numpy.kron(A, B)``, matching the composite index map of
:func:`~entcore.tensor_ops.pair_dims`.  The spectral sampler therefore
matricizes vectors row-major (``a.reshape(I_a, I_b)``), under which
``kron(A, B) a`` acts as the congruence ``A W B^T``; this is deliberately the
pair convention, not the column-major presentation wrap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .decompose import (
    Hierarchy,
    claim,
    complete_basis,
    cut_to_ranks,
    cutoff_rank,
    hand_off,
    left_svd,
    read_only_copy,
    take,
    walk,
)
from .states import apply_local
from .tensor_ops import as_tensor, multiply_modes, pair_dims, realign, rescale, unfold, wrap

__all__ = [
    "EQUIVALENT",
    "INCONCLUSIVE",
    "INEQUIVALENT",
    "LU",
    "SLOCC",
    "CertificateLevel",
    "EquivalenceCertificate",
    "EquivalenceVerdict",
    "LocalOperatorSet",
    "MATRIX_RANK",
    "SINGULAR_VALUE_SUM",
    "SQRT_SINGULAR_VALUE_SUM",
    "SearchResult",
    "SpectralFunctional",
    "derive_certificate",
    "invariant_filter",
    "kron_factorize",
    "realign_rank1_check",
    "search_equivalence",
    "search_p_tilde",
    "spectral_preservation_check",
    "verify_certificate",
]

LU = "lu"
SLOCC = "slocc"

EQUIVALENT = "equivalent"
INEQUIVALENT = "inequivalent"
INCONCLUSIVE = "inconclusive"

# Relative Frobenius tolerance for every equivalence residual.
EQUIV_RTOL = 1e-8
# Unitarity tolerance for validated operator sets (two orders below EQUIV_RTOL).
UNITARY_ATOL = 1e-10
# Condition-number barrier for SLOCC search candidates.
COND_LIMIT = 1e6
# Condition number above which a matrix counts as numerically singular.
SINGULAR_COND = 1e12
# Search objective below which search_p_tilde keeps its candidate and stops.
_SOLVED = 1e-13


def _rel_err(actual, target) -> float:
    scale = max(float(np.linalg.norm(np.ravel(target))), 1e-300)
    return float(np.linalg.norm(np.ravel(actual) - np.ravel(target))) / scale


def _unitarity_defect(a: np.ndarray) -> float:
    d = a.shape[0]
    return float(np.linalg.norm(a.conj().T @ a - np.eye(d)))


def _condition(a: np.ndarray) -> float:
    """2-norm condition number of ``a``; ``inf`` when its smallest singular value is zero."""
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] > 0.0 else float("inf")


def _polar(a: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def _block_upper(p: np.ndarray, y: np.ndarray, p_bar: np.ndarray) -> np.ndarray:
    """Assemble ``[[P, Y], [0, P_bar]]``."""
    r = p.shape[0]
    out = np.zeros((r + p_bar.shape[0],) * 2, dtype=np.complex128)
    out[:r, :r] = p
    out[:r, r:] = y
    out[r:, r:] = p_bar
    return out


@dataclass(frozen=True, eq=False)
class LocalOperatorSet:
    """One square operator per subsystem, validated for the chosen mode."""

    ops: tuple[np.ndarray, ...]
    mode: str

    def __post_init__(self):
        if self.mode not in (LU, SLOCC):
            raise ValueError(f"mode must be {LU!r} or {SLOCC!r}")
        mats = []
        for i, a in enumerate(self.ops):
            a = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError(f"operator {i} is not square: shape {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"operator {i} has non-finite entries")
            if self.mode == LU:
                defect = _unitarity_defect(a)
                if defect > UNITARY_ATOL:
                    raise ValueError(f"operator {i} is not unitary (defect {defect:.3e})")
            elif _condition(a) > SINGULAR_COND:
                raise ValueError(f"operator {i} is numerically singular")
            mats.append(a)
        object.__setattr__(self, "ops", tuple(mats))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(a.shape[0] for a in self.ops)


@dataclass
class EquivalenceVerdict:
    """Three-valued outcome with the evidence that produced it."""

    status: str
    witness: object = None
    residuals: dict = field(default_factory=dict)


@dataclass(eq=False)
class CertificateLevel:
    """Per-mode blocks of one concentration level."""

    ranks: tuple[int, ...]
    p_blocks: list[np.ndarray]
    y_blocks: list[np.ndarray]
    p_bar_blocks: list[np.ndarray]

    def p_tilde(self, k: int) -> np.ndarray:
        """Assembled block upper triangular matrix for mode ``k``."""
        return _block_upper(self.p_blocks[k], self.y_blocks[k], self.p_bar_blocks[k])


@dataclass(eq=False)
class EquivalenceCertificate:
    mode: str
    operators: LocalOperatorSet
    levels: list[CertificateLevel]
    stop_order: int = 3


def _pair_operators(ops) -> list[np.ndarray]:
    """The composite operator of each adjacent pair, ``kron(A_a, A_b)``; an odd last one as it is."""
    return [_kron(*ops[i : i + 2]) if i + 1 < len(ops) else ops[i] for i in range(0, len(ops), 2)]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two matrices as one broadcast product: each entry is one product."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def derive_certificate(
    psi, psi_prime, operators: LocalOperatorSet, stop_order: int = 3
) -> EquivalenceCertificate:
    """Compute certificate blocks for a pair known to satisfy
    ``psi_prime = (ops[0] x ... x ops[N-1]) psi``.

    Both hierarchies come from :func:`~entcore.decompose.walk`, so every
    level's pairing is the adjacent one of its mode count.  Per level and
    composite mode, ``U`` and ``U'`` are the factors completed by
    :func:`~entcore.decompose.complete_basis`, as in a tree's
    ``full_matrix``.  ``U`` is unitary, so ``U' = (A_a x A_b) U P~`` gives
    ``P~ = U^H (A_a^{-1} x A_b^{-1}) U'``, split into its blocks at the local
    rank ``r``.  The next level's local operators are the inverted ``P``
    blocks, so the ``P`` blocks themselves are that level's inverse operators:
    only the level-0 operators are ever inverted.

    Both walks come from :func:`~entcore.decompose.take`: the ones the
    invariant filter handed off for equal states to ``stop_order``, else
    new ones.  Once the levels
    are built they are handed off in turn, so that :func:`verify_certificate`
    of the same states does not walk them again.  The certificate itself
    keeps no walk.

    Raises ``ValueError`` when ``stop_order`` is not 2 or 3 or the premise
    does not hold to ``EQUIV_RTOL``.
    """
    psi = as_tensor(psi)
    psip = as_tensor(psi_prime)
    if psi.shape != psip.shape:
        raise ValueError(f"shape mismatch: {psi.shape} vs {psip.shape}")
    if operators.dims != psi.shape:
        raise ValueError(f"operator dims {operators.dims} do not match state dims {psi.shape}")
    premise = _rel_err(apply_local(psi, operators), psip)
    if premise > EQUIV_RTOL:
        raise ValueError(
            f"states are not related by the supplied operators (residual {premise:.3e} > {EQUIV_RTOL:.1e})"
        )
    walks = (take(psi, stop_order), take(psip, stop_order))
    inv_ops = [np.linalg.inv(a) for a in operators.ops]
    levels: list[CertificateLevel] = []
    for h, hp in zip(walks[0].levels, walks[1].levels):
        if h.core.shape != hp.core.shape:
            raise ValueError(
                f"local ranks differ ({h.local_ranks} vs {hp.local_ranks}); "
                "the states cannot be related by invertible local operators"
            )
        p_blocks, y_blocks, pbar_blocks = [], [], []
        for b_inv, u, up in zip(_pair_operators(inv_ops), h.factors, hp.factors):
            r = u.shape[1]
            p_tilde = complete_basis(u).conj().T @ b_inv @ complete_basis(up)
            p_blocks.append(np.ascontiguousarray(p_tilde[:r, :r]))
            y_blocks.append(np.ascontiguousarray(p_tilde[:r, r:]))
            pbar_blocks.append(np.ascontiguousarray(p_tilde[r:, r:]))
        levels.append(CertificateLevel(h.core.shape, p_blocks, y_blocks, pbar_blocks))
        inv_ops = p_blocks
    hand_off(*walks)
    return EquivalenceCertificate(operators.mode, operators, levels, stop_order)


def _malformed_blocks(clevel: CertificateLevel, factors) -> str | None:
    """Why a level's blocks cannot connect ``J x r`` factors, or ``None`` when they can."""
    blocks = {"P": clevel.p_blocks, "Y": clevel.y_blocks, "P_bar": clevel.p_bar_blocks}
    if any(len(b) != len(factors) for b in blocks.values()):
        return f"{[len(b) for b in blocks.values()]} P/Y/P_bar blocks for {len(factors)} modes"
    for k, (j, r) in enumerate(f.shape for f in factors):
        for (name, b), shape in zip(blocks.items(), ((r, r), (r, j - r), (j - r, j - r))):
            if np.shape(b[k]) != shape or not np.all(np.isfinite(b[k])):
                return f"mode {k}: {name} block of shape {np.shape(b[k])} is not a finite {shape} matrix"
        if _condition(clevel.p_blocks[k]) > SINGULAR_COND:
            return f"mode {k}: P block is numerically singular"
    return None


def _levels(t: np.ndarray, stop_order: int):
    """The handed-off levels of ``t`` to ``stop_order``, else ``walk(t, stop_order)`` lazily."""
    h = claim(t, stop_order)
    return walk(t, stop_order) if h is None else iter(h.levels)


def verify_certificate(psi, psi_prime, cert: EquivalenceCertificate) -> EquivalenceVerdict:
    """Re-check a certificate level by level at relative Frobenius tolerance ``EQUIV_RTOL``.

    Per level ``l`` and mode ``k`` the factors must satisfy
    ``U' = (A_a x A_b) U P`` and the cores
    ``core = (P_1 x ... x P_M) core'``; in LU mode all blocks must in
    addition be unitary with a vanishing ``Y``.  The reassembly residual
    ``psi' vs (x A_i) psi`` is also included.  Status is ``equivalent`` only
    if every check passes; a failed certificate is ``inconclusive`` (it never
    proves inequivalence).  That includes a certificate whose stop order is
    not 2 or 3 or whose levels do not fit the hierarchies: a level whose ranks
    differ from its cores, or lacks one finite ``r x r`` P, ``r x (J-r)`` Y and
    ``(J-r) x (J-r)`` P_bar per mode, or has a singular P (checking stops at
    any of these); more levels than the hierarchy has, or too few to reach its
    terminal order.

    The factors and cores of each state come from the walk to
    ``cert.stop_order`` that :func:`derive_certificate` handed off for a
    state equal to it entry for entry.  Verification takes that walk and
    hands none on, so a second verification walks afresh; without a
    handed-off walk, or for a state changed since, the state is walked
    lazily.  Only the factorisations are reused: every check above is made
    afresh.

    Raises ``ValueError`` only for caller errors: states of different shapes,
    or operators whose dims do not match the states'.
    """
    psi = as_tensor(psi)
    psip = as_tensor(psi_prime)
    if psi.shape != psip.shape:
        raise ValueError(f"shape mismatch: {psi.shape} vs {psip.shape}")
    if cert.operators.dims != psi.shape:
        raise ValueError(f"operator dims {cert.operators.dims} do not match state dims {psi.shape}")
    if cert.stop_order not in (2, 3):
        return EquivalenceVerdict(INCONCLUSIVE, f"certificate stop order {cert.stop_order} is not 2 or 3")
    failures: list[str] = []
    premise = _rel_err(apply_local(psi, cert.operators), psip)
    residuals: dict = {"reassembly": premise, "levels": []}
    if premise > EQUIV_RTOL:
        failures.append(f"reassembly residual {premise:.3e}")
    if cert.mode == LU:
        for i, a in enumerate(cert.operators.ops):
            defect = _unitarity_defect(a)
            if defect > EQUIV_RTOL:
                failures.append(f"operator {i} unitarity defect {defect:.3e}")
    hierarchy = zip(cert.levels, _levels(psi, cert.stop_order), _levels(psip, cert.stop_order))
    ops_level = list(cert.operators.ops)
    core_t = psi
    for li, (clevel, h, hp) in enumerate(hierarchy):
        core_t = h.core
        if core_t.shape != tuple(clevel.ranks) or hp.core.shape != tuple(clevel.ranks):
            failures.append(
                f"level {li}: certificate ranks {tuple(clevel.ranks)} do not match "
                f"{core_t.shape} / {hp.core.shape}"
            )
            break
        malformed = _malformed_blocks(clevel, h.factors)
        if malformed:
            failures.append(f"level {li}: {malformed}")
            break
        level_res = {"tripartite": [], "core": None, "unitarity": [], "y_norm": []}
        for k, b in enumerate(_pair_operators(ops_level)):
            predicted = b @ h.factors[k] @ clevel.p_blocks[k]
            res = _rel_err(predicted, hp.factors[k])
            level_res["tripartite"].append(res)
            if res > EQUIV_RTOL:
                failures.append(f"level {li} mode {k}: tripartite relation residual {res:.3e}")
            if cert.mode == LU:
                for name, blk in (("P", clevel.p_blocks[k]), ("P_bar", clevel.p_bar_blocks[k])):
                    if blk.size == 0:
                        continue
                    defect = _unitarity_defect(blk)
                    level_res["unitarity"].append(defect)
                    if defect > EQUIV_RTOL:
                        failures.append(f"level {li} mode {k}: {name} unitarity defect {defect:.3e}")
                ynorm = float(np.linalg.norm(clevel.y_blocks[k]))
                level_res["y_norm"].append(ynorm)
                if ynorm > EQUIV_RTOL:
                    failures.append(f"level {li} mode {k}: Y-block norm {ynorm:.3e}")
        predicted_core = multiply_modes(hp.core, clevel.p_blocks)
        core_res = _rel_err(predicted_core, core_t)
        level_res["core"] = core_res
        if core_res > EQUIV_RTOL:
            failures.append(f"level {li}: core relation residual {core_res:.3e}")
        residuals["levels"].append(level_res)
        ops_level = [np.linalg.inv(p) for p in clevel.p_blocks]
    else:
        if len(residuals["levels"]) < len(cert.levels):
            failures.append("certificate has more levels than the concentration hierarchy")
        if core_t.ndim > cert.stop_order:
            failures.append("certificate does not reach the terminal order of the hierarchy")
    if failures:
        return EquivalenceVerdict(INCONCLUSIVE, "; ".join(failures[:4]), residuals)
    return EquivalenceVerdict(EQUIVALENT, cert, residuals)


def _realign_ratio(phi, i1: int, i2: int) -> float:
    """``sigma2/sigma1`` of ``realign(phi)``; 0 when it has one singular value or none nonzero."""
    s = np.linalg.svd(realign(phi, i1, i2), compute_uv=False)
    return float(s[1] / s[0]) if s.size > 1 and s[0] > 0 else 0.0


def kron_factorize(phi, i1: int, i2: int) -> tuple[np.ndarray, np.ndarray]:
    """Recover ``(A_1, A_2)`` with ``phi = kron(A_1, A_2)`` from a rank-one realignment.

    The factors come from the dominant singular triple of the realignment, with
    the scalar gauge fixed by making the largest-magnitude entry of ``A_1``
    real positive.  Raises ``ValueError`` when the realignment is not
    numerically rank one.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    r = realign(phi, i1, i2)
    u, s, vh = np.linalg.svd(r)
    if s[0] == 0:
        raise ValueError("realignment is zero, so not rank one")
    if s.size > 1 and s[1] > EQUIV_RTOL * s[0]:
        raise ValueError(f"realignment is not rank one (sigma2/sigma1 = {s[1] / s[0]:.3e})")
    root = np.sqrt(s[0])
    a1 = wrap(u[:, 0], i1, i1) * root
    a2 = wrap(vh[0], i2, i2) * root  # vh row = conjugated right singular vector
    pivot = a1.flat[int(np.argmax(np.abs(a1)))]
    phase = pivot / abs(pivot)
    return a1 * np.conj(phase), a2 * phase


def realign_rank1_check(u, u_prime, p_tilde, i1: int, i2: int, mode: str = SLOCC):
    """Test ``rank(realign(U P~ U'^{-1})) == 1`` and recover the Kronecker factors.

    Returns ``(passed, factors)`` where ``factors`` is the ``(A_1, A_2)``
    split of ``U P~ U'^{-1}`` on success and ``None`` otherwise.  The operator
    must be invertible, and unitary in LU mode.
    """
    side = i1 * i2
    u = np.asarray(u, dtype=np.complex128)
    up = np.asarray(u_prime, dtype=np.complex128)
    pt = np.asarray(p_tilde, dtype=np.complex128)
    for name, m in (("u", u), ("u_prime", up), ("p_tilde", pt)):
        if m.shape != (side, side):
            raise ValueError(f"{name} must be {side}x{side}, got {m.shape}")
    if _condition(up) > SINGULAR_COND:
        raise ValueError("u_prime is numerically singular")
    phi = u @ pt @ np.linalg.inv(up)
    passed = bool(_realign_ratio(phi, i1, i2) <= EQUIV_RTOL and _condition(phi) < SINGULAR_COND)
    if mode == LU and passed:
        passed = _unitarity_defect(phi) <= EQUIV_RTOL
    if not passed:
        return False, None
    return True, kron_factorize(phi, i1, i2)


@dataclass(frozen=True)
class SpectralFunctional:
    """Functional of a matrix's singular values used by the preservation sampler.

    ``rank`` is the SLOCC invariant; the two sums are LU functionals
    (concave, symmetric, strictly increasing, zero at zero).
    """

    kind: str

    _KINDS = ("rank", "singular-value-sum", "sqrt-singular-value-sum")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown functional kind {self.kind!r}")

    @property
    def is_rank(self) -> bool:
        return self.kind == "rank"

    def evaluate(self, matrix) -> float:
        # Singular values below the rank cutoff count as exact zeros; the
        # sqrt functional would otherwise amplify float noise to sqrt(eps).
        s = np.linalg.svd(np.asarray(matrix, dtype=np.complex128), compute_uv=False)
        s = s[: cutoff_rank(s)]
        if self.kind == "rank":
            return float(s.size)
        if self.kind == "singular-value-sum":
            return float(np.sum(s))
        return float(np.sum(np.sqrt(s)))


MATRIX_RANK = SpectralFunctional("rank")
SINGULAR_VALUE_SUM = SpectralFunctional("singular-value-sum")
SQRT_SINGULAR_VALUE_SUM = SpectralFunctional("sqrt-singular-value-sum")


def spectral_preservation_check(
    phi,
    functional: SpectralFunctional,
    samples: int,
    seed,
    i1: int,
    i2: int,
    tol: float = EQUIV_RTOL,
) -> bool:
    """Probabilistic necessary test that ``phi`` acts like a local pair operator.

    Draws ``samples`` vectors (cycling through targeted rank-1 and rank-2
    matricizations and generic ones) and demands the functional of the
    matricized image match the input's: exact rank equality for the rank
    functional, agreement to ``tol`` otherwise.  ``True`` means "never
    refuted" (no certificate); ``False`` refutes Kronecker structure.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    side = i1 * i2
    if phi.shape != (side, side):
        raise ValueError(f"phi must be {side}x{side}, got {phi.shape}")
    rng = np.random.default_rng(seed)

    def _rand_vec(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    for n in range(int(samples)):
        style = n % 3
        if style == 0:
            m = np.outer(_rand_vec(i1), _rand_vec(i2))
        elif style == 1 and min(i1, i2) >= 2:
            m = np.outer(_rand_vec(i1), _rand_vec(i2)) + np.outer(_rand_vec(i1), _rand_vec(i2))
        else:
            m = _rand_vec(i1 * i2).reshape(i1, i2)
        a = np.ascontiguousarray(m).reshape(-1)
        # Row-major matricization matching the composite index convention, under
        # which kron(A, B) acts as the congruence A W B^T.
        w_in = a.reshape(i1, i2)
        w_out = (phi @ a).reshape(i1, i2)
        f_in = functional.evaluate(w_in)
        f_out = functional.evaluate(w_out)
        slack = 0.0 if functional.is_rank else tol * max(1.0, abs(f_in))
        if abs(f_out - f_in) > slack:
            return False
    return True


def _particle_spectra(psi: np.ndarray, psip: np.ndarray, level1: list):
    """Yield every particle's unfolding spectrum in both states, particle by particle.

    With five or more particles, level 1 of the walk factors at least three
    pair modes, each by its own :func:`~entcore.decompose.left_svd`, here of
    both states at once.  Pair mode ``k`` of a state unfolds as
    ``U S V^H``, and ``V`` has orthonormal columns, so particle ``2k``'s
    singular values are those of the ``I_a x (I_b r)`` reshape of ``U S`` and
    particle ``2k+1``'s those of its transposed ``I_b x (I_a r)`` reshape; one
    batched SVD takes each particle for both states.  A lone last particle
    (``I_b = 1``) is the pair mode itself.  ``U`` is not cut to the local
    rank, so ``RANK_RTOL`` cannot move these spectra: they equal the direct
    ones to rounding.  Each mode's uncut ``(U, s)``, stacked ``psi`` first,
    is appended to ``level1`` for the level to be cut from.  A state of four
    or fewer particles has a level of at most two modes, which one SVD
    factors whole, or none; its particles take a ``left_svd`` each and
    ``level1`` stays empty.
    """
    pairs = pair_dims(psi.shape)
    if len(pairs) < 3:
        for k in range(psi.ndim):
            yield left_svd(unfold(psi, k))[1], left_svd(unfold(psip, k))[1]
        return
    shape = tuple(ia * ib for ia, ib in pairs)
    t, tp = psi.reshape(shape), psip.reshape(shape)
    for k, (ia, ib) in enumerate(pairs):
        # both states' unfold(., k) in one copy, so one left_svd factors both
        perm = tuple(range(k, len(shape))) + tuple(range(k))
        u, s = left_svd(np.stack((t.transpose(perm), tp.transpose(perm))).reshape(2, shape[k], -1))
        level1.append((u, s))
        if ib == 1:
            yield s
            continue
        w = u * s[:, None, :]
        r = w.shape[2]
        yield np.linalg.svd(w.reshape(2, ia, ib * r), compute_uv=False)
        wb = w.reshape(2, ia, ib, r).transpose(0, 2, 1, 3)
        yield np.linalg.svd(wb.reshape(2, ib, ia * r), compute_uv=False)


def invariant_filter(psi, psi_prime, mode: str) -> EquivalenceVerdict:
    """Sound necessary conditions: local ranks (SLOCC) and spectra (LU).

    Compares every particle's unfolding spectrum, then every composite mode
    of every concentration level, walking both hierarchies in lockstep down
    to the stop order 3 that certificates use.  From five particles on, the
    particle spectra are read off level 1's per-mode SVDs, pair mode by pair
    mode, so a particle-0 mismatch still stops after pair mode 0's SVD;
    level 1 is then cut from those same SVDs
    (:func:`~entcore.decompose.cut_to_ranks`), equal to its
    :func:`~entcore.decompose.hosvd`.  Fewer particles take a
    :func:`~entcore.decompose.left_svd` each.  Walking on to order 2 would
    add nothing: the one more level factors a 3-mode core as ``(0-1)(2)``,
    and both of its spectra equal that core's mode-2 spectrum, which the
    level above (or, for a 3-party state, the particle loop) has already
    compared.  Any mismatch is a proof of inequivalence; agreement is only
    ``inconclusive``.  Either way the residuals report the number of
    ``comparisons`` made.

    Both hierarchies are walked afresh on every call; the filter never takes
    a handed-off walk.  When it returns ``inconclusive`` it hands both
    complete walks off (:func:`~entcore.decompose.hand_off`), each with a
    read-only copy of its state, so a certificate derivation of the same
    states to stop order 3 that follows does not walk either state again.
    A pair it rejects is never copied.
    """
    if mode not in (LU, SLOCC):
        raise ValueError(f"mode must be {LU!r} or {SLOCC!r}")
    psi = as_tensor(psi)
    psip = as_tensor(psi_prime)
    if psi.shape != psip.shape:
        return EquivalenceVerdict(
            INEQUIVALENT,
            f"shape mismatch: {psi.shape} vs {psip.shape}",
            {"max_spectrum_deviation": float("inf")},
        )

    worst = 0.0
    checked = 0

    def _compare(label: str, sa: np.ndarray, sb: np.ndarray):
        nonlocal worst, checked
        checked += 1
        ra, rb = cutoff_rank(sa), cutoff_rank(sb)
        if ra != rb:
            return f"{label}: local rank {ra} vs {rb}"
        if mode == LU:
            dev = float(np.max(np.abs(sa - sb))) if sa.size else 0.0
            worst = max(worst, dev)
            if dev > EQUIV_RTOL:
                return (
                    f"{label}: singular values differ by {dev:.3e} "
                    f"({np.array2string(sa, precision=6)} vs {np.array2string(sb, precision=6)})"
                )
        return None

    def _verdict(status: str, witness: str) -> EquivalenceVerdict:
        return EquivalenceVerdict(status, witness, {"max_spectrum_deviation": worst, "comparisons": checked})

    level1 = []
    for k, (sa, sb) in enumerate(_particle_spectra(psi, psip, level1)):
        witness = _compare(f"particle {k}", sa, sb)
        if witness:
            return _verdict(INEQUIVALENT, witness)

    if level1:
        bases, spectra = zip(*level1)
        first = [
            cut_to_ranks(rescale(t), [u[i] for u in bases], [s[i] for s in spectra])
            for i, t in enumerate((psi, psip))
        ]
        levels = chain([first], zip(walk(first[0].core, 3), walk(first[1].core, 3)))
    else:
        levels = zip(walk(psi, 3), walk(psip, 3))
    walked = ([], [])
    for level, (h, hp) in enumerate(levels, start=1):
        walked[0].append(h)
        walked[1].append(hp)
        for k, (sa, sb) in enumerate(zip(h.mode_spectra, hp.mode_spectra)):
            witness = _compare(f"level {level} mode {k}", sa, sb)
            if witness:
                return _verdict(INEQUIVALENT, witness)
    # equal shapes give walks of equal length, so both are complete here
    hand_off(*(Hierarchy(read_only_copy(t), 3, tuple(w)) for t, w in zip((psi, psip), walked)))
    return _verdict(INCONCLUSIVE, "all compared invariants match")


@dataclass(eq=False)
class SearchResult:
    """Blocks found by :func:`search_p_tilde` with their realignment objective."""

    p: np.ndarray
    y: np.ndarray
    p_bar: np.ndarray
    objective: float
    restart_index: int
    strategy: str | None = None  # "direct", "matching", "pencil", "phase-als" or "als"

    def p_tilde(self) -> np.ndarray:
        return _block_upper(self.p, self.y, self.p_bar)


def _seed_entropy(seed) -> tuple:
    if seed is None:
        return (0,)
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return (int(seed),)


def _als_kron_factors(u_rows, up_cols, a1, a2, i1, i2, iters=60, ctol=1e-14):
    # Alternating least squares on the bilinear condition
    # lower-left(U^{-1} kron(A1, A2) U') = 0; each half-step takes the
    # smallest right singular vector of the linearized constraint.
    if u_rows.shape[0] == 0:
        return a1, a2
    prev = np.inf
    stalls = 0
    for _ in range(iters):
        m2 = np.einsum("apq,pP,PQb->abqQ", u_rows, a1, up_cols).reshape(-1, i2 * i2)
        _, _, vh = np.linalg.svd(m2, full_matrices=True)
        a2 = vh[-1].conj().reshape(i2, i2)
        m1 = np.einsum("apq,qQ,PQb->abpP", u_rows, a2, up_cols).reshape(-1, i1 * i1)
        _, sv, vh = np.linalg.svd(m1, full_matrices=True)
        a1 = vh[-1].conj().reshape(i1, i1)
        resid = float(sv[-1]) if sv.size >= i1 * i1 else 0.0
        if resid < ctol:
            break
        if resid > prev * 0.999:
            stalls += 1
            if stalls >= 3:
                break
        else:
            stalls = 0
        prev = resid
    return a1, a2


def _rank1_factors_2x2(s1, s2):
    # Product vectors of span{s1, s2} in C^2 (x) C^2: roots of the quadratic
    # det(alpha*W(s1) + beta*W(s2)) in projective (alpha:beta) coordinates.
    m1 = np.asarray(s1).reshape(2, 2)
    m2 = np.asarray(s2).reshape(2, 2)
    a = np.linalg.det(m1)
    c = np.linalg.det(m2)
    b = np.linalg.det(m1 + m2) - a - c
    scale = max(abs(a), abs(b), abs(c))
    if scale < 1e-24:
        return None  # a whole pencil of product vectors; no isolated anchors
    a, b, c = a / scale, b / scale, c / scale
    if abs(a) < 1e-13:
        if abs(b) < 1e-13:
            coords = [(1.0, 0.0), (0.0, 1.0)]
        else:
            coords = [(1.0, 0.0), (-c / b, 1.0)]
    else:
        disc = b * b - 4 * a * c
        if abs(disc) < 1e-13 * max(abs(b * b), abs(4 * a * c), 1.0):
            return None  # double root: degenerate geometry
        root = np.sqrt(disc)
        coords = [((-b + root) / (2 * a), 1.0), ((-b - root) / (2 * a), 1.0)]
    out = []
    for alpha, beta in coords:
        v = alpha * np.asarray(s1) + beta * np.asarray(s2)
        n = np.linalg.norm(v)
        if n < 1e-10:
            return None
        v = v / n
        uu, ss, vvh = np.linalg.svd(v.reshape(2, 2))
        if ss[1] > 1e-7 * ss[0]:
            return None
        out.append((uu[:, 0], ss[0] * vvh[0]))
    return out


def _matching_candidates(u, u_prime):
    # r = 2 on a qubit pair: a connecting pair operator must map the two
    # product vectors spanning one subspace onto the two spanning the other.
    anchors = _rank1_factors_2x2(u[:, 0], u[:, 1])
    anchors_p = _rank1_factors_2x2(u_prime[:, 0], u_prime[:, 1])
    if anchors is None or anchors_p is None:
        return []
    xp = np.column_stack([anchors_p[0][0], anchors_p[1][0]])
    yp = np.column_stack([anchors_p[0][1], anchors_p[1][1]])
    if min(np.linalg.svd(xp, compute_uv=False)) < 1e-8 or min(
        np.linalg.svd(yp, compute_uv=False)
    ) < 1e-8:
        return []
    out = []
    for perm in ((0, 1), (1, 0)):
        x = np.column_stack([anchors[perm[0]][0], anchors[perm[1]][0]])
        y = np.column_stack([anchors[perm[0]][1], anchors[perm[1]][1]])
        out.append((x @ np.linalg.inv(xp), y @ np.linalg.inv(yp)))
    return out


def _reduced_bases(u, u_prime, r, i1, i2):
    # Eigenbases of the partial traces of the two rank-r projectors.  A
    # unitary pair operator conjugating one projector onto the other must be
    # block diagonal in these bases, leaving only per-eigenvector phases
    # (inside a degenerate eigenvalue block the phase candidates try these
    # eigenvectors only).  Returns None when the reduced spectra do not match.
    u1 = u[:, :r]
    u1p = u_prime[:, :r]
    proj = (u1 @ u1.conj().T).reshape(i1, i2, i1, i2)
    projp = (u1p @ u1p.conj().T).reshape(i1, i2, i1, i2)
    bases = []
    for rho, rhop in (
        (np.einsum("iqjq->ij", proj), np.einsum("iqjq->ij", projp)),
        (np.einsum("aiaj->ij", proj), np.einsum("aiaj->ij", projp)),
    ):
        ev, vec = np.linalg.eigh(rho)
        evp, vecp = np.linalg.eigh(rhop)
        if np.max(np.abs(ev - evp)) > 1e-6:
            return None
        bases.append((vec[:, ::-1], vecp[:, ::-1]))
    return bases


def _phase_tensor(u_inv, u_prime, bases, r, i1, i2):
    # T[p, q] = lower-left block of U^{-1} kron(E1_p, E2_q) U' for the
    # rank-one intertwiners E_p built from the reduced eigenbases.
    (v1, v1p), (v2, v2p) = bases
    side = i1 * i2
    t = np.empty((i1, i2, side - r, r), dtype=np.complex128)
    for p in range(i1):
        e1 = np.outer(v1[:, p], v1p[:, p].conj())
        for q in range(i2):
            e2 = np.outer(v2[:, q], v2p[:, q].conj())
            t[p, q] = (u_inv @ np.kron(e1, e2) @ u_prime)[r:, :r]
    return t


def _pencil_phase_candidates(t, i1, i2, entropy):
    # With one factor of size two, gauge its phases to (1, zeta); the zero-block
    # condition becomes (M0 + zeta*M1) w = 0, so the admissible zeta are the
    # eigenvalues of C^{-1} A of each random square compression A = G M0, C = -G M1.
    # A numerically singular C is skipped: its pencil's eigenvalues are rounding noise.
    swapped = i1 != 2
    if swapped:
        t = np.transpose(t, (1, 0, 2, 3))
        i1, i2 = i2, i1
    m0 = np.moveaxis(t[0], 0, -1).reshape(-1, i2)
    m1 = np.moveaxis(t[1], 0, -1).reshape(-1, i2)
    rows = m0.shape[0]
    out = []
    for k in range(2):
        rng = np.random.default_rng(entropy + (7001, k))
        g = rng.standard_normal((i2, rows)) + 1j * rng.standard_normal((i2, rows))
        c = -(g @ m1)
        if _condition(c) > SINGULAR_COND:
            continue
        for zeta in np.linalg.eigvals(np.linalg.solve(c, g @ m0)):
            if not 1e-8 < abs(zeta) < 1e8:
                continue
            _, _, vh = np.linalg.svd(m0 + zeta * m1, full_matrices=True)
            w = vh[-1].conj()
            if np.min(np.abs(w)) < 1e-6:
                continue
            z = np.array([1.0, zeta], dtype=np.complex128)
            z, w = z / np.abs(z), w / np.abs(w)
            out.append((w, z) if swapped else (z, w))
    return out


def _phase_als(t, i1, i2, rng, iters=40):
    # Fallback for factors larger than qubits: alternate minimum-singular-
    # vector steps over the two phase vectors, then project to unit modulus.
    if rng is None:
        z = np.ones(i1, dtype=np.complex128) / np.sqrt(i1)
        w = np.ones(i2, dtype=np.complex128) / np.sqrt(i2)
    else:
        z = np.exp(2j * np.pi * rng.random(i1)) / np.sqrt(i1)
        w = np.exp(2j * np.pi * rng.random(i2)) / np.sqrt(i2)
    # Starting phases that already meet the zero-block condition are a
    # solution; on a vanishing tensor the steps below would pick arbitrary
    # minimum singular vectors instead.
    if np.linalg.norm(np.einsum("pqab,p,q->ab", t, z, w)) < 1e-14:
        return z / np.abs(z), w / np.abs(w)
    for _ in range(iters):
        mw = np.einsum("pqab,p->abq", t, z).reshape(-1, i2)
        _, _, vh = np.linalg.svd(mw, full_matrices=True)
        w = vh[-1].conj()
        mz = np.einsum("pqab,q->abp", t, w).reshape(-1, i1)
        _, sv, vh = np.linalg.svd(mz, full_matrices=True)
        z = vh[-1].conj()
        if sv.size >= i1 and sv[-1] < 1e-14:
            break
    if np.min(np.abs(z)) < 0.1 / np.sqrt(i1) or np.min(np.abs(w)) < 0.1 / np.sqrt(i2):
        return None
    return z / np.abs(z), w / np.abs(w)


def search_p_tilde(
    u,
    u_prime,
    r: int,
    i1: int,
    i2: int,
    mode: str = SLOCC,
    budget: int = 50,
    seed=0,
):
    """Multi-start search for block upper triangular ``P~`` with rank-one realignment.

    Minimizes ``sigma2/sigma1`` of ``realign(U P~ U'^{-1})`` over the block
    structure fixed by ``r``: unitary blocks (with ``Y = 0``) in LU mode,
    unconstrained invertible with a condition-number barrier in SLOCC mode.

    Candidates come as one stream over ``budget`` restarts.  Restart 0 opens
    with the deterministic ones: the direct basis change, product-vector
    matches (rank-2 qubit pairs), reduced-basis phase pencils (unitary bases
    with a qubit factor).  Every restart then adds an alternating phase solve
    (unitary bases) and an alternating least-squares solve of the zero-block
    condition (SLOCC or non-unitary bases), from fixed starts on restart 0
    and starts seeded by ``(seed, restart)`` later.  The stream stops at the
    first candidate below ``1e-13``.  Returns the best :class:`SearchResult`
    (``strategy`` names its source) when its objective is below
    ``EQUIV_RTOL``, else ``None`` (never a proof of inequivalence).
    """
    if mode not in (LU, SLOCC):
        raise ValueError(f"mode must be {LU!r} or {SLOCC!r}")
    side = i1 * i2
    u = np.asarray(u, dtype=np.complex128)
    up = np.asarray(u_prime, dtype=np.complex128)
    if u.shape != (side, side) or up.shape != (side, side):
        raise ValueError(f"u and u_prime must be {side}x{side}")
    if not 1 <= r <= side:
        raise ValueError(f"rank split {r} out of range 1..{side}")
    u_inv = np.linalg.inv(u)
    up_inv = np.linalg.inv(up)
    structured = _unitarity_defect(u) < 1e-6 and _unitarity_defect(up) < 1e-6

    def pair(a1, a2):
        return u_inv @ np.kron(a1, a2) @ up

    def candidates():
        # (restart, strategy, unprojected P~), computed only as far as consumed
        entropy = _seed_entropy(seed)
        u_rows = np.ascontiguousarray(u_inv.reshape(side, i1, i2)[r:])
        up_cols = np.ascontiguousarray(up.reshape(i1, i2, side)[:, :, :r])
        t = None
        for restart in range(int(budget)):
            rng = None if restart == 0 else np.random.default_rng(entropy + (restart,))
            if restart == 0:
                yield restart, "direct", u_inv @ up
                if r == 2 and i1 == 2 and i2 == 2:
                    for a1, a2 in _matching_candidates(u, up):
                        yield restart, "matching", pair(a1, a2)
                bases = _reduced_bases(u, up, r, i1, i2) if structured and r < side else None
                if bases is not None:
                    (v1, v1p), (v2, v2p) = bases

                    def phased(z, w):
                        return pair(v1 @ np.diag(z) @ v1p.conj().T, v2 @ np.diag(w) @ v2p.conj().T)

                    t = _phase_tensor(u_inv, up, bases, r, i1, i2)
                    if i1 == 2 or i2 == 2:
                        for z, w in _pencil_phase_candidates(t, i1, i2, entropy):
                            yield restart, "pencil", phased(z, w)
            if t is not None:
                zw = _phase_als(t, i1, i2, rng)
                if zw is not None:
                    yield restart, "phase-als", phased(*zw)
            if mode == SLOCC or not structured:
                if rng is None:
                    a1, a2 = np.eye(i1, dtype=np.complex128), np.eye(i2, dtype=np.complex128)
                else:
                    g = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (i1, i2)]
                    a1, a2 = (m / np.linalg.norm(m) for m in g)
                yield restart, "als", pair(*_als_kron_factors(u_rows, up_cols, a1, a2, i1, i2))

    best: SearchResult | None = None
    for restart, strategy, pt_full in candidates():
        p, y, pbar = pt_full[:r, :r], pt_full[:r, r:], pt_full[r:, r:]
        if mode == LU:
            p = _polar(p)
            pbar = _polar(pbar) if pbar.size else pbar
            y = np.zeros_like(y)
        cand = SearchResult(p.copy(), y.copy(), pbar.copy(), np.inf, restart, strategy)
        pt = cand.p_tilde()
        if _condition(pt) > COND_LIMIT:
            continue  # degenerate-minimizer barrier
        cand.objective = _realign_ratio(u @ pt @ up_inv, i1, i2)
        if best is None or cand.objective < best.objective:
            best = cand
            if best.objective < _SOLVED:
                break  # a later candidate could only win by float noise
    if best is not None and best.objective <= EQUIV_RTOL:
        return best
    return None


def search_equivalence(psi, psi_prime, mode: str, budget: int = 50, seed=0) -> EquivalenceVerdict:
    """Best-effort equivalence proof without known operators.

    Runs a per-mode :func:`search_p_tilde` on the first concentration level,
    recovers candidate local operators from the Kronecker factors of each
    connecting operator, and accepts only when the recovered set reproduces
    ``psi_prime`` and yields a verifying certificate.  Anything short of that
    is ``inconclusive``.
    """
    psi = as_tensor(psi)
    psip = as_tensor(psi_prime)
    if psi.shape != psip.shape:
        raise ValueError(f"shape mismatch: {psi.shape} vs {psip.shape}")
    effective_stop = 3 if psi.ndim > 3 else 2
    first_level = next(zip(walk(psi, effective_stop), walk(psip, effective_stop)), None)
    if first_level is None:
        return EquivalenceVerdict(
            INCONCLUSIVE, "no search surface for bipartite states", {"searched_modes": 0}
        )
    h, hp = first_level
    if h.core.shape != hp.core.shape:
        return EquivalenceVerdict(
            INCONCLUSIVE,
            f"local ranks differ: {h.local_ranks} vs {hp.local_ranks}",
            {"searched_modes": 0},
        )
    recovered = []
    objectives = []
    for k, ((ia, ib), u, up) in enumerate(zip(pair_dims(psi.shape), h.factors, hp.factors)):
        uk, upk = complete_basis(u), complete_basis(up)
        if 2 * k + 1 == psi.ndim:
            # The odd trailing mode, alone in its pair (a (2, 1) pair
            # elsewhere still holds two parties): the connecting operator is
            # the inverse of the single local operator, so any invertible
            # choice is formally admissible; take the direct basis change.
            phi = uk @ np.linalg.inv(upk)
            candidate = np.linalg.inv(phi)
            if mode == LU:
                candidate = _polar(candidate)
            recovered.append(candidate)
            continue
        found = search_p_tilde(uk, upk, u.shape[1], ia, ib, mode, budget, (seed, k))
        if found is None:
            return EquivalenceVerdict(
                INCONCLUSIVE,
                f"no connecting block matrix found for mode {k} within budget {budget}",
                {"searched_modes": k, "objectives": objectives},
            )
        objectives.append(found.objective)
        phi = uk @ found.p_tilde() @ np.linalg.inv(upk)
        try:
            g1, g2 = kron_factorize(phi, ia, ib)
        except ValueError as exc:
            return EquivalenceVerdict(
                INCONCLUSIVE, f"mode {k}: {exc}", {"searched_modes": k, "objectives": objectives}
            )
        a_first, a_second = np.linalg.inv(g1), np.linalg.inv(g2)
        if mode == LU:
            a_first, a_second = _polar(a_first), _polar(a_second)
        recovered.extend([a_first, a_second])
    try:
        ops = LocalOperatorSet(tuple(recovered), mode)
        premise = _rel_err(apply_local(psi, ops), psip)
        if premise > EQUIV_RTOL:
            return EquivalenceVerdict(
                INCONCLUSIVE,
                f"recovered operators do not reproduce the partner state (residual {premise:.3e})",
                {"objectives": objectives, "premise": premise},
            )
        cert = derive_certificate(psi, psip, ops, stop_order=effective_stop)
        return verify_certificate(psi, psip, cert)
    except ValueError as exc:
        return EquivalenceVerdict(INCONCLUSIVE, str(exc), {"objectives": objectives})
