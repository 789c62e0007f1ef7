"""LU/SLOCC equivalence machinery over concentration hierarchies.

Two states related mode-by-mode by invertible (SLOCC) or unitary (LU) local
operators admit a certificate connecting their concentration hierarchies: at
every level, each composite mode carries a block upper triangular matrix
``[[P, Y], [0, P_bar]]`` linking the two factor bases, and the truncated
cores are connected by the ``P`` blocks alone.  A certificate is the local
operator set, which carries the mode, and those blocks for each level of the
walk to stop order 3.  ``derive_certificate`` computes the blocks from known
local operators straight from the relation ``U' = (A_a ⊗ A_b) U P~``;
``verify_certificate`` re-checks every level at the module tolerances.

For single composite modes the Kronecker structure of the connecting matrix
is detected through the realignment rank-one criterion
(:func:`realign_rank1_check`, :func:`kron_factorize`), refuted cheaply by the
spectral sampler (:func:`spectral_preservation_check`), and searched for by
:func:`search_p_tilde`, which scores one stream of candidates over budgeted
restarts and stops at the first candidate within ``EQUIV_RTOL``.

Verdicts are three-valued.  Only :func:`invariant_filter` may declare a pair
``inequivalent`` (from sound invariants); a failed search or certificate is
always ``inconclusive``.  :func:`check`, which ``entcore check`` runs, is the
one place that orders the stages: the filter, then a certificate from given
operators, or else the search.

Every stage reads a state's levels off a :class:`Hierarchy`, the
:func:`~entcore.decompose.walk` of one state built lazily and kept as far as
it was read.  The filter, derivation and verification walk to stop order 3;
the search reads a 3-party state's one level at stop order 2, which extends
that walk.  The invariant filter builds its own; the search, derivation and
verification read ``take(t).levels(...)``: :func:`take` returns the hierarchy
the stage before handed off (:func:`hand_off`, which holds the two latest)
for an equal state, else a new one.  Each entry is taken once, and a stage that
stops early drops what it took, so a check walks each state once.

Kronecker convention: a pair operator ``A ⊗ B`` acting on a composite index
``j = p*I_b + q`` is ``numpy.kron(A, B)``, matching the composite index map of
:func:`~entcore.tensor_ops.pair_dims`.  The spectral sampler therefore
matricizes vectors row-major (``a.reshape(I_a, I_b)``), under which
``kron(A, B) a`` acts as the congruence ``A W B^T``; this is deliberately the
pair convention, not the column-major presentation wrap.
"""

from __future__ import annotations

import numbers
import threading
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .decompose import HosvdResult, complete_basis, cut_to_ranks, cutoff_rank, left_svd, walk
from .states import apply_local
from .tensor_ops import as_tensor, multiply_modes, pair_dims, realign, rescale, wrap

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
    "check",
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


def _check_mode(mode) -> None:
    """Raise ``ValueError`` unless ``mode`` is ``LU`` or ``SLOCC``."""
    if mode not in (LU, SLOCC):
        raise ValueError(f"mode must be {LU!r} or {SLOCC!r}, got {mode!r}")


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


def _conditions(a: np.ndarray) -> np.ndarray:
    """:func:`_condition` of each matrix of a stack, from one stacked SVD."""
    s = np.linalg.svd(a, compute_uv=False)
    cond = np.full(len(s), np.inf)
    np.divide(s[:, 0], s[:, -1], out=cond, where=s[:, -1] > 0.0)
    return cond


def _polar(a: np.ndarray) -> np.ndarray:
    """The unitary polar factor of ``a``, or of each matrix of a stack."""
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def _block_upper(p: np.ndarray, y: np.ndarray, p_bar: np.ndarray) -> np.ndarray:
    """Assemble ``[[P, Y], [0, P_bar]]``, or one such matrix per slice of stacked blocks."""
    r = p.shape[-1]
    out = np.zeros(p.shape[:-2] + (r + p_bar.shape[-1],) * 2, dtype=np.complex128)
    out[..., :r, :r] = p
    out[..., :r, r:] = y
    out[..., r:, r:] = p_bar
    return out


@dataclass(frozen=True, eq=False)
class LocalOperatorSet:
    """One square operator per subsystem, validated for the chosen mode."""

    ops: tuple[np.ndarray, ...]
    mode: str

    def __post_init__(self):
        _check_mode(self.mode)
        mats = []
        for i, a in enumerate(self.ops):
            a = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError(f"operator {i} is not square: shape {a.shape}")
            if not a.size:
                raise ValueError(f"operator {i} is empty: shape {a.shape}")
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

    p_blocks: list[np.ndarray]
    y_blocks: list[np.ndarray]
    p_bar_blocks: list[np.ndarray]

    @property
    def ranks(self) -> tuple[int, ...]:
        """The local ranks, the core's shape: each ``r x r`` P block's size."""
        return tuple(len(p) for p in self.p_blocks)

    def p_tilde(self, k: int) -> np.ndarray:
        """Assembled block upper triangular matrix for mode ``k``."""
        return _block_upper(self.p_blocks[k], self.y_blocks[k], self.p_bar_blocks[k])


@dataclass(eq=False)
class EquivalenceCertificate:
    """The local operators, which carry the mode, and the blocks of each level to stop order 3."""

    operators: LocalOperatorSet
    levels: list[CertificateLevel]


@dataclass(eq=False)
class Hierarchy:
    """One state's :func:`~entcore.decompose.walk`, built lazily and kept as far as it was read.

    :meth:`levels` builds each level once, whatever stop order reads it: the
    walk to stop order 3 is a prefix of the walk to 2.  ``kept`` may be
    seeded with the outermost levels already built.
    """

    state: np.ndarray
    kept: list[HosvdResult] = field(default_factory=list)
    copied: bool = field(default=False, init=False)

    def levels(self, stop_order: int) -> Iterator[HosvdResult]:
        """Yield the levels of ``walk(state, stop_order)``, building only those not kept yet."""
        cur = self.state
        for h in self.kept:
            if cur.ndim <= stop_order:
                return
            yield h
            cur = h.core
        for h in walk(cur, stop_order):
            self.kept.append(h)
            yield h


# Hierarchies one stage of a check made for the next; eq=False, so remove() matches by identity.
_HANDOFF: deque[Hierarchy] = deque(maxlen=2)
_HANDOFF_LOCK = threading.Lock()


def hand_off(*hierarchies: Hierarchy) -> None:
    """Offer hierarchies to the next stage; only the two latest are kept, the older ones are dropped.

    A first hand-off swaps the state for a read-only copy, so :func:`take`
    matches the state the levels are of, whatever the caller's array becomes.
    """
    for h in hierarchies:
        if not h.copied:
            h.state = np.array(h.state)
            h.state.flags.writeable = False
            h.copied = True
    with _HANDOFF_LOCK:
        _HANDOFF.extend(hierarchies)


def take(t: np.ndarray) -> Hierarchy:
    """Remove and return the handed-off hierarchy of a state equal to ``t``, else a new one of ``t``.

    A handed-off hierarchy matches only a state of the same shape and
    entries, so no caller ever gets the levels of another state, and no
    entry is returned twice.  Its kept levels serve any stop order.
    """
    with _HANDOFF_LOCK:
        for h in _HANDOFF:
            if h.state.shape == t.shape and np.array_equal(h.state, t):
                _HANDOFF.remove(h)
                return h
    return Hierarchy(t)


def _pair_operators(ops) -> list[np.ndarray]:
    """The composite operator of each adjacent pair, ``kron(A_a, A_b)``; an odd last one as it is."""
    return [_kron(*ops[i : i + 2]) if i + 1 < len(ops) else ops[i] for i in range(0, len(ops), 2)]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two matrices, or of each pair of two equal stacks of them, as one
    broadcast product: each entry is one product."""
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (m * p, n * q))


def _reject_zero(psi: np.ndarray, psip: np.ndarray) -> None:
    """Raise ``ValueError`` naming a zero state: it has no levels to walk or compare."""
    for name, t in (("psi", psi), ("psi_prime", psip)):
        if not t.any():
            raise ValueError(f"cannot check equivalence of the zero tensor ({name})")


def _check_dims(dims: tuple[int, ...], shape: tuple[int, ...]) -> None:
    """Raise ``ValueError`` unless operator ``dims`` match state ``shape``."""
    if dims != shape:
        raise ValueError(f"operator dims {dims} do not match state dims {shape}")


def _pair(psi, psi_prime, dims=None) -> tuple[np.ndarray, np.ndarray, tuple[Hierarchy, Hierarchy]]:
    """Both states as tensors and the hierarchies :func:`take` returns for them, taken before any check.

    Raises ``ValueError`` when the states differ in shape, operator ``dims``
    (when given) do not match them, or either state is zero.
    """
    psi = as_tensor(psi)
    psip = as_tensor(psi_prime)
    walks = (take(psi), take(psip))
    if psi.shape != psip.shape:
        raise ValueError(f"shape mismatch: {psi.shape} vs {psip.shape}")
    if dims is not None:
        _check_dims(dims, psi.shape)
    _reject_zero(psi, psip)
    return psi, psip, walks


def derive_certificate(psi, psi_prime, operators: LocalOperatorSet) -> EquivalenceCertificate:
    """Compute certificate blocks for a pair known to satisfy
    ``psi_prime = (ops[0] x ... x ops[N-1]) psi``.

    Both hierarchies come from :func:`~entcore.decompose.walk` to stop order
    3, the filter's, so every level's pairing is the adjacent one of its mode
    count and a 3-party pair has no level.  Per level and
    composite mode, ``U`` and ``U'`` are the factors completed by
    :func:`~entcore.decompose.complete_basis`, as in a tree's
    ``full_matrix``.  ``U`` is unitary, so ``U' = (A_a x A_b) U P~`` gives
    ``P~ = U^H (A_a^{-1} x A_b^{-1}) U'``, split into its blocks at the local
    rank ``r``.  The next level's local operators are the inverted ``P``
    blocks, so the ``P`` blocks themselves are that level's inverse operators:
    only the level-0 operators are ever inverted.

    Both hierarchies come from :func:`take`, before any check: the ones
    handed off for equal states, else new ones, extended by the levels they
    lack.  They are handed off in turn to
    :func:`verify_certificate`, or dropped if derivation raises.  The
    certificate itself keeps no walk.

    Raises ``ValueError`` when either state is zero, the premise does not
    hold to ``EQUIV_RTOL``, or a level's local ranks differ between the
    states at ``RANK_RTOL``.
    """
    psi, psip, walks = _pair(psi, psi_prime, operators.dims)
    premise = _rel_err(apply_local(psi, operators), psip)
    if premise > EQUIV_RTOL:
        raise ValueError(
            f"states are not related by the supplied operators (residual {premise:.3e} > {EQUIV_RTOL:.1e})"
        )
    inv_ops = [np.linalg.inv(a) for a in operators.ops]
    levels: list[CertificateLevel] = []
    for h, hp in zip(*(w.levels(3) for w in walks)):
        if h.core.shape != hp.core.shape:
            raise ValueError(
                f"local ranks differ at RANK_RTOL ({h.local_ranks} vs {hp.local_ranks}), "
                "so no level-by-level certificate exists at this cutoff"
            )
        p_blocks, y_blocks, pbar_blocks = [], [], []
        for b_inv, u, up in zip(_pair_operators(inv_ops), h.factors, hp.factors):
            r = u.shape[1]
            p_tilde = complete_basis(u).conj().T @ b_inv @ complete_basis(up)
            p_blocks.append(np.ascontiguousarray(p_tilde[:r, :r]))
            y_blocks.append(np.ascontiguousarray(p_tilde[:r, r:]))
            pbar_blocks.append(np.ascontiguousarray(p_tilde[r:, r:]))
        levels.append(CertificateLevel(p_blocks, y_blocks, pbar_blocks))
        inv_ops = p_blocks
    hand_off(*walks)
    return EquivalenceCertificate(operators, levels)


def _malformed_blocks(clevel: CertificateLevel, h: HosvdResult, hp: HosvdResult) -> str | None:
    """Why a level's blocks cannot connect two walks' ``J x r`` factors, or ``None`` when they can."""
    if h.core.shape != hp.core.shape:
        return f"local ranks differ: {h.local_ranks} vs {hp.local_ranks}"
    blocks = {"P": clevel.p_blocks, "Y": clevel.y_blocks, "P_bar": clevel.p_bar_blocks}
    if any(len(b) != len(h.factors) for b in blocks.values()):
        return f"{[len(b) for b in blocks.values()]} P/Y/P_bar blocks for {len(h.factors)} modes"
    for k, (j, r) in enumerate(f.shape for f in h.factors):
        for (name, b), shape in zip(blocks.items(), ((r, r), (r, j - r), (j - r, j - r))):
            if np.shape(b[k]) != shape or not np.all(np.isfinite(b[k])):
                return f"mode {k}: {name} block of shape {np.shape(b[k])} is not a finite {shape} matrix"
        if _condition(clevel.p_blocks[k]) > SINGULAR_COND:
            return f"mode {k}: P block is numerically singular"
    return None


def verify_certificate(psi, psi_prime, cert: EquivalenceCertificate) -> EquivalenceVerdict:
    """Re-check a certificate level by level at relative Frobenius tolerance ``EQUIV_RTOL``.

    Per level ``l`` and mode ``k`` the factors must satisfy
    ``U' = (A_a x A_b) U P`` and the cores
    ``core = (P_1 x ... x P_M) core'``; in LU mode (``cert.operators.mode``)
    the operators and all blocks must in addition be unitary with a vanishing
    ``Y``.  The reassembly residual ``psi' vs (x A_i) psi`` is also included.
    Status is ``equivalent`` only if every check passes; a failed certificate
    is ``inconclusive`` (it never proves inequivalence).  That includes a
    certificate whose levels do not fit the hierarchies walked to stop order
    3: a level where the two walks' ranks differ, or that lacks one finite
    ``r x r`` P, ``r x (J-r)`` Y and ``(J-r) x (J-r)`` P_bar per mode, or has
    a singular P (checking stops at any of these); more levels than the
    hierarchy has, or too few to reach its terminal order.

    The factors and cores of each state are read off the hierarchy
    :func:`take` returns: the one :func:`derive_certificate` handed off for
    an equal state, else a new one, built only as deep as checking goes.
    Verification hands nothing on, so a second verification walks afresh.
    Only the factorisations are reused: every check above is made afresh.

    Raises ``ValueError`` only for caller errors: states of different
    shapes, operators whose dims do not match the states', or a zero state on
    either side.
    """
    psi, psip, walks = _pair(psi, psi_prime, cert.operators.dims)
    failures: list[str] = []
    premise = _rel_err(apply_local(psi, cert.operators), psip)
    residuals: dict = {"reassembly": premise, "levels": []}
    if premise > EQUIV_RTOL:
        failures.append(f"reassembly residual {premise:.3e}")
    if cert.operators.mode == LU:
        for i, a in enumerate(cert.operators.ops):
            defect = _unitarity_defect(a)
            if defect > EQUIV_RTOL:
                failures.append(f"operator {i} unitarity defect {defect:.3e}")
    hierarchy = zip(cert.levels, *(w.levels(3) for w in walks))
    ops_level = list(cert.operators.ops)
    core_t = psi
    for li, (clevel, h, hp) in enumerate(hierarchy):
        core_t = h.core
        malformed = _malformed_blocks(clevel, h, hp)
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
            if cert.operators.mode == LU:
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
        if core_t.ndim > 3:
            failures.append("certificate does not reach the terminal order of the hierarchy")
    if failures:
        return EquivalenceVerdict(INCONCLUSIVE, "; ".join(failures[:4]), residuals)
    return EquivalenceVerdict(EQUIVALENT, cert, residuals)


def _realign_ratios(phis: np.ndarray, i1: int, i2: int) -> np.ndarray:
    """``sigma2/sigma1`` of ``realign(phi)`` for each matrix ``phi`` of a stack, from one stacked
    SVD; 0 when it has one singular value or none nonzero."""
    s = np.linalg.svd(realign(phis, i1, i2), compute_uv=False)
    ratios = np.zeros(len(phis))
    if s.shape[1] > 1:
        np.divide(s[:, 1], s[:, 0], out=ratios, where=s[:, 0] > 0)
    return ratios


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
    must be invertible, and unitary in LU mode; :func:`kron_factorize` then
    decides rank one.

    Raises ``ValueError`` for an unknown ``mode``, matrices that are not
    ``i1*i2`` square, or a numerically singular ``u_prime``.
    """
    _check_mode(mode)
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
    if _condition(phi) >= SINGULAR_COND or (mode == LU and _unitarity_defect(phi) > EQUIV_RTOL):
        return False, None
    try:
        return True, kron_factorize(phi, i1, i2)
    except ValueError:
        return False, None


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
) -> bool:
    """Probabilistic necessary test that ``phi`` acts like a local pair operator.

    Draws ``samples`` vectors (cycling through targeted rank-1 and rank-2
    matricizations and generic ones) and demands the functional of the
    matricized image match the input's: exact rank equality for the rank
    functional, agreement to ``EQUIV_RTOL * max(1, |input's value|)``
    otherwise.  ``True`` means "never refuted" (no certificate); ``False``
    refutes Kronecker structure.

    Raises ``ValueError`` when ``phi`` is not ``i1*i2`` square or
    ``samples`` is not a non-negative integer.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    side = i1 * i2
    if phi.shape != (side, side):
        raise ValueError(f"phi must be {side}x{side}, got {phi.shape}")
    samples = _check_count(samples, "samples")
    rng = np.random.default_rng(seed)

    def _rand_vec(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    for n in range(samples):
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
        slack = 0.0 if functional.is_rank else EQUIV_RTOL * max(1.0, abs(f_in))
        if abs(f_out - f_in) > slack:
            return False
    return True


def _particle_spectra(psi: np.ndarray, psip: np.ndarray, level1: list):
    """Yield every particle's unfolding spectrum in both states, particle by particle.

    Each pair mode of the rescaled states (:func:`~entcore.tensor_ops.rescale`),
    the modes of level 1, is factored by one
    :func:`~entcore.decompose.left_svd` of both states at once.  Pair mode
    ``k`` of a state unfolds as ``U S V^H``, and ``V`` has orthonormal
    columns, so particle ``2k``'s singular values are those of the
    ``I_a x (I_b r)`` reshape of ``U S`` and particle ``2k+1``'s those of its
    transposed ``I_b x (I_a r)`` reshape; one batched SVD takes each particle
    for both states.  The last particle of an odd order, alone in its pair,
    is the pair mode itself.  ``U`` is not cut to the local rank, so
    ``RANK_RTOL`` cannot move these spectra: they equal the direct ones to
    rounding.  Each mode's uncut ``(U, s)``, stacked ``psi`` first, is
    appended to ``level1`` for the level to be cut from.
    """
    pairs = pair_dims(psi.shape)
    shape = tuple(ia * ib for ia, ib in pairs)
    t, tp = psi.reshape(shape), psip.reshape(shape)
    for k, (ia, ib) in enumerate(pairs):
        # both states' unfold(., k) in one copy, so one left_svd factors both
        perm = tuple(range(k, len(shape))) + tuple(range(k))
        u, s = left_svd(np.stack((t.transpose(perm), tp.transpose(perm))).reshape(2, shape[k], -1))
        level1.append((u, s))
        if 2 * k + 1 == psi.ndim:
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
    to the stop order 3 that certificates use.  The particle spectra are
    read off one SVD per pair mode, pair mode by pair mode
    (:func:`_particle_spectra`), so a particle-0 mismatch stops after pair
    mode 0's SVD.  Walking on to order 2 would add nothing: the one more
    level factors a 3-mode core as ``(0-1)(2)``, and both of its spectra
    equal that core's mode-2 spectrum, which the level above (or, for a
    3-party state, the particle loop) has already compared.  Any mismatch is
    a proof of inequivalence; agreement is only ``inconclusive``.  Either
    way the residuals report the number of ``comparisons`` made.

    The filter builds both hierarchies on every call and never takes a
    handed-off one.  A level 1 of three or more modes is cut from the
    particle SVDs (:func:`~entcore.decompose.cut_to_ranks`): there
    :func:`~entcore.decompose.hosvd` too takes one
    :func:`~entcore.decompose.left_svd` per mode, so the level is its
    ``hosvd`` bit for bit.  A level of two modes is ``hosvd``'s one SVD,
    whose bases in a degenerate subspace the pair SVDs need not share, so it
    is built by the walk.  When the filter returns ``inconclusive`` it hands
    both hierarchies off (:func:`hand_off`), so a search or derivation of
    the same states that follows walks neither again.  A pair it rejects is
    never copied, and its levels are dropped.

    Raises ``ValueError`` for an unknown ``mode`` and, before any walk, for
    a zero state on either side.
    """
    _check_mode(mode)
    psi = as_tensor(psi)
    psip = as_tensor(psi_prime)
    if psi.shape != psip.shape:
        return EquivalenceVerdict(
            INEQUIVALENT,
            f"shape mismatch: {psi.shape} vs {psip.shape}",
            {"max_spectrum_deviation": float("inf")},
        )
    _reject_zero(psi, psip)

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
                # printed to the local rank: the values below the cutoff are rounding noise
                return (
                    f"{label}: singular values differ by {dev:.3e} "
                    f"({np.array2string(sa[:ra], precision=6)} vs {np.array2string(sb[:rb], precision=6)})"
                )
        return None

    def _verdict(status: str, witness: str) -> EquivalenceVerdict:
        return EquivalenceVerdict(status, witness, {"max_spectrum_deviation": worst, "comparisons": checked})

    level1 = []
    for k, (sa, sb) in enumerate(_particle_spectra(psi, psip, level1)):
        witness = _compare(f"particle {k}", sa, sb)
        if witness:
            return _verdict(INEQUIVALENT, witness)

    walks = [Hierarchy(t) for t in (psi, psip)]
    if len(level1) > 2:
        bases, spectra = zip(*level1)
        for i, (w, t) in enumerate(zip(walks, (psi, psip))):
            w.kept.append(cut_to_ranks(rescale(t), [u[i] for u in bases], [s[i] for s in spectra]))
    for level, (h, hp) in enumerate(zip(*(w.levels(3) for w in walks)), start=1):
        for k, (sa, sb) in enumerate(zip(h.mode_spectra, hp.mode_spectra)):
            witness = _compare(f"level {level} mode {k}", sa, sb)
            if witness:
                return _verdict(INEQUIVALENT, witness)
    hand_off(*walks)
    return _verdict(INCONCLUSIVE, "all compared invariants match")


@dataclass(eq=False)
class SearchResult:
    """Blocks found by :func:`search_p_tilde` with their realignment objective."""

    p: np.ndarray
    y: np.ndarray
    p_bar: np.ndarray
    objective: float
    restart_index: int
    strategy: str | None = None  # "direct", "matching", "null" (all restart 0) or "als"

    def p_tilde(self) -> np.ndarray:
        return _block_upper(self.p, self.y, self.p_bar)


def _check_count(value, name: str) -> int:
    """``value`` as an ``int``; raises ``ValueError`` unless it is a non-negative
    integer (a ``bool`` is not one)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _seed_entropy(seed) -> tuple:
    """``seed`` as a flat tuple of ints; raises ``ValueError`` unless it is ``None``
    (read as 0), a non-negative integer or a (nested) sequence of these."""
    if seed is None:
        return (0,)
    if isinstance(seed, (tuple, list)):
        return tuple(e for s in seed for e in _seed_entropy(s))
    return (_check_count(seed, "seed"),)


def _als_operators(u_inv, up, r, i1, i2):
    """Each ALS half-step's constraint operator, ``(w2, w1)``, built once per search.

    With ``u_rows[a, p, q]`` the rows of ``U^{-1}`` below ``r`` and
    ``up_cols[P, Q, b]`` the first ``r`` columns of ``U'``, row ``(p, P)``
    of ``w2`` holds ``u_rows[a, p, q] * up_cols[P, Q, b]`` at column
    ``(a, b, q, Q)``, so ``vec(A1) @ w2`` is the constraint matrix on
    ``vec(A2)``; ``w1`` is the same product indexed the other way round.
    """
    side = i1 * i2
    u_rows = u_inv.reshape(side, i1, i2)[r:]
    up_cols = up.reshape(i1, i2, side)[:, :, :r]
    prod = u_rows[:, :, :, None, None, None] * up_cols[None, None, None]  # a p q P Q b
    w2 = prod.transpose(1, 3, 0, 5, 2, 4).reshape(i1 * i1, -1)
    w1 = prod.transpose(2, 4, 0, 5, 1, 3).reshape(i2 * i2, -1)
    return np.ascontiguousarray(w2), np.ascontiguousarray(w1)


def _min_right_vectors(m, cols):
    """Each stacked matrix's smallest right singular vector, and its singular values."""
    m = m.reshape(len(m), -1, cols)
    _, sv, vh = np.linalg.svd(m, full_matrices=m.shape[1] < cols)
    return vh[:, -1].conj(), sv


def _als_kron_factors(w2, w1, a1, a2, cond_bound, iters=60, ctol=1e-14):
    # Alternating least squares on the bilinear condition
    # lower-left(U^{-1} kron(A1, A2) U') = 0, run on a stack of starts
    # ``a1[n], a2[n]`` in lockstep; each half-step takes the smallest right
    # singular vector of the linearized constraint ``vec(A) @ w``.  A start stops
    # when it converges (``resid < ctol``), when it cannot converge in the
    # iterations left (cut at each by its last rate ``rho <= 1``, 0 at first,
    # ``resid`` would end above ``ctol``, as in a stall) or when it leaves the
    # barrier: cond(A1) cond(A2) above ``cond_bound`` (a zero singular value
    # reads as infinite condition; an infinite bound disables the barrier).
    # The search always passes the finite bound COND_LIMIT cond(U) cond(U'),
    # and cond(U^{-1} kron(A1, A2) U') >= cond(A1) cond(A2) / (cond(U)
    # cond(U')), so past it the iterate's unprojected P~ already fails the
    # barrier; on the planted problems tried, no start that leaves it comes
    # back to an acceptable candidate.  A stopped start leaves the stack.  The
    # stacked matmul and SVDs treat each slice as a matrix of its own, so a
    # start's iterates do not depend on which others share the stack.
    (n, i1, _), i2 = a1.shape, a2.shape[1]
    a1, a2 = a1.copy(), a2.copy()
    if w2.shape[1] == 0:
        return a1, a2
    live = np.arange(n)
    prev = np.full(n, np.inf)
    for it in range(iters):
        v2, _ = _min_right_vectors(a1[live].reshape(-1, 1, i1 * i1) @ w2, i2 * i2)
        a2[live] = v2.reshape(-1, i2, i2)
        v1, sv = _min_right_vectors(a2[live].reshape(-1, 1, i2 * i2) @ w1, i1 * i1)
        a1[live] = v1.reshape(-1, i1, i1)
        resid = sv[:, -1] if sv.shape[1] >= i1 * i1 else np.zeros(live.size)
        rho = np.minimum(resid / prev[live], 1.0)
        prev[live] = resid
        stopped = (resid < ctol) | (resid * rho ** (iters - it - 1) > ctol)
        s1 = np.linalg.svd(a1[live], compute_uv=False)
        s2 = np.linalg.svd(a2[live], compute_uv=False)
        stopped |= s1[:, 0] * s2[:, 0] > cond_bound * (s1[:, -1] * s2[:, -1])
        live = live[~stopped]
        if live.size == 0:
            break
    return a1, a2


def _als_starts(entropy, restarts, i1, i2):
    """Stacked ALS starts ``(a1, a2)``, one per restart.

    Restart 0 starts at the identity pair; a later one at a normalized complex
    Gaussian pair drawn from ``(seed, restart)``: the real then imaginary
    parts of ``A1``, then of ``A2``, in one draw.
    """
    a1, a2 = [], []
    for restart in restarts:
        if restart == 0:
            g = [np.eye(d, dtype=np.complex128) for d in (i1, i2)]
        else:
            x = np.random.default_rng(entropy + (restart,)).standard_normal(2 * (i1 * i1 + i2 * i2))
            n1 = 2 * i1 * i1
            g = [m[0] + 1j * m[1] for m in (x[:n1].reshape(2, i1, i1), x[n1:].reshape(2, i2, i2))]
            g = [m / np.linalg.norm(m) for m in g]
        a1.append(g[0])
        a2.append(g[1])
    return np.stack(a1), np.stack(a2)


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
        return None  # every vector of the span is a product vector; no isolated anchors
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
    # rank-one intertwiners E_p built from the reduced eigenbases.  Each
    # kron(E1_p, E2_q) is (v1_p (x) v2_q)(v1'_p (x) v2'_q)^H, so T[p, q] is the
    # outer product of column (p, q) of U^{-1}[r:] kron(v1, v2) with row
    # (p, q) of kron(v1', v2')^H U'[:, :r]: two basis changes, one broadcast.
    (v1, v1p), (v2, v2p) = bases
    left = u_inv[r:] @ _kron(v1, v2)
    right = _kron(v1p, v2p).conj().T @ u_prime[:, :r]
    return (left.T[:, :, None] * right[:, None, :]).reshape(i1, i2, i1 * i2 - r, r)


def _unit_phases(*vs):
    """Unit-modulus phases of the unit vectors ``vs``, or ``None`` when an entry
    is below a tenth of its vector's uniform modulus: its phase is then noise."""
    if any(np.min(np.abs(v)) < 0.1 / np.sqrt(v.size) for v in vs):
        return None
    return tuple(v / np.abs(v) for v in vs)


def _null_phases(t, i1, i2):
    # The zero-block condition sum_pq z_p w_q T[p, q] = 0 is linear in
    # y = z (x) w.  A column (p, q) of its map below EQUIV_RTOL is not read
    # (T's scale is 1: the bases are unitary), so y_pq is free there; a map
    # that reads no column is met by any phases, the unit ones included.
    # When every column is read and the null space is one-dimensional, its
    # null vector is y, split through the dominant singular pair of y as a
    # matrix; when it is two-dimensional on a qubit pair, y is a product
    # vector of that plane, found in closed form by _rank1_factors_2x2.
    # When some columns are unread (the splits r = 1 and side - 1 read
    # only the Schmidt pairs), the read columns have a one-dimensional null
    # space and pair each p with one q and each q with one p, the phases
    # of y on them are those of z_p w_q: z = 1 and w_q = y_pq / |y_pq|,
    # with w_q = 1 on an unread q.
    m = t.reshape(i1 * i2, -1).T
    read = np.linalg.norm(m, axis=0) > EQUIV_RTOL
    if not read.any():
        return [(np.ones(i1, dtype=np.complex128), np.ones(i2, dtype=np.complex128))]
    cols = np.count_nonzero(read)
    _, s, vh = np.linalg.svd(m[:, read], full_matrices=m.shape[0] < cols)
    nullity = cols - cutoff_rank(s)
    if not read.all():
        p, q = np.nonzero(read.reshape(i1, i2))
        phases = _unit_phases(vh[-1].conj())
        if nullity != 1 or len(set(p)) < p.size or len(set(q)) < q.size or phases is None:
            return []
        w = np.ones(i2, dtype=np.complex128)
        w[q] = phases[0]
        return [(np.ones(i1, dtype=np.complex128), w)]
    if nullity == 1:
        uz, _, wh = np.linalg.svd(vh[-1].conj().reshape(i1, i2))
        factors = [(uz[:, 0], wh[0])]
    elif nullity == 2 and i1 == i2 == 2:
        plane = _rank1_factors_2x2(vh[-1].conj(), vh[-2].conj()) or []
        factors = [(z / np.linalg.norm(z), w / np.linalg.norm(w)) for z, w in plane]
    else:
        return []
    return [zw for zw in (_unit_phases(z, w) for z, w in factors) if zw is not None]


def _blocks(pt_full, r: int, mode: str):
    """``(P, Y, P_bar)`` of an unprojected ``P~`` split at ``r``, or of each of a stack; in LU
    mode the polar factors of ``P`` and ``P_bar``, with ``Y = 0``."""
    p, y, pbar = pt_full[..., :r, :r], pt_full[..., :r, r:], pt_full[..., r:, r:]
    if mode == LU:
        return _polar(p), np.zeros_like(y), _polar(pbar) if pbar.size else pbar
    return p, y, pbar


def _first_found(restarts, strategy, pt_full, u, up_inv, r, i1, i2, mode) -> SearchResult | None:
    """The first candidate of the stack ``pt_full`` of unprojected ``P~`` that
    :func:`search_p_tilde` accepts, as a :class:`SearchResult` of ``strategy``
    and its restart in ``restarts``, or ``None``.

    Each is projected and scored as it would be alone, all in one pass:
    :func:`_blocks` projects the stack, one stacked SVD gives the
    realignment ratios, and in SLOCC mode one more bars those beyond the
    ``COND_LIMIT`` barrier (an LU candidate is unitary, of condition 1).
    """
    p, y, pbar = _blocks(pt_full, r, mode)
    pt = _block_upper(p, y, pbar)
    objectives = _realign_ratios(u @ pt @ up_inv, i1, i2)
    accepted = objectives <= EQUIV_RTOL
    if mode == SLOCC and accepted.any():
        accepted &= ~(_conditions(pt) > COND_LIMIT)
    if not accepted.any():
        return None
    j = int(np.argmax(accepted))
    return SearchResult(p[j].copy(), y[j].copy(), pbar[j].copy(), float(objectives[j]), restarts[j], strategy)


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

    Scores candidates by ``sigma2/sigma1`` of ``realign(U P~ U'^{-1})`` over
    the block structure fixed by ``r``: unitary blocks (with ``Y = 0``) in LU
    mode, unconstrained invertible with a condition-number barrier in SLOCC
    mode.  The barrier applies in SLOCC mode only: an LU candidate, the
    polar factors of its blocks with ``Y = 0``, is unitary, of condition 1.

    Candidates come as one stream over ``budget`` restarts, one stack per
    source, and one scorer serves every stack: it projects each candidate,
    applies the barrier in SLOCC mode and stops the search at the first,
    in stream order, whose objective is at most ``EQUIV_RTOL``, each scored
    as it would be alone.  Restart 0 holds the deterministic sources: the
    direct basis change, product-vector matches (rank-2 qubit pairs), and
    the reduced-basis null-space phase solve for unitary bases.  Its
    zero-block condition on the phases ``z, w`` is linear in ``z (x) w``,
    through a phase tensor that is one outer product of two basis changes
    of the reduced eigenbases: when that map's null space is
    one-dimensional its null vector, split through its dominant singular
    pair, is the solution; when it is two-dimensional on a qubit pair, the
    plane's two product vectors, roots of one quadratic, are the
    candidates; when the map reads only paired columns (the splits ``r = 1``
    and ``side - 1`` read the Schmidt pairs), the phases of the null vector
    on them are those of ``z (x) w``; and when it reads none, the unit
    phases solve it.  These closed forms decide LU mode at restart 0 on any
    bases (on non-unitary ones only the direct change and the matches
    apply), so the restart budget feeds only SLOCC mode, whose alternating
    least-squares solve of the zero-block condition follows: restart 0's
    from the identity pair alone, then one stacked solve runs the starts of
    restarts 1 to ``budget - 1``, seeded by ``(seed, restart)``, in
    lockstep.  A start stops when it converges, when at its last rate it
    cannot converge in the iterations left (as a stalled one cannot), or
    when its Kronecker pair leaves the barrier: past ``cond(A1) cond(A2) >
    COND_LIMIT cond(U) cond(U')`` its unprojected ``P~`` is conditioned
    beyond ``COND_LIMIT``, and on the planted problems tested no start comes
    back from there to a candidate the barrier accepts.  Each start's
    iterates are those it has alone, so the candidates and their order do
    not depend on the stacking.  Returns the first candidate accepted as a
    :class:`SearchResult` (``strategy`` names its source), or ``None`` when
    none is (never a proof of inequivalence); ``budget = 0`` tries none.

    Raises ``ValueError`` for an unknown ``mode``, bases that are not
    ``i1*i2`` square, an ``r`` that is not an integer in ``1..i1*i2``
    (a ``bool`` is not one), a ``budget`` that is not a non-negative
    integer, a ``seed`` that is not ``None``, a non-negative integer or a
    sequence of these, or, before any candidate, a basis with a non-finite
    entry or one that is numerically singular (condition number above
    ``SINGULAR_COND``).
    """
    _check_mode(mode)
    side = i1 * i2
    u = np.asarray(u, dtype=np.complex128)
    up = np.asarray(u_prime, dtype=np.complex128)
    if u.shape != (side, side) or up.shape != (side, side):
        raise ValueError(f"u and u_prime must be {side}x{side}")
    r = _check_count(r, "r")
    if not 1 <= r <= side:
        raise ValueError(f"rank split {r} out of range 1..{side}")
    budget = _check_count(budget, "budget")
    entropy = _seed_entropy(seed)
    unitary = []
    cond_bound = COND_LIMIT  # an ALS start past it gives no candidate the barrier accepts
    for name, m in (("u", u), ("u_prime", up)):
        if not np.all(np.isfinite(m)):
            raise ValueError(f"{name} has non-finite entries")
        # a unitary basis is perfectly conditioned; only another one needs the SVD
        unitary.append(_unitarity_defect(m) < 1e-6)
        if not unitary[-1]:
            cond = _condition(m)
            if cond > SINGULAR_COND:
                raise ValueError(f"{name} is numerically singular")
            cond_bound *= cond
    structured = all(unitary)
    if budget == 0:
        return None
    u_inv = np.linalg.inv(u)
    up_inv = np.linalg.inv(up)
    als = mode == SLOCC
    constraints = _als_operators(u_inv, up, r, i1, i2) if als else None

    def pairs(a1, a2):
        # the unprojected P~ of each stacked Kronecker pair
        return u_inv @ _kron(a1, a2) @ up

    def restart_zero(strategy, factors):
        # a closed form's Kronecker pairs as one stack of restart 0, if it gives any
        if factors:
            yield [0] * len(factors), strategy, pairs(*map(np.stack, zip(*factors)))

    def candidates():
        # (restarts, strategy, stacked unprojected P~) per source, computed only as far as consumed
        yield [0], "direct", (u_inv @ up)[None]
        if r == 2 and i1 == 2 and i2 == 2:
            yield from restart_zero("matching", _matching_candidates(u, up))
        bases = _reduced_bases(u, up, r, i1, i2) if structured and r < side else None
        if bases is not None:
            (v1, v1p), (v2, v2p) = bases
            phases = _null_phases(_phase_tensor(u_inv, up, bases, r, i1, i2), i1, i2)
            yield from restart_zero(
                "null", [(v1 @ np.diag(z) @ v1p.conj().T, v2 @ np.diag(w) @ v2p.conj().T) for z, w in phases]
            )
        if als:
            # restart 0's identity start alone, then every later restart as one lockstep stack
            for restarts in ([0], range(1, budget)):
                if restarts:
                    a1, a2 = _als_kron_factors(*constraints, *_als_starts(entropy, restarts, i1, i2), cond_bound)
                    yield restarts, "als", pairs(a1, a2)

    for restarts, strategy, pt_full in candidates():
        found = _first_found(restarts, strategy, pt_full, u, up_inv, r, i1, i2, mode)
        if found is not None:
            return found
    return None


def search_equivalence(psi, psi_prime, mode: str, budget: int = 50, seed=0) -> EquivalenceVerdict:
    """Best-effort equivalence proof without known operators.

    Runs a per-mode :func:`search_p_tilde` on the first concentration level,
    recovers candidate local operators from the Kronecker factors of each
    connecting operator, and accepts only when the recovered set reproduces
    ``psi_prime`` and yields a verifying certificate.  Anything short of that
    is ``inconclusive``.

    The first level is read off :func:`take`'s hierarchies: the filter's,
    else new ones built only that deep.  They are handed on to the
    :func:`derive_certificate` call, or dropped if the search gives up first.

    Raises ``ValueError``, before any walk, for an unknown ``mode``, a
    ``budget`` that is not a non-negative integer, a ``seed`` that
    :func:`search_p_tilde` would reject, states of different shapes or a
    zero state on either side.
    """
    _check_mode(mode)
    budget = _check_count(budget, "budget")
    _seed_entropy(seed)  # checked here, before any walk
    psi, psip, walks = _pair(psi, psi_prime)
    effective_stop = 3 if psi.ndim > 3 else 2
    first_level = next(zip(*(w.levels(effective_stop) for w in walks)), None)
    if first_level is None:
        return EquivalenceVerdict(
            INCONCLUSIVE, f"no search surface for {psi.ndim}-party states", {"searched_modes": 0}
        )
    h, hp = first_level
    if h.core.shape != hp.core.shape:
        return EquivalenceVerdict(
            INCONCLUSIVE,
            f"local ranks differ: {h.local_ranks} vs {hp.local_ranks}",
            {"searched_modes": 0},
        )
    connectors = []  # (connector, (i_a, i_b) split to factor it at); None for the trailing mode
    objectives = []
    for k, ((ia, ib), u, up) in enumerate(zip(pair_dims(psi.shape), h.factors, hp.factors)):
        uk, upk = complete_basis(u), complete_basis(up)
        if 2 * k + 1 == psi.ndim:
            # The odd trailing mode, alone in its pair (a (2, 1) pair
            # elsewhere still holds two parties): the connecting operator is
            # the inverse of the single local operator, so any invertible
            # choice is formally admissible; take the direct basis change.
            connectors.append((uk @ np.linalg.inv(upk), None))
            continue
        found = search_p_tilde(uk, upk, u.shape[1], ia, ib, mode, budget, (seed, k))
        if found is None:
            return EquivalenceVerdict(
                INCONCLUSIVE,
                f"no connecting block matrix found for mode {k} within budget {budget}",
                {"searched_modes": k, "objectives": objectives},
            )
        objectives.append(found.objective)
        connectors.append((uk @ found.p_tilde() @ np.linalg.inv(upk), (ia, ib)))
    try:
        recovered = []
        for phi, split in connectors:
            # each local operator is the inverse of its factor of the connector
            for g in (phi,) if split is None else kron_factorize(phi, *split):
                a = np.linalg.inv(g)
                recovered.append(_polar(a) if mode == LU else a)
        ops = LocalOperatorSet(tuple(recovered), mode)
        premise = _rel_err(apply_local(psi, ops), psip)
        if premise > EQUIV_RTOL:
            return EquivalenceVerdict(
                INCONCLUSIVE,
                f"recovered operators do not reproduce the partner state (residual {premise:.3e})",
                {"objectives": objectives, "premise": premise},
            )
        hand_off(*walks)
        cert = derive_certificate(psi, psip, ops)
        return verify_certificate(psi, psip, cert)
    except ValueError as exc:
        return EquivalenceVerdict(INCONCLUSIVE, str(exc), {"objectives": objectives})


def check(
    psi, psi_prime, mode: str, operators: LocalOperatorSet | None = None, budget: int = 50, seed=0
) -> EquivalenceVerdict:
    """Decide a pair end to end, as ``entcore check`` does: filter, then certificate or search.

    Returns :func:`invariant_filter`'s verdict when it is ``inequivalent``.
    Otherwise, without ``operators``, returns :func:`search_equivalence` at
    ``budget`` and ``seed``; with them, the :func:`verify_certificate` verdict
    of the :func:`derive_certificate` certificate, or, when derivation raises
    ``ValueError`` (the premise fails, or a level's ranks differ),
    ``inconclusive`` with the message as witness and the filter's residuals.
    Each stage takes the walks of the one before, so each state is walked
    once.

    Raises ``ValueError``, before any walk, for an unknown ``mode``, a
    ``budget`` or ``seed`` that :func:`search_equivalence` would reject, or
    ``operators`` of another mode or of dims other than the states'; and, as
    the filter does, for a zero state on either side.
    """
    _check_mode(mode)
    _check_count(budget, "budget")
    _seed_entropy(seed)
    psi, psip = as_tensor(psi), as_tensor(psi_prime)
    if operators is not None:
        if operators.mode != mode:
            raise ValueError(f"operators are for mode {operators.mode!r}, not {mode!r}")
        _check_dims(operators.dims, psi.shape)
    verdict = invariant_filter(psi, psip, mode)
    if verdict.status == INEQUIVALENT:
        return verdict
    if operators is None:
        return search_equivalence(psi, psip, mode, budget, seed)
    try:
        cert = derive_certificate(psi, psip, operators)
    except ValueError as exc:
        return EquivalenceVerdict(INCONCLUSIVE, str(exc), verdict.residuals)
    return verify_certificate(psi, psip, cert)
