"""Dense complex tensor primitives and the index conventions they pin down.

Conventions used throughout the package:

* A pure state on ``N`` subsystems with local dimensions ``I_0 .. I_{N-1}``
  is a ``numpy.ndarray`` of ``complex128`` with that shape, kept in C order,
  so the **last index varies fastest** in the flat coefficient layout.
* All indices are 0-based.
* The mode-``k`` unfolding is the ``J_k x (J_{k+1} ... J_{N-1} J_0 ... J_{k-1})``
  matrix whose column index runs cyclically over the remaining modes with
  ``j_{k+1}`` slowest and ``j_{k-1}`` fastest.
* Pair-rescaling merges consecutive modes ``(2k, 2k+1)`` into one composite
  index ``j = i_{2k} * I_{2k+1} + i_{2k+1}`` (second member fastest); an odd
  last mode stays alone.  This adjacent pairing is the only one, so it is a
  function of the dims (:func:`pair_dims`).  For the C layout rescaling is a
  plain reshape, so it is an exact relabelling.
* ``wrap`` turns a length ``I1*I2`` vector into an ``I1 x I2`` matrix
  **column-major** (first matrix index fastest); ``vectorize`` is its exact
  inverse.  Note this deliberately differs from the row-major composite index
  above; the two conventions are never composed with each other.
* ``realign`` rearranges a square ``I1*I2 x I1*I2`` matrix into an
  ``I1^2 x I2^2`` matrix whose rows are the column-major vectorizations of its
  ``I2 x I2`` blocks; it has rank one exactly for Kronecker products.
* The all-modes product ``t x_0 A_0 x_1 ... x_{M-1} A_{M-1}``
  (:func:`multiply_modes`) rotates its layout: each step multiplies the
  leading mode of the C-ordered tensor and leaves the result as the last one,
  so after ``M`` steps the modes are back in order.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_tensor",
    "multiply_modes",
    "pair_dims",
    "realign",
    "rescale",
    "tensor_norm",
    "unfold",
    "unrescale",
    "vectorize",
    "wrap",
]


def as_tensor(data, dims=None) -> np.ndarray:
    """Coerce ``data`` to a C-ordered complex128 array and validate it.

    ``dims``, when given, reshapes a flat coefficient sequence interpreted
    with the last index fastest.  Rejects non-finite entries, empty shapes
    and non-positive dimensions.
    """
    arr = np.ascontiguousarray(np.asarray(data, dtype=np.complex128))
    if dims is not None:
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"dimensions must be a non-empty list of integers >= 1, got {dims}")
        if arr.size != int(np.prod(dims)):
            raise ValueError(f"got {arr.size} coefficients for dimensions {dims}")
        arr = arr.reshape(dims)
    if arr.ndim == 0:
        raise ValueError("a tensor needs at least one mode")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor entries must be finite")
    return arr


# norms np.linalg.norm sums without an overflow or a lost bit that counts
_NORM_SAFE = (2.0**-300, 2.0**300)


def tensor_norm(t) -> float:
    """Frobenius norm of a tensor of any order, at any scale.

    A norm between ``2**-300`` and ``2**300`` is ``np.linalg.norm``'s: no
    square in it overflowed or lost a bit that counts.  Any other is summed
    again with the power of two of the largest real or imaginary part
    factored out, so that the squares neither overflow nor underflow.
    """
    flat = np.ravel(t)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(flat))
    if _NORM_SAFE[0] <= norm <= _NORM_SAFE[1]:
        return norm
    peak = max(float(np.max(np.abs(part), initial=0.0)) for part in (flat.real, flat.imag))
    if peak == 0.0 or not math.isfinite(peak):
        return peak
    e = max(math.frexp(peak)[1], -1023)  # 2.0 ** 1024 overflows
    try:
        return math.ldexp(float(np.linalg.norm(flat * 2.0**-e)), e)
    except OverflowError:  # the norm itself exceeds the largest double
        return math.inf


def unfold(t, k: int) -> np.ndarray:
    """Mode-``k`` unfolding with cyclic column order (``j_{k+1}`` slowest)."""
    t = np.asarray(t)
    n = t.ndim
    if not 0 <= k < n:
        raise ValueError(f"mode {k} out of range for an order-{n} tensor")
    perm = tuple(range(k, n)) + tuple(range(k))
    return np.transpose(t, perm).reshape(t.shape[k], -1)


def mode_multiply(t, a, k: int) -> np.ndarray:
    """Apply matrix ``a`` along mode ``k``: ``unfold(out, k) == a @ unfold(t, k)``.

    Internal and not exported: the program multiplies through
    :func:`multiply_modes`.  This one-mode form stays as the reference that
    the ``multiply_modes`` property test compares against and that the
    no-call test in ``tests/test_hierarchy.py`` counts, and the benchmark's
    tracer wraps it by name.
    """
    t = np.asarray(t)
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("mode operator must be a matrix")
    if not 0 <= k < t.ndim:
        raise ValueError(f"mode {k} out of range for an order-{t.ndim} tensor")
    if a.shape[1] != t.shape[k]:
        raise ValueError(f"operator columns {a.shape[1]} do not match mode-{k} dimension {t.shape[k]}")
    out = np.tensordot(a, t, axes=(1, k))
    return np.ascontiguousarray(np.moveaxis(out, 0, k))


def multiply_modes(t, mats) -> np.ndarray:
    """All-modes product ``t x_0 mats[0] x_1 ... x_{M-1} mats[M-1]``, one GEMM per mode.

    Equal to applying :func:`mode_multiply` once per mode.  Step ``k`` takes
    the C-ordered tensor, whose leading mode is ``k``, as the matrix
    ``J_k x (rest)`` and computes ``(rest) x R_k`` as ``m.T @ a.T``; that
    product in C order is the tensor with mode ``k`` moved to the last
    position.  After ``M`` steps the modes are back in order, and no
    transposing copy of the tensor is made (an input not in C order is copied
    once, by the first reshape).
    """
    t = np.asarray(t)
    mats = [np.asarray(a) for a in mats]
    if len(mats) != t.ndim:
        raise ValueError(f"{len(mats)} operators for an order-{t.ndim} state")
    for k, a in enumerate(mats):
        if a.ndim != 2:
            raise ValueError(f"mode-{k} operator must be a matrix, got shape {a.shape}")
        if a.shape[1] != t.shape[k]:
            raise ValueError(f"operator columns {a.shape[1]} do not match mode-{k} dimension {t.shape[k]}")
    dims = list(t.shape)
    for a in mats:
        # explicit sizes, not -1: a zero-row operator leaves empty modes
        t = t.reshape(dims[0], math.prod(dims[1:])).T @ a.T
        dims = dims[1:] + [a.shape[0]]
    return t.reshape(dims)


def pair_dims(dims) -> tuple[tuple[int, int], ...]:
    """The adjacent pairing of ``dims``: ``(I_0, I_1), (I_2, I_3), ...``.

    When the mode count is odd the last mode pairs with a unit dimension,
    ``(I_{N-1}, 1)``.  The composite index of a pair is ``i_a * I_b + i_b``.
    """
    dims = tuple(int(d) for d in dims)
    return tuple((dims[i], dims[i + 1] if i + 1 < len(dims) else 1) for i in range(0, len(dims), 2))


def rescale(t) -> np.ndarray:
    """Merge each adjacent pair of modes into one composite mode; an exact relabelling (reshape)."""
    t = np.asarray(t)
    return t.reshape(tuple(ia * ib for ia, ib in pair_dims(t.shape)))


def unrescale(t, dims) -> np.ndarray:
    """Split composite modes back into the original ``dims``."""
    t = np.asarray(t)
    dims = tuple(int(d) for d in dims)
    expected = tuple(ia * ib for ia, ib in pair_dims(dims))
    if t.shape != expected:
        raise ValueError(f"tensor shape {t.shape} does not match rescaled dims {expected}")
    return t.reshape(dims)


def wrap(u, i1: int, i2: int) -> np.ndarray:
    """Column-major wrap of a length ``i1*i2`` vector into an ``i1 x i2`` matrix.

    Entry ``(i, j)`` is ``u[j*i1 + i]``.
    """
    u = np.asarray(u).reshape(-1)
    if u.size != i1 * i2:
        raise ValueError(f"vector of size {u.size} does not wrap to {i1}x{i2}")
    return np.ascontiguousarray(u.reshape(i2, i1).T)


def vectorize(m) -> np.ndarray:
    """Column-major flattening; exact inverse of :func:`wrap`."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError("vectorize expects a matrix")
    return m.ravel(order="F")


def realign(a, i1: int, i2: int) -> np.ndarray:
    """Block-to-row rearrangement of a square ``i1*i2`` matrix.

    Row ``j*i1 + i`` of the result is the column-major vectorization of the
    ``i2 x i2`` block at block position ``(i, j)``.  The result is ``i1^2 x i2^2``
    and has rank one exactly when ``a`` is a Kronecker product of an
    ``i1 x i1`` with an ``i2 x i2`` matrix.
    """
    a = np.asarray(a)
    side = i1 * i2
    if a.shape != (side, side):
        raise ValueError(f"realign expects a {side}x{side} matrix for factors {i1}x{i2}, got {a.shape}")
    blocks = a.reshape(i1, i2, i1, i2)
    return np.ascontiguousarray(blocks.transpose(2, 0, 3, 1).reshape(i1 * i1, i2 * i2))
