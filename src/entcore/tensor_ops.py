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
  index ``j = i_{2k} * I_{2k+1} + i_{2k+1}`` (second member fastest).  For the
  C layout this is a plain reshape, so it is an exact relabelling.
* ``wrap`` turns a length ``I1*I2`` vector into an ``I1 x I2`` matrix
  **column-major** (first matrix index fastest); ``vectorize`` is its exact
  inverse.  Note this deliberately differs from the row-major composite index
  above; the two conventions are never composed with each other.
* ``realign`` rearranges a square ``I1*I2 x I1*I2`` matrix into an
  ``I1^2 x I2^2`` matrix whose rows are the column-major vectorizations of its
  ``I2 x I2`` blocks; it has rank one exactly for Kronecker products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PairingPlan",
    "as_tensor",
    "fold",
    "inner_product",
    "mode_multiply",
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


def tensor_norm(t) -> float:
    """Frobenius norm of a tensor of any order."""
    return float(np.linalg.norm(np.ravel(t)))


def inner_product(a, b) -> complex:
    """Full contraction ``sum conj(a) * b``; conjugate-linear in ``a``."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def unfold(t, k: int) -> np.ndarray:
    """Mode-``k`` unfolding with cyclic column order (``j_{k+1}`` slowest)."""
    t = np.asarray(t)
    n = t.ndim
    if not 0 <= k < n:
        raise ValueError(f"mode {k} out of range for an order-{n} tensor")
    perm = tuple(range(k, n)) + tuple(range(k))
    return np.transpose(t, perm).reshape(t.shape[k], -1)


def fold(m, k: int, dims) -> np.ndarray:
    """Exact inverse of :func:`unfold` for the given target shape."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if not 0 <= k < n:
        raise ValueError(f"mode {k} out of range for an order-{n} tensor")
    m = np.asarray(m)
    other = int(np.prod(dims)) // dims[k]
    if m.ndim != 2 or m.shape != (dims[k], other):
        raise ValueError(f"matrix of shape {m.shape} does not fold to {dims} at mode {k}")
    perm = tuple(range(k, n)) + tuple(range(k))
    permuted = m.reshape(tuple(dims[p] for p in perm))
    return np.ascontiguousarray(np.transpose(permuted, np.argsort(perm)))


def mode_multiply(t, a, k: int) -> np.ndarray:
    """Apply matrix ``a`` along mode ``k``: ``unfold(out, k) == a @ unfold(t, k)``."""
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


def _adjacent_groups(n: int) -> tuple[tuple[int, ...], ...]:
    """Consecutive pairs in mode order, with a trailing singleton when ``n`` is odd."""
    return tuple(tuple(range(i, min(i + 2, n))) for i in range(0, n, 2))


@dataclass(frozen=True)
class PairingPlan:
    """Grouping of ``N`` modes into ``ceil(N/2)`` composite modes.

    Groups are consecutive pairs in ascending mode order; when ``N`` is odd
    the final group is the lone last mode.  That is the only admissible
    grouping, so a plan is determined by its mode count.  The composite index
    of a pair ``(a, b)`` is ``i_a * I_b + i_b``.
    """

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        n = sum(len(g) for g in groups)
        if n < 1 or groups != _adjacent_groups(n):
            raise ValueError(f"groups {groups} are not the adjacent pairing of {n} modes")

    @classmethod
    def default(cls, n: int) -> "PairingPlan":
        """The adjacent pairing of ``n`` modes."""
        if n < 1:
            raise ValueError("mode count must be >= 1")
        return cls(_adjacent_groups(n))

    @classmethod
    def parse(cls, text: str) -> "PairingPlan":
        """Parse a spec like ``"0-1,2-3,4"``."""
        groups = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError(f"empty group in pairing spec {text!r}")
            try:
                members = tuple(int(p) for p in chunk.split("-"))
            except ValueError as exc:
                raise ValueError(f"bad pairing spec {text!r}: {exc}") from None
            groups.append(members)
        return cls(tuple(groups))

    @property
    def mode_count(self) -> int:
        return sum(len(g) for g in self.groups)

    def rescaled_dims(self, dims) -> tuple[int, ...]:
        dims = tuple(dims)
        if len(dims) != self.mode_count:
            raise ValueError(f"plan covers {self.mode_count} modes, tensor has {len(dims)}")
        return tuple(int(np.prod([dims[i] for i in g])) for g in self.groups)

    def pair_dims(self, dims) -> tuple[tuple[int, int], ...]:
        """Per group ``(I_a, I_b)``; singleton groups report ``(I_a, 1)``."""
        dims = tuple(dims)
        out = []
        for g in self.groups:
            if len(g) == 2:
                out.append((dims[g[0]], dims[g[1]]))
            else:
                out.append((dims[g[0]], 1))
        return tuple(out)

    def __str__(self) -> str:
        return "".join("(" + "-".join(str(i) for i in g) + ")" for g in self.groups)


def rescale(t, plan: PairingPlan) -> np.ndarray:
    """Merge paired modes into composite ones; an exact relabelling (reshape)."""
    t = np.asarray(t)
    return t.reshape(plan.rescaled_dims(t.shape))


def unrescale(t, plan: PairingPlan, dims) -> np.ndarray:
    """Split composite modes back into the original ``dims``."""
    t = np.asarray(t)
    dims = tuple(int(d) for d in dims)
    expected = plan.rescaled_dims(dims)
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
