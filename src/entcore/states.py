"""Deterministic generators for test and demonstration states.

All randomness flows through ``numpy.random.default_rng`` (the PCG64 bit
generator), so a fixed seed reproduces the same state or operator on any
platform running the same numpy major line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import as_tensor, multiply_modes

__all__ = [
    "StateSpec",
    "apply_local",
    "ghz_state",
    "haar_unitary",
    "make_state",
    "paper4_state",
    "paper6_state",
    "product_state",
    "random_invertible",
    "random_state",
    "w_state",
]

FAMILIES = ("ghz", "w", "product", "random", "paper4", "paper6")


@dataclass(frozen=True)
class StateSpec:
    """Recipe for a generated state: family tag, dims, parameters, seed."""

    family: str
    dims: tuple[int, ...] | None = None
    params: tuple[float, ...] | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.dims is not None:
            object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
            # checked here too, not only by ghz_state and w_state, so a bad spec fails where it is made
            if self.family == "ghz" and (len(self.dims) < 2 or min(self.dims) < 2):
                raise ValueError("ghz needs n >= 2 parties of dimension >= 2")
            if self.family == "w" and len(self.dims) < 2:
                raise ValueError("w needs n >= 2 qubits")
        if self.family in ("paper4", "paper6"):
            if self.params is None or len(self.params) != 4:
                raise ValueError(f"family {self.family!r} needs exactly 4 real parameters")
            params = np.asarray(self.params, dtype=float)
            if not np.all(np.isfinite(params)):
                raise ValueError(f"family {self.family!r} needs finite parameters, got {self.params}")
            peak = np.max(np.abs(params))
            if peak == 0.0:
                raise ValueError("parameters must not all be zero")
            # scaled to a largest entry of 1 first, so the norm neither overflows nor underflows
            params = params / peak
            object.__setattr__(self, "params", tuple(params / np.linalg.norm(params)))
            expected = (2,) * (4 if self.family == "paper4" else 6)
            if self.dims is None:
                object.__setattr__(self, "dims", expected)
            elif self.dims != expected:
                raise ValueError(f"family {self.family!r} is fixed to dims {expected}")


def ghz_state(n: int, d: int = 2) -> np.ndarray:
    """(|0..0> + |1..1> + ... + |d-1..d-1>) / sqrt(d) on n d-level systems."""
    if n < 2 or d < 2:
        raise ValueError("ghz needs n >= 2 parties of dimension >= 2")
    t = np.zeros((d,) * n, dtype=np.complex128)
    for i in range(d):
        t[(i,) * n] = 1.0 / np.sqrt(d)
    return t


def w_state(n: int) -> np.ndarray:
    """Equal superposition of the single-excitation qubit basis states."""
    if n < 2:
        raise ValueError("w needs n >= 2 qubits")
    t = np.zeros((2,) * n, dtype=np.complex128)
    for k in range(n):
        idx = [0] * n
        idx[k] = 1
        t[tuple(idx)] = 1.0 / np.sqrt(n)
    return t


def product_state(dims, seed: int | None = None) -> np.ndarray:
    """Product of single-party unit vectors; |0...0> when no seed is given."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"bad dims {dims}")
    if seed is None:
        t = np.zeros(dims, dtype=np.complex128)
        t[(0,) * len(dims)] = 1.0
        return t
    rng = np.random.default_rng(seed)
    out = np.ones((), dtype=np.complex128)
    for d in dims:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        out = np.multiply.outer(out, v)
    return as_tensor(out.reshape(dims))


def random_state(dims, seed: int | None = None) -> np.ndarray:
    """Normalized state with i.i.d. complex Gaussian coefficients."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"bad dims {dims}")
    rng = np.random.default_rng(seed)
    size = int(np.prod(dims))
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v /= np.linalg.norm(v)
    return as_tensor(v, dims)


def paper4_state(params) -> np.ndarray:
    """Four-qubit family a1|0001> + a2|0010> + a3|0100> + a4|1000> (normalized)."""
    spec = StateSpec("paper4", params=tuple(params))
    a = spec.params
    t = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    t[0, 0, 0, 1] = a[0]
    t[0, 0, 1, 0] = a[1]
    t[0, 1, 0, 0] = a[2]
    t[1, 0, 0, 0] = a[3]
    return t


def paper6_state(params) -> np.ndarray:
    """Six-qubit family b1|000000> + b2|010101> + b3|101010> + b4|111111>."""
    spec = StateSpec("paper6", params=tuple(params))
    b = spec.params
    t = np.zeros((2,) * 6, dtype=np.complex128)
    t[0, 0, 0, 0, 0, 0] = b[0]
    t[0, 1, 0, 1, 0, 1] = b[1]
    t[1, 0, 1, 0, 1, 0] = b[2]
    t[1, 1, 1, 1, 1, 1] = b[3]
    return t


def make_state(spec: StateSpec) -> np.ndarray:
    """Build the state described by ``spec``; always unit norm."""
    if spec.family == "ghz":
        dims = spec.dims if spec.dims is not None else (2, 2)
        if len(set(dims)) > 1:
            raise ValueError("ghz needs uniform local dimensions")
        return ghz_state(len(dims), dims[0])
    if spec.family == "w":
        dims = spec.dims if spec.dims is not None else (2, 2, 2)
        if any(d != 2 for d in dims):
            raise ValueError("w is a qubit family")
        return w_state(len(dims))
    if spec.family == "product":
        if spec.dims is None:
            raise ValueError("product needs dims")
        return product_state(spec.dims, spec.seed)
    if spec.family == "random":
        if spec.dims is None:
            raise ValueError("random needs dims")
        return random_state(spec.dims, spec.seed)
    if spec.family == "paper4":
        return paper4_state(spec.params)
    return paper6_state(spec.params)


def _haar(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    phases = np.where(np.abs(diag) > 0, diag / np.abs(np.where(diag == 0, 1, diag)), 1.0)
    return q * phases


def haar_unitary(d: int, seed: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase-fixed R."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return _haar(d, np.random.default_rng(seed))


def random_invertible(d: int, cond_max: float, seed: int | None = None) -> np.ndarray:
    """Invertible matrix with condition number bounded by ``cond_max``.

    Built as U diag(s) V* with Haar factors and singular values s drawn
    log-uniformly from [cond_max^-1/2, cond_max^1/2].
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if cond_max < 1.0:
        raise ValueError("cond_max must be >= 1")
    rng = np.random.default_rng(seed)
    u = _haar(d, rng)
    v = _haar(d, rng)
    half = 0.5 * np.log(cond_max)
    s = np.exp(rng.uniform(-half, half, size=d))
    return (u * s) @ v.conj().T


def apply_local(state, ops) -> np.ndarray:
    """Apply one operator per mode; no renormalization is performed."""
    t = np.asarray(state, dtype=np.complex128)
    return multiply_modes(t, getattr(ops, "ops", ops))
