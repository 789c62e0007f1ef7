"""Textual (JSON) serialization for states, concentration trees and operators.

Floats are written with Python's shortest round-trip rendering, so
write-then-read is bit-exact for finite doubles.  All documents carry a
``format_version`` field; readers reject anything they do not understand
with :class:`FileFormatError`.
"""

from __future__ import annotations

import json

import numpy as np

from .decompose import ConcentrationLevel, ConcentrationTree, TripartiteExtract
from .tensor_ops import PairingPlan, tensor_norm

__all__ = [
    "FORMAT_VERSION",
    "FileFormatError",
    "read_operators",
    "read_tensor",
    "read_tree",
    "write_operators",
    "write_tensor",
    "write_tree",
]

FORMAT_VERSION = 1


class FileFormatError(Exception):
    """Raised when a document cannot be parsed or fails validation."""


def _dump(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from None


def _require(doc, key, path):
    if not isinstance(doc, dict) or key not in doc:
        raise FileFormatError(f"{path}: missing field {key!r}")
    return doc[key]


def _is_int(v) -> bool:
    # bool is an int subclass, and True == 1; documents must spell integers as integers
    return isinstance(v, int) and not isinstance(v, bool)


def _check_version(doc, path):
    version = _require(doc, "format_version", path)
    if not _is_int(version) or version != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported format_version {version!r}")


def _pairs_from_array(arr: np.ndarray) -> list:
    flat = np.ravel(arr)
    return [[float(c.real), float(c.imag)] for c in flat]


def _array_from_pairs(pairs, count, path, what) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != count:
        raise FileFormatError(f"{path}: {what} must list exactly {count} [re, im] pairs")
    out = np.empty(count, dtype=np.complex128)
    for i, pair in enumerate(pairs):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise FileFormatError(f"{path}: {what} entry {i} is not a [re, im] pair")
        out[i] = complex(pair[0], pair[1])
    if not np.all(np.isfinite(out)):
        raise FileFormatError(f"{path}: {what} contains non-finite values")
    return out


def _read_dims(doc, key, path):
    dims = _require(doc, key, path)
    if not isinstance(dims, list) or not dims or not all(_is_int(d) and d >= 1 for d in dims):
        raise FileFormatError(f"{path}: {key} must be a non-empty list of integers >= 1")
    return tuple(dims)


def write_tensor(path, tensor) -> None:
    tensor = np.asarray(tensor, dtype=np.complex128)
    _dump(
        {
            "format_version": FORMAT_VERSION,
            "dims": list(tensor.shape),
            "coeffs": _pairs_from_array(np.ascontiguousarray(tensor)),
        },
        path,
    )


def read_tensor(path) -> np.ndarray:
    doc = _load(path)
    _check_version(doc, path)
    dims = _read_dims(doc, "dims", path)
    count = int(np.prod(dims))
    flat = _array_from_pairs(_require(doc, "coeffs", path), count, path, "coeffs")
    return flat.reshape(dims)


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _matrix_from_json(rows, shape, path, what) -> np.ndarray:
    nrows, ncols = shape
    if not isinstance(rows, list) or len(rows) != nrows:
        raise FileFormatError(f"{path}: {what} must have {nrows} rows")
    out = np.empty(shape, dtype=np.complex128)
    for i, row in enumerate(rows):
        out[i] = _array_from_pairs(row, ncols, path, f"{what} row {i}")
    return out


def write_tree(path, tree: ConcentrationTree) -> None:
    levels = []
    for level in tree.levels:
        modes = []
        for ext in level.extracts:
            r, ia, ib = ext.dims
            modes.append(
                {
                    "rank": r,
                    "rows": ia,
                    "cols": ib,
                    "slices": [_matrix_to_json(s) for s in ext.slices],
                    "complement": [_matrix_to_json(s) for s in ext.complement_slices],
                }
            )
        levels.append(
            {
                "pairing": [list(g) for g in level.plan.groups],
                "input_dims": list(level.input_dims),
                "modes": modes,
            }
        )
    _dump(
        {
            "format_version": FORMAT_VERSION,
            "original_dims": list(tree.original_shape),
            "stop_order": tree.stop_order,
            "levels": levels,
            "terminal": {
                "dims": list(tree.terminal.shape),
                "coeffs": _pairs_from_array(np.ascontiguousarray(tree.terminal)),
            },
        },
        path,
    )


def read_tree(path) -> ConcentrationTree:
    doc = _load(path)
    _check_version(doc, path)
    original_dims = _read_dims(doc, "original_dims", path)
    stop_order = _require(doc, "stop_order", path)
    if not _is_int(stop_order) or stop_order not in (2, 3):
        raise FileFormatError(f"{path}: stop_order must be 2 or 3")
    terminal_doc = _require(doc, "terminal", path)
    term_dims = _read_dims(terminal_doc, "dims", path)
    term = _array_from_pairs(
        _require(terminal_doc, "coeffs", path), int(np.prod(term_dims)), path, "terminal coeffs"
    ).reshape(term_dims)
    levels_doc = _require(doc, "levels", path)
    if not isinstance(levels_doc, list):
        raise FileFormatError(f"{path}: levels must be a list")
    levels = []
    for li, level_doc in enumerate(levels_doc):
        groups = _require(level_doc, "pairing", path)
        try:
            plan = PairingPlan(tuple(tuple(g) for g in groups))
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"{path}: level {li} pairing invalid: {exc}") from None
        input_dims = _read_dims(level_doc, "input_dims", path)
        modes_doc = _require(level_doc, "modes", path)
        if not isinstance(modes_doc, list) or len(modes_doc) != len(plan.groups):
            raise FileFormatError(f"{path}: level {li} must describe {len(plan.groups)} modes")
        extracts = []
        ranks = []
        for k, mode_doc in enumerate(modes_doc):
            r = _require(mode_doc, "rank", path)
            ia = _require(mode_doc, "rows", path)
            ib = _require(mode_doc, "cols", path)
            for name, v in (("rank", r), ("rows", ia), ("cols", ib)):
                if not _is_int(v) or v < 0:
                    raise FileFormatError(f"{path}: level {li} mode {k}: bad {name} {v!r}")
            slices_doc = _require(mode_doc, "slices", path)
            comp_doc = _require(mode_doc, "complement", path)
            if not isinstance(slices_doc, list) or len(slices_doc) != r:
                raise FileFormatError(f"{path}: level {li} mode {k}: expected {r} slices")
            if not isinstance(comp_doc, list) or len(comp_doc) != ia * ib - r:
                raise FileFormatError(
                    f"{path}: level {li} mode {k}: expected {ia * ib - r} complement slices"
                )
            slices = [
                _matrix_from_json(s, (ia, ib), path, f"level {li} mode {k} slice {i}")
                for i, s in enumerate(slices_doc)
            ]
            complement = [
                _matrix_from_json(s, (ia, ib), path, f"level {li} mode {k} complement {i}")
                for i, s in enumerate(comp_doc)
            ]
            extracts.append(TripartiteExtract(k, slices, complement, (r, ia, ib)))
            ranks.append(r)
        levels.append(
            ConcentrationLevel(plan, input_dims, extracts, tuple(ranks), tensor_norm(term))
        )
    return ConcentrationTree(original_dims, levels, term, stop_order)


def write_operators(path, operators) -> None:
    mats = [np.asarray(a, dtype=np.complex128) for a in getattr(operators, "ops", operators)]
    _dump(
        {
            "format_version": FORMAT_VERSION,
            "operators": [
                {"dim": int(a.shape[0]), "entries": _matrix_to_json(a)} for a in mats
            ],
        },
        path,
    )


def read_operators(path) -> list[np.ndarray]:
    doc = _load(path)
    _check_version(doc, path)
    ops_doc = _require(doc, "operators", path)
    if not isinstance(ops_doc, list) or not ops_doc:
        raise FileFormatError(f"{path}: operators must be a non-empty list")
    out = []
    for i, op_doc in enumerate(ops_doc):
        d = _require(op_doc, "dim", path)
        if not _is_int(d) or d < 1:
            raise FileFormatError(f"{path}: operator {i} has bad dim {d!r}")
        out.append(_matrix_from_json(_require(op_doc, "entries", path), (d, d), path, f"operator {i}"))
    return out
