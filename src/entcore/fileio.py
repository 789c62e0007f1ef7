"""Textual (JSON) serialization for states, concentration trees and operators.

Floats are written with Python's shortest round-trip rendering, so
write-then-read is bit-exact for finite doubles.  All documents carry a
``format_version`` field; readers reject anything they do not understand
with :class:`FileFormatError`.  State and operator files are version 1; tree
files are version 2, which drops version 1's derivable shape fields.
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
TREE_FORMAT_VERSION = 2


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


def _check_version(doc, path, supported=(FORMAT_VERSION,)):
    version = _require(doc, "format_version", path)
    if not _is_int(version) or version not in supported:
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
    levels = [
        {
            "modes": [
                {
                    "rank": ext.dims[0],
                    "slices": [_matrix_to_json(s) for s in ext.slices],
                    "complement": [_matrix_to_json(s) for s in ext.complement_slices],
                }
                for ext in level.extracts
            ]
        }
        for level in tree.levels
    ]
    _dump(
        {
            "format_version": TREE_FORMAT_VERSION,
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
    """Read a tree file of format version 1 or 2 through one code path.

    Every level's shape is derived, not read: its input dims are
    ``original_dims`` and then the previous level's ranks, its plan is the
    adjacent pairing of that mode count, and each slice is ``I_a x I_b`` from
    the plan's pair dims.  Every stored matrix must have the derived shape.
    Version 1's ``pairing``, ``input_dims``, ``rows`` and ``cols`` fields are
    ignored.
    """
    doc = _load(path)
    _check_version(doc, path, (FORMAT_VERSION, TREE_FORMAT_VERSION))
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
    input_dims = original_dims
    for li, level_doc in enumerate(levels_doc):
        plan = PairingPlan.default(len(input_dims))
        pair_dims = plan.pair_dims(input_dims)
        modes_doc = _require(level_doc, "modes", path)
        if not isinstance(modes_doc, list) or len(modes_doc) != len(pair_dims):
            raise FileFormatError(f"{path}: level {li} must describe {len(pair_dims)} modes")
        extracts = []
        for k, (mode_doc, (ia, ib)) in enumerate(zip(modes_doc, pair_dims)):
            r = _require(mode_doc, "rank", path)
            if not _is_int(r) or not 1 <= r <= ia * ib:
                raise FileFormatError(f"{path}: level {li} mode {k}: bad rank {r!r}")
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
        ranks = tuple(ext.dims[0] for ext in extracts)
        levels.append(ConcentrationLevel(plan, input_dims, extracts, ranks, tensor_norm(term)))
        input_dims = ranks
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
