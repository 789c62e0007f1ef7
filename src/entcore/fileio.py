"""Textual (JSON) serialization for states, concentration trees and operators.

Floats are written with Python's shortest round-trip rendering, so
write-then-read is bit-exact for finite doubles and reruns are
byte-identical.  Each document is one compact line of sorted keys ended by
a newline, encoded whole by one ``json.dumps`` call (CPython's C encoder)
before the file is opened: a document that cannot be encoded, such as one
holding a NaN, leaves the file as it was.  Readers take any JSON layout,
the older indented one included.  All documents carry a
``format_version`` field; readers reject anything they do not understand
with :class:`FileFormatError`, as they do a number that is not an integer or
a float, or that does not fit a finite double.  State and operator files are
version 1; tree files are version 3.  Version 2 dropped version 1's derivable
shape fields, and version 3 drops the complement slices, which follow from
the slices.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .decompose import ConcentrationLevel, ConcentrationTree, TripartiteExtract
from .tensor_ops import pair_dims, tensor_norm

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
TREE_FORMAT_VERSION = 3


class FileFormatError(Exception):
    """Raised when a document cannot be parsed or fails validation."""


def _dump(obj, path):
    # json.dumps in one call takes CPython's C encoder; json.dump and indent never do
    text = json.dumps(obj, sort_keys=True, allow_nan=False, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
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


def _encode(a) -> list:
    """Nested lists of ``[re, im]`` pairs in the shape of ``a``."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return a.view(np.float64).reshape(a.shape + (2,)).tolist()


def _decode(doc, shape, path, what) -> np.ndarray:
    """Complex array of ``shape`` (one or two axes) from nested lists of ``[re, im]`` pairs.

    Every number must be an integer or a float, not a bool, and must convert
    to a finite double.
    """
    arr = np.array(doc, dtype=object)
    if arr.shape != shape + (2,):
        if arr.shape[:1] != shape[:1]:
            if len(shape) == 2:
                raise FileFormatError(f"{path}: {what} must have {shape[0]} rows")
            raise FileFormatError(f"{path}: {what} must list exactly {shape[0]} [re, im] pairs")
        if len(shape) == 2 and arr.shape[1:2] != shape[1:]:
            raise FileFormatError(f"{path}: each row of {what} must list exactly {shape[1]} [re, im] pairs")
        raise FileFormatError(f"{path}: {what} holds an entry that is not a [re, im] pair")
    if not set(map(type, arr.flat)) <= {int, float}:
        raise FileFormatError(f"{path}: {what} holds a value that is not a number")
    try:
        values = arr.astype(np.float64)
    except OverflowError:
        raise FileFormatError(f"{path}: {what} holds a number too large for a double") from None
    if not np.all(np.isfinite(values)):
        raise FileFormatError(f"{path}: {what} contains non-finite values")
    return values.view(np.complex128)[..., 0]


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
            "coeffs": _encode(tensor.ravel()),
        },
        path,
    )


def read_tensor(path) -> np.ndarray:
    doc = _load(path)
    _check_version(doc, path)
    dims = _read_dims(doc, "dims", path)
    flat = _decode(_require(doc, "coeffs", path), (math.prod(dims),), path, "coeffs")
    return flat.reshape(dims)


def write_tree(path, tree: ConcentrationTree) -> None:
    levels = [
        {
            "modes": [
                {
                    "rank": ext.dims[0],
                    "slices": _encode(ext.slices),
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
                "coeffs": _encode(tree.terminal.ravel()),
            },
        },
        path,
    )


def read_tree(path) -> ConcentrationTree:
    """Read a tree file of format version 1, 2 or 3 through one code path.

    Every level's shape is derived, not read: its input dims are
    ``original_dims`` and then the previous level's ranks, and each slice is
    ``I_a x I_b`` for its pair in :func:`~entcore.tensor_ops.pair_dims` of
    those dims.  Every stored slice must have the derived shape.  Version 1's
    ``pairing``, ``input_dims``, ``rows`` and ``cols`` fields and the
    ``complement`` of versions 1 and 2 are ignored; the complement is derived
    from the slices (:attr:`TripartiteExtract.complement_slices`).
    """
    doc = _load(path)
    _check_version(doc, path, (1, 2, TREE_FORMAT_VERSION))
    original_dims = _read_dims(doc, "original_dims", path)
    stop_order = _require(doc, "stop_order", path)
    if not _is_int(stop_order) or stop_order not in (2, 3):
        raise FileFormatError(f"{path}: stop_order must be 2 or 3")
    terminal_doc = _require(doc, "terminal", path)
    term_dims = _read_dims(terminal_doc, "dims", path)
    term = _decode(
        _require(terminal_doc, "coeffs", path), (math.prod(term_dims),), path, "terminal coeffs"
    ).reshape(term_dims)
    levels_doc = _require(doc, "levels", path)
    if not isinstance(levels_doc, list):
        raise FileFormatError(f"{path}: levels must be a list")
    levels = []
    input_dims = original_dims
    for li, level_doc in enumerate(levels_doc):
        pairs = pair_dims(input_dims)
        modes_doc = _require(level_doc, "modes", path)
        if not isinstance(modes_doc, list) or len(modes_doc) != len(pairs):
            raise FileFormatError(f"{path}: level {li} must describe {len(pairs)} modes")
        extracts = []
        for k, (mode_doc, (ia, ib)) in enumerate(zip(modes_doc, pairs)):
            r = _require(mode_doc, "rank", path)
            if not _is_int(r) or not 1 <= r <= ia * ib:
                raise FileFormatError(f"{path}: level {li} mode {k}: bad rank {r!r}")
            slices_doc = _require(mode_doc, "slices", path)
            if not isinstance(slices_doc, list) or len(slices_doc) != r:
                raise FileFormatError(f"{path}: level {li} mode {k}: expected {r} slices")
            slices = [
                _decode(s, (ia, ib), path, f"level {li} mode {k} slice {i}")
                for i, s in enumerate(slices_doc)
            ]
            extracts.append(TripartiteExtract(slices, (r, ia, ib)))
        ranks = tuple(ext.dims[0] for ext in extracts)
        levels.append(ConcentrationLevel(input_dims, extracts, ranks, tensor_norm(term)))
        input_dims = ranks
    return ConcentrationTree(original_dims, levels, term, stop_order)


def write_operators(path, operators) -> None:
    mats = [np.asarray(a, dtype=np.complex128) for a in getattr(operators, "ops", operators)]
    _dump(
        {
            "format_version": FORMAT_VERSION,
            "operators": [
                {"dim": int(a.shape[0]), "entries": _encode(a)} for a in mats
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
        out.append(_decode(_require(op_doc, "entries", path), (d, d), path, f"operator {i}"))
    return out
