"""JSON serialization for states, concentration trees and operators.

Each complex array is stored as one base64 string (standard alphabet,
padded) of its little-endian complex128 bytes in C order, so write-then-read
is bit-exact for every finite double and writing a given tree again gives the
same bytes (a tree ``concentrate`` builds repeats bit for bit only on one BLAS
thread: on several, its SVDs may round differently from run to run).  Dims,
ranks, ``stop_order`` and keys stay plain JSON.  Each document is one compact
line of sorted keys ended by a newline, encoded whole by one ``json.dumps``
call before the file is opened; a writer rejects a non-finite entry with
``ValueError`` first, so a failed write leaves the file as it was.  All
documents carry a ``format_version`` field: state and operator files are
version 2 and tree files version 4.  The older versions still read through
their own decoder, which takes nested ``[re, im]`` lists of JSON numbers:
state and operator files of version 1, and trees of versions 1 to 3
(version 2 dropped version 1's derivable shape fields, and version 3 dropped
the complement slices, which follow from the slices).  Readers take any JSON
layout, the older indented one included, and reject anything they do not
understand with :class:`FileFormatError`, naming the path and the field.
"""

from __future__ import annotations

import base64
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

FORMAT_VERSION = 2
TREE_FORMAT_VERSION = 4


class FileFormatError(Exception):
    """Raised when a document cannot be parsed or fails validation."""


def _dump(obj, path):
    # json.dumps in one call takes CPython's C encoder; json.dump and indent never do
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
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


def _decoder(doc, path, legacy, current):
    """:func:`_decode` for a document of version ``current``, :func:`_decode_pairs` for a ``legacy`` one."""
    version = _require(doc, "format_version", path)
    if not _is_int(version) or version not in (*legacy, current):
        raise FileFormatError(f"{path}: unsupported format_version {version!r}")
    return _decode if version == current else _decode_pairs


def _encode(a, what) -> str:
    """Base64 of ``a``'s little-endian complex128 bytes in C order; ``ValueError`` if not finite."""
    a = np.ascontiguousarray(a, dtype="<c16")
    if not np.isfinite(a).all():
        raise ValueError(f"cannot write {what}: it contains non-finite values")
    return base64.b64encode(a.tobytes()).decode("ascii")


def _decode(payload, shape, path, what) -> np.ndarray:
    """Writable C-ordered complex128 array of ``shape`` from a base64 payload.

    The payload must be a string in the padded standard alphabet that
    decodes to exactly ``16 * prod(shape)`` bytes of finite values.
    """
    if not isinstance(payload, str):
        raise FileFormatError(f"{path}: {what} must be a base64 string")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII str
        raise FileFormatError(f"{path}: {what} is not valid base64 ({exc})") from None
    count = math.prod(shape)
    if len(raw) != 16 * count:
        raise FileFormatError(
            f"{path}: {what} must hold exactly {count} complex128 values "
            f"({16 * count} bytes), not {len(raw)} bytes"
        )
    values = np.frombuffer(raw, dtype="<c16").astype(np.complex128)
    if not np.isfinite(values).all():
        raise FileFormatError(f"{path}: {what} contains non-finite values")
    return values.reshape(shape)


def _decode_pairs(doc, shape, path, what) -> np.ndarray:
    """Complex array of ``shape`` (one or two axes) from nested lists of ``[re, im]`` pairs.

    The payload of the older versions.  Every number must be an integer or a
    float, not a bool, and must convert to a finite double.
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
            "coeffs": _encode(tensor, "coeffs"),
        },
        path,
    )


def read_tensor(path) -> np.ndarray:
    """Read a state file of format version 1 or 2."""
    doc = _load(path)
    decode = _decoder(doc, path, (1,), FORMAT_VERSION)
    dims = _read_dims(doc, "dims", path)
    flat = decode(_require(doc, "coeffs", path), (math.prod(dims),), path, "coeffs")
    return flat.reshape(dims)


def write_tree(path, tree: ConcentrationTree) -> None:
    levels = [
        {
            "modes": [
                {
                    "rank": len(ext.slices),
                    "slices": _encode(ext.slices, f"level {li} mode {k} slices"),
                }
                for k, ext in enumerate(level.extracts)
            ]
        }
        for li, level in enumerate(tree.levels)
    ]
    _dump(
        {
            "format_version": TREE_FORMAT_VERSION,
            "original_dims": list(tree.original_shape),
            "stop_order": tree.stop_order,
            "levels": levels,
            "terminal": {
                "dims": list(tree.terminal.shape),
                "coeffs": _encode(tree.terminal, "terminal coeffs"),
            },
        },
        path,
    )


def read_tree(path) -> ConcentrationTree:
    """Read a tree file of format version 1, 2, 3 or 4 through one code path.

    Every level's shape is derived, not read: its input dims are
    ``original_dims`` and then the previous level's ranks, and each slice is
    ``I_a x I_b`` for its pair in :func:`~entcore.tensor_ops.pair_dims` of
    those dims.  A version 4 mode's one payload decodes to its extract's
    ``(rank, I_a, I_b)`` slices; the older versions list each slice, and
    every listed slice must have the derived shape.  Version 1's ``pairing``,
    ``input_dims``, ``rows`` and ``cols`` fields and the ``complement`` of
    versions 1 and 2 are ignored; the complement is derived from the slices
    (:attr:`TripartiteExtract.complement_slices`).  A file stores only the
    terminal core, so every level read carries its norm as ``core_norm``.
    """
    doc = _load(path)
    decode = _decoder(doc, path, (1, 2, 3), TREE_FORMAT_VERSION)
    original_dims = _read_dims(doc, "original_dims", path)
    stop_order = _require(doc, "stop_order", path)
    if not _is_int(stop_order) or stop_order not in (2, 3):
        raise FileFormatError(f"{path}: stop_order must be 2 or 3")
    terminal_doc = _require(doc, "terminal", path)
    term_dims = _read_dims(terminal_doc, "dims", path)
    term = decode(
        _require(terminal_doc, "coeffs", path), (math.prod(term_dims),), path, "terminal coeffs"
    ).reshape(term_dims)
    term_norm = tensor_norm(term)
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
            if decode is _decode:
                slices = _decode(slices_doc, (r, ia, ib), path, f"level {li} mode {k} slices")
            else:
                if not isinstance(slices_doc, list) or len(slices_doc) != r:
                    raise FileFormatError(f"{path}: level {li} mode {k}: expected {r} slices")
                slices = np.stack([
                    _decode_pairs(s, (ia, ib), path, f"level {li} mode {k} slice {i}")
                    for i, s in enumerate(slices_doc)
                ])
            extracts.append(TripartiteExtract(slices))
        levels.append(ConcentrationLevel(input_dims, extracts, term_norm))
        input_dims = levels[-1].ranks
    return ConcentrationTree(original_dims, levels, term, stop_order)


def write_operators(path, operators) -> None:
    mats = [np.asarray(a, dtype=np.complex128) for a in getattr(operators, "ops", operators)]
    _dump(
        {
            "format_version": FORMAT_VERSION,
            "operators": [
                {"dim": int(a.shape[0]), "entries": _encode(a, f"operator {i}")} for i, a in enumerate(mats)
            ],
        },
        path,
    )


def read_operators(path) -> list[np.ndarray]:
    """Read an operator file of format version 1 or 2."""
    doc = _load(path)
    decode = _decoder(doc, path, (1,), FORMAT_VERSION)
    ops_doc = _require(doc, "operators", path)
    if not isinstance(ops_doc, list) or not ops_doc:
        raise FileFormatError(f"{path}: operators must be a non-empty list")
    out = []
    for i, op_doc in enumerate(ops_doc):
        d = _require(op_doc, "dim", path)
        if not _is_int(d) or d < 1:
            raise FileFormatError(f"{path}: operator {i} has bad dim {d!r}")
        out.append(decode(_require(op_doc, "entries", path), (d, d), path, f"operator {i}"))
    return out
