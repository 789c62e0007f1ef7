"""Files of states, concentration trees and operators: a JSON header line, then raw complex128 bytes.

The header is one compact line of sorted keys ended by a newline.  It holds
``format_version`` and the dims every shape follows from, and nothing else:
``dims`` for a state (version 3); ``dims``, one ``d`` per ``d x d`` matrix in
mode order, for operators (version 3); ``original_dims``, ``stop_order`` and
``ranks``, each level's local ranks, for a tree (version 5).  The rest of the
file is the arrays' little-endian complex128 bytes in C order, one array
after another, exactly 16 bytes per entry of all of them.  A tree's arrays are
each level's extracts, mode by mode, each the ``rank x I_a x I_b`` slices of
its pair in :func:`~entcore.tensor_ops.pair_dims` of the level's input dims
(``original_dims``, then the previous level's ranks), and then the terminal
core, whose shape is the last level's ranks, or ``original_dims`` when there
is no level.

Write-then-read is bit-exact for every finite double, and writing a given
tree again gives the same bytes (a tree ``concentrate`` builds repeats bit for
bit only on one BLAS thread: on several, its SVDs may round differently from
run to run).  A writer raises ``ValueError`` for a non-finite entry or a shape
its reader would refuse before it opens the file, so a failed write leaves
the file as it was.

A reader reads the file once and parses only its first line, unless that
line is neither a current header nor a whole JSON document: then it parses
the whole file as JSON, in any layout, the older indented one included.  State and operator files of versions 1 and 2
and trees of versions 1 to 4 still read.  Versions 2 and 4 store each array as
one base64 string (standard alphabet, padded) of the same bytes, which then
pass the same payload check; versions 1 to 3 spell arrays as nested
``[re, im]`` lists of JSON numbers.  Version 2 of a tree dropped version 1's
derivable shape fields, and version 3 the complement slices, which follow
from the slices.  Readers reject anything they do not understand with
:class:`FileFormatError`, naming the path and the field.
"""

from __future__ import annotations

import base64
import contextlib
import itertools
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

FORMAT_VERSION = 3
TREE_FORMAT_VERSION = 5


class FileFormatError(Exception):
    """Raised when a document cannot be parsed or fails validation."""


class _Invalid(Exception):
    """A broken file rule; a reader reports it as :class:`FileFormatError`, a writer as ``ValueError``."""


@contextlib.contextmanager
def _reading(path):
    try:
        yield
    except _Invalid as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def _require(doc, key):
    if not isinstance(doc, dict):
        raise _Invalid(f"expected a JSON object with field {key!r}")
    if key not in doc:
        raise _Invalid(f"missing field {key!r}")
    return doc[key]


def _is_int(v) -> bool:
    # bool is an int subclass, and True == 1; documents must spell integers as integers
    return isinstance(v, int) and not isinstance(v, bool)


def _version(doc, versions) -> int:
    version = _require(doc, "format_version")
    if not _is_int(version) or version not in versions:
        raise _Invalid(f"unsupported format_version {version!r}")
    return version


def _load(path, legacy, binary):
    """``(header, payload)`` of a binary file of version ``binary``, or ``(document, None)`` of a JSON one.

    Only the first line is parsed, unless it is not JSON (an indented
    document's first line): then the whole file is, and it must be of a
    ``legacy`` version.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"\n") + 1 or len(data)
    try:
        doc = json.loads(data[:end].decode("utf-8"))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
        doc = None
    if doc is not None and _version(doc, (*legacy, binary)) == binary:
        return doc, memoryview(data)[end:]
    if doc is None or data[end:].strip():
        # a JSON first line followed by more than whitespace fails here too
        try:
            doc = json.loads(data.decode("utf-8"))
        except ValueError as exc:
            raise _Invalid(f"not valid JSON ({exc})") from None
        _version(doc, legacy)
    return doc, None


def _arrays(raw, fields) -> list[np.ndarray]:
    """One writable C-ordered complex128 array per ``(what, shape)`` of ``fields``, read in turn off ``raw``.

    ``raw`` must be exactly 16 bytes per entry of all the shapes together, and
    every value finite.  This is the one check of every payload: a binary
    file's bytes after its header line, and each decoded base64 string.
    """
    sizes = [math.prod(shape) for _, shape in fields]
    count = sum(sizes)
    if len(raw) != 16 * count:
        what = fields[0][0] if len(fields) == 1 else "payload"
        raise _Invalid(
            f"{what} must hold exactly {count} complex128 values ({16 * count} bytes), not {len(raw)} bytes"
        )
    values = np.frombuffer(raw, dtype="<c16").astype(np.complex128)
    finite = np.isfinite(values)
    ends = list(itertools.accumulate(sizes))
    if not finite.all():
        first = int(finite.argmin())
        raise _Invalid(f"{next(what for (what, _), e in zip(fields, ends) if first < e)} contains non-finite values")
    return [values[e - n : e].reshape(shape) for (_, shape), n, e in zip(fields, sizes, ends)]


def _base64(text, what) -> bytes:
    if not isinstance(text, str):
        raise _Invalid(f"{what} must be a base64 string")
    try:
        return base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII str
        raise _Invalid(f"{what} is not valid base64 ({exc})") from None


def _pairs(doc, shape, what) -> np.ndarray:
    """Complex array of ``shape`` (one or two axes) from nested lists of ``[re, im]`` pairs.

    The payload of versions 1 to 3.  Every number must be an integer or a
    float, not a bool, and must convert to a finite double.
    """
    arr = np.array(doc, dtype=object)
    if arr.shape != shape + (2,):
        if arr.shape[:1] != shape[:1]:
            if len(shape) == 2:
                raise _Invalid(f"{what} must have {shape[0]} rows")
            raise _Invalid(f"{what} must list exactly {shape[0]} [re, im] pairs")
        if len(shape) == 2 and arr.shape[1:2] != shape[1:]:
            raise _Invalid(f"each row of {what} must list exactly {shape[1]} [re, im] pairs")
        raise _Invalid(f"{what} holds an entry that is not a [re, im] pair")
    if not set(map(type, arr.flat)) <= {int, float}:
        raise _Invalid(f"{what} holds a value that is not a number")
    try:
        values = arr.astype(np.float64)
    except OverflowError:
        raise _Invalid(f"{what} holds a number too large for a double") from None
    if not np.all(np.isfinite(values)):
        raise _Invalid(f"{what} contains non-finite values")
    return values.view(np.complex128)[..., 0]


def _legacy_array(doc, pairs, shape, what) -> np.ndarray:
    """An array of a JSON document: ``[re, im]`` lists if ``pairs``, else a base64 string."""
    if pairs:
        return _pairs(doc, shape, what)
    return _arrays(_base64(doc, what), [(what, shape)])[0]


def _dims(doc, key) -> tuple[int, ...]:
    dims = _require(doc, key)
    if not isinstance(dims, list) or not dims or not all(_is_int(d) and d >= 1 for d in dims):
        raise _Invalid(f"{key} must be a non-empty list of integers >= 1")
    return tuple(dims)


def _levels(original_dims, ranks):
    """Each level's ``(name, (rank, I_a, I_b))`` per mode, and the terminal's dims, from the ranks.

    A level's input dims are ``original_dims`` and then the previous level's
    ranks, and each rank lies between 1 and its pair's ``I_a * I_b``.
    """
    if not isinstance(ranks, list):
        raise _Invalid("ranks must be a list of lists")
    levels, dims = [], original_dims
    for li, level in enumerate(ranks):
        pairs = pair_dims(dims)
        if not isinstance(level, list) or len(level) != len(pairs):
            raise _Invalid(f"level {li} must describe {len(pairs)} modes")
        modes = []
        for k, (r, (ia, ib)) in enumerate(zip(level, pairs)):
            if not _is_int(r) or not 1 <= r <= ia * ib:
                raise _Invalid(f"level {li} mode {k}: bad rank {r!r}")
            modes.append((f"level {li} mode {k}", (r, ia, ib)))
        levels.append(modes)
        dims = tuple(level)
    return levels, dims


def _stop_order(doc) -> int:
    stop_order = _require(doc, "stop_order")
    if not _is_int(stop_order) or stop_order not in (2, 3):
        raise _Invalid("stop_order must be 2 or 3")
    return stop_order


# The payload of each binary kind: the (what, shape) of every array in file order, read off the header alone.


def _state_fields(header):
    return [("coeffs", _dims(header, "dims"))]


def _operator_fields(header):
    return [(f"operator {i}", (d, d)) for i, d in enumerate(_dims(header, "dims"))]


def _tree_fields(header):
    _stop_order(header)
    levels, terminal = _levels(_dims(header, "original_dims"), _require(header, "ranks"))
    return [(f"{name} slices", shape) for level in levels for name, shape in level] + [("terminal coeffs", terminal)]


def _write(path, header, fields_of, arrays) -> None:
    """Write ``header`` as one compact sorted-key JSON line, then the bytes of ``arrays``.

    The arrays must have the shapes ``fields_of(header)`` gives, in order, and
    finite values.  Every check comes before the file is opened.
    """
    try:
        fields = fields_of(header)
    except _Invalid as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None
    payload = []
    for (what, shape), a in zip(fields, arrays):
        a = np.ascontiguousarray(a, dtype="<c16")
        if a.shape != shape:
            raise ValueError(f"cannot write {what}: its shape {a.shape} is not {shape}, the shape its header gives")
        if not np.isfinite(a).all():
            raise ValueError(f"cannot write {what}: it contains non-finite values")
        payload.append(a)
    # json.dumps in one call takes CPython's C encoder; json.dump and indent never do
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n"
    with open(path, "wb") as fh:
        fh.write(head)
        for a in payload:
            fh.write(a)


def write_tensor(path, tensor) -> None:
    tensor = np.asarray(tensor, dtype=np.complex128)
    _write(path, {"dims": list(tensor.shape), "format_version": FORMAT_VERSION}, _state_fields, [tensor])


def read_tensor(path) -> np.ndarray:
    """Read a state file of format version 1, 2 or 3."""
    with _reading(path):
        doc, payload = _load(path, (1, 2), FORMAT_VERSION)
        if payload is not None:
            return _arrays(payload, _state_fields(doc))[0]
        dims = _dims(doc, "dims")
        coeffs = _require(doc, "coeffs")
        return _legacy_array(coeffs, doc["format_version"] == 1, (math.prod(dims),), "coeffs").reshape(dims)


def write_tree(path, tree: ConcentrationTree) -> None:
    header = {
        "format_version": TREE_FORMAT_VERSION,
        "original_dims": list(tree.original_shape),
        "ranks": [list(level.ranks) for level in tree.levels],
        "stop_order": tree.stop_order,
    }
    arrays = [ext.slices for level in tree.levels for ext in level.extracts] + [tree.terminal]
    _write(path, header, _tree_fields, arrays)


def read_tree(path) -> ConcentrationTree:
    """Read a tree file of format version 1 to 5 through one code path.

    Every level's shape is derived from ``original_dims`` and the ranks, as
    the module docstring says.  Versions 1 to 4 also store the terminal's
    dims and each mode's rank beside its slices: one base64 payload in
    version 4, a list of ``[re, im]`` matrices before, each of the derived
    shape.  Version 1's ``pairing``, ``input_dims``, ``rows`` and ``cols``
    fields and the ``complement`` of versions 1 and 2 are ignored; the
    complement is derived from the slices
    (:attr:`TripartiteExtract.complement_slices`).  A file stores only the
    terminal core, so every level read carries its norm as ``core_norm``.
    """
    with _reading(path):
        doc, payload = _load(path, (1, 2, 3, 4), TREE_FORMAT_VERSION)
        original_dims = _dims(doc, "original_dims")
        stop_order = _stop_order(doc)
        if payload is not None:
            arrays = iter(_arrays(payload, _tree_fields(doc)))
            slices = [[next(arrays) for _ in level] for level in doc["ranks"]]
            term = next(arrays)
        else:
            pairs = doc["format_version"] < 4
            terminal_doc = _require(doc, "terminal")
            term_dims = _dims(terminal_doc, "dims")
            coeffs = _require(terminal_doc, "coeffs")
            term = _legacy_array(coeffs, pairs, (math.prod(term_dims),), "terminal coeffs").reshape(term_dims)
            levels_doc = _require(doc, "levels")
            if not isinstance(levels_doc, list):
                raise _Invalid("levels must be a list")
            modes = [_require(level_doc, "modes") for level_doc in levels_doc]
            ranks = [[_require(m, "rank") for m in ms] if isinstance(ms, list) else ms for ms in modes]
            levels, _ = _levels(original_dims, ranks)
            slices = [
                [_legacy_slices(_require(m, "slices"), pairs, name, shape) for m, (name, shape) in zip(ms, level)]
                for ms, level in zip(modes, levels)
            ]
        term_norm = tensor_norm(term)
        levels, input_dims = [], original_dims
        for level_slices in slices:
            levels.append(ConcentrationLevel(input_dims, [TripartiteExtract(s) for s in level_slices], term_norm))
            input_dims = levels[-1].ranks
        return ConcentrationTree(original_dims, levels, term, stop_order)


def _legacy_slices(doc, pairs, name, shape) -> np.ndarray:
    """A tree mode's ``(rank, I_a, I_b)`` slices: one base64 string, or a list of ``rank`` ``[re, im]`` matrices."""
    if not pairs:
        return _legacy_array(doc, False, shape, f"{name} slices")
    if not isinstance(doc, list) or len(doc) != shape[0]:
        raise _Invalid(f"{name}: expected {shape[0]} slices")
    return np.stack([_pairs(s, shape[1:], f"{name} slice {i}") for i, s in enumerate(doc)])


def write_operators(path, operators) -> None:
    mats = [np.asarray(a, dtype=np.complex128) for a in getattr(operators, "ops", operators)]
    header = {"dims": [a.shape[0] if a.ndim else 0 for a in mats], "format_version": FORMAT_VERSION}
    _write(path, header, _operator_fields, mats)


def read_operators(path) -> list[np.ndarray]:
    """Read an operator file of format version 1, 2 or 3."""
    with _reading(path):
        doc, payload = _load(path, (1, 2), FORMAT_VERSION)
        if payload is not None:
            return _arrays(payload, _operator_fields(doc))
        ops_doc = _require(doc, "operators")
        if not isinstance(ops_doc, list) or not ops_doc:
            raise _Invalid("operators must be a non-empty list")
        out = []
        for i, op_doc in enumerate(ops_doc):
            d = _require(op_doc, "dim")
            if not _is_int(d) or d < 1:
                raise _Invalid(f"operator {i} has bad dim {d!r}")
            out.append(_legacy_array(_require(op_doc, "entries"), doc["format_version"] == 1, (d, d), f"operator {i}"))
        return out
