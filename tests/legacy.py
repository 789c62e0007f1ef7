"""Documents of the JSON format versions, built from arrays, as the writers once wrote them.

The writers no longer make these versions, but the readers still take them.
State and operator files of version 1 and trees of versions 1 to 3 spell
every complex array as nested lists of ``[re, im]`` pairs; state and operator
files of version 2 and trees of version 4 store each array as one base64
string of its little-endian complex128 bytes in C order.  :func:`text` is the
one compact line of sorted keys those writers wrote.
"""

import base64
import json

import numpy as np


def pairs(a) -> list:
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], -1).tolist()


def payload(a) -> str:
    """The base64 payload of ``a``'s little-endian complex128 bytes, spelled out here, not by a writer."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<c16").tobytes()).decode("ascii")


def text(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def state_doc(t, version=1) -> dict:
    t = np.asarray(t)
    coeffs = pairs(t.ravel()) if version == 1 else payload(t)
    return {"format_version": version, "dims": list(t.shape), "coeffs": coeffs}


def operators_doc(ops, version=1) -> dict:
    encode = pairs if version == 1 else payload
    return {"format_version": version, "operators": [{"dim": len(a), "entries": encode(a)} for a in ops]}


def tree_doc(tree, version=3) -> dict:
    def slices(ext):
        return [pairs(s) for s in ext.slices] if version < 4 else payload(ext.slices)

    levels = [
        {"modes": [{"rank": ext.dims[0], "slices": slices(ext)} for ext in level.extracts]}
        for level in tree.levels
    ]
    terminal = tree.terminal.ravel()
    return {
        "format_version": version,
        "original_dims": list(tree.original_shape),
        "stop_order": tree.stop_order,
        "levels": levels,
        "terminal": {
            "dims": list(tree.terminal.shape),
            "coeffs": pairs(terminal) if version < 4 else payload(terminal),
        },
    }
