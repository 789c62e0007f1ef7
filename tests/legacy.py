"""Documents of the list-payload format versions, built from arrays: state and operator files of version 1, trees of version 3.

The writers no longer make these versions, but the readers still take them.
Every complex array is spelled as nested lists of ``[re, im]`` pairs.
"""

import numpy as np


def pairs(a) -> list:
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], -1).tolist()


def state_doc(t) -> dict:
    t = np.asarray(t)
    return {"format_version": 1, "dims": list(t.shape), "coeffs": pairs(t.ravel())}


def operators_doc(ops) -> dict:
    return {"format_version": 1, "operators": [{"dim": len(a), "entries": pairs(a)} for a in ops]}


def tree_doc(tree) -> dict:
    levels = [
        {"modes": [{"rank": ext.dims[0], "slices": [pairs(s) for s in ext.slices]} for ext in level.extracts]}
        for level in tree.levels
    ]
    return {
        "format_version": 3,
        "original_dims": list(tree.original_shape),
        "stop_order": tree.stop_order,
        "levels": levels,
        "terminal": {"dims": list(tree.terminal.shape), "coeffs": pairs(tree.terminal.ravel())},
    }
