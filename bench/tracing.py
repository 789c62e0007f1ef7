"""Span tracer for the benchmark's traced run.

The tracer wraps each layer's public functions from outside the program.
Modules import these functions by name (``from .decompose import hosvd``),
so a wrapper installed only on the defining module would miss most calls.
:class:`Tracer` therefore replaces the function at every module attribute of
the package that holds it, and restores them all on exit.

Each call made while an op runs records one span: name, start, end, parent
span and the op it belongs to.  Calls made while the benchmark itself works
(building inputs, checking outputs) pass straight through and record
nothing.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

import entcore
from entcore import cli, decompose, equivalence, fileio, states, tensor_ops

MODULES = (entcore, cli, decompose, equivalence, fileio, states, tensor_ops)

_NAME, _START, _END, _PARENT, _OP, _EXTRA = range(6)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _unfolding_bytes(args, _out) -> int:
    # hosvd unfolds every mode of its complex128 input: ndim matrices of
    # t.size entries, 16 bytes each.  Computed from the shape, not measured.
    t = args[0]
    return np.ndim(t) * np.size(t) * 16


def _file_size(args, _out) -> int:
    return os.path.getsize(args[0])


def _solved(_args, out) -> bool:
    return out is not None


def _cli_name(args) -> str:
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.main"


# (module, function, extra) for every wrapped function.  ``extra`` computes
# a per-span value after a successful call; ``make_state`` and
# ``write_operators`` are wrapped so their time is not counted as CLI or
# benchmark self time.
TRACED = (
    (decompose, "hosvd", _unfolding_bytes),
    (decompose, "extract_tripartites", None),
    (decompose, "concentrate", None),
    (decompose, "reconstruct", None),
    (tensor_ops, "mode_multiply", None),
    (tensor_ops, "unfold", None),
    (equivalence, "invariant_filter", None),
    (equivalence, "derive_certificate", None),
    (equivalence, "verify_certificate", None),
    (equivalence, "search_p_tilde", _solved),
    (equivalence, "search_equivalence", None),
    (states, "apply_local", None),
    (states, "make_state", None),
    (fileio, "write_tensor", _file_size),
    (fileio, "read_tensor", _file_size),
    (fileio, "write_tree", _file_size),
    (fileio, "read_tree", _file_size),
    (fileio, "write_operators", _file_size),
    (fileio, "read_operators", _file_size),
    (cli, "main", None),
)

# Per-layer metrics: (name, unit, better, end-to-end metric it should move).
# Values are per-op means over the traced window unless the name says
# otherwise.
LAYER_METRICS = (
    ("decompose.hosvd.calls", "count", "lower", "op_p50_ms on check-ops"),
    ("decompose.hosvd.self_ms", "ms", "lower", "op_p50_ms, peak_rss_mb on concentrate-large"),
    ("decompose.hosvd.in_mb", "MB-computed", "lower", "op_p50_ms, peak_rss_mb on concentrate-large"),
    ("decompose.extract_tripartites.self_ms", "ms", "lower", "op_p50_ms on concentrate-large"),
    ("decompose.concentrate.ms", "ms", "lower", "op_p50_ms on concentrate-large"),
    ("decompose.reconstruct.ms", "ms", "lower", "op_p50_ms on concentrate-large"),
    ("tensor_ops.mode_multiply.calls", "count", "lower", "op_p50_ms on concentrate-large, check-ops"),
    ("tensor_ops.mode_multiply.self_ms", "ms", "lower", "op_p50_ms on concentrate-large, check-ops"),
    ("tensor_ops.unfold.self_ms", "ms", "lower", "op_p50_ms on concentrate-large, check-ops"),
    ("equivalence.invariant_filter.ms", "ms", "lower", "op_p50_ms on check-ops"),
    ("equivalence.derive_certificate.ms", "ms", "lower", "op_p50_ms on check-ops"),
    ("equivalence.verify_certificate.ms", "ms", "lower", "op_p50_ms on check-ops"),
    ("equivalence.invariant_filter.hosvd_calls", "count", "lower", "op_p50_ms on check-ops"),
    ("equivalence.derive_certificate.hosvd_calls", "count", "lower", "op_p50_ms on check-ops"),
    ("equivalence.verify_certificate.hosvd_calls", "count", "lower", "op_p50_ms on check-ops"),
    ("equivalence.search_p_tilde.calls", "count", "lower", "op_p50_ms on search"),
    ("equivalence.search_p_tilde.ms", "ms", "lower", "op_p50_ms on search"),
    ("equivalence.search_p_tilde.solved_frac", "fraction", "higher", "decided_frac on search"),
    ("equivalence.search_equivalence.ms", "ms", "lower", "op_p50_ms, decided_frac on search"),
    ("states.apply_local.ms", "ms", "lower", "op_p50_ms on check-ops"),
    ("fileio.write_tensor.ms", "ms", "lower", "op_p50_ms on cli-roundtrip"),
    ("fileio.read_tensor.ms", "ms", "lower", "op_p50_ms on cli-roundtrip"),
    ("fileio.write_tree.ms", "ms", "lower", "op_p50_ms on cli-roundtrip"),
    ("fileio.read_tree.ms", "ms", "lower", "op_p50_ms on cli-roundtrip"),
    ("fileio.read_operators.ms", "ms", "lower", "op_p50_ms on cli-roundtrip"),
    ("fileio.bytes_written_mb", "MB", "lower", "op_p50_ms on cli-roundtrip"),
    ("fileio.bytes_read_mb", "MB", "lower", "op_p50_ms on cli-roundtrip"),
    ("cli.gen.ms", "ms", "lower", "op_p50_ms on cli-roundtrip"),
    ("cli.concentrate.ms", "ms", "lower", "op_p50_ms on cli-roundtrip"),
    ("cli.reconstruct.ms", "ms", "lower", "op_p50_ms on cli-roundtrip"),
    ("cli.check.ms", "ms", "lower", "op_p50_ms on cli-roundtrip"),
    ("cli.self_ms", "ms", "lower", "op_p50_ms on cli-roundtrip"),
    ("trace.overhead_ms", "ms", "lower", "none: traced minus untraced mean op time"),
    ("trace.overhead_pct", "%", "lower", "none: the same difference as a share of the untraced mean"),
)


class Tracer:
    """Records spans of calls into the package while ``op`` is set.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions.  Set ``op`` to an id of the op
    execution around the program call being measured, and back to ``None``
    afterwards.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            index = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(index)
            span[_START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[_EXTRA] = extra(args, out)
            return out

        return wrapper

    def __enter__(self):
        for module, attr, extra in TRACED:
            fn = getattr(module, attr)
            name = _cli_name if module is cli else f"{_layer(module)}.{attr}"
            wrapper = self._wrap(name, fn, extra)
            for holder in MODULES:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, key, fn))
                        setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()
        return False

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer values named in :data:`LAYER_METRICS`, except the overhead pair.

        Self time is a span's duration minus the durations of its child
        spans; calls on one thread nest, so children never overlap.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[_PARENT] is not None:
                child_time[s[_PARENT]] += s[_END] - s[_START]
        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        extra = defaultdict(float)
        under = defaultdict(int)  # hosvd calls below each equivalence entry point
        entry_points = ("equivalence.invariant_filter", "equivalence.derive_certificate",
                        "equivalence.verify_certificate")
        for i, s in enumerate(spans):
            name = s[_NAME]
            duration = s[_END] - s[_START]
            calls[name] += 1
            total[name] += duration
            self_time[name] += duration - child_time[i]
            if s[_EXTRA] is not None:
                extra[name] += float(s[_EXTRA])
            if name == "decompose.hosvd":
                seen = set()
                parent = s[_PARENT]
                while parent is not None:
                    pname = spans[parent][_NAME]
                    if pname in entry_points and pname not in seen:
                        seen.add(pname)
                        under[pname] += 1
                    parent = spans[parent][_PARENT]

        n = max(n_ops, 1)
        ms = 1e3 / n
        mb = 1.0 / (n * 1e6)
        out = {
            "decompose.hosvd.calls": calls["decompose.hosvd"] / n,
            "decompose.hosvd.self_ms": self_time["decompose.hosvd"] * ms,
            "decompose.hosvd.in_mb": extra["decompose.hosvd"] * mb,
            "decompose.extract_tripartites.self_ms": self_time["decompose.extract_tripartites"] * ms,
            "decompose.concentrate.ms": total["decompose.concentrate"] * ms,
            "decompose.reconstruct.ms": total["decompose.reconstruct"] * ms,
            "tensor_ops.mode_multiply.calls": calls["tensor_ops.mode_multiply"] / n,
            "tensor_ops.mode_multiply.self_ms": self_time["tensor_ops.mode_multiply"] * ms,
            "tensor_ops.unfold.self_ms": self_time["tensor_ops.unfold"] * ms,
            "equivalence.search_p_tilde.calls": calls["equivalence.search_p_tilde"] / n,
            "equivalence.search_p_tilde.ms": total["equivalence.search_p_tilde"] * ms,
            "equivalence.search_p_tilde.solved_frac": (
                extra["equivalence.search_p_tilde"] / calls["equivalence.search_p_tilde"]
                if calls["equivalence.search_p_tilde"] else 0.0
            ),
            "equivalence.search_equivalence.ms": total["equivalence.search_equivalence"] * ms,
            "states.apply_local.ms": total["states.apply_local"] * ms,
            "fileio.bytes_written_mb": sum(extra[f"fileio.{f}"] for f in
                                           ("write_tensor", "write_tree", "write_operators")) * mb,
            "fileio.bytes_read_mb": sum(extra[f"fileio.{f}"] for f in
                                        ("read_tensor", "read_tree", "read_operators")) * mb,
            "cli.self_ms": sum(v for k, v in self_time.items() if k.startswith("cli.")) * ms,
        }
        for name in entry_points:
            out[f"{name}.ms"] = total[name] * ms
            out[f"{name}.hosvd_calls"] = under[name] / n
        for f in ("write_tensor", "read_tensor", "write_tree", "read_tree", "read_operators"):
            out[f"fileio.{f}.ms"] = total[f"fileio.{f}"] * ms
        for cmd in ("gen", "concentrate", "reconstruct", "check"):
            out[f"cli.{cmd}.ms"] = total[f"cli.{cmd}"] * ms
        return out
