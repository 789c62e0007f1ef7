"""Command-line front end: concentrate, reconstruct, check, params, gen.

Summary tables go to stdout, diagnostics to stderr.  Exit codes: 0 success or
"equivalent", 1 "inequivalent", 2 parse/usage errors, 3 dimension or content
errors, 4 "inconclusive".
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import equivalence as eq
from .decompose import concentrate, count_parameters, reconstruct
from .fileio import FileFormatError, read_operators, read_tensor, read_tree, write_tensor, write_tree
from .states import StateSpec, make_state
from .tensor_ops import tensor_norm

EXIT_OK = 0
EXIT_INEQUIVALENT = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_INCONCLUSIVE = 4


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _pairing_label(n: int) -> str:
    """The adjacent pairing of ``n`` modes, the only pairing, as ``(0-1)(2-3)(4)``."""
    return "".join("(" + "-".join(map(str, range(i, min(i + 2, n)))) + ")" for i in range(0, n, 2))


def _count_flag(name: str):
    """The argparse type of a flag whose value is a non-negative integer, e.g. ``--budget``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = -1
        if value < 0:
            raise argparse.ArgumentTypeError(f"{name} must be a non-negative integer, got {text!r}")
        return value

    return parse


def _cmd_concentrate(args) -> int:
    state = read_tensor(args.input)
    tree = concentrate(state, stop_order=args.stop_order)
    write_tree(args.output, tree)
    print(f"state dims {tuple(state.shape)}  norm {_fmt(tensor_norm(state))}")
    print("level  pairing  ranks  core-norm")
    for i, level in enumerate(tree.levels, start=1):
        pairing = _pairing_label(len(level.input_dims))
        print(f"{i}  {pairing}  {tuple(level.ranks)}  {_fmt(level.core_norm)}")
    print(
        f"terminal order {tree.terminal.ndim}  dims {tuple(tree.terminal.shape)}  "
        f"norm {_fmt(tensor_norm(tree.terminal))}"
    )
    print(f"tripartite extracts: {tree.tripartite_extract_count}")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    tree = read_tree(args.tree)
    state = reconstruct(tree)
    write_tensor(args.output, state)
    print(f"reconstructed dims {tuple(state.shape)}  norm {_fmt(tensor_norm(state))}")
    return EXIT_OK


def _print_verdict(verdict) -> None:
    print(f"verdict: {verdict.status}")
    residuals = verdict.residuals or {}
    flat = []
    for key, value in residuals.items():
        if key == "levels":
            tri = [r for lvl in value for r in lvl.get("tripartite", [])]
            cores = [lvl["core"] for lvl in value if lvl.get("core") is not None]
            if tri:
                flat.append(f"max-tripartite-residual={max(tri):.3e}")
            if cores:
                flat.append(f"max-core-residual={max(cores):.3e}")
        elif isinstance(value, float):
            flat.append(f"{key}={value:.3e}")
        else:
            flat.append(f"{key}={value}")
    print("residuals: " + (", ".join(flat) if flat else "none"))
    witness = verdict.witness
    if isinstance(witness, eq.EquivalenceCertificate):
        blocks = sum(len(level.p_blocks) for level in witness.levels)
        print(f"witness: verified certificate ({len(witness.levels)} levels, {blocks} block matrices)")
    else:
        print(f"witness: {witness}")


def _cmd_check(args) -> int:
    a = read_tensor(args.a)
    b = read_tensor(args.b)
    if a.shape != b.shape:
        raise ValueError(f"states have different dims: {tuple(a.shape)} vs {tuple(b.shape)}")
    verdict = eq.invariant_filter(a, b, args.mode)
    if verdict.status == eq.INEQUIVALENT:
        _print_verdict(verdict)
        return EXIT_INEQUIVALENT
    if args.ops:
        mats = read_operators(args.ops)
        operators = eq.LocalOperatorSet(tuple(mats), args.mode)
        if operators.dims != a.shape:
            raise ValueError(f"operator dims {operators.dims} do not match state dims {a.shape}")
        try:
            cert = eq.derive_certificate(a, b, operators)
            verdict = eq.verify_certificate(a, b, cert)
        except ValueError as exc:
            print(f"certificate derivation failed: {exc}", file=sys.stderr)
            verdict = eq.EquivalenceVerdict(eq.INCONCLUSIVE, str(exc), verdict.residuals)
    else:
        verdict = eq.search_equivalence(a, b, args.mode, budget=args.budget, seed=args.seed)
    _print_verdict(verdict)
    if verdict.status == eq.EQUIVALENT:
        return EXIT_OK
    if verdict.status == eq.INEQUIVALENT:
        return EXIT_INEQUIVALENT
    return EXIT_INCONCLUSIVE


def _cmd_params(args) -> int:
    print(count_parameters(args.dims))
    return EXIT_OK


def _parse_gen_spec(args) -> StateSpec:
    family = args.family
    params = args.params
    try:
        if family == "ghz":
            if len(params) not in (1, 2):
                raise ValueError("ghz takes: n [d]")
            n = int(params[0])
            d = int(params[1]) if len(params) == 2 else 2
            return StateSpec("ghz", dims=(d,) * n)
        if family == "w":
            if len(params) != 1:
                raise ValueError("w takes: n")
            return StateSpec("w", dims=(2,) * int(params[0]))
        if family in ("product", "random"):
            if not params:
                raise ValueError(f"{family} takes: dim [dim ...]")
            return StateSpec(family, dims=tuple(int(p) for p in params), seed=args.seed)
        if len(params) != 4:
            raise ValueError(f"{family} takes: four real parameters")
        return StateSpec(family, params=tuple(float(p) for p in params))
    except ValueError as exc:
        raise FileFormatError(f"bad generator arguments: {exc}") from None


def _cmd_gen(args) -> int:
    state = make_state(_parse_gen_spec(args))
    write_tensor(args.output, state)
    print(f"wrote {args.family} state with dims {tuple(state.shape)} to {args.output}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="entcore",
        description="Concentrate multipartite pure states into bipartite/tripartite cores "
        "and check LU/SLOCC equivalence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("concentrate", help="decompose a state file into a tree file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--stop-order", type=int, choices=(2, 3), default=3, dest="stop_order")
    p.set_defaults(func=_cmd_concentrate)

    p = sub.add_parser("reconstruct", help="rebuild the state from a tree file")
    p.add_argument("tree")
    p.add_argument("output")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("check", help="compare two state files for LU/SLOCC equivalence")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mode", choices=(eq.LU, eq.SLOCC), required=True)
    p.add_argument("--ops", default=None, help="operator file enabling certificate derivation")
    p.add_argument("--budget", type=_count_flag("budget"), default=50)
    p.add_argument("--seed", type=_count_flag("seed"), default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("params", help="entanglement-class parameter count for given dims")
    p.add_argument("dims", type=int, nargs="+")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("gen", help="generate a state file from a named family")
    p.add_argument("family", choices=("ghz", "w", "product", "random", "paper4", "paper6"))
    p.add_argument("params", nargs="*", help="family arguments (see README)")
    p.add_argument("output")
    p.add_argument("--seed", type=_count_flag("seed"), default=None)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION


if __name__ == "__main__":
    sys.exit(main())
