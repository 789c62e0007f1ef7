"""Seeded op lists for the four benchmark workloads, with their correctness gates.

An op is one call into the program (``run``), timed by the benchmark, and a
gate (``check``) that the benchmark applies to its result untimed.  Every op
calls the program through module attributes (``decompose.concentrate``, not a
captured function) so the traced run sees the call.  The gates use the
functions captured below at import, before any tracing wrapper exists.

A gate returns ``(failure, decided)``: ``failure`` is ``None`` or the reason
the op failed; ``decided`` is whether the op reached the definite verdict its
construction implies, or ``None`` when the construction implies none.

Failure rules: an exception; reconstruction error >= 1e-10; ``inequivalent``
on a pair equivalent by construction (or ``equivalent`` on one inequivalent
by construction); ``equivalent`` without a certificate that re-verifies with
``verify_certificate``; a search result whose connector is not block upper
triangular with a rank-one realignment; a wrong CLI exit code.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from entcore import cli, decompose, equivalence, fileio, states
from entcore.equivalence import EQUIVALENT, INCONCLUSIVE, INEQUIVALENT, LU, SLOCC
from entcore.tensor_ops import realign

RECONSTRUCTION_TOL = 1e-10
SEARCH_BUDGET = 50
SLOCC_COND = 10.0

_VERIFY = equivalence.verify_certificate
_READ_TENSOR = fileio.read_tensor


@dataclass(frozen=True)
class Op:
    name: str
    tags: frozenset
    run: Callable[[], object]
    check: Callable[[object], tuple]
    # Whether the construction implies a definite verdict; an op that raises
    # counts as undecided only when it does.
    implies_verdict: bool = False
    # Runs per pass.  Cheap ops run several times, spread over the pass, so
    # their median is not one moment's machine speed; see run.schedule.
    repeats: int = 1


def _tags(dims=(), mode=None, rank_deficient=False) -> frozenset:
    tags = set()
    if mode is not None:
        tags.add(mode)
    if len(dims) % 2:
        tags.add("odd_order")
    if any(d > 2 for d in dims):
        tags.add("qudit")
    if len(set(dims)) > 1:
        tags.add("mixed_dims")
    if rank_deficient:
        tags.add("rank_deficient")
    return frozenset(tags)


class _Seeds:
    """Stream of integer seeds drawn from the workload seed."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def __call__(self) -> int:
        return int(self._rng.integers(2**31))


def _local_ops(dims, mode, seeds):
    if mode == LU:
        return [states.haar_unitary(d, seed=seeds()) for d in dims]
    return [states.random_invertible(d, SLOCC_COND, seed=seeds()) for d in dims]


# ---------------------------------------------------------------- concentrate-large


def _concentrate_reconstruct(psi, stop_order):
    tree = decompose.concentrate(psi, stop_order=stop_order)
    return tree, decompose.reconstruct(tree)


def _roundtrip_gate(psi, stop_order):
    def check(result):
        tree, rec = result
        if rec.shape != psi.shape:
            return f"reconstructed shape {rec.shape} != {psi.shape}", None
        err = float(np.linalg.norm((rec - psi).ravel()))
        if not err < RECONSTRUCTION_TOL:
            return f"reconstruction error {err:.3e}", None
        if tree.terminal.ndim > stop_order:
            return f"terminal order {tree.terminal.ndim} > stop_order {stop_order}", None
        return None, None

    return check


def concentrate_large(seed: int, tiny: bool, workdir: str) -> list[Op]:
    seeds = _Seeds(seed)
    if tiny:
        cases = [("random", (2,) * 6, 3, 2), ("random", (2,) * 7, 2, 1), ("ghz", (2,) * 6, 2, 1),
                 ("random", (3,) * 4, 3, 2), ("random", (2, 3) * 2, 2, 2)]
    else:
        # Each heavy input runs once per pass, at one stop order; the cheap
        # ones at both, 5 times.  (3,)*9 at stop order 2 peaks near
        # 2.7 GB and is left out.
        cheap = 5
        cases = [("random", (2,) * 12, 3, cheap), ("random", (2,) * 12, 2, cheap),
                 ("random", (2,) * 13, 2, 1), ("random", (2,) * 14, 3, 1), ("ghz", (2,) * 14, 2, 1),
                 ("w", (2,) * 14, 3, 1), ("random", (3,) * 8, 3, cheap), ("random", (3,) * 8, 2, cheap),
                 ("random", (3,) * 9, 3, 1), ("random", (2, 3) * 5, 3, cheap),
                 ("random", (2, 3) * 5, 2, cheap)]
    ops = []
    for family, dims, stop, repeats in cases:
        if family == "random":
            psi = states.random_state(dims, seed=seeds())
        elif family == "ghz":
            psi = states.ghz_state(len(dims), dims[0])
        else:
            psi = states.w_state(len(dims))
        ops.append(Op(
            f"concentrate+reconstruct {family}{dims} stop={stop}",
            _tags(dims, rank_deficient=family != "random"),
            lambda psi=psi, stop=stop: _concentrate_reconstruct(psi, stop),
            _roundtrip_gate(psi, stop),
            repeats=repeats,
        ))
    return ops


# ---------------------------------------------------------------- check-ops


def check_with_ops(a, b, mats, mode):
    """Library form of ``entcore check --ops``: filter, then derive and verify."""
    verdict = equivalence.invariant_filter(a, b, mode)
    if verdict.status == INEQUIVALENT:
        return verdict
    operators = equivalence.LocalOperatorSet(tuple(mats), mode)
    try:
        cert = equivalence.derive_certificate(a, b, operators)
        return equivalence.verify_certificate(a, b, cert)
    except ValueError as exc:
        return equivalence.EquivalenceVerdict(INCONCLUSIVE, str(exc), verdict.residuals)


def _verdict_gate(a, b, expect):
    def check(verdict):
        status = verdict.status
        if status == EQUIVALENT:
            if expect == INEQUIVALENT:
                return "equivalent on a pair inequivalent by construction", False
            cert = verdict.witness
            if not isinstance(cert, equivalence.EquivalenceCertificate):
                return "equivalent without a certificate", False
            recheck = _VERIFY(a, b, cert).status
            if recheck != EQUIVALENT:
                return f"certificate re-verifies as {recheck}", False
        elif status == INEQUIVALENT and expect == EQUIVALENT:
            return f"inequivalent on a pair equivalent by construction: {verdict.witness}", False
        return None, status == expect

    return check


def _check_op(name, a, b, mats, mode, expect, tags, repeats=1):
    return Op(name, tags, lambda: check_with_ops(a, b, mats, mode), _verdict_gate(a, b, expect), True,
              repeats)


def near_cutoff_probe() -> Op:
    """SLOCC pair equivalent by construction whose rank gap sits at the cutoff.

    ``b = product + 3e-10 GHZ`` and ``diag(1, 1e-2) x I x I`` applied to it:
    the operator's condition number is 100, yet the filter's local-rank test
    sees rank 2 against 1 and answers ``inequivalent``.
    """
    a = states.product_state((2, 2, 2)) + 3e-10 * states.ghz_state(3)
    mats = [np.diag([1.0, 1e-2]).astype(np.complex128), np.eye(2), np.eye(2)]
    b = states.apply_local(a, mats)
    return _check_op("check --ops near-cutoff product+3e-10*GHZ (3 qubits) slocc",
                     a, b, mats, SLOCC, EQUIVALENT, _tags((2, 2, 2), SLOCC, True))


def check_ops(seed: int, tiny: bool, workdir: str) -> list[Op]:
    seeds = _Seeds(seed)
    modes = (LU, SLOCC)
    cheap = 3  # runs per pass of the ops below 11 qubits
    if tiny:
        orbits = [(dims, mode, 2) for dims in ((2,) * 5, (3,) * 4) for mode in modes]
        rank_deficient = [("ghz", 5, LU)]
        unrelated = [(5, mode) for mode in modes]
    else:
        # 11 and 12 qubits are the heavy ops: once per pass.  A 13-qubit pair
        # (about 22 s with its re-verification) would triple a pass.
        orbits = [((2,) * n, mode, cheap if n < 11 else 1) for n in (8, 9, 10, 11, 12) for mode in modes]
        orbits += [(dims, mode, cheap) for dims in ((3,) * 6, (3,) * 7, (2, 3, 2, 3, 2, 3, 2))
                   for mode in modes]
        rank_deficient = [(family, 10, mode) for family in ("ghz", "w") for mode in modes]
        unrelated = [(n, mode) for n in (8, 10) for mode in modes]
    ops = []
    for dims, mode, repeats in orbits:
        a = states.random_state(dims, seed=seeds())
        mats = _local_ops(dims, mode, seeds)
        ops.append(_check_op(f"check --ops orbit random{dims} {mode}", a, states.apply_local(a, mats),
                             mats, mode, EQUIVALENT, _tags(dims, mode), repeats))
    for family, n, mode in rank_deficient:
        a = states.ghz_state(n) if family == "ghz" else states.w_state(n)
        dims = (2,) * n
        mats = _local_ops(dims, mode, seeds)
        ops.append(_check_op(f"check --ops orbit {family}-{n} {mode}", a, states.apply_local(a, mats),
                             mats, mode, EQUIVALENT, _tags(dims, mode, True), cheap))
    for n, mode in unrelated:
        dims = (2,) * n
        pairs = [
            ("ghz vs w", states.ghz_state(n), states.w_state(n), True),
            ("product vs random", states.product_state(dims, seed=seeds()),
             states.random_state(dims, seed=seeds()), True),
            ("random vs random", states.random_state(dims, seed=seeds()),
             states.random_state(dims, seed=seeds()), False),
        ]
        for label, a, b, deficient in pairs:
            # operators unrelated to the pair, as a user passing the wrong file would
            mats = _local_ops(dims, mode, seeds)
            ops.append(_check_op(f"check --ops {label} {n} qubits {mode}", a, b, mats, mode,
                                 INEQUIVALENT, _tags(dims, mode, deficient), cheap))
    return ops


# ---------------------------------------------------------------- search


def _planted(i1, i2, r, mode, seeds):
    """Extract bases ``u, u'`` joined by a Kronecker operator and a block
    upper triangular ``P~`` with split ``r``, so a solution exists."""
    j = i1 * i2
    u = states.haar_unitary(j, seed=seeds())
    if mode == LU:
        pt = np.zeros((j, j), dtype=np.complex128)
        pt[:r, :r] = states.haar_unitary(r, seed=seeds())
        pt[r:, r:] = states.haar_unitary(j - r, seed=seeds())
        k = np.kron(states.haar_unitary(i1, seed=seeds()), states.haar_unitary(i2, seed=seeds()))
        return u, k.conj().T @ u @ pt
    rng = np.random.default_rng(seeds())
    pt = rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j))
    pt[r:, :r] = 0
    k = np.kron(states.random_invertible(i1, SLOCC_COND, seed=seeds()),
                states.random_invertible(i2, SLOCC_COND, seed=seeds()))
    return u, np.linalg.inv(k) @ u @ pt


def _search_gate(u, up, r, i1, i2, mode, planted):
    def check(found):
        if found is None:
            return None, (False if planted else None)
        pt = found.p_tilde()
        if found.p.shape != (r, r) or np.any(pt[r:, :r] != 0):
            return "connector is not block upper triangular at the requested split", False
        if mode == LU and np.linalg.norm(pt.conj().T @ pt - np.eye(pt.shape[0])) > equivalence.EQUIV_RTOL:
            return "LU connector is not unitary", False
        s = np.linalg.svd(realign(u @ pt @ np.linalg.inv(up), i1, i2), compute_uv=False)
        if s[1] > equivalence.EQUIV_RTOL * s[0]:
            return f"realignment is not rank one (sigma2/sigma1 {s[1] / s[0]:.3e})", False
        return None, (True if planted else None)

    return check


def _search_op(name, u, up, r, i1, i2, mode, seed, planted, tags):
    return Op(
        name, tags,
        lambda: equivalence.search_p_tilde(u, up, r, i1, i2, mode, SEARCH_BUDGET, seed),
        _search_gate(u, up, r, i1, i2, mode, planted),
        planted,
    )


def _extract_pair(n):
    """Level-1 extract bases of GHZ-n and W-n: no Kronecker connector is known."""
    tg = decompose.concentrate(states.ghz_state(n), stop_order=2)
    tw = decompose.concentrate(states.w_state(n), stop_order=2)
    eg, ew = tg.levels[0].extracts[0], tw.levels[0].extracts[0]
    return eg.full_matrix, ew.full_matrix, eg.dims[0]


def search(seed: int, tiny: bool, workdir: str) -> list[Op]:
    seeds = _Seeds(seed)
    modes = (LU, SLOCC)
    composites = [(2, 2)] if tiny else [(2, 2), (2, 3), (3, 3)]
    # Several instances per configuration, so the share of SLOCC problems the
    # search solves is not decided by one draw.
    instances = 1 if tiny else 4
    ops = []
    for _ in range(instances):
        for i1, i2 in composites:
            for mode in modes:
                for r in range(1, i1 * i2):
                    u, up = _planted(i1, i2, r, mode, seeds)
                    ops.append(_search_op(f"search_p_tilde planted {i1}x{i2} r={r} {mode}", u, up, r,
                                          i1, i2, mode, seeds(), True, _tags((i1, i2), mode)))
    for n in ((3,) if tiny else (3, 4)):
        u, up, r = _extract_pair(n)
        for mode in modes:
            ops.append(_search_op(f"search_p_tilde ghz-{n} vs w-{n} extracts {mode}", u, up, r, 2, 2,
                                  mode, seeds(), False, _tags((2, 2), mode, True)))
    if tiny:
        orbit_states = [("ghz-4", states.ghz_state(4), True)]
    else:
        params = lambda: tuple(np.random.default_rng(seeds()).uniform(0.1, 1.0, size=4))  # noqa: E731
        orbit_states = [
            ("paper4", states.paper4_state(params()), True),
            ("paper6", states.paper6_state(params()), True),
            ("ghz-4", states.ghz_state(4), True),
            ("ghz-6", states.ghz_state(6), True),
            ("w-5", states.w_state(5), True),
        ] + [(f"random-{n}", states.random_state((2,) * n, seed=seeds()), False) for n in (4, 5, 6)]
    for label, psi, deficient in orbit_states:
        for mode in modes:
            mats = _local_ops(psi.shape, mode, seeds)
            b = states.apply_local(psi, mats)
            search_seed = seeds()
            ops.append(Op(
                f"search_equivalence orbit {label} {mode}",
                _tags(psi.shape, mode, deficient),
                lambda psi=psi, b=b, mode=mode, s=search_seed: equivalence.search_equivalence(
                    psi, b, mode, budget=SEARCH_BUDGET, seed=s),
                _verdict_gate(psi, b, EQUIVALENT),
                True,
            ))
    return ops


# ---------------------------------------------------------------- cli-roundtrip


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _exit_gate(expected, then=None):
    def check(code):
        if code != expected:
            return f"exit code {code}, expected {expected}", None
        return then() if then is not None else (None, None)

    return check


def _check_exit_gate(code):
    # equivalent by construction: 0 is the verdict, 4 (inconclusive) is
    # allowed but undecided, anything else is wrong
    if code == 0:
        return None, True
    if code == 4:
        return None, False
    return f"check exit code {code} on a pair equivalent by construction", False


def _same_state(path, expected, exact):
    def compare():
        got = _READ_TENSOR(path)
        if got.shape != expected.shape:
            return f"{os.path.basename(path)}: dims {got.shape} != {expected.shape}", None
        if exact:
            if not np.array_equal(got, expected):
                return f"{os.path.basename(path)} differs from the generated state", None
            return None, None
        err = float(np.linalg.norm((got - expected).ravel()))
        if not err < RECONSTRUCTION_TOL:
            return f"{os.path.basename(path)}: reconstruction error {err:.3e}", None
        return None, None

    return compare


def cli_roundtrip(seed: int, tiny: bool, workdir: str) -> list[Op]:
    seeds = _Seeds(seed)
    if tiny:
        roundtrips = [("random", (2,) * 6, 3, 2), ("ghz", (2,) * 5, 2, 1), ("random", (2, 3, 2), 3, 2)]
        checks = [(5, LU), (5, SLOCC)]
        repeats = 2
    else:
        # the 13-qubit roundtrips are the heavy ops: once per pass
        repeats = 2
        roundtrips = [("random", (2,) * 11, 3, repeats), ("random", (2,) * 12, 2, repeats),
                      ("random", (2,) * 13, 3, 1), ("random", (2,) * 13, 2, 1),
                      ("ghz", (2,) * 12, 3, repeats), ("random", (2, 3) * 5, 3, repeats)]
        checks = [(n, mode) for n in (8, 9, 10) for mode in (LU, SLOCC)]
    ops = []
    for i, (family, dims, stop, rt_repeats) in enumerate(roundtrips):
        src, tree, back = (os.path.join(workdir, f"rt{i}.{kind}.json") for kind in ("state", "tree", "back"))
        if family == "ghz":
            argv = ["gen", "ghz", str(len(dims)), src]
            expected = states.ghz_state(len(dims))
        else:
            gen_seed = seeds()
            argv = ["gen", "random", *map(str, dims), src, "--seed", str(gen_seed)]
            expected = states.random_state(dims, seed=gen_seed)
        tags = _tags(dims, rank_deficient=family != "random")
        label = f"{family}{dims}"
        ops += [
            Op(f"cli gen {label}", tags, lambda argv=argv: _cli(argv),
               _exit_gate(0, _same_state(src, expected, exact=True)), repeats=rt_repeats),
            Op(f"cli concentrate {label} stop={stop}", tags,
               lambda a=["concentrate", src, tree, "--stop-order", str(stop)]: _cli(a), _exit_gate(0),
               repeats=rt_repeats),
            Op(f"cli reconstruct {label}", tags, lambda a=["reconstruct", tree, back]: _cli(a),
               _exit_gate(0, _same_state(back, expected, exact=False)), repeats=rt_repeats),
        ]
    for i, (n, mode) in enumerate(checks):
        dims = (2,) * n
        a = states.random_state(dims, seed=seeds())
        mats = _local_ops(dims, mode, seeds)
        paths = [os.path.join(workdir, f"check{i}.{kind}.json") for kind in ("a", "b", "ops")]
        fileio.write_tensor(paths[0], a)
        fileio.write_tensor(paths[1], states.apply_local(a, mats))
        fileio.write_operators(paths[2], mats)
        argv = ["check", paths[0], paths[1], "--mode", mode, "--ops", paths[2]]
        ops.append(Op(f"cli check --ops orbit random{dims} {mode}", _tags(dims, mode),
                      lambda argv=argv: _cli(argv), _check_exit_gate, True, repeats))
    return ops


# name -> op-list builder(seed, tiny, workdir); BENCHMARK.json says why each exists
WORKLOADS = {
    "concentrate-large": concentrate_large,
    "check-ops": check_ops,
    "search": search,
    "cli-roundtrip": cli_roundtrip,
}
