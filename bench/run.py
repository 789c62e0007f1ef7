#!/usr/bin/env python3
"""entcore benchmark: one closed-loop client runs a workload's fixed op mix.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

The program is imported from ``src/`` of the checkout; the run fails
without printing a result when it is not there.  Inputs are generated from
``--seed`` only.  A run measures whole passes over the workload's op list:
at least one, and more while the next pass is expected to end within
``--seconds``.  Every op's output goes through the correctness gate in
``workloads.py``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics named
in ``BENCHMARK.json``.  With ``--trace 1`` every op run is made twice, untraced
and traced, and the last line carries the per-layer metrics, including the
tracing overhead (traced minus untraced mean run time).  The line before
the last is a JSON report with provenance, every metric with its unit, the
tail percentile and sample count, the per-op tag shares and any failures.

``--smoke`` runs every workload at tiny sizes, traced and untraced, and
checks that every metric in ``BENCHMARK.json`` is emitted with its unit.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# One BLAS thread (at most nproc): with two threads on a two-core box the
# sub-100 ms ops ran 1.5-5x slower and with far wider spread, while the
# largest SVDs gained under 15%.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = ("concentrate-large", "check-ops", "search", "cli-roundtrip")
E2E_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB"}
REPORT_UNITS = {"fail_frac": "fraction", "decided_frac": "fraction"}
SETUP_REPEATS = 3  # this process plus two child processes
BURST_RUNS = 3
BURST_S = 0.1
TAIL_BEYOND = 10


def _process_age() -> float:
    """Seconds since this process started, from /proc; 0.0 where unavailable."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)
    except (OSError, ValueError, IndexError):
        return 0.0


def _parse(argv):
    import argparse

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, metric names checked")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    return args


def _import_program():
    """Import entcore from this checkout's ``src/`` and nowhere else."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    try:
        import entcore
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import entcore from {SRC}: {exc}") from None
    if os.path.dirname(os.path.dirname(os.path.abspath(entcore.__file__))) != SRC:
        raise SystemExit(f"bench: entcore was imported from {entcore.__file__}, not from {SRC}")


# ---------------------------------------------------------------- measuring


class Window:
    """Outcome of whole passes over an op list."""

    def __init__(self, n_ops: int):
        self.times: list[list[float]] = [[] for _ in range(n_ops)]  # per op, one time per slot
        self.attempted = 0  # executions, back-to-back runs included
        self.failures: list[str] = []
        self.decided = 0
        self.implied = 0
        self.passes = 0
        self.pairs: list[tuple[float, float]] = []  # traced windows: (untraced, traced) run times

    @property
    def slots(self) -> list[float]:
        return [t for times in self.times for t in times]


def _execute_once(op, window, tracer=None) -> float:
    """One execution of ``op``; with a tracer, an untraced and a traced run.

    The pair's order alternates, so machine drift and first-run costs fall
    on both sides alike; their difference is the tracing overhead.  The
    untraced time is returned.
    """
    if tracer is None:
        return _run(op, window)
    if len(window.pairs) % 2:
        traced = _run(op, window, tracer)
        plain = _run(op, window)
    else:
        plain = _run(op, window)
        traced = _run(op, window, tracer)
    window.pairs.append((plain, traced))
    return plain


def _run(op, window, tracer=None) -> float:
    if tracer is not None:
        tracer.op = window.attempted  # spans of one run share this id
    t0 = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # a failing op is counted, never fatal
        result, error = None, exc
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = None
    if error is not None:
        failure = f"raised {type(error).__name__}: {error}"
        decided = False if op.implies_verdict else None
    else:
        failure, decided = op.check(result)
    del result
    window.attempted += 1
    if failure is not None:
        window.failures.append(f"{op.name}: {failure}")
    if decided is not None:
        window.implied += 1
        window.decided += int(decided)
    return elapsed


def _execute(ops, i, window, tracer=None):
    """Run op ``i`` back to back until BURST_S is spent or BURST_RUNS runs
    are done, and record the median as the time of this slot.

    On a shared 2-core VM, timings showed sub-second bursts of 20% and more;
    the median of a few back-to-back runs keeps one burst from setting a
    slot's time.  Ops longer than BURST_S run once.
    """
    import statistics

    runs = [_execute_once(ops[i], window, tracer)]
    while len(runs) < BURST_RUNS and sum(runs) < BURST_S:
        runs.append(_execute_once(ops[i], window, tracer))
    window.times[i].append(statistics.median(runs))


def schedule(ops) -> list[int]:
    """Slot order of one pass: op indices over ``max(op.repeats)`` rounds.

    An op with ``repeats`` r > 1 has a slot in each of rounds 0..r-1.  Ops
    that run once are dealt out in list order, in contiguous blocks, one
    block per round.  So the runs of a cheap op spread across the heavy ones,
    and an op that runs once never comes before one listed ahead of it.
    """
    rounds = max(op.repeats for op in ops)
    singles = [i for i, op in enumerate(ops) if op.repeats == 1]
    slot = {i: k * rounds // len(singles) for k, i in enumerate(singles)}
    return [i for r in range(rounds) for i, op in enumerate(ops)
            if (slot[i] == r if i in slot else r < op.repeats)]


def run_window(ops, seconds, tracer=None) -> Window:
    """Closed loop from one client: whole passes while the next should fit.

    The client moves to the next allowed CPU at every slot, so a run
    averages over the CPUs it may use.  On a 2-vCPU VM whose vCPUs slowed
    down independently, this cut the spread of pass times from 26% to 20%.
    """
    order = schedule(ops)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    window = Window(len(ops))
    start = time.perf_counter()
    try:
        while True:
            pass_start = time.perf_counter()
            for n, i in enumerate(order):
                if len(cpus) > 1:
                    os.sched_setaffinity(0, {cpus[(n + window.passes) % len(cpus)]})
                _execute(ops, i, window, tracer)
            window.passes += 1
            now = time.perf_counter()
            if (now - start) + (now - pass_start) > seconds:
                return window
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)


def e2e_metrics(window: Window, setup_s: float) -> tuple[dict, dict]:
    """End-to-end values and how they were taken.

    Percentiles are over the window's slots, each slot valued at its op's
    median over all its slots in the window, so one slow moment moves no
    percentile by itself.  The tail is at the percentile that leaves
    TAIL_BEYOND slots of one pass above it: for one pass, the highest
    percentile with TAIL_BEYOND samples beyond it.  It depends only on the
    op list, so a faster program that fits more passes is compared at the
    same percentile.
    """
    import resource
    import statistics

    valued = sorted(t for times in window.times if times
                    for t in [statistics.median(times)] * len(times))
    slots = window.slots
    per_pass = len(valued) // window.passes
    if per_pass > TAIL_BEYOND:
        tail = valued[len(valued) - window.passes * TAIL_BEYOND - 1]
        pct = 100.0 * (per_pass - TAIL_BEYOND) / per_pass
    else:
        tail, pct = valued[-1], 100.0  # too few slots per pass for the rule: the maximum
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(slots) / sum(slots),
        "op_p50_ms": statistics.median(valued) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": len(window.failures) / window.attempted,
        "decided_frac": window.decided / window.implied if window.implied else None,
    }
    detail = {
        "op_tail_ms": f"p{pct:.2f} of {len(valued)} slots ({window.passes * TAIL_BEYOND} beyond it, "
                      f"{window.passes} passes)",
        "ops_per_s": "slots per second of op time; a slot's time is the median of its back-to-back "
                     "runs; the benchmark's checks are excluded",
        "decided_frac": f"{window.decided} of {window.implied} runs whose construction implies a verdict",
        "passes": window.passes,
    }
    return values, detail


def traced_window(ops, seconds, tracing) -> tuple[Window, dict, int]:
    """Run a traced window; return it, the per-layer values and the span count.

    The overhead is the median over run pairs, so a pair whose second run
    was cheaper for reasons of its own (a file that already exists, memory
    already mapped) does not set it.
    """
    import statistics

    with tracing.Tracer() as tracer:
        window = run_window(ops, seconds, tracer)
    layer = tracer.layer_metrics(len(window.pairs))
    layer["trace.overhead_ms"] = statistics.median(t - p for p, t in window.pairs) * 1e3
    layer["trace.overhead_pct"] = statistics.median(100.0 * (t / p - 1.0) for p, t in window.pairs)
    return window, layer, len(tracer.spans)


def _with_units(values, units):
    return {k: {"value": values[k], "unit": units[k]} for k in units}


# ---------------------------------------------------------------- provenance


def provenance(seed, ops) -> dict:
    import platform

    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    tags = sorted({t for op in ops for t in op.tags})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "ops_per_pass": len(ops),
        "tag_shares": {t: sum(t in op.tags for op in ops) / len(ops) for t in tags},
    }


# ---------------------------------------------------------------- one run


def _child_setup_seconds(args) -> float:
    import json
    import subprocess

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"bench: setup child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run(args) -> int:
    import json
    import shutil
    import statistics
    import tempfile

    t_age, age = time.perf_counter(), _process_age()
    _import_program()
    import tracing
    import workloads

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        build = workloads.WORKLOADS[args.workload]
        dirs = [os.path.join(workdir, name) for name in ("run", "warm")]
        for d in dirs:
            os.mkdir(d)
        ops = build(args.seed, False, dirs[0])
        tiny = build(args.seed, True, dirs[1])
        warm = Window(len(tiny))
        for op in tiny:
            _execute_once(op, warm)
        setup_s = age + time.perf_counter() - t_age
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        probes = [workloads.near_cutoff_probe()] if args.workload == "check-ops" else []

        windows = [warm]
        report = {"workload": args.workload, "trace": args.trace,
                  "provenance": provenance(args.seed, ops)}
        if args.trace == 0:
            setups = [setup_s] + [_child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
            timed = run_window(ops, args.seconds)
            windows.append(timed)
            values, detail = e2e_metrics(timed, statistics.median(setups))
            report["setup_s_samples"] = setups
            report["metrics"] = _with_units(values, {**E2E_UNITS, **REPORT_UNITS})
            report["detail"] = detail
            metrics = _with_units(values, E2E_UNITS)
        else:
            traced, layer, n_spans = traced_window(ops, args.seconds, tracing)
            windows.append(traced)
            units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
            report["untraced"] = _with_units(e2e_metrics(traced, setup_s)[0], {**E2E_UNITS, **REPORT_UNITS})
            report["metrics"] = {
                name: {"value": layer[name], "unit": unit, "moves": moves}
                for name, unit, _, moves in tracing.LAYER_METRICS
            }
            report["detail"] = {"traced_runs": len(traced.pairs), "spans": n_spans,
                                "per": "means per traced op run, except solved_frac"}
            metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}

        known = Window(len(probes))
        for probe in probes:
            _execute_once(probe, known)
        report["known_defects"] = {"probes": [p.name for p in probes], "failures": known.failures}

        attempted = sum(w.attempted for w in windows)
        failures = [f for w in windows for f in w.failures]
        report["failures"] = {"count": len(failures), "first": failures[:10]}
        print(json.dumps({"report": report}))
        print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run still uses it


# ---------------------------------------------------------------- smoke


def smoke() -> int:
    """Every workload at tiny sizes, traced and untraced; every metric checked."""
    import json
    import shutil
    import tempfile

    _import_program()
    import tracing
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared_e2e != E2E_UNITS:
        problems.append(f"BENCHMARK.json end_to_end {declared_e2e} != emitted {E2E_UNITS}")
    emitted_layer = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
    if declared_layer != emitted_layer:
        problems.append("BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
    if not sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS) == sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json, run.WORKLOADS and workloads.WORKLOADS name different workloads")

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=WORK)
    try:
        for name, build in workloads.WORKLOADS.items():
            ops = build(0, True, workdir)
            plain = run_window(ops, 0.0)
            values, _ = e2e_metrics(plain, 0.0)
            traced, layer, n_spans = traced_window(ops, 0.0, tracing)
            missing = [m for m in list(E2E_UNITS) + list(REPORT_UNITS) if m not in values]
            missing += [m for m in emitted_layer if m not in layer]
            failures = plain.failures + traced.failures
            problems += [f"{name}: metric {m} not emitted" for m in missing]
            problems += [f"{name}: {f}" for f in failures]
            print(f"smoke {name}: {len(ops)} ops, {n_spans} spans, "
                  f"{len(failures)} failures, {len(missing)} missing metrics")
        probe = Window(1)
        _execute_once(workloads.near_cutoff_probe(), probe)
        print(f"smoke near-cutoff probe: {probe.failures or 'passed'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    for p in problems:
        print(f"smoke problem: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = _parse(argv)
    return smoke() if args.smoke else run(args)


if __name__ == "__main__":
    sys.exit(main())
