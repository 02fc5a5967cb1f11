"""Runs passes of one workload inside this process and prints the timings.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``:

    python3 perfbench/worker.py --workload verify --seed 1 --seconds 50 --trace 0

Untraced, it repeats passes until ``--seconds`` have gone by.  Traced, it
alternates an untraced and a traced pass over the same inputs, so the
median difference of a traced pass and the untraced pass beside it is the
tracing overhead, and every count must come out the same in each traced
pass.  The last stdout line is JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time

import numpy as np

from syncqubits import classical, cli, entanglement, quantum, verify

from spans import Tracer, summarize, time_under
import workloads as wl

OUT_DIR = ".perfbench_out"

CLI_COMMANDS = ("quantum-evolve", "classical-sim", "sweep", "ppt", "stationary")


class Pass:
    """Op latencies of one pass and the errors its oracles found."""

    def __init__(self):
        self.op_s: list[float] = []
        self.errors: list[str] = []
        self.wall_s = 0.0


def _timed(p: Pass, fn, *args):
    """Run one op.  An exception fails the op, which then returns None."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:
        p.errors.append(f"{fn.__name__}: {exc!r}")
        result = None
    p.op_s.append(time.perf_counter() - start)
    return result


def verify_pass(seed: int):
    op_seed = wl.verify_seed(seed)

    def run(tracer) -> Pass:
        p = Pass()
        results = _timed(p, verify.run_all, op_seed)
        if results is None:
            return p
        failed = [r.key for r in results if not r.passed]
        if failed or len(results) != wl.VERIFY_CHECKS:
            p.errors.append(f"run_all({op_seed}): {len(results)} checks, failed {failed}")
        return p

    return run


def cli_pass(seed: int):
    """cli-export in process: ``cli.main(argv)`` per op, stdout captured."""
    plan = wl.cli_ops(seed, OUT_DIR)

    def main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
        return code, out.getvalue()

    def run(tracer) -> Pass:
        p = Pass()
        results = []
        for name, argv, _, path in plan:
            fn = tracer.wrap("cli." + name, main, _bytes(path)) if tracer else main
            results.append(_timed(p, fn, [name, *argv]))
        for (name, argv, fmt, path), result in zip(plan, results):
            if result is not None:
                p.errors.append(wl.cli_error(name, argv, fmt, path, *result))
        p.errors = [e for e in p.errors if e]
        return p

    return run


def _bytes(path):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(path)}


PASSES = {"verify": verify_pass, "cli-export": cli_pass}


def warm_up() -> None:
    """First calls into numpy's LAPACK wrappers and the package, untimed."""
    ops = quantum.build_operators()
    quantum.evolve(np.eye(4) / 4.0, ops, 0.1, 1e-2)
    classical.integrate([0.0, 0.6, 0.8], 0.1, 1e-2)
    entanglement.sweep(3)


def timed_pass(run, tracer=None) -> Pass:
    start = time.perf_counter()
    p = run(tracer)
    p.wall_s = time.perf_counter() - start
    return p


def layer_metrics(spans) -> dict:
    s = summarize(spans)
    names, layers = s["names"], s["layers"]

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    m = {}
    for name in ("quantum.evolve", "classical.integrate"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.steps"] = get(name, "steps")
        m[f"{name}.s"] = get(name, "s")
        steps = get(name, "steps")
        m[f"{name}.us_per_step"] = 1e6 * get(name, "s") / steps if steps else 0.0
    for name in ("quantum.lindblad_rhs", "quantum.stationary_state",
                 "quantum.project_to_stationary", "linalg.hermitian_eigensystem"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
    for name in ("entanglement.ppt_analyze", "entanglement.cubic_roots"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    sweep = "entanglement.sweep"
    m[f"{sweep}.calls"] = get(sweep, "calls")
    m[f"{sweep}.points"] = get(sweep, "points")
    m[f"{sweep}.s"] = get(sweep, "s")
    m[f"{sweep}.valid_ratio"] = get(sweep, "rows") / get(sweep, "points") if get(sweep, "points") else 0.0
    run_all = get("verify.run_all", "s")
    ensembles = time_under(spans, "verify.run_all", ("classical.integrate", "quantum.evolve"))
    m["verify.run_all.s"] = run_all
    m["verify.ensembles_s"] = ensembles
    m["verify.checks_s"] = run_all - ensembles
    m["verify.checks_passed"] = get("verify.run_all", "passed")
    for c in CLI_COMMANDS:
        m[f"cli.{c}.s"] = get(f"cli.{c}", "s")
        m[f"cli.{c}.bytes"] = get(f"cli.{c}", "bytes")
        m[f"cli.{c}.self_s"] = get(f"cli.{c}", "self_s")
    for layer in ("linalg", "classical", "quantum", "entanglement", "verify", "cli"):
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.makedirs(OUT_DIR, exist_ok=True)
    run = PASSES[args.workload](args.seed)
    warm_up()

    untraced: list[Pass] = []
    traced: list[Pass] = []
    per_pass: list[dict] = []
    tracer = Tracer()
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        # every other pair runs its traced pass first, so that neither side
        # always pays for the first pass's growth of the heap
        traced_first = args.trace and len(traced) % 2 == 1
        if not traced_first:
            untraced.append(timed_pass(run))
        if args.trace:
            tracer.spans.clear()
            tracer.install()
            try:
                traced.append(timed_pass(run, tracer))
            finally:
                tracer.uninstall()
            per_pass.append(layer_metrics(tracer.spans))
        if traced_first:
            untraced.append(timed_pass(run))

    passes = untraced + traced
    result = {
        "pass_s": [p.wall_s for p in untraced],
        "op_s": [t for p in untraced for t in p.op_s],
        "attempted": sum(len(p.op_s) for p in passes),
        "errors": [e for p in passes for e in p.errors],
    }
    if args.trace:
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.csv"))
        layers = {k: statistics.median(pp[k] for pp in per_pass) for k in per_pass[0]}
        # integer metrics are counts: identical inputs must give identical counts
        for key in [k for k, v in per_pass[0].items() if isinstance(v, int)]:
            values = {pp[key] for pp in per_pass}
            if len(values) != 1:
                result["errors"].append(f"{key} differs between traced passes: {sorted(values)}")
            layers[key] = per_pass[0][key]
        layers["trace.traced_wall_s"] = statistics.median(p.wall_s for p in traced)
        layers["trace.untraced_wall_s"] = statistics.median(p.wall_s for p in untraced)
        # each traced pass against the untraced pass run beside it, so a
        # drift of the machine's speed over the run cancels; within noise,
        # and negative when tracing costs less than the noise
        layers["trace.overhead_s"] = statistics.median(
            t.wall_s - u.wall_s for t, u in zip(traced, untraced))
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
