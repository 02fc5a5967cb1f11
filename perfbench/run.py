"""End-to-end benchmark of syncqubits.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 50 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``verify``      one in-process ``verify.run_all(seed)`` per op and pass;
* ``cli-export``  25 CLI subcommands per pass, each a fresh
                  interpreter writing to ``--out``, one after another.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around the package's public functions and reports the
per-layer metrics instead.  Every op's output goes through an oracle.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
Exit code 2 means the benchmark could not run (for example, no ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads as wl  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 10
#: a run must end well inside 180 s; subprocesses still alive then are killed
DEADLINE_S = 170.0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: percentiles tried for op_tail_s, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: highest percentile op_tail_s may use per workload.  A run's op count
#: varies with speed, and the cap keeps the percentile on the same kind of
#: op: without it a cli-export run of 4 passes (100 ops) would report p90,
#: the sweep op, where one of 3 passes reports p75, a classical-sim op.
TAIL_CAP = {"cli-export": 75.0}
SETUP_CODE = (
    "import syncqubits, numpy, json; syncqubits.build_operators(); syncqubits.kernel_basis(); "
    "print(json.dumps({'module': syncqubits.__file__, 'numpy': numpy.__version__}))"
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run here."""


def child_env() -> dict:
    """Environment of every process the benchmark starts: the checkout's
    ``src`` first on the import path, BLAS pools pinned to one thread (the
    package's matrices are at most 16x16, where threads only add noise)."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(cmd: list[str], env: dict, deadline: float, stdout_path: str) -> tuple[int, float]:
    """Run ``cmd`` to completion with stdout in a file; returns (exit code,
    wall seconds).  The wait blocks in waitpid, so the time has no polling
    slack; a timer kills the child if the run's deadline passes."""
    with open(stdout_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        return code, time.perf_counter() - start


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values: list[float], cap: float) -> tuple[float, str]:
    """The highest ladder percentile up to ``cap`` with at least 10 ops
    beyond it; with fewer than 20 ops no percentile qualifies and the
    maximum is reported."""
    n = len(values)
    for p in TAIL_LADDER:
        if p <= cap and n * (100.0 - p) / 100.0 >= 10.0:
            return percentile(values, p), f"p{p:g}"
    return max(values), "max"


def setup_probe(env: dict, deadline: float) -> tuple[float, str]:
    """One fresh interpreter importing the package and building its
    operators; returns its wall time and what it printed."""
    path = os.path.join(OUT_DIR, "setup.out")
    code, seconds = run_child([sys.executable, "-c", SETUP_CODE], env, deadline, path)
    if code != 0:
        raise BenchError(f"importing syncqubits from src/ failed (exit {code})")
    with open(path) as fh:
        return seconds, fh.read()


def cli_export(env: dict, seed: int, seconds: float, deadline: float) -> dict:
    """Passes of subprocess CLI ops until ``seconds`` have gone by."""
    ops = wl.cli_ops(seed, OUT_DIR)
    pass_s, op_s, errors = [], [], []
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < seconds:
        codes = []
        t0 = time.perf_counter()
        for name, argv, _, path in ops:
            cmd = [sys.executable, "-m", "syncqubits.cli", name, *argv]
            code, seconds_op = run_child(cmd, env, deadline, path + ".stdout")
            op_s.append(seconds_op)
            codes.append(code)
        pass_s.append(time.perf_counter() - t0)
        # oracles after the pass, so their time is not in the pass
        for (name, argv, fmt, path), code in zip(ops, codes):
            with open(path + ".stdout") as fh:
                errors.append(wl.cli_error(name, argv, fmt, path, code, fh.read()))
        if time.monotonic() > deadline:
            raise BenchError("cli-export passes overran the run deadline")
    return {"pass_s": pass_s, "op_s": op_s, "attempted": len(op_s),
            "errors": [e for e in errors if e]}


def in_process(env: dict, workload: str, seed: int, seconds: float, trace: int,
               deadline: float) -> dict:
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(here, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    path = os.path.join(OUT_DIR, f"worker-{workload}.out")
    code, _ = run_child(cmd, env, deadline, path)
    if code != 0:
        raise BenchError(f"worker for {workload} exited with {code}")
    with open(path) as fh:
        return json.loads(fh.read().splitlines()[-1])


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open("BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def git_sha() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description="syncqubits end-to-end benchmark")
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join("src", "syncqubits", "__init__.py")):
        print("error: run from the repository root; src/syncqubits is missing", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = child_env()
    try:
        # the first probe fills the bytecode cache and is not timed
        info = json.loads(setup_probe(env, deadline)[1])
        src = os.path.abspath("src") + os.sep
        if not os.path.abspath(info["module"]).startswith(src):
            raise BenchError(f"imported {info['module']}, not the package under {src}")
        # half the timed probes before the workload and half after, so that
        # their median spans the run's changes in machine load
        setup = [setup_probe(env, deadline)[0] for _ in range(SETUP_REPEATS // 2)]
        if args.workload == "cli-export" and not args.trace:
            res = cli_export(env, args.seed, args.seconds, deadline)
        else:
            res = in_process(env, args.workload, args.seed, args.seconds, args.trace, deadline)
        setup += [setup_probe(env, deadline)[0] for _ in range(SETUP_REPEATS - len(setup))]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    record_env = {
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "blas_threads": {v: env[v] for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }
    failed = len(res["errors"])
    tail_s, tail_label = tail(res["op_s"], TAIL_CAP.get(args.workload, 100.0))
    notes = {
        "wall_s": f"median of {len(res['pass_s'])} passes",
        "op_p50_s": f"median of {len(res['op_s'])} ops",
        "op_tail_s": f"{tail_label} of {len(res['op_s'])} ops",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters, half before and half after",
        "peak_rss_mb": "largest resident set of any process the run started",
    }
    if args.trace:
        values = res["layers"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(res["pass_s"]),
            "op_p50_s": statistics.median(res["op_s"]),
            "op_tail_s": tail_s,
            "peak_rss_mb": peak_mb,
        }
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        print(f"error: measured {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(record_env, sort_keys=True))
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':40s} {failed / res['attempted']:.6g} ({failed} of {res['attempted']} ops)")
    for err in res["errors"][:20]:
        print(f"  FAIL {err}")
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
