"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

For every workload it makes two one-second traced runs with seed 7 and
requires both to pass their oracles and every count metric (calls, steps,
points, bytes, checks passed) to be identical in the two.  On ``verify``
it also requires ``lindblad_rhs`` to be called four times per ``evolve``
step plus the 100 direct calls of check 11.  Last, it requires the benchmark
to fail, without a result line, in a directory holding only the
benchmark.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402

COUNT_UNITS = ("count", "bytes")
SEED = 7
SECONDS = 1


def traced_run(workload: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=180)
    return json.loads(out.stdout.splitlines()[-1])


def bare_directory_fails() -> str | None:
    """The benchmark alone, without src/, must exit nonzero and print no result."""
    bare = os.path.abspath(os.path.join(".perfbench_out", "bare"))
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    cmd = [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload", "verify",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if out.returncode == 0 or '"correct"' in out.stdout:
        return f"without src/ the benchmark exited {out.returncode} and printed {out.stdout!r}"
    return None


def main() -> int:
    problems = []
    for workload in wl.WORKLOADS:
        first, second = (traced_run(workload) for _ in range(2))
        for res in (first, second):
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload}: {res['failed']} of {res['attempted']} ops failed")
        counts = {k for k, m in first["metrics"].items() if m["unit"] in COUNT_UNITS}
        for key in sorted(counts):
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            if a != b:
                problems.append(f"{workload}: {key} is {a} in one run and {b} in the other")
        if workload == "verify":
            m = {k: v["value"] for k, v in first["metrics"].items()}
            expected = 4 * m["quantum.evolve.steps"] + 100
            if m["quantum.lindblad_rhs.calls"] != expected:
                problems.append(f"verify: {m['quantum.lindblad_rhs.calls']} lindblad_rhs calls, "
                                f"expected {expected}")
        print(f"{workload}: {len(counts)} counts compared", flush=True)
    err = bare_directory_fails()
    if err:
        problems.append(err)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
