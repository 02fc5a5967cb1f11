"""Inputs and output oracles of the two benchmark workloads.

Standard library only: ``run.py`` imports this module without numpy.
Every input comes from ``random.Random(seed)``, so one seed always gives
one input set.

The oracles compare outputs with closed forms or invariants at tolerances
far above rounding, so a change that moves only the last bits of a result
(such as replacing RK4 stages by the equivalent propagator matrix) still
passes.  Each returns an error string, or None when the output is right.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("verify", "cli-export")

VERIFY_CHECKS = 13

# cli-export mix, 25 ops: 2 quantum-evolve, CLI_CLASSICAL classical-sim, one
# sweep and CLI_SMALL each of ppt and stationary.  The small ops are 64 % of
# the ops, so the median op is one of them; classical-sim fills 64-88 %, so
# p75, the highest tail percentile run.py allows on cli-export, is one of those
CLI_T_FINAL = 20.0
CLI_DT = 1e-3
CLI_GRID = 101
CLI_CLASSICAL = 6
CLI_SMALL = 8

#: |trace - 1| allowed on every recorded quantum state
TRACE_TOL = 1e-10
#: stationary-fit residual after t = 20 (check 13 uses the same bound)
FIT_TOL_LONG = 1e-8
#: lowest eigenvalue allowed along a quantum trajectory
EIG_FLOOR = -1e-8
#: classical endpoint against lx = R tanh(2 R t + atanh(lx0 / R)); RK4 gets 8e-12
CLASSICAL_TOL = 1e-8
#: spectra and negativity of exactly known stationary states
SPECTRUM_TOL = 1e-10
#: mirrors quantum.PARAM_TOL, the slack the sweep uses to skip invalid points
PARAM_TOL = 1e-12


def verify_seed(seed: int) -> int:
    """The seed handed to ``verify.run_all``."""
    return random.Random(seed).randrange(1, 2**31)


def _stationary_coefficients(rng: random.Random, max_a: float, complex_c: bool):
    a = rng.uniform(0.0, max_a)
    cap = math.sqrt(a * (1.0 - a))
    if complex_c:
        r = cap * rng.random()
        phase = 2.0 * math.pi * rng.random()
        return a, r * math.cos(phase), r * math.sin(phase)
    return a, rng.uniform(-cap, cap), 0.0


def _fmt(x: float) -> str:
    return format(x, ".17g")


def cli_ops(seed: int, out_dir: str) -> list[tuple[str, list[str], str, str]]:
    """One cli-export pass: (subcommand, arguments, format, output file).

    Values are passed as ``--flag=value``: argparse would take a separate
    ``-0.8,0.1,0.2`` for an option name."""
    rng = random.Random(seed)
    long_run = [f"--t-final={_fmt(CLI_T_FINAL)}", f"--dt={_fmt(CLI_DT)}"]
    ops = [
        ("quantum-evolve", ["--init", "mixed", "--format", "csv", *long_run], "csv"),
        ("quantum-evolve", ["--init", "basis:01", "--format", "json", *long_run], "json"),
    ]
    for i in range(CLI_CLASSICAL):
        while True:
            v = [rng.gauss(0.0, 1.0) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in v))
            length = math.sqrt(rng.uniform(0.25, 4.0))
            init = [length * x / norm for x in v]
            # keep away from the ly = lz = 0 line, where nothing moves
            if abs(init[1]) + abs(init[2]) > 0.1:
                break
        fmt = ("csv", "json")[i % 2]
        init_arg = ",".join(map(_fmt, init))
        ops.append(("classical-sim", [f"--init={init_arg}", "--format", fmt, *long_run], fmt))
    ops.append(("sweep", [f"--grid={CLI_GRID}", "--format", "csv"], "csv"))
    singlet = (0.0, 0.0, 0.0)
    ppt = [singlet] + [
        _stationary_coefficients(rng, 0.95, complex_c=i % 2 == 1) for i in range(CLI_SMALL - 1)
    ]
    stationary = [_stationary_coefficients(rng, 1.0, complex_c=i % 2 == 1) for i in range(CLI_SMALL)]
    for name, triples in (("ppt", ppt), ("stationary", stationary)):
        for a, c_re, c_im in triples:
            coeffs = [f"--a={_fmt(a)}", f"--c-re={_fmt(c_re)}", f"--c-im={_fmt(c_im)}"]
            ops.append((name, coeffs, "json"))
    plan = []
    for i, (name, argv, fmt) in enumerate(ops):
        path = os.path.join(out_dir, f"cli-op{i:02d}.{fmt}")
        plan.append((name, [*argv, f"--out={path}"], fmt, path))
    return plan


def _arg(argv: list[str], flag: str) -> str:
    return next(a.split("=", 1)[1] for a in argv if a.startswith(flag + "="))


# ---------------------------------------------------------------------------
# oracles


def ppt_error(a: float, negativity: float, separable: bool, min_eigenvalue: float):
    """Every stationary state with b = 1 - a > 0 is entangled, and the pure
    singlet a = 0 has negativity exactly 1/2."""
    if a < 1.0 and (separable or not min_eigenvalue < 0.0):
        return f"a = {a!r} reported separable (min eigenvalue {min_eigenvalue!r})"
    if a == 0.0 and abs(negativity - 0.5) > SPECTRUM_TOL:
        return f"singlet negativity {negativity!r}, expected 0.5"
    return None


def sweep_row_count(grid_n: int) -> int:
    """Grid points of ``sweep(grid_n)`` that admit a state, counted independently."""
    step = 1.0 / (grid_n - 1)
    axis = [i * step for i in range(grid_n - 1)] + [1.0]
    count = 0
    for a in axis:
        for c in axis:
            c -= 0.5
            count += c * c <= a * (1.0 - a) + PARAM_TOL
    return count


def sweep_error(grid_n: int, rows) -> str | None:
    """``rows`` holds (a, min eigenvalue, negativity, separable) per row."""
    expected = sweep_row_count(grid_n)
    if len(rows) != expected:
        return f"sweep --grid {grid_n} gave {len(rows)} rows, expected {expected}"
    for a, min_eig, negativity, separable in rows:
        if a < 1.0:
            err = ppt_error(a, negativity, separable, min_eig)
            if err:
                return "sweep: " + err
        elif not separable:
            return "sweep: the b = 0 corner is not separable"
    return None


def chain_error(trace: float, residual: float, tol: float) -> str | None:
    if abs(trace - 1.0) > TRACE_TOL:
        return f"trace {trace!r} drifted from 1"
    if not residual <= tol:
        return f"stationary-fit residual {residual!r} above {tol:g}"
    return None


def _classical_error(argv: list[str], text: str, fmt: str) -> str | None:
    lx0, ly0, lz0 = (float(x) for x in _arg(argv, "--init").split(","))
    t_final, dt = float(_arg(argv, "--t-final")), float(_arg(argv, "--dt"))
    n_steps = round(t_final / dt)
    if fmt == "csv":
        lines = text.splitlines()
        col = lines[0].split(",").index("lx")
        lx = [float(line.split(",")[col]) for line in lines[1:]]
    else:
        lx = json.loads(text)["lx"]
    if len(lx) != n_steps + 1:
        return f"classical-sim wrote {len(lx)} rows, expected {n_steps + 1}"
    radius = math.sqrt(lx0 * lx0 + ly0 * ly0 + lz0 * lz0)
    phase = math.atanh(lx0 / radius)
    # two early rows, where lx still moves, and the endpoint
    for i in (n_steps // 80, n_steps // 20, n_steps):
        exact = radius * math.tanh(2.0 * radius * i * dt + phase)
        if abs(lx[i] - exact) > CLASSICAL_TOL:
            return f"classical-sim lx at t = {i * dt:g} is {lx[i]!r}, closed form {exact!r}"
    return None


def _quantum_error(argv: list[str], text: str, fmt: str, stdout: str) -> str | None:
    n_steps = round(float(_arg(argv, "--t-final")) / float(_arg(argv, "--dt")))
    if fmt == "csv":
        lines = text.splitlines()
        names = lines[0].split(",")
        table = [line.split(",") for line in lines[1:]]
        traces = [float(r[names.index("trace")]) for r in table]
        min_eigs = [float(r[names.index("min_eig")]) for r in table]
    else:
        cols = json.loads(text)
        traces, min_eigs = cols["trace"], cols["min_eig"]
    if len(traces) != n_steps + 1:
        return f"quantum-evolve wrote {len(traces)} rows, expected {n_steps + 1}"
    worst = max(abs(t - 1.0) for t in traces)
    if worst > TRACE_TOL:
        return f"quantum-evolve trace drifted by {worst!r}"
    if min(min_eigs) < EIG_FLOOR:
        return f"quantum-evolve lost positivity ({min(min_eigs)!r})"
    fit = [w for w in stdout.split() if w.startswith("residual=")]
    if not fit:
        return "quantum-evolve printed no stationary fit"
    return chain_error(1.0, float(fit[0].split("=", 1)[1]), FIT_TOL_LONG)


def _stationary_error(text: str) -> str | None:
    out = json.loads(text)
    a, b = out["a"], out["b"]
    disc = max(1.0 - 4.0 * (a * b - out["c_re"] ** 2 - out["c_im"] ** 2), 0.0)
    expected = sorted([0.0, 0.0, 0.5 * (1.0 - math.sqrt(disc)), 0.5 * (1.0 + math.sqrt(disc))])
    gap = max(abs(x - y) for x, y in zip(out["eigenvalues"], expected))
    dim = out["rho"]["dim"]
    trace = sum(out["rho"]["re"][i * dim + i] for i in range(dim))
    if gap > SPECTRUM_TOL or abs(trace - 1.0) > SPECTRUM_TOL:
        return f"stationary spectrum off by {gap!r}, trace {trace!r}"
    return None


def cli_error(name: str, argv: list[str], fmt: str, path: str, code: int, stdout: str):
    """Oracle for one cli-export op, given its exit code and stdout."""
    if code != 0:
        return f"{name} {' '.join(argv)} exited with {code}"
    with open(path) as fh:
        text = fh.read()
    if name == "classical-sim":
        return _classical_error(argv, text, fmt)
    if name == "quantum-evolve":
        return _quantum_error(argv, text, fmt, stdout)
    if name == "sweep":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        rows = [(float(r[0]), float(r[2]), float(r[3]), r[4] == "true") for r in rows]
        return sweep_error(int(_arg(argv, "--grid")), rows)
    if name == "ppt":
        out = json.loads(text)
        return ppt_error(out["a"], out["negativity"], out["separable"], out["min_eigenvalue"])
    if name == "stationary":
        return _stationary_error(text)
    raise ValueError(f"no oracle for {name!r}")
