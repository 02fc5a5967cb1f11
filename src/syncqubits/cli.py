"""Command-line interface: simulate, analyze, sweep, verify.

Subcommands
-----------
classical-sim    integrate the classical model; columns t,lx,ly,lz,H,S,k
quantum-evolve   integrate the master equation; observable columns per step
stationary       print a stationary density matrix with its spectrum (JSON)
ppt              print the partial-transpose spectrum report (JSON)
sweep            tabulate entanglement verdicts over the (a, c) grid
verify           run the numbered self-checks and report PASS/FAIL

Data goes to ``--out PATH`` when given, otherwise to standard output (the
human-readable summary lines then move to standard error so piped data
stays clean).  A JSON ``--config`` file may supply any long-option value,
keyed by option name with underscores; explicit flags win over the file.
Floats in CSV output carry 17 significant digits, so equal inputs produce
byte-identical files.

Exit codes: 0 success, 1 failed verification checks, 2 bad arguments or
invalid input data, 3 runtime guard tripped (divergence, positivity loss).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .classical import StepTooLarge, Trajectory, integrate
from .entanglement import ppt_analyze, sweep
from .linalg import hermitian_eigensystem
from .quantum import (
    InvalidParams,
    PositivityLost,
    StationaryParams,
    build_operators,
    check_density_matrix,
    density_matrix_from_json,
    density_matrix_to_json,
    evolve,
    project_to_stationary,
    stationary_state,
)
from .verify import run_all

_REQUIRED = object()

_DEFAULTS = {
    "classical-sim": {
        "init": "0,0.6,0.8",
        "t_final": 20.0,
        "dt": 1e-3,
        "out": None,
        "format": "csv",
    },
    "quantum-evolve": {
        "init": "mixed",
        "t_final": 20.0,
        "dt": 1e-3,
        "out": None,
        "format": "csv",
    },
    "stationary": {"a": _REQUIRED, "c_re": 0.0, "c_im": 0.0, "out": None},
    "ppt": {"a": _REQUIRED, "c_re": 0.0, "c_im": 0.0, "out": None},
    "sweep": {"grid": 21, "out": None, "format": "csv"},
    "verify": {"out": None},
}


def _fmt(x: float) -> str:
    """17 significant digits, enough to round-trip a double exactly."""
    return format(float(x), ".17g")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncqubits",
        description="Synchronization of two dissipatively coupled qubits: "
        "classical flow, master equation, stationary states, entanglement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kw = {"default": argparse.SUPPRESS}

    p = sub.add_parser("classical-sim", help="integrate the classical three-variable flow")
    p.add_argument("--init", help="initial lx,ly,lz (default 0,0.6,0.8)", **kw)
    p.add_argument("--t-final", type=float, dest="t_final", help="integration time (default 20)", **kw)
    p.add_argument("--dt", type=float, help="RK4 step (default 1e-3)", **kw)

    p = sub.add_parser("quantum-evolve", help="integrate the two-qubit master equation")
    p.add_argument(
        "--init",
        help="'mixed', 'basis:IJ' with I,J in {0,1}, or a density-matrix JSON file "
        "(default mixed)",
        **kw,
    )
    p.add_argument("--t-final", type=float, dest="t_final", help="integration time (default 20)", **kw)
    p.add_argument("--dt", type=float, help="RK4 step (default 1e-3)", **kw)

    for name, blurb in (
        ("stationary", "print a stationary density matrix and its spectrum"),
        ("ppt", "partial-transpose spectrum and separability verdict"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--a", type=float, help="weight of the in-phase projector (required)", **kw)
        p.add_argument("--c-re", type=float, dest="c_re", help="Re c (default 0)", **kw)
        p.add_argument("--c-im", type=float, dest="c_im", help="Im c (default 0)", **kw)

    p = sub.add_parser("sweep", help="entanglement verdicts over the (a, c) grid")
    p.add_argument("--grid", type=int, help="points per axis (default 21)", **kw)

    sub.add_parser("verify", help="run the numbered self-checks")

    for name, p in sub.choices.items():
        p.add_argument("--out", help="write data here instead of standard output", **kw)
        if "format" in _DEFAULTS[name]:
            p.add_argument("--format", choices=("csv", "json"), help="data format (default csv)", **kw)
        p.add_argument("--config", help="JSON file with default option values", **kw)
    return parser


def _option_types(parser: argparse.ArgumentParser, command: str) -> dict:
    """Option name -> the converter argparse applies to its flag text."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.type or str for a in sub.choices[command]._actions}


def _coerce(key: str, value, kind):
    """A config value converted as if its JSON text had been typed as the flag."""
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        return kind(text)
    except ValueError:
        raise ValueError(
            f"config value {key!r} must be {kind.__name__}, got {value!r}"
        ) from None


def _merge_config(args: argparse.Namespace, types: dict) -> dict:
    """defaults < config file < explicit flags, per command; config values
    get their option's type, and a null keeps the default."""
    values = dict(_DEFAULTS[args.command])
    explicit = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    path = getattr(args, "config", None)
    if path is not None:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, val in loaded.items():
            norm = str(key).replace("-", "_")
            if norm in values:
                if val is not None:
                    values[norm] = _coerce(key, val, types[norm])
            else:
                print(f"warning: ignoring unknown config key {key!r}", file=sys.stderr)
    values.update(explicit)
    for key, val in values.items():
        if val is _REQUIRED:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
    if values.get("format") not in (None, "csv", "json"):
        raise ValueError(f"format must be csv or json, got {values['format']!r}")
    return values


def _emit(text: str, out_path):
    """Write the data payload; returns the stream summaries should use."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        return sys.stdout
    sys.stdout.write(text)
    return sys.stderr


def _parse_triple(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {text!r}")
    return [float(p) for p in parts]


def _trajectory_csv(traj: Trajectory) -> str:
    lines = ["t,lx,ly,lz,H,S,k"]
    for i in range(traj.times.size):
        lx, ly, lz = traj.states[i]
        k = traj.k_values[i]
        lines.append(
            ",".join(
                [
                    _fmt(traj.times[i]),
                    _fmt(lx),
                    _fmt(ly),
                    _fmt(lz),
                    _fmt(traj.h_values[i]),
                    _fmt(traj.s_values[i]),
                    "" if np.isnan(k) else _fmt(k),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _trajectory_json(traj: Trajectory) -> str:
    k = [None if np.isnan(v) else v for v in traj.k_values.tolist()]
    payload = {
        "t": traj.times.tolist(),
        "lx": traj.states[:, 0].tolist(),
        "ly": traj.states[:, 1].tolist(),
        "lz": traj.states[:, 2].tolist(),
        "H": traj.h_values.tolist(),
        "S": traj.s_values.tolist(),
        "k": k,
    }
    return json.dumps(payload) + "\n"


def _cmd_classical_sim(cfg) -> int:
    init = _parse_triple(cfg["init"])
    traj = integrate(init, cfg["t_final"], cfg["dt"])
    body = _trajectory_csv(traj) if cfg["format"] == "csv" else _trajectory_json(traj)
    stream = _emit(body, cfg["out"])
    lx, ly, lz = traj.states[-1]
    max_dh = float(np.abs(traj.h_values - traj.h_values[0]).max())
    print(f"final state: lx={_fmt(lx)} ly={_fmt(ly)} lz={_fmt(lz)}", file=stream)
    print(f"max |dH|: {_fmt(max_dh)}", file=stream)
    return 0


def _parse_initial_density(text: str) -> np.ndarray:
    if text == "mixed":
        return np.eye(4, dtype=complex) / 4.0
    if text.startswith("basis:"):
        label = text[len("basis:"):]
        if len(label) == 2 and set(label) <= {"0", "1"}:
            idx = int(label, 2)
            rho = np.zeros((4, 4), dtype=complex)
            rho[idx, idx] = 1.0
            return rho
        raise ValueError(f"bad basis label {label!r}, expected two bits")
    try:
        with open(text) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read initial state {text!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{text!r} is not valid JSON: {exc}") from exc
    return check_density_matrix(density_matrix_from_json(payload))


def _cmd_quantum_evolve(cfg) -> int:
    rho0 = _parse_initial_density(cfg["init"])
    ops = build_operators()
    pairs = evolve(rho0, ops, cfg["t_final"], cfg["dt"])
    times = np.array([t for t, _ in pairs])
    states = np.stack([s for _, s in pairs])
    columns = {
        "t": times,
        "lx_avg": np.einsum("tij,ji->t", states, ops.lx).real,
        "ly_avg": np.einsum("tij,ji->t", states, ops.ly).real,
        "lz_avg": np.einsum("tij,ji->t", states, ops.lz).real,
        "l2_avg": np.einsum("tij,ji->t", states, ops.l_squared).real,
        "trace": np.einsum("tii->t", states).real,
        "min_eig": np.linalg.eigvalsh(states)[:, 0],
    }
    if cfg["format"] == "csv":
        names = list(columns)
        lines = [",".join(names)]
        for i in range(times.size):
            lines.append(",".join(_fmt(columns[n][i]) for n in names))
        body = "\n".join(lines) + "\n"
    else:
        body = json.dumps({n: v.tolist() for n, v in columns.items()}) + "\n"
    stream = _emit(body, cfg["out"])
    fit = project_to_stationary(states[-1])
    print(
        f"stationary fit: a={_fmt(fit.a)} b={_fmt(fit.b)} "
        f"c_re={_fmt(fit.c.real)} c_im={_fmt(fit.c.imag)} residual={_fmt(fit.residual)}",
        file=stream,
    )
    return 0


def _params_from(cfg) -> StationaryParams:
    a = cfg["a"]
    return StationaryParams(a, 1.0 - a, complex(cfg["c_re"], cfg["c_im"]))


def _cmd_stationary(cfg) -> int:
    params = _params_from(cfg)
    rho = stationary_state(params)
    spectrum = hermitian_eigensystem(rho)
    disc = max(1.0 - 4.0 * (params.a * params.b - abs(params.c) ** 2), 0.0)
    payload = {
        "a": params.a,
        "b": params.b,
        "c_re": params.c.real,
        "c_im": params.c.imag,
        "rho": density_matrix_to_json(rho),
        "eigenvalues": spectrum.eigenvalues.tolist(),
        "quadratic_roots": [0.5 * (1.0 - disc**0.5), 0.5 * (1.0 + disc**0.5)],
    }
    _emit(json.dumps(payload, indent=2) + "\n", cfg["out"])
    return 0


def _cmd_ppt(cfg) -> int:
    report = ppt_analyze(_params_from(cfg))
    closed = report.closed_form_eigenvalues
    payload = {
        "a": cfg["a"],
        "c_re": cfg["c_re"],
        "c_im": cfg["c_im"],
        "eigenvalues": report.eigenvalues.tolist(),
        "min_eigenvalue": report.min_eigenvalue,
        "negativity": report.negativity,
        "separable": report.separable,
        "closed_form_eigenvalues": None if closed is None else closed.tolist(),
    }
    _emit(json.dumps(payload, indent=2) + "\n", cfg["out"])
    return 0


def _cmd_sweep(cfg) -> int:
    rows = sweep(cfg["grid"])
    if cfg["format"] == "csv":
        lines = ["a,c,min_pt_eigenvalue,negativity,separable"]
        for r in rows:
            lines.append(
                ",".join(
                    [
                        _fmt(r.a),
                        _fmt(r.c),
                        _fmt(r.min_pt_eigenvalue),
                        _fmt(r.negativity),
                        "true" if r.separable else "false",
                    ]
                )
            )
        body = "\n".join(lines) + "\n"
    else:
        body = json.dumps([dataclasses.asdict(r) for r in rows]) + "\n"
    _emit(body, cfg["out"])
    return 0


def _cmd_verify(cfg) -> int:
    results = run_all()
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.number:2d} {r.key}: {r.detail}"
        for r in results
    ]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", cfg["out"])
    return 0 if n_pass == len(results) else 1


_HANDLERS = {
    "classical-sim": _cmd_classical_sim,
    "quantum-evolve": _cmd_quantum_evolve,
    "stationary": _cmd_stationary,
    "ppt": _cmd_ppt,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args, _option_types(parser, args.command))
        return _HANDLERS[args.command](cfg)
    except (StepTooLarge, PositivityLost) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidParams, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
