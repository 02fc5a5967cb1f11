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
stays clean).  Tables are computed and written a block of rows at a time.
A CSV export's memory does not grow with the length of the run; JSON's
object of lists needs whole columns, so it holds its columns, but never the
states.  ``--out`` is written as a temporary file beside it that replaces
it only once the run has succeeded: a run that fails leaves no file, or the
old one as it was.  A path that is not a regular file, such as /dev/null,
is written directly.  On standard output, a run that exits 3 may already
have printed part of its table.  A JSON ``--config`` file may supply any
long-option value, keyed by option name with underscores; explicit flags
win over the file.
Floats in CSV output carry 17 significant digits, so equal inputs produce
byte-identical files.

Exit codes: 0 success, 1 failed verification checks, 2 bad arguments or
invalid input data, 3 runtime guard tripped (divergence, positivity loss),
4 internal error (an unexpected exception, reported on one line), 141
(128 + SIGPIPE) standard output closed early by its reader, as by ``| head``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import shutil
import stat
import sys

import numpy as np

from .classical import BLOCK_STEPS, StepTooLarge, tracked_scalars, trajectory_blocks
from .entanglement import ppt_analyze, sweep
from .linalg import hermitian_eigensystem
from .quantum import (
    InvalidParams,
    PositivityLost,
    StationaryParams,
    build_operators,
    density_matrix_from_json,
    density_matrix_to_json,
    evolve_blocks,
    labelled_state,
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


def _writes_in_place(path: str) -> bool:
    """Whether ``path`` names something other than a regular file, such as
    /dev/null or a pipe, which is written to directly, never replaced."""
    try:
        return not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return False


def _emit(chunks, out_path):
    """Write the data payload, an iterable of text chunks; returns the
    stream summaries should use.

    A file is written as a temporary file beside it, which replaces it once
    every chunk is written: a run that fails leaves no file, or the old one
    as it was.  A symbolic link is followed to the file it names.
    """
    if not out_path:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return sys.stderr
    target = os.path.realpath(out_path)
    if _writes_in_place(target):
        with open(target, "w") as fh:
            fh.writelines(chunks)
        return sys.stdout
    folder, name = os.path.split(target)
    # opened by name, so a new file gets the mode a plain open gives it
    temp = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(temp, "x")
    except OSError as exc:  # named by the path given, not the temporary one
        raise OSError(exc.errno, exc.strerror, out_path) from None
    try:
        with fh:
            with contextlib.suppress(FileNotFoundError):
                shutil.copymode(target, temp)  # a file replaced keeps its mode
            fh.writelines(chunks)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise
    return sys.stdout


def _parse_triple(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {text!r}")
    return [float(p) for p in parts]


def _csv_cells(col: np.ndarray) -> tuple[str, list]:
    """A column slice's ``%`` conversion and its cells: 17 significant
    digits, bools as true/false, NaN as an empty field."""
    if col.dtype == bool:
        return "%s", ["true" if v else "false" for v in col.tolist()]
    if np.isnan(col).any():
        return "%s", ["" if v != v else format(v, ".17g") for v in col.tolist()]
    return "%.17g", col.tolist()


def _json_values(col: np.ndarray) -> list:
    """A column slice as JSON-ready values, NaN as None (null)."""
    if np.isnan(col).any():
        return [None if v != v else v for v in col.tolist()]
    return col.tolist()


def _blocks(columns: dict):
    """Equal-length columns cut into blocks of BLOCK_STEPS rows; a table
    with no rows, as ``sweep --grid 2``, is one empty block, which still
    names the columns."""
    n_rows = len(next(iter(columns.values())))
    for start in range(0, max(n_rows, 1), BLOCK_STEPS):
        yield {name: col[start : start + BLOCK_STEPS] for name, col in columns.items()}


def _joined(pieces):
    """Pieces of a JSON array's body, separated as ``json.dumps`` does."""
    for i, piece in enumerate(pieces):
        yield (", " if i else "") + piece


def _table_chunks(blocks, fmt: str, records: bool = False):
    """A table given as blocks of rows, each a dict of equal-length column
    arrays under the same names (only a lone block may be empty), as CSV or
    JSON text yielded a block at a time, so a table is written as it is
    computed.

    CSV has a header row, then one row per index: floats with 17
    significant digits, NaN as an empty field, bools as true/false.  JSON
    is one object of lists, or with ``records`` a list of row objects, with
    NaN as null.  The object of lists needs whole columns, so it keeps a
    copy of every block's columns until the last is in; the other layouts
    hold one block.  The first block is computed before any text is
    yielded, and the joined text does not depend on the block sizes.
    """
    blocks = iter(blocks)
    first = next(blocks)
    names = list(first)
    blocks = ([np.asarray(c) for c in block.values()] for block in itertools.chain([first], blocks))
    if fmt == "csv":
        yield ",".join(names) + "\n"
        for block in blocks:
            specs, cells = zip(*map(_csv_cells, block))
            row = ",".join(specs) + "\n"
            yield "".join([row % values for values in zip(*cells)])
    elif records:
        yield "["
        yield from _joined(
            json.dumps([dict(zip(names, row)) for row in zip(*map(_json_values, block))])[1:-1]
            for block in blocks
        )
        yield "]\n"
    else:
        kept = [[np.array(col) for col in block] for block in blocks]
        yield "{"
        for i, name in enumerate(names):
            yield (", " if i else "") + json.dumps(name) + ": ["
            yield from _joined(json.dumps(_json_values(cols[i]))[1:-1] for cols in kept)
            yield "]"
        yield "}\n"


def _cmd_classical_sim(cfg) -> int:
    init = _parse_triple(cfg["init"])
    dt = cfg["dt"]
    final = None
    max_dh = 0.0

    def blocks():
        nonlocal final, max_dh
        row = 0
        for states in trajectory_blocks(init, cfg["t_final"], dt):
            x, y, z = states.T
            h, s, k = tracked_scalars(x, y, z)
            if not row:
                h0 = h[0]
            max_dh = max(max_dh, float(np.abs(h - h0).max()))
            final = states[-1]
            yield {
                "t": dt * np.arange(row, row + len(states)),
                "lx": x,
                "ly": y,
                "lz": z,
                "H": h,
                "S": s,
                "k": k,
            }
            row += len(states)

    stream = _emit(_table_chunks(blocks(), cfg["format"]), cfg["out"])
    lx, ly, lz = final
    print(f"final state: lx={_fmt(lx)} ly={_fmt(ly)} lz={_fmt(lz)}", file=stream)
    print(f"max |dH|: {_fmt(max_dh)}", file=stream)
    return 0


def _parse_initial_density(text: str) -> np.ndarray:
    if text == "mixed" or text.startswith("basis:"):
        return labelled_state(text)
    try:
        with open(text) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read initial state {text!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{text!r} is not valid JSON: {exc}") from exc
    return density_matrix_from_json(payload)


def _cmd_quantum_evolve(cfg) -> int:
    rho0 = _parse_initial_density(cfg["init"])
    ops = build_operators()
    dt = cfg["dt"]
    last = None

    def blocks():
        nonlocal last
        row = 0
        for states, lowest in evolve_blocks(rho0, ops, cfg["t_final"], dt):
            last = states[-1].copy()  # the block's buffer is reused
            yield {
                "t": np.arange(row, row + len(states)) * dt,
                "lx_avg": np.einsum("tij,ji->t", states, ops.lx).real,
                "ly_avg": np.einsum("tij,ji->t", states, ops.ly).real,
                "lz_avg": np.einsum("tij,ji->t", states, ops.lz).real,
                "l2_avg": np.einsum("tij,ji->t", states, ops.l_squared).real,
                "trace": np.einsum("tii->t", states).real,
                "min_eig": lowest,
            }
            row += len(states)

    stream = _emit(_table_chunks(blocks(), cfg["format"]), cfg["out"])
    fit = project_to_stationary(last)
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
    w, _ = hermitian_eigensystem(rho)
    disc = max(1.0 - 4.0 * (params.a * params.b - abs(params.c) ** 2), 0.0)
    payload = {
        "a": params.a,
        "b": params.b,
        "c_re": params.c.real,
        "c_im": params.c.imag,
        "rho": density_matrix_to_json(rho),
        "eigenvalues": w.tolist(),
        "quadratic_roots": [0.5 * (1.0 - disc**0.5), 0.5 * (1.0 + disc**0.5)],
    }
    _emit([json.dumps(payload, indent=2) + "\n"], cfg["out"])
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
    _emit([json.dumps(payload, indent=2) + "\n"], cfg["out"])
    return 0


def _cmd_sweep(cfg) -> int:
    table = sweep(cfg["grid"])
    _emit(_table_chunks(_blocks(table.columns()), cfg["format"], records=True), cfg["out"])
    return 0


def _cmd_verify(cfg) -> int:
    results = run_all()
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.number:2d} {r.key}: {r.detail}"
        for r in results
    ]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    _emit(["\n".join(lines) + "\n"], cfg["out"])
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
    except BrokenPipeError:
        # as the Python docs' note on SIGPIPE: the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InvalidParams, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, not bad input: report it on one line
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
