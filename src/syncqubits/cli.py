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
stays clean); ``main`` opens that output, ``_output``, for every command,
and a handler only writes to the stream it is given.  Tables are computed
and written a block of rows at a time.  A CSV export's memory does not
grow with the length of the run; JSON's object of lists needs whole
columns, so it holds its columns, but never the states.  ``--out`` is
written as a temporary file beside it, opened before the command reads its
inputs, that replaces it only once the run has succeeded: a run that fails
leaves no file, or the old one as it was, and a bad input meeting an
``--out`` that cannot be opened is reported as the ``--out`` error.  A path
that is not a regular file, such as /dev/null, is written directly.  On
standard output, a run that exits 3 may already have printed part of its
table.
One table, ``_COMMANDS``, declares every command and option once; the
parser, the ``--config`` file and dispatch all read it.  Every option but
--help takes one value, after a space even when it starts with '-', or
after an '='.  A JSON ``--config`` file may supply any long-option value,
keyed by option name with underscores; explicit flags win over the file.
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
import reprlib
import shutil
import stat
import sys
from typing import Callable, NamedTuple, TextIO

import numpy as np

from .classical import BLOCK_STEPS, StepTooLarge, integrate_blocks, tracked_scalars
from .entanglement import ppt_analyze, sweep
from .linalg import hermitian_eigensystem
from .quantum import (
    OPERATORS,
    PositivityLost,
    StationaryParams,
    density_matrix_from_json,
    density_matrix_to_json,
    evolve_blocks,
    labelled_state,
    project_to_stationary,
    stationary_state,
)
from .verify import run_all

_REQUIRED = object()


class _Option(NamedTuple):
    """A long option, ``--t-final`` for ``t_final``: the type :meth:`convert`
    applies to its text, from a flag or a config file; its default, written
    as flag text and repeated in the help (None: unset, ``_REQUIRED``: must
    be given); its help; its allowed values, which ``_merge_config`` checks."""

    type: Callable[[str], object]
    default: object
    help: str
    choices: tuple[str, ...] | None = None

    def convert(self, text: str):
        """The value of ``text``, or ArgumentTypeError naming it cut short."""
        try:
            return self.type(text)
        except ValueError:
            message = f"invalid {self.type.__name__} value: {reprlib.repr(text)}"
            raise argparse.ArgumentTypeError(message) from None


class _Command(NamedTuple):
    """A command's handler, which writes its data to the stream it is
    given and returns its exit code and summary lines; its help; its
    options."""

    handler: Callable[[dict, TextIO], tuple[int, list[str]]]
    help: str
    options: dict[str, _Option]


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
    for command, (_, blurb, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=blurb)
        for name, opt in options.items():
            text = opt.help
            if opt.default is _REQUIRED:
                text += " (required)"
            elif opt.default is not None:
                text += f" (default {opt.default})"
            flag = "--" + name.replace("_", "-")
            metavar = "{%s}" % ",".join(opt.choices) if opt.choices else None
            p.add_argument(flag, type=opt.convert, metavar=metavar, help=text, **kw)
        p.add_argument("--config", help="JSON file with default option values", **kw)
    return parser


def _load_json(path: str):
    """The value a JSON file holds; one nested past the interpreter's
    recursion limit is refused as bad input."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path!r} is nested too deeply to read as JSON") from None


def _coerce(key: str, value, opt: _Option):
    """A config value converted as if its JSON text had been typed as the flag."""
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        return opt.convert(text)
    except argparse.ArgumentTypeError:
        raise ValueError(
            f"config value {key!r} must be {opt.type.__name__}, got {reprlib.repr(value)}"
        ) from None


def _merge_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, per command; config values
    get their option's type, and a null keeps the default."""
    options = _COMMANDS[args.command].options
    values = {
        name: opt.type(opt.default) if isinstance(opt.default, str) else opt.default
        for name, opt in options.items()
    }
    explicit = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    path = getattr(args, "config", None)
    if path is not None:
        loaded = _load_json(path)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, val in loaded.items():
            norm = str(key).replace("-", "_")
            if norm not in options:
                print(f"warning: ignoring unknown config key {reprlib.repr(key)}", file=sys.stderr)
            elif val is not None:
                values[norm] = _coerce(key, val, options[norm])
    values.update(explicit)
    for key, val in values.items():
        if val is _REQUIRED:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
        choices = options[key].choices
        if choices and val not in choices:
            raise ValueError(f"{key} must be {' or '.join(choices)}, got {reprlib.repr(val)}")
    return values


def _writes_in_place(path: str) -> bool:
    """Whether ``path`` names something other than a regular file, such as
    /dev/null or a pipe, which is written to directly, never replaced."""
    try:
        return not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return False


@contextlib.contextmanager
def _output(out_path):
    """The scope of one command's output: yields ``(out, summaries)``, the
    stream its data goes to and the one its summary lines go to.

    A file is written as a temporary file beside it, which replaces it once
    the scope has closed without an error: a run that fails leaves no file,
    or the old one as it was.  A symbolic link is followed to the file it
    names.
    """
    if not out_path:
        yield sys.stdout, sys.stderr
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return
    target = os.path.realpath(out_path)
    if _writes_in_place(target):
        with open(target, "w") as fh:
            yield fh, sys.stdout
        return
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
            yield fh, sys.stdout
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _parse_triple(text: str) -> list[float]:
    """Three floats from "x,y,z"; an error shows a bad value as
    ``reprlib.repr`` does, cut to 30 characters however long it is."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {reprlib.repr(text)}")
    values = []
    for part in parts:
        try:
            values.append(float(part))
        except ValueError:
            raise ValueError(f"could not convert string to float: {reprlib.repr(part)}") from None
    return values


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


def _cmd_classical_sim(cfg, out) -> tuple[int, list[str]]:
    init = _parse_triple(cfg["init"])
    dt = cfg["dt"]
    states = None
    max_dh = 0.0

    def blocks():
        nonlocal states, max_dh
        row = 0
        for states in integrate_blocks(init, cfg["t_final"], dt):
            x, y, z = states.T
            h, s, k = tracked_scalars(x, y, z)
            if not row:
                h0 = h[0]
            max_dh = max(max_dh, float(np.abs(h - h0).max()))
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

    out.writelines(_table_chunks(blocks(), cfg["format"]))
    lx, ly, lz = states[-1]  # a run's last block stays valid once it has ended
    return 0, [
        f"final state: lx={_fmt(lx)} ly={_fmt(ly)} lz={_fmt(lz)}",
        f"max |dH|: {_fmt(max_dh)}",
    ]


def _parse_initial_density(text: str) -> np.ndarray:
    if text == "mixed" or text.startswith("basis:"):
        return labelled_state(text)
    try:
        payload = _load_json(text)
    except OSError as exc:
        raise ValueError(f"cannot read initial state {reprlib.repr(text)}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{text!r} is not valid JSON: {exc}") from exc
    return density_matrix_from_json(payload)


def _cmd_quantum_evolve(cfg, out) -> tuple[int, list[str]]:
    rho0 = _parse_initial_density(cfg["init"])
    dt = cfg["dt"]
    states = None

    def blocks():
        nonlocal states
        row = 0
        for states, lowest in evolve_blocks(rho0, cfg["t_final"], dt):
            yield {
                "t": np.arange(row, row + len(states)) * dt,
                "lx_avg": np.einsum("tij,ji->t", states, OPERATORS.lx).real,
                "ly_avg": np.einsum("tij,ji->t", states, OPERATORS.ly).real,
                "lz_avg": np.einsum("tij,ji->t", states, OPERATORS.lz).real,
                "l2_avg": np.einsum("tij,ji->t", states, OPERATORS.l_squared).real,
                "trace": np.einsum("tii->t", states).real,
                "min_eig": lowest,
            }
            row += len(states)

    out.writelines(_table_chunks(blocks(), cfg["format"]))
    fit = project_to_stationary(states[-1])  # a run's last block stays valid once it has ended
    return 0, [
        f"stationary fit: a={_fmt(fit.a)} b={_fmt(fit.b)} "
        f"c_re={_fmt(fit.c.real)} c_im={_fmt(fit.c.imag)} residual={_fmt(fit.residual)}"
    ]


def _params_from(cfg) -> StationaryParams:
    a = cfg["a"]
    return StationaryParams(a, 1.0 - a, complex(cfg["c_re"], cfg["c_im"]))


def _cmd_stationary(cfg, out) -> tuple[int, list[str]]:
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
    out.write(json.dumps(payload, indent=2) + "\n")
    return 0, []


def _cmd_ppt(cfg, out) -> tuple[int, list[str]]:
    report = ppt_analyze(_params_from(cfg))
    payload = {
        "a": cfg["a"],
        "c_re": cfg["c_re"],
        "c_im": cfg["c_im"],
        "eigenvalues": report.eigenvalues.tolist(),
        "min_eigenvalue": report.min_eigenvalue,
        "negativity": report.negativity,
        "separable": report.separable,
        "closed_form_eigenvalues": report.closed_form_eigenvalues.tolist(),
    }
    out.write(json.dumps(payload, indent=2) + "\n")
    return 0, []


def _cmd_sweep(cfg, out) -> tuple[int, list[str]]:
    columns = sweep(cfg["grid"]).columns()
    out.writelines(_table_chunks(_blocks(columns), cfg["format"], records=True))
    return 0, []


def _cmd_verify(cfg, out) -> tuple[int, list[str]]:
    results = run_all()
    for r in results:
        out.write(f"{'PASS' if r.passed else 'FAIL'} {r.number:2d} {r.key}: {r.detail}\n")
    out.write(f"{sum(r.passed for r in results)}/{len(results)} checks passed\n")
    return (0 if all(r.passed for r in results) else 1), []


_RUN = {"t_final": _Option(float, "20", "integration time"), "dt": _Option(float, "1e-3", "RK4 step")}
_POINT = {
    "a": _Option(float, _REQUIRED, "weight of the in-phase projector"),
    "c_re": _Option(float, "0", "Re c"),
    "c_im": _Option(float, "0", "Im c"),
}
_OUT = {"out": _Option(str, None, "write data here instead of standard output")}
_TABLE_OUT = _OUT | {"format": _Option(str, "csv", "data format", ("csv", "json"))}
_STATE = _Option(str, "mixed", "'mixed', 'basis:IJ' with I,J in {0,1}, or a density-matrix JSON file")

#: each command's handler, help and options: the parser, the config file and
#: dispatch all read this table; every command also takes --config
_COMMANDS = {
    "classical-sim": _Command(
        _cmd_classical_sim,
        "integrate the classical three-variable flow",
        {"init": _Option(str, "0,0.6,0.8", "initial lx,ly,lz")} | _RUN | _TABLE_OUT,
    ),
    "quantum-evolve": _Command(
        _cmd_quantum_evolve,
        "integrate the two-qubit master equation",
        {"init": _STATE} | _RUN | _TABLE_OUT,
    ),
    "stationary": _Command(
        _cmd_stationary, "print a stationary density matrix and its spectrum", _POINT | _OUT
    ),
    "ppt": _Command(_cmd_ppt, "partial-transpose spectrum and separability verdict", _POINT | _OUT),
    "sweep": _Command(
        _cmd_sweep,
        "entanglement verdicts over the (a, c) grid",
        {"grid": _Option(int, "21", "points per axis")} | _TABLE_OUT,
    ),
    "verify": _Command(_cmd_verify, "run the numbered self-checks", _OUT),
}


def _attach_values(argv: list[str]) -> list[str]:
    """Each ``--option value`` pair as one ``--option=value`` token.

    Every option but --help takes one value, so the token after an option
    is its value even when it starts with '-', as -0.5,0.6,0.8 or -1e-3 do,
    which argparse would otherwise take for an unknown option.
    """
    tokens, joined = iter(argv), []
    for token in tokens:
        if token.startswith("--") and "=" not in token and not "--help".startswith(token):
            token = "=".join([token, *itertools.islice(tokens, 1)])
        joined.append(token)
    return joined


#: characters of a long path that an error line shows at each end
_PATH_ENDS = 100


def _shown(exc: Exception) -> Exception:
    """``exc``, or for an OSError a copy naming each path longer than
    2 * _PATH_ENDS + 3 characters by its two ends: an error line stays
    short however long the path given."""
    if not isinstance(exc, OSError) or exc.filename is None:
        return exc
    names = [
        f"{name[:_PATH_ENDS]}...{name[-_PATH_ENDS:]}"
        if isinstance(name, str) and len(name) > 2 * _PATH_ENDS + 3
        else name
        for name in (exc.filename, exc.filename2)
    ]
    return OSError(exc.errno, exc.strerror, names[0], None, names[1])


def main(argv=None) -> int:
    args = _build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = _merge_config(args)
        with _output(cfg["out"]) as (out, summaries):
            code, lines = _COMMANDS[args.command].handler(cfg, out)
        for line in lines:
            print(line, file=summaries)
        return code
    except (StepTooLarge, PositivityLost) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # as the Python docs' note on SIGPIPE: the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:  # InvalidParams and JSONDecodeError among them
        print(f"error: {_shown(exc)}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, not bad input: report it on one line
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
