"""A property over command lines drawn from the command-line table.

Every command and every option of ``cli._COMMANDS`` is drawn, with values
from pools of edge cases, and run in three spellings: ``--flag value``,
``--flag=value`` and a ``--config`` file.  Whatever the input, a run exits
with 0, 1, 2 or 3 and no traceback; a failing run's stderr ends in one
``error:`` line of at most 300 bytes, however long the values, and --out
and its folder are left as they were, with no temporary file; the three
spellings give the same bytes.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncqubits import cli

DEEP = "[" * 100000 + "]" * 100000  # past json's recursion limit
LONG = "x" * 5000  # a value no error message may echo whole
FOLDER = ("folder",)  # as a file's content: the file is the inputs folder itself


def _file(content):
    """A value naming a file written for the run, holding ``content``."""
    return ("file", content)


def _out(kind):
    """An --out value: a new or an existing file, one in a missing folder, a
    folder, /dev/null, or a path of 5,000 characters."""
    return ("out", kind)


def _matrix(re_, im=None, dim=4):
    return json.dumps({"dim": dim, "re": re_, "im": [0.0] * len(re_) if im is None else im})


MIXED = [0.25 if i % 5 == 0 else 0.0 for i in range(16)]

FLOATS = [
    "0", "0.3", "-0.5", "1", "1.5", "-1e-3", "2.5E-1", ".5", "1e-12",
    "nan", "-inf", "inf", "1e308", "1e400", "", "1,5", "0x1p-2", LONG, "1" * 5000,
]  # fmt: skip
POOLS = {
    # t_final / dt stay within a few hundred steps, or far past MAX_STEPS
    "t_final": ["0", "0.05", "0.2", "-0.1", "2E-1", "nan", "inf", "-inf", "1e308", "1e400", "", "x", LONG],
    "dt": ["1e-3", "0.01", "0.05", "1", "0", "-1e-3", "1e-300", "nan", "inf", "1e308", "", "1e-3x", LONG],
    "grid": [
        "2", "3", "5", " 4", "0", "1", "-3", "1002", "99999999999999999999", "3.0", "1e1", "nan", "",
        LONG, "1" * 5000,  # past int's digit limit
    ],
    "out": [_out("new"), _out("existing"), _out("missing"), _out("folder"), _out("devnull"), _out("long"), ""],
    "format": ["csv", "json", "xml", "", "CSV", LONG],
    ("classical-sim", "init"): [
        "0,0.6,0.8", "-0.5,0.6,0.8", "1,0.5,0", "1e-3,-2E-1,3.5e-1", "0,0,0", "nan,0,1",
        "inf,0,0", "1e308,1e308,1e308", "1e400,0,1", "1e6,1,1", "1,2", "1,2,3,4", "", ",,", "a,b,c",
        LONG, "1," * 2500, LONG + ",0,0",
    ],
    ("quantum-evolve", "init"): [
        "mixed", "basis:01", "basis:11", "basis:2", "basis:", "Mixed", "", "-", "no/such/state.json",
        LONG, "basis:" + LONG,  # a file name too long, a label too long
        _file(_matrix(MIXED)),
        _file(_matrix([1.5, 0, 0, 0, 0, -0.5] + [0.0] * 10)),  # a negative eigenvalue
        _file(_matrix([0.5] * 16)),  # trace 2
        _file(_matrix(MIXED, [0.0, 0.1] + [0.0] * 14)),  # not Hermitian
        _file(_matrix([0.5, 0, 0, 0.5], dim=2)),
        _file(_matrix([], dim=0)),
        _file(_matrix([1e308] * 16)),
        _file(_matrix(MIXED).replace("0.25", "NaN", 1)),
        _file('{"dim": 1e400, "re": [], "im": []}'),
        _file('{"dim": -1, "re": [1], "im": [0]}'),
        _file('{"dim": 4, "re": "abc", "im": []}'),
        _file('{"dim": 4, "re": [[[[1]]]], "im": []}'),
        _file("{}"), _file("[]"), _file("not json"), _file(b"\xff\xfe"), _file(DEEP), _file(FOLDER),
    ],
}  # fmt: skip
# config files that are not a plain object of option values
BAD_CONFIGS = [
    "", "{", "[1, 2]", "null", '"text"', b"\xff\xfe", DEEP, FOLDER,
    '{"grid": [3]}', '{"t_final": {"x": 1}}', '{"dt": true}', '{"mystery": 1, "help": 2, "config": "x"}',
    '{"format": "xml"}', '{"a": NaN, "c_re": Infinity}', '{"a": 1e999}', '{"init": [1, 2, 3]}',
    '{"init": ' + "[" * 500 + "]" * 500 + "}", '{"grid": -1e999}', '{"dt": null, "grid": null}',
    '{"c-re": "-1e-3"}',
]  # fmt: skip


def _pool(command: str, name: str) -> list:
    if command == "verify":  # only runs that fail before computing
        return [_out("missing"), _out("folder"), _out("long")]
    return POOLS.get((command, name)) or POOLS.get(name) or FLOATS


@st.composite
def command_lines(draw):
    """(command, {option name: value}, a bad config file's content or None)."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    options = {}
    for name in cli._COMMANDS[command].options:
        # the default t_final is 20,000 steps, too long for a fuzz example
        if name == "t_final" or command == "verify" or draw(st.booleans()):
            options[name] = draw(st.sampled_from(_pool(command, name)))
    return command, options, draw(st.none() | st.sampled_from(BAD_CONFIGS))


def _write(folder: str, content) -> str:
    if content == FOLDER:
        return folder
    path = os.path.join(folder, f"input-{len(os.listdir(folder))}")
    with open(path, "wb" if isinstance(content, bytes) else "w") as fh:
        fh.write(content)
    return path


def _value(token, inputs: str, out_dir: str) -> str:
    """A drawn value's text, with its input file written or its --out set up."""
    if not isinstance(token, tuple):
        return token
    kind, content = token
    if kind == "file":
        return _write(inputs, content)
    data = os.path.join(out_dir, "data")
    if content == "existing":
        with open(data, "w") as fh:
            fh.write("old bytes\n")
    elsewhere = {
        "missing": os.path.join(out_dir, "missing", "data"),
        "folder": out_dir,
        "devnull": os.devnull,
        "long": os.path.join(out_dir, LONG),
    }
    return elsewhere.get(content, data)


def _spelled(spelling: str, command: str, values: dict, config, inputs: str) -> list:
    flags = [("--" + name.replace("_", "-"), value) for name, value in values.items()]
    if spelling == "spaced":
        argv = [command, *(token for pair in flags for token in pair)]
    elif spelling == "joined":
        argv = [command, *(f"{flag}={value}" for flag, value in flags)]
    else:
        argv = [command, "--config", _write(inputs, json.dumps(values))]
    return argv if config is None else [*argv, "--config", _write(inputs, config)]


def _snapshot(folder: str) -> dict:
    """Each file in ``folder`` by name, with its bytes."""
    files = {}
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), "rb") as fh:
            files[name] = fh.read()
    return files


def _run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a command line this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _never_verify():
    raise AssertionError("verify computed")


@settings(max_examples=200, deadline=None)
@given(command_lines())
@example(("ppt", {"a": "0.3"}, DEEP))
@example(("quantum-evolve", {"t_final": "0.05", "init": _file(DEEP)}, None))
@example(("quantum-evolve", {"t_final": "0.05", "init": _file(_matrix([1e308] * 16))}, None))  # overflowed
@example(("classical-sim", {"t_final": "0.05", "dt": LONG}, None))  # echoed whole
@example(("quantum-evolve", {"t_final": "0.05", "init": LONG}, None))  # echoed twice
@example(("classical-sim", {"t_final": "0.01", "out": _out("long")}, None))  # a path echoed whole
def test_any_command_line_exits_cleanly_and_alike(case):
    command, options, config = case
    outcomes = []
    spellings = ["spaced", "joined"] + ([] if config is not None else ["config"])
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "run_all", _never_verify):
        for spelling in spellings:
            inputs, out_dir = os.path.join(tmp, spelling + "-in"), os.path.join(tmp, spelling + "-out")
            os.mkdir(inputs)
            os.mkdir(out_dir)
            values = {name: _value(token, inputs, out_dir) for name, token in options.items()}
            argv = _spelled(spelling, command, values, config, inputs)
            before = _snapshot(out_dir)
            code, out, err = _run(argv)
            after = _snapshot(out_dir)
            assert code in (0, 1, 2, 3), (argv, err)
            assert "Traceback" not in err
            if code:
                lines = err.splitlines()
                assert re.match(rf"(syncqubits {command}: )?error: ", lines[-1]), (argv, err)
                errors = [line for line in lines if "error:" in line]
                assert len(errors) == 1 and len(errors[0].encode()) <= 300, (argv, err)
                assert after == before, argv
            else:
                assert set(after) <= {"data"}, (argv, after)
            outcomes.append((code, out, after.get("data"), err if code == 0 else None))
    assert all(o == outcomes[0] for o in outcomes), (command, options, config)
