import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from syncqubits import classical, cli, quantum
from syncqubits.classical import BLOCK_STEPS, StepTooLarge, integrate, tracked_scalars
from syncqubits.quantum import (
    PositivityLost,
    build_operators,
    density_matrix_to_json,
    evolve,
    labelled_state,
)


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The exact text each data command writes for tiny inputs, which pins the
# shared CSV/JSON writer's format byte for byte.  Cells derived from LAPACK
# results (min_eig, the spectra) may differ in their last digits on another
# BLAS build.
PINNED_OUTPUT = [
    pytest.param(
        "classical-sim --init 1,0.5,0 --t-final 0.002 --format csv",
        (
            "t,lx,ly,lz,H,S,k\n"
            "0,1,0.5,0,0.625,2,\n"
            "0.001,1.0004990011659998,0.49900075016560552,0,0.62500000000000022,"
            "2.0009980023319995,\n"
            "0.002,1.0009960093226564,0.4980030013163747,0,0.62500000000000033,"
            "2.0019920186453128,\n"
        ),
        id="classical-sim-lz0-csv",
    ),
    pytest.param(
        "classical-sim --init 1,0.5,0 --t-final 0.002 --format json",
        (
            '{"t": [0.0, 0.001, 0.002], "lx": [1.0, 1.0004990011659998, 1.0009960093226564], '
            '"ly": [0.5, 0.4990007501656055, 0.4980030013163747], "lz": [0.0, 0.0, 0.0], '
            '"H": [0.625, 0.6250000000000002, 0.6250000000000003], "S": [2.0, '
            '2.0009980023319995, 2.001992018645313], "k": [null, null, null]}\n'
        ),
        id="classical-sim-lz0-json",
    ),
    pytest.param(
        "classical-sim --t-final 0.002 --format csv",
        (
            "t,lx,ly,lz,H,S,k\n"
            "0,0,0.59999999999999998,0.80000000000000004,0.5,0,0.74999999999999989\n"
            "0.001,0.0019999973333366663,0.59999880000200001,0.79999840000266675,"
            "0.50000000000000011,0.0039999946666733326,0.74999999999999989\n"
            "0.002,0.0039999786668013324,0.5999952000319998,0.79999360004266651,0.5,"
            "0.0079999573336026648,0.74999999999999989\n"
        ),
        id="classical-sim-csv",
    ),
    pytest.param(
        "classical-sim --t-final 0.002 --format json",
        (
            '{"t": [0.0, 0.001, 0.002], "lx": [0.0, 0.0019999973333366663, '
            '0.003999978666801332], "ly": [0.6, 0.599998800002, 0.5999952000319998], "lz": '
            '[0.8, 0.7999984000026668, 0.7999936000426665], "H": [0.5, 0.5000000000000001, '
            '0.5], "S": [0.0, 0.003999994666673333, 0.007999957333602665], "k": '
            "[0.7499999999999999, 0.7499999999999999, 0.7499999999999999]}\n"
        ),
        id="classical-sim-json",
    ),
    pytest.param(
        "quantum-evolve --t-final 0.002 --format csv",
        (
            "t,lx_avg,ly_avg,lz_avg,l2_avg,trace,min_eig\n"
            "0,0,0,0,1.5,1,0.25\n"
            "0.001,0.0019980000026666666,0,0,1.5,1,0.24900199733600004\n"
            "0.002,0.0039920000425388794,0,5.5511151231257827e-17,1.5000000000000002,"
            "1.0000000000000002,0.24800797870926952\n"
        ),
        id="quantum-evolve-csv",
    ),
    pytest.param(
        "quantum-evolve --t-final 0.002 --format json",
        (
            '{"t": [0.0, 0.001, 0.002], "lx_avg": [0.0, 0.0019980000026666666, '
            '0.003992000042538879], "ly_avg": [0.0, 0.0, 0.0], "lz_avg": [0.0, 0.0, '
            '5.551115123125783e-17], "l2_avg": [1.5, 1.5, 1.5000000000000002], "trace": [1.0,'
            ' 1.0, 1.0000000000000002], "min_eig": [0.25, 0.24900199733600004, '
            "0.24800797870926952]}\n"
        ),
        id="quantum-evolve-json",
    ),
    pytest.param(
        "sweep --grid 3 --format csv",
        (
            "a,c,min_pt_eigenvalue,negativity,separable\n"
            "0,0,-0.49999999999999989,0.49999999999999989,false\n"
            "0.5,-0.5,-0.24999999999999997,0.24999999999999997,false\n"
            "0.5,0,-0.10355339059327372,0.10355339059327372,false\n"
            "0.5,0.5,-0.24999999999999992,0.24999999999999992,false\n"
            "1,0,-2.4745416680801027e-16,3.3306690738754696e-16,true\n"
        ),
        id="sweep-csv",
    ),
    pytest.param(
        "sweep --grid 3 --format json",
        (
            '[{"a": 0.0, "c": 0.0, "min_pt_eigenvalue": -0.4999999999999999, "negativity": '
            '0.4999999999999999, "separable": false}, {"a": 0.5, "c": -0.5, '
            '"min_pt_eigenvalue": -0.24999999999999997, "negativity": 0.24999999999999997, '
            '"separable": false}, {"a": 0.5, "c": 0.0, "min_pt_eigenvalue": '
            '-0.10355339059327372, "negativity": 0.10355339059327372, "separable": false}, '
            '{"a": 0.5, "c": 0.5, "min_pt_eigenvalue": -0.24999999999999992, "negativity": '
            '0.24999999999999992, "separable": false}, {"a": 1.0, "c": 0.0, '
            '"min_pt_eigenvalue": -2.4745416680801027e-16, "negativity": '
            '3.3306690738754696e-16, "separable": true}]\n'
        ),
        id="sweep-json",
    ),
    pytest.param(
        "ppt --a 0.3 --c-re 0.2",
        (
            "{\n"
            '  "a": 0.3,\n'
            '  "c_re": 0.2,\n'
            '  "c_im": 0.0,\n'
            '  "eigenvalues": [\n'
            "    -0.252183114745729,\n"
            "    0.2681482733051107,\n"
            "    0.35,\n"
            "    0.6340348414406185\n"
            "  ],\n"
            '  "min_eigenvalue": -0.252183114745729,\n'
            '  "negativity": 0.252183114745729,\n'
            '  "separable": false,\n'
            '  "closed_form_eigenvalues": [\n'
            "    -0.2521831147457291,\n"
            "    0.2681482733051108,\n"
            "    0.35,\n"
            "    0.6340348414406183\n"
            "  ]\n"
            "}\n"
        ),
        id="ppt",
    ),
    pytest.param(
        "stationary --a 0.3 --c-re 0.2",
        (
            "{\n"
            '  "a": 0.3,\n'
            '  "b": 0.7,\n'
            '  "c_re": 0.2,\n'
            '  "c_im": 0.0,\n'
            '  "rho": {\n'
            '    "dim": 4,\n'
            '    "re": [\n'
            "      0.075,\n"
            "      0.14571067811865474,\n"
            "      0.0042893218813452455,\n"
            "      0.075,\n"
            "      0.14571067811865474,\n"
            "      0.5664213562373094,\n"
            "      -0.2749999999999999,\n"
            "      0.14571067811865474,\n"
            "      0.0042893218813452455,\n"
            "      -0.2749999999999999,\n"
            "      0.2835786437626905,\n"
            "      0.0042893218813452455,\n"
            "      0.075,\n"
            "      0.14571067811865474,\n"
            "      0.0042893218813452455,\n"
            "      0.075\n"
            "    ],\n"
            '    "im": [\n'
            "      0.0,\n"
            "      0.0,\n"
            "      0.0,\n"
            "      0.0,\n"
            "      0.0,\n"
            "      0.0,\n"
            "      0.0,\n"
            "      0.0,\n"
            "      0.0,\n"
            "      0.0,\n"
            "      0.0,\n"
            "      0.0,\n"
            "      0.0,\n"
            "      0.0,\n"
            "      0.0,\n"
            "      0.0\n"
            "    ]\n"
            "  },\n"
            '  "eigenvalues": [\n'
            "    -1.688831619827493e-17,\n"
            "    9.949422294367686e-18,\n"
            "    0.217157287525381,\n"
            "    0.7828427124746187\n"
            "  ],\n"
            '  "quadratic_roots": [\n'
            "    0.21715728752538094,\n"
            "    0.7828427124746191\n"
            "  ]\n"
            "}\n"
        ),
        id="stationary",
    ),
]


@pytest.mark.parametrize("argv, expected", PINNED_OUTPUT)
def test_data_commands_write_pinned_bytes(capsys, argv, expected):
    code, out, _ = run_cli(argv.split(), capsys)
    assert code == 0
    assert out == expected


def test_no_arguments_prints_usage():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_unknown_command_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_classical_sim_csv_to_stdout(capsys):
    code, out, err = run_cli(
        ["classical-sim", "--init", "1,0,0", "--t-final", "0.002", "--dt", "1e-3"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,lx,ly,lz,H,S,k"
    assert len(lines) == 4  # header + initial + two steps
    # lz = 0 throughout, so the k field is empty
    assert lines[1].endswith(",")
    assert lines[1].split(",")[1] == "1"
    # the human summary moves to stderr when data owns stdout
    assert "final state:" in err and "max |dH|:" in err


def test_classical_sim_converges(capsys, tmp_path):
    out_file = tmp_path / "traj.csv"
    code, out, err = run_cli(
        ["classical-sim", "--init", "0,0.6,0.8", "--t-final", "20", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    rows = out_file.read_text().strip().splitlines()
    last = rows[-1].split(",")
    assert abs(float(last[1]) - 1.0) < 1e-6
    assert abs(float(last[2])) < 1e-6 and abs(float(last[3])) < 1e-6
    # k holds its value for as long as lz is big enough to define it,
    # then the field goes empty
    defined_k = [r.split(",")[6] for r in rows[1:] if r.split(",")[6]]
    assert defined_k and abs(float(defined_k[-1]) - 0.75) < 1e-6
    assert last[6] == ""
    # with --out, the summary goes to stdout
    assert "final state: lx=" in out
    max_dh = float(out.split("max |dH|:")[1].strip())
    assert max_dh < 1e-8


def test_classical_sim_json_format(capsys):
    code, out, _ = run_cli(
        ["classical-sim", "--init", "1,0,0", "--t-final", "0.002", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lx"] == [1.0, 1.0, 1.0]
    assert payload["k"] == [None, None, None]
    assert payload["S"] == [2.0, 2.0, 2.0]


def test_classical_sim_divergence_exit_code(capsys):
    code, _, err = run_cli(["classical-sim", "--init", "2e6,0,1"], capsys)
    assert code == 3
    assert "error:" in err


def test_closed_stdout_exit_code():
    # the reader quits after one line, as `| head -1` does, long before the
    # 650 kB table is written: a quiet exit with its own code
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "syncqubits.cli", "classical-sim", "--t-final", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline() == b"t,lx,ly,lz,H,S,k\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_classical_sim_bad_init(capsys):
    code, _, err = run_cli(["classical-sim", "--init", "1,2"], capsys)
    assert code == 2
    assert "error:" in err


def test_quantum_evolve_columns_and_fit(capsys):
    code, out, err = run_cli(["quantum-evolve", "--t-final", "10", "--dt", "1e-3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,lx_avg,ly_avg,lz_avg,l2_avg,trace,min_eig"
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0, 0.0, 0.0, 0.0, 1.5, 1.0, 0.25]
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.abs(data[:, 5] - 1.0).max() < 1e-9  # trace stays 1
    assert np.diff(data[:, 1]).min() > -1e-10  # <lx> never decreases
    assert data[:, 6].min() > -1e-8  # positivity along the way
    assert "stationary fit:" in err
    residual = float(err.split("residual=")[1].split()[0])
    assert residual < 1e-6


def test_quantum_evolve_basis_and_file_init(capsys, tmp_path):
    code, out, _ = run_cli(["quantum-evolve", "--init", "basis:11", "--t-final", "0.001"], capsys)
    assert code == 0
    first = out.strip().splitlines()[1].split(",")
    assert float(first[3]) == -1.0  # <lz> of |11><11|

    state_file = tmp_path / "rho.json"
    state_file.write_text(json.dumps(density_matrix_to_json(np.eye(4) / 4.0)))
    code, out, _ = run_cli(
        ["quantum-evolve", "--init", str(state_file), "--t-final", "0.001"], capsys
    )
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[4]) == 1.5


def test_quantum_evolve_bad_inits(capsys, tmp_path):
    code, _, err = run_cli(["quantum-evolve", "--init", "basis:7"], capsys)
    assert code == 2
    code, _, _ = run_cli(["quantum-evolve", "--init", str(tmp_path / "missing.json")], capsys)
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(density_matrix_to_json(np.eye(4))))  # trace 4
    code, _, _ = run_cli(["quantum-evolve", "--init", str(bad)], capsys)
    assert code == 2


_MIXED_RE = "0.25, 0, 0, 0, 0, 0.25, 0, 0, 0, 0, 0.25, 0, 0, 0, 0, 0.25"
_ZEROS = ", ".join(["0"] * 16)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(
            '{"dim": 4, "re": [0.25, Infinity, 0, 0, Infinity, 0.25, 0, 0, '
            '0, 0, 0.25, -Infinity, 0, 0, -Infinity, 0.25], "im": [%s]}' % _ZEROS,
            "error: density matrix entries must be finite\n",
            id="inf",
        ),
        pytest.param(
            '{"dim": 4, "re": [%s], "im": [NaN, %s]}' % (_MIXED_RE, ", ".join(["0"] * 15)),
            "error: density matrix entries must be finite\n",
            id="nan",
        ),
        pytest.param(
            '{"dim": 0, "re": [], "im": []}', "error: density matrix is empty\n", id="empty"
        ),
        pytest.param(
            '{"dim": 1e999, "re": [], "im": []}',
            "error: not a serialized density matrix: cannot convert float infinity to integer\n",
            id="infinite-dim",
        ),
        pytest.param(
            '{"dim": 2, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}',
            "error: trace must be 1, got (2+0j)\n",
            id="trace",
        ),
        pytest.param(
            '{"dim": 2, "re": [0.5, 0.5, 0, 0.5], "im": [0, 0, 0, 0]}',
            "error: not Hermitian: deviation 5.000e-01\n",
            id="not-hermitian",
        ),
        pytest.param(
            '{"dim": 2, "re": [1.5, 0, 0, -0.5], "im": [0, 0, 0, 0]}',
            "error: not positive: lowest eigenvalue -5.000e-01\n",
            id="not-positive",
        ),
    ],
)
def test_quantum_evolve_rejects_unusable_state_file(capsys, tmp_path, text, message):
    # refused with one line before any LAPACK call, and with no numpy warning
    state_file = tmp_path / "rho.json"
    state_file.write_text(text)
    code, out, err = run_cli(["quantum-evolve", "--init", str(state_file)], capsys)
    assert code == 2
    assert (out, err) == ("", message)


def test_quantum_evolve_checks_the_state_before_the_steps(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(density_matrix_to_json(np.eye(4))))  # trace 4
    code, _, err = run_cli(["quantum-evolve", "--init", str(bad), "--dt", "nan"], capsys)
    assert code == 2
    assert err == "error: trace must be 1, got (4+0j)\n"


def test_quantum_evolve_rejects_two_by_two_state(capsys, tmp_path):
    small = tmp_path / "qubit.json"
    small.write_text(json.dumps(density_matrix_to_json(np.eye(2) / 2.0)))
    code, _, err = run_cli(["quantum-evolve", "--init", str(small)], capsys)
    assert code == 2
    assert err == "error: state has shape (2, 2), the operators need (4, 4)\n"


@pytest.mark.parametrize("command", ["classical-sim", "quantum-evolve"])
@pytest.mark.parametrize("flags", [["--t-final", "inf"], ["--dt", "nan"]])
def test_nonfinite_step_arguments_exit_code(capsys, command, flags):
    code, _, err = run_cli([command, *flags], capsys)
    assert code == 2
    assert err.startswith("error: dt and t_final must be finite")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["classical-sim", "quantum-evolve"])
def test_step_count_limit_exit_code(capsys, command):
    code, _, err = run_cli([command, "--t-final", "1e9"], capsys)
    assert code == 2
    assert err == "error: t_final / dt = 1e+12 steps, more than MAX_STEPS = 1000000\n"


def test_quantum_evolve_positivity_exit_code(capsys):
    code, _, err = run_cli(["quantum-evolve", "--dt", "1", "--t-final", "30"], capsys)
    assert code == 3
    assert "error:" in err


def test_stationary_command(capsys):
    code, out, _ = run_cli(["stationary", "--a", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["b"] == 0.0
    assert np.abs(np.array(payload["rho"]["re"]) - 0.25).max() == 0.0
    assert np.abs(np.array(payload["rho"]["im"])).max() == 0.0
    assert abs(payload["quadratic_roots"][0]) < 1e-12
    assert abs(payload["quadratic_roots"][1] - 1.0) < 1e-12
    assert abs(sum(payload["eigenvalues"]) - 1.0) < 1e-10


def test_stationary_requires_a(capsys):
    code, _, err = run_cli(["stationary"], capsys)
    assert code == 2
    assert "--a" in err


def test_stationary_invalid_params(capsys):
    code, _, err = run_cli(["stationary", "--a", "0.3", "--c-re", "0.5"], capsys)
    assert code == 2
    assert "positivity" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stationary", "--a", "nan"], "error: a must be finite, got nan\n"),
        (["ppt", "--a", "0.5", "--c-re", "nan"], "error: c must be finite, got (nan+0j)\n"),
    ],
)
def test_nonfinite_params_exit_code(capsys, argv, message):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err == message


@pytest.mark.parametrize("command", ["stationary", "ppt"])
def test_overflowing_coupling_exit_code(capsys, command):
    # |c|^2 overflows to inf: refused as input, not an internal error
    code, _, err = run_cli([command, "--a", "0.5", "--c-re", "1e200"], capsys)
    assert code == 2
    assert err == "error: positivity needs a*b >= |c|^2, got a*b = 0.25, |c|^2 = inf\n"


@pytest.mark.parametrize("command", ["stationary", "ppt"])
@pytest.mark.parametrize(
    "a, message",
    [
        ("1e308", "error: a and b must be nonnegative, got 1e+308, -1e+308\n"),
        ("-1e17", "error: a and b must be nonnegative, got -1e+17, 1e+17\n"),
    ],
)
def test_huge_a_is_blamed_on_a_sign(capsys, command, a, message):
    # b = 1 - a rounds so that a + b reads 0: the fault is the sign of a or b
    assert run_cli([command, "--a", a], capsys) == (2, "", message)


def test_ppt_command(capsys):
    code, out, _ = run_cli(["ppt", "--a", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["separable"] is False
    assert abs(payload["negativity"] - 0.5) < 1e-10
    assert abs(payload["closed_form_eigenvalues"][0] + 0.5) < 1e-12

    # complex c has the closed form too
    code, out, _ = run_cli(["ppt", "--a", "0.7", "--c-im", "0.1"], capsys)
    assert code == 0
    payload = json.loads(out)
    gap = np.abs(np.array(payload["closed_form_eigenvalues"]) - payload["eigenvalues"]).max()
    assert gap < 1e-12

    # next to the double root at a = 0 the closed form still agrees
    code, out, _ = run_cli(["ppt", "--a", "1e-8"], capsys)
    assert code == 0
    payload = json.loads(out)
    gap = np.abs(np.array(payload["closed_form_eigenvalues"]) - payload["eigenvalues"]).max()
    assert gap < 1e-9

    # b = 1e-5: the lowest eigenvalue is only -2.5e-11, and the verdict exact
    code, out, _ = run_cli(["ppt", "--a", "0.99999"], capsys)
    assert code == 0
    assert json.loads(out)["separable"] is False


def test_sweep_deterministic_output(capsys, tmp_path):
    f1 = tmp_path / "one.csv"
    f2 = tmp_path / "two.csv"
    assert cli.main(["sweep", "--grid", "11", "--out", str(f1)]) == 0
    assert cli.main(["sweep", "--grid", "11", "--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    lines = f1.read_text().strip().splitlines()
    assert lines[0] == "a,c,min_pt_eigenvalue,negativity,separable"
    verdicts = {line.rsplit(",", 1)[-1] for line in lines[1:]}
    assert verdicts == {"true", "false"}


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(["sweep", "--grid", "3", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert {r["a"] for r in rows} == {0.0, 0.5, 1.0}
    assert all(not r["separable"] for r in rows if r["a"] == 0.5)


def test_sweep_grid_limit_exit_code(capsys):
    # refused before the grid is allocated, so this returns at once
    code, out, err = run_cli(["sweep", "--grid", "1000000000"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: grid_n must be between 2 and MAX_GRID = 1001, got 1000000000\n"


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_final": 0.002, "init": "1,0,0", "mystery": 1}))
    code, out, err = run_cli(["classical-sim", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 4  # header + 3 states from config t_final
    assert "mystery" in err  # unknown keys are called out

    code, out, _ = run_cli(
        ["classical-sim", "--config", str(cfg), "--t-final", "0.001"], capsys
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 3  # explicit flag beats the file


@pytest.mark.parametrize(
    "config, message",
    [
        ({"grid": [3]}, "error: config value 'grid' must be int, got [3]\n"),
        ({"grid": 2.5}, "error: config value 'grid' must be int, got 2.5\n"),
        ({"grid": True}, "error: config value 'grid' must be int, got True\n"),
    ],
)
def test_config_values_get_option_types(capsys, tmp_path, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert err == message


LONG_VALUE = "x" * 100_000


@pytest.mark.parametrize(
    "command, config, code",
    [
        ("classical-sim", {"init": LONG_VALUE}, 2),
        ("classical-sim", {"init": "1,2," + LONG_VALUE}, 2),
        ("classical-sim", {"init": json.loads("[" * 500 + "]" * 500)}, 2),
        ("classical-sim", {"dt": LONG_VALUE}, 2),
        ("sweep", {"format": LONG_VALUE}, 2),
        ("sweep", {"grid": [3] * 1000}, 2),
        ("sweep", {LONG_VALUE: 1, "grid": 2}, 0),  # the unknown key's warning
    ],
    ids=["triple", "triple-part", "nested-triple", "float", "choice", "int", "unknown-key"],
)
def test_messages_cut_a_long_config_value_short(capsys, tmp_path, command, config, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    got, _, err = run_cli([command, "--config", str(cfg)], capsys)
    assert got == code
    assert "..." in err
    assert max(len(line) for line in err.splitlines()) < 200


def test_config_values_read_like_flags(capsys, tmp_path):
    # a string is converted as the flag's text would be; null keeps the default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "3", "format": None}))
    code, out, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    assert out == run_cli(["sweep", "--grid", "3"], capsys)[1]


def test_config_file_missing(capsys, tmp_path):
    code, _, err = run_cli(["classical-sim", "--config", str(tmp_path / "nope.json")], capsys)
    assert code == 2


DEEP_JSON = "[" * 100000 + "]" * 100000  # nested past the interpreter's recursion limit


def test_deeply_nested_config_is_bad_input(capsys, tmp_path):
    cfg = tmp_path / "deep.json"
    cfg.write_text(DEEP_JSON)
    code, out, err = run_cli(["ppt", "--a", "0.3", "--config", str(cfg)], capsys)
    assert (code, out, err) == (2, "", f"error: {str(cfg)!r} is nested too deeply to read as JSON\n")


def test_deeply_nested_initial_state_is_bad_input(capsys, tmp_path):
    state = tmp_path / "deep.json"
    state.write_text(DEEP_JSON)
    code, out, err = run_cli(["quantum-evolve", "--init", str(state)], capsys)
    assert (code, out, err) == (2, "", f"error: {str(state)!r} is nested too deeply to read as JSON\n")


def test_verify_command_passes(capsys, tmp_path, monkeypatch, verify_results):
    # the session's run_all() results, so the suite runs the checks once
    monkeypatch.setattr(cli, "run_all", lambda: verify_results)
    report_file = tmp_path / "report.txt"
    code, out, _ = run_cli(["verify", "--out", str(report_file)], capsys)
    assert code == 0
    report = report_file.read_text().strip().splitlines()
    assert len(report) == 14  # 13 checks plus the summary line
    assert all(line.startswith("PASS") for line in report[:-1])
    assert report[-1] == "13/13 checks passed"


def test_internal_error_exit_code(capsys, monkeypatch):
    # an unexpected exception is a defect, reported on one line with its own code
    def broken(cfg, out):
        raise RuntimeError("closed form disagrees")

    monkeypatch.setitem(cli._COMMANDS, "ppt", cli._COMMANDS["ppt"]._replace(handler=broken))
    code, out, err = run_cli(["ppt", "--a", "0.3"], capsys)
    assert code == 4
    assert (out, err) == ("", "error: internal error: RuntimeError: closed form disagrees\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["classical-sim", "--dt", "1", "--t-final", "50"],
        ["quantum-evolve", "--dt", "1", "--t-final", "30"],
    ],
    ids=["divergence", "positivity-loss"],
)
def test_failed_run_writes_no_out_file(capsys, tmp_path, argv):
    # the table goes to a temporary file that replaces --out only once the
    # run has succeeded; a failure deletes it
    out_file = tmp_path / "data.csv"
    code, _, err = run_cli([*argv, "--out", str(out_file)], capsys)
    assert code == 3
    assert err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def _one_block_then(error, block):
    """A block generator that yields one good block, then fails."""

    def blocks(*args):
        yield block
        raise error("guard tripped in the second block")

    return blocks


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command, name, failing",
    [
        (
            "classical-sim",
            "integrate_blocks",
            _one_block_then(StepTooLarge, np.array([[0.0, 0.6, 0.8]])),
        ),
        (
            "quantum-evolve",
            "evolve_blocks",
            _one_block_then(PositivityLost, (np.eye(4)[None] / 4.0, np.array([0.25]))),
        ),
    ],
    ids=["divergence", "positivity-loss"],
)
def test_run_failing_after_a_block_leaves_out_as_it_was(
    capsys, tmp_path, monkeypatch, command, name, failing, fmt, existing
):
    monkeypatch.setattr(cli, name, failing)
    out_file = tmp_path / "data.txt"
    if existing:
        out_file.write_bytes(b"old bytes\n")
    code, out, err = run_cli([command, "--format", fmt, "--out", str(out_file)], capsys)
    assert (code, out, err) == (3, "", "error: guard tripped in the second block\n")
    assert [p.name for p in tmp_path.iterdir()] == (["data.txt"] if existing else [])
    if existing:
        assert out_file.read_bytes() == b"old bytes\n"


def test_out_through_a_symlink_writes_its_target(capsys, tmp_path):
    argv = ["classical-sim", "--t-final", "0.002"]
    expected = run_cli(argv, capsys)[1]
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert run_cli([*argv, "--out", str(link)], capsys)[0] == 0
    assert link.is_symlink()
    assert target.read_text() == expected


def test_out_file_gets_the_mode_of_a_plain_open(capsys, tmp_path):
    # a new file gets the umask's mode, a file replaced keeps its own
    existing = tmp_path / "existing.json"
    existing.write_text("old\n")
    existing.chmod(0o600)
    old = os.umask(0o027)
    try:
        with open(tmp_path / "plain.txt", "w"):
            pass
        for path in (tmp_path / "data.json", existing):
            assert run_cli(["ppt", "--a", "0.3", "--out", str(path)], capsys)[0] == 0
    finally:
        os.umask(old)
    mode = os.stat(tmp_path / "data.json").st_mode
    assert mode == os.stat(tmp_path / "plain.txt").st_mode
    assert mode & 0o777 == 0o640
    assert os.stat(existing).st_mode & 0o777 == 0o600
    assert existing.read_text() != "old\n"


def test_out_in_a_missing_folder_is_named_as_given(capsys, tmp_path):
    out_file = str(tmp_path / "missing" / "data.json")
    code, _, err = run_cli(["ppt", "--a", "0.3", "--out", out_file], capsys)
    assert (code, err) == (2, f"error: [Errno 2] No such file or directory: {out_file!r}\n")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["classical-sim"], "integrate_blocks"),
        (["quantum-evolve"], "evolve_blocks"),
        (["stationary", "--a", "0.3"], "stationary_state"),
        (["ppt", "--a", "0.3"], "ppt_analyze"),
        (["sweep"], "sweep"),
        (["verify"], "run_all"),
        pytest.param(["classical-sim", "--init", "0,0.6"], "integrate_blocks", id="bad-init"),
        pytest.param(["quantum-evolve", "--init", "basis:22"], "evolve_blocks", id="bad-state"),
        pytest.param(["stationary", "--a", "2"], "stationary_state", id="bad-weight"),
        pytest.param(["ppt", "--a", "2"], "ppt_analyze", id="bad-point"),
        pytest.param(["sweep", "--grid", "1"], "sweep", id="bad-grid"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_out_in_a_missing_folder_fails_before_computing(capsys, tmp_path, monkeypatch, argv, name):
    # --out's temporary file is opened before the command reads its inputs,
    # so a bad input meeting an --out that cannot be opened is reported as
    # the --out error
    def computed(*args):
        raise AssertionError(f"{name} ran before --out was opened")

    monkeypatch.setattr(cli, name, computed)
    out_file = str(tmp_path / "missing" / "data")
    code, out, err = run_cli([*argv, "--out", out_file], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {out_file!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["classical-sim", "--t-final", "0.002"], "--init", "-0.5,0.6,0.8"),
        (["ppt", "--a", "0.5"], "--c-re", "-1e-3"),
        (["stationary", "--a", "0.5"], "--c-im", "-.1E-1"),
        (["quantum-evolve"], "--t-final", "-inf"),
    ],
    ids=["triple", "exponent", "leading-point", "refused"],
)
def test_values_starting_with_a_minus_follow_a_space(capsys, argv, option, value):
    # every option but --help takes one value, so the next token is that
    # value however it starts; both spellings give the same run
    spaced = run_cli([*argv, option, value], capsys)
    joined = run_cli([*argv, f"{option}={value}"], capsys)
    assert spaced == joined
    assert spaced[0] == (2 if value == "-inf" else 0)


def test_only_regular_files_are_replaced(tmp_path):
    # decided by stat alone; nothing is opened
    regular = tmp_path / "data.csv"
    regular.write_text("")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    assert not cli._writes_in_place(str(regular))
    assert not cli._writes_in_place(str(tmp_path / "missing.csv"))
    assert cli._writes_in_place(str(fifo))
    assert cli._writes_in_place(str(tmp_path))
    assert cli._writes_in_place(os.devnull)


def _reference_table(columns, fmt, records):
    """The table text written whole, cell by cell: the writer's oracle."""
    names = list(columns)
    if fmt == "csv":

        def cell(v):
            if isinstance(v, bool):
                return "true" if v else "false"
            return "" if v != v else format(v, ".17g")

        rows = [",".join(map(cell, row)) for row in zip(*columns.values())]
        return "\n".join([",".join(names), *rows]) + "\n"
    values = [[None if v != v else v for v in col] for col in columns.values()]
    if records:
        return json.dumps([dict(zip(names, row)) for row in zip(*values)]) + "\n"
    return json.dumps(dict(zip(names, values))) + "\n"


@pytest.mark.parametrize("fmt, records", [("csv", False), ("json", False), ("json", True)])
def test_table_chunks_across_block_boundaries(fmt, records):
    block = BLOCK_STEPS
    n = 2 * block + block // 2
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n)
    x[[block - 1, block, 2 * block + 3]] = np.nan  # both sides of the first boundary
    x[[5, 2 * block]] = [-0.0, np.inf]
    columns = {"t": np.arange(n) * 0.1, "x": x, "up": x > 0}
    chunks = list(cli._table_chunks(cli._blocks(columns), fmt, records))
    expected = _reference_table(
        {name: np.asarray(col).tolist() for name, col in columns.items()}, fmt, records
    )
    assert len(chunks) > 3  # the table really is split into blocks
    # the text around the first difference: pytest's own diff of two
    # 100 kB strings takes minutes
    text = "".join(chunks)
    at = max(len(os.path.commonprefix([text, expected])) - 40, 0)
    assert text[at : at + 80] == expected[at : at + 80]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_writer_memory_is_bounded(fmt):
    # about 4 MB of text in twenty blocks of rows; the writer holds one
    # block of it at a time (JSON's object of lists also a 1.6 MB copy of
    # the columns), while the text written whole traces 14-16 MB
    rng = np.random.default_rng(3)
    columns = {f"c{i}": rng.standard_normal(40_000) for i in range(5)}
    written = []

    def counted(chunks):
        for chunk in chunks:
            written.append(len(chunk))
            yield chunk

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with cli._output(os.devnull) as (out, _):
            out.writelines(counted(cli._table_chunks(cli._blocks(columns), fmt)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sum(written) > 4_000_000
    assert peak < 3 * 2**20


def _classical_columns(states, dt):
    x, y, z = states.T
    h, s, k = tracked_scalars(x, y, z)
    return {"t": dt * np.arange(len(states)), "lx": x, "ly": y, "lz": z, "H": h, "S": s, "k": k}


def _quantum_columns(states, lowest, dt, ops):
    return {
        "t": np.arange(len(states)) * dt,
        "lx_avg": np.einsum("tij,ji->t", states, ops.lx).real,
        "ly_avg": np.einsum("tij,ji->t", states, ops.ly).real,
        "lz_avg": np.einsum("tij,ji->t", states, ops.lz).real,
        "l2_avg": np.einsum("tij,ji->t", states, ops.l_squared).real,
        "trace": np.einsum("tii->t", states).real,
        "min_eig": lowest,
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["classical-sim", "quantum-evolve"])
def test_streamed_runs_match_the_whole_run_table(capsys, monkeypatch, command, fmt):
    # 4,501 rows, three blocks of the integrators, against the table and
    # summary of the whole run written at once; lz = 0 leaves k empty
    if command == "classical-sim":
        states = integrate([1.0, 0.5, 0.0], 4.5, 1e-3)
        columns = _classical_columns(states, 1e-3)
        h = columns["H"]
        summary = (
            "final state: lx={} ly={} lz={}\n".format(*map(cli._fmt, states[-1]))
            + f"max |dH|: {cli._fmt(np.abs(h - h[0]).max())}\n"
        )
        init = "1,0.5,0"
    else:
        ops = build_operators()
        rho0 = labelled_state("basis:01")
        states = evolve(rho0, ops, 4.5, 1e-3)
        lowest = np.concatenate([low for _, low in quantum.evolve_blocks(rho0, 4.5, 1e-3)])
        columns = _quantum_columns(states, lowest, 1e-3, ops)
        fit = quantum.project_to_stationary(states[-1])
        summary = (
            f"stationary fit: a={cli._fmt(fit.a)} b={cli._fmt(fit.b)} "
            f"c_re={cli._fmt(fit.c.real)} c_im={cli._fmt(fit.c.imag)} "
            f"residual={cli._fmt(fit.residual)}\n"
        )
        init = "basis:01"
    assert len(states) > 2 * BLOCK_STEPS

    def whole_run(*args):
        raise AssertionError("the command line collected a whole run")

    for module, name in ((classical, "integrate"), (quantum, "evolve")):
        monkeypatch.setattr(module, name, whole_run)
        monkeypatch.setattr(cli, name, whole_run, raising=False)
    argv = [command, "--init", init, "--t-final", "4.5", "--dt", "1e-3", "--format", fmt]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    expected = _reference_table({k: v.tolist() for k, v in columns.items()}, fmt, False)
    at = max(len(os.path.commonprefix([out, expected])) - 40, 0)
    assert out[at : at + 80] == expected[at : at + 80]
    assert len(out) == len(expected)
    assert err == summary


# The --help text of the top level and of each command, as argparse lays it
# out 80 columns wide: pinned so that the command table keeps each option's
# order and wording.
HELP_TEXT = {
    "": """\
usage: syncqubits [-h]
                  {classical-sim,quantum-evolve,stationary,ppt,sweep,verify}
                  ...

Synchronization of two dissipatively coupled qubits: classical flow, master
equation, stationary states, entanglement.

positional arguments:
  {classical-sim,quantum-evolve,stationary,ppt,sweep,verify}
    classical-sim       integrate the classical three-variable flow
    quantum-evolve      integrate the two-qubit master equation
    stationary          print a stationary density matrix and its spectrum
    ppt                 partial-transpose spectrum and separability verdict
    sweep               entanglement verdicts over the (a, c) grid
    verify              run the numbered self-checks

options:
  -h, --help            show this help message and exit
""",
    "classical-sim": """\
usage: syncqubits classical-sim [-h] [--init INIT] [--t-final T_FINAL]
                                [--dt DT] [--out OUT] [--format {csv,json}]
                                [--config CONFIG]

options:
  -h, --help           show this help message and exit
  --init INIT          initial lx,ly,lz (default 0,0.6,0.8)
  --t-final T_FINAL    integration time (default 20)
  --dt DT              RK4 step (default 1e-3)
  --out OUT            write data here instead of standard output
  --format {csv,json}  data format (default csv)
  --config CONFIG      JSON file with default option values
""",
    "quantum-evolve": """\
usage: syncqubits quantum-evolve [-h] [--init INIT] [--t-final T_FINAL]
                                 [--dt DT] [--out OUT] [--format {csv,json}]
                                 [--config CONFIG]

options:
  -h, --help           show this help message and exit
  --init INIT          'mixed', 'basis:IJ' with I,J in {0,1}, or a density-
                       matrix JSON file (default mixed)
  --t-final T_FINAL    integration time (default 20)
  --dt DT              RK4 step (default 1e-3)
  --out OUT            write data here instead of standard output
  --format {csv,json}  data format (default csv)
  --config CONFIG      JSON file with default option values
""",
    "stationary": """\
usage: syncqubits stationary [-h] [--a A] [--c-re C_RE] [--c-im C_IM]
                             [--out OUT] [--config CONFIG]

options:
  -h, --help       show this help message and exit
  --a A            weight of the in-phase projector (required)
  --c-re C_RE      Re c (default 0)
  --c-im C_IM      Im c (default 0)
  --out OUT        write data here instead of standard output
  --config CONFIG  JSON file with default option values
""",
    "ppt": """\
usage: syncqubits ppt [-h] [--a A] [--c-re C_RE] [--c-im C_IM] [--out OUT]
                      [--config CONFIG]

options:
  -h, --help       show this help message and exit
  --a A            weight of the in-phase projector (required)
  --c-re C_RE      Re c (default 0)
  --c-im C_IM      Im c (default 0)
  --out OUT        write data here instead of standard output
  --config CONFIG  JSON file with default option values
""",
    "sweep": """\
usage: syncqubits sweep [-h] [--grid GRID] [--out OUT] [--format {csv,json}]
                        [--config CONFIG]

options:
  -h, --help           show this help message and exit
  --grid GRID          points per axis (default 21)
  --out OUT            write data here instead of standard output
  --format {csv,json}  data format (default csv)
  --config CONFIG      JSON file with default option values
""",
    "verify": """\
usage: syncqubits verify [-h] [--out OUT] [--config CONFIG]

options:
  -h, --help       show this help message and exit
  --out OUT        write data here instead of standard output
  --config CONFIG  JSON file with default option values
""",
}


@pytest.mark.parametrize("command", list(HELP_TEXT), ids=lambda c: c or "top")
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP_TEXT[command]
