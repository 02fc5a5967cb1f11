import json

import numpy as np
import pytest

from syncqubits import cli
from syncqubits.quantum import density_matrix_to_json


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_ppt_command(capsys):
    code, out, _ = run_cli(["ppt", "--a", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["separable"] is False
    assert abs(payload["negativity"] - 0.5) < 1e-10
    assert abs(payload["closed_form_eigenvalues"][0] + 0.5) < 1e-12

    code, out, _ = run_cli(["ppt", "--a", "0.7", "--c-im", "0.1"], capsys)
    assert code == 0
    assert json.loads(out)["closed_form_eigenvalues"] is None


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


def test_verify_command_passes(capsys, tmp_path):
    report_file = tmp_path / "report.txt"
    code, out, _ = run_cli(["verify", "--out", str(report_file)], capsys)
    assert code == 0
    report = report_file.read_text().strip().splitlines()
    assert len(report) == 14  # 13 checks plus the summary line
    assert all(line.startswith("PASS") for line in report[:-1])
    assert report[-1] == "13/13 checks passed"
