"""verify's quantum ensemble in a second interpreter: the same reductions
as in this process, the same errors, no process left behind, and the
in-process path with one CPU."""

import os
import pickle
import re
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

from syncqubits import verify

SRC = os.path.dirname(os.path.dirname(verify.__file__))


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)


@pytest.fixture
def started(monkeypatch):
    """Every process subprocess.Popen starts, in order."""
    processes = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            processes.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return processes


def _run_script(path, *args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(path)},
    )


def _no_run_here(rho):
    raise AssertionError("a run was made in this process")


def test_the_second_interpreter_reduces_as_this_one(two_cpus, started, monkeypatch):
    here = verify._quantum_ensemble()
    with verify._quantum_beside() as quantum_runs:
        # every run comes from the child once it has ended by itself
        assert started[0].wait(timeout=120) == 0
        monkeypatch.setattr(verify, "_quantum_run", _no_run_here)
        there = quantum_runs()
    assert len(started) == 1
    assert len(there) == len(here) == 6
    for got, expected in zip(there, here):
        assert vars(got).keys() == vars(expected).keys()
        for field, value in vars(expected).items():
            assert np.array_equal(getattr(got, field), value), field


def test_positivity_lost_in_the_child_exits_3(tmp_path):
    # a copy of the package whose every state counts as not positive: the
    # command line's child imports the copy, as its caller did
    shutil.copytree(
        os.path.join(SRC, "syncqubits"),
        tmp_path / "syncqubits",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    quantum_py = tmp_path / "syncqubits" / "quantum.py"
    source = quantum_py.read_text()
    assert source.count("\nPOSITIVITY_ERROR = -1e-6\n") == 1
    quantum_py.write_text(source.replace("\nPOSITIVITY_ERROR = -1e-6\n", "\nPOSITIVITY_ERROR = 1.0\n"))
    proc = _run_script(tmp_path, "-m", "syncqubits.cli", "verify")
    assert (proc.returncode, proc.stdout) == (3, "")
    # verify takes no dt, so the message names the run and gives no advice
    message = r"error: quantum run 1 of 6: eigenvalue \S+ at t = 0\n"
    assert re.fullmatch(message, proc.stderr), proc.stderr


def test_an_unguarded_script_runs_the_checks_once(tmp_path):
    script = tmp_path / "checks.py"
    script.write_text(
        "from syncqubits.verify import run_all\n"
        "print(sum(r.passed for r in run_all()), 'checks passed')\n"
    )
    proc = _run_script(SRC, str(script))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "13 checks passed\n", "")


def test_a_failure_beside_the_child_kills_and_reaps_it(two_cpus, started, monkeypatch):
    def fails(rng):
        raise KeyError("classical ensemble")

    monkeypatch.setattr(verify, "_classical_ensemble", fails)
    with pytest.raises(KeyError, match="classical ensemble"):
        verify.run_all()
    [child] = started
    assert child.returncode == -signal.SIGKILL
    assert child.stdout.closed and child.stderr.closed


def test_a_failed_child_names_its_exit_status(two_cpus, started, monkeypatch):
    monkeypatch.setattr(verify, "_CHILD", "import sys\nsys.exit('no ensemble here')\n")
    message = "^the quantum ensemble's interpreter exited with status 1: no ensemble here$"
    with pytest.raises(RuntimeError, match=message), verify._quantum_beside() as quantum_runs:
        started[0].wait(timeout=120)
        quantum_runs()


def test_a_child_without_a_cpu_leaves_the_runs_here(verify_results, two_cpus, started, monkeypatch):
    # a child that never sends a run, as one starved of CPU by a busy machine
    monkeypatch.setattr(verify, "_CHILD", "import time\ntime.sleep(120)\n")
    assert verify.run_all() == verify_results
    [child] = started
    assert child.returncode == -signal.SIGKILL


def test_runs_from_both_sides_meet(verify_results, two_cpus, started, monkeypatch):
    # a child that sends the first three runs and then stalls: this process
    # runs the last three, and more if the child is slower than it
    child = verify._CHILD.replace("verify._quantum_starts():", "verify._quantum_starts()[:3]:")
    assert child != verify._CHILD
    monkeypatch.setattr(verify, "_CHILD", child + "import time\ntime.sleep(120)\n")
    assert verify.run_all() == verify_results
    assert started[0].returncode == -signal.SIGKILL


def test_positivity_lost_is_raised_for_the_first_start(monkeypatch):
    # with two CPUs the child never sends a run, so this process runs all
    # six, last to first, and starts 4 and 2 lose positivity in that order;
    # with one it runs them first to last, and names the same run
    starts = verify._quantum_starts()

    def run(rho):
        i = next(i for i, start in enumerate(starts) if start is rho)
        if i in (2, 4):
            raise verify.quantum.PositivityLost(f"start {i}")
        return i

    monkeypatch.setattr(verify, "_CHILD", "import time\ntime.sleep(120)\n")
    monkeypatch.setattr(verify, "_quantum_starts", lambda: starts)
    monkeypatch.setattr(verify, "_quantum_run", run)
    for cpus in (2, 1):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
        with pytest.raises(verify.quantum.PositivityLost, match="^quantum run 3 of 6: start 2$"):
            with verify._quantum_beside() as quantum_runs:
                quantum_runs()


def test_positivity_lost_keeps_what_was_lost_across_the_pipe():
    # the child pickles a run's PositivityLost; verify reads its what
    lost = verify.quantum.PositivityLost("eigenvalue -1.000e+00 at t = 0", "reduce dt")
    frame = pickle.dumps(lost)
    [sent] = verify._unframe(bytearray(len(frame).to_bytes(8, "little") + frame))
    assert (str(sent), sent.what) == (str(lost), "eigenvalue -1.000e+00 at t = 0")


def test_one_cpu_runs_the_ensemble_here(verify_results, started, monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    assert verify.run_all() == verify_results
    assert started == []


def test_no_known_interpreter_runs_the_ensemble_here(two_cpus, monkeypatch):
    monkeypatch.setattr(sys, "executable", "")
    with verify._quantum_beside() as quantum_runs:
        assert quantum_runs is verify._quantum_ensemble


def test_no_posix_system_runs_the_ensemble_here(two_cpus, started, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(os, "name", "nt")
        with verify._quantum_beside() as quantum_runs:
            assert quantum_runs is verify._quantum_ensemble
    assert started == []


def test_usable_cpus_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert verify._usable_cpus() == (os.cpu_count() or 1)


def test_the_command_line_does_not_import_subprocess():
    code = "import sys, syncqubits.cli; print('subprocess' in sys.modules)"
    assert _run_script(SRC, "-c", code).stdout == "False\n"
