"""The README's promises about the library: its quick start runs as
written, and the command line needs numpy alone."""

import os
import subprocess
import sys

import syncqubits

SRC = os.path.dirname(os.path.dirname(syncqubits.__file__))
README = os.path.join(os.path.dirname(SRC), "README.md")


def _quick_start() -> str:
    """The python block under the README's "Library quick start" heading."""
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs(capsys):
    exec(compile(_quick_start(), "README.md quick start", "exec"), {})
    out = capsys.readouterr().out
    assert "20001 (3, 50)\n" in out
    assert "(2, 4) [0.1036, 0.5]\n" in out
    assert "7845 1\n" in out


def test_cli_import_loads_numpy_only():
    code = "import sys, syncqubits.cli; print(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
        check=True,
    )
    loaded = {name.split(".")[0] for name in proc.stdout.split()}
    assert "numpy" in loaded
    assert not loaded & {"scipy", "sympy", "hypothesis", "pytest", "_pytest"}
