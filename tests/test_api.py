"""The package's calls as its callers make them: the benchmark's calls into
the library, and library arguments that fail naming the argument."""

import inspect

import numpy as np
import pytest

import syncqubits
from syncqubits import classical, entanglement, linalg, quantum


def test_the_benchmarks_calls_run():
    # perfbench/worker.py's warm-up calls both integrators positionally,
    # and perfbench/spans.py's step counter binds t_final and dt by name
    ops = syncqubits.build_operators()
    for fn, args, shape in (
        (classical.integrate, ([0.0, 0.6, 0.8], 0.1, 1e-2), (11, 3)),
        (quantum.evolve, (np.eye(4) / 4.0, ops, 0.1, 1e-2), (11, 4, 4)),
    ):
        assert fn(*args).shape == shape
        bound = inspect.signature(fn).bind(*args).arguments
        assert (bound["t_final"], bound["dt"]) == (0.1, 1e-2)
    # perfbench/run.py's setup code and the warm-up's sweep
    assert syncqubits.kernel_basis() is quantum.KERNEL_BASIS
    assert ops is quantum.OPERATORS
    assert len(entanglement.sweep(3)) == 5


#: (call, exception, message) of a library argument that is wrong
WRONG_ARGUMENTS = {
    "sweep-float": (
        lambda: entanglement.sweep(2.5),
        TypeError,
        r"^grid_n must be an integer, got 2\.5$",
    ),
    "sweep-str": (
        lambda: entanglement.sweep("3"),
        TypeError,
        r"^grid_n must be an integer, got '3'$",
    ),
    "sweep-none": (
        lambda: entanglement.sweep(None),
        TypeError,
        r"^grid_n must be an integer, got None$",
    ),
    "cubic-roots-tuple": (
        lambda: entanglement.cubic_roots((0.5, 0.5, 0)),
        TypeError,
        r"^params must be a StationaryParams, got tuple$",
    ),
    "label-none": (
        lambda: quantum.labelled_state(None),
        TypeError,
        r"^label must be a string, got None$",
    ),
    "step-count-huge-int": (
        lambda: classical.step_count(10**400, 1),
        ValueError,
        r"^t_final must be finite, got 1000\S*\.\.\.\S*0000$",
    ),
    "principal-angles-empty": (
        lambda: linalg.principal_angles([], []),
        ValueError,
        r"^u holds no vectors$",
    ),
    "null-space-nan": (
        lambda: linalg.null_space(np.full((2, 2), np.nan)),
        ValueError,
        r"^m must be finite$",
    ),
    "hermitian-eigensystem-nan": (
        lambda: linalg.hermitian_eigensystem(np.full((2, 2), np.nan)),
        ValueError,
        r"^m must be finite$",
    ),
    "principal-angles-nan": (
        lambda: linalg.principal_angles(np.full((4, 1), np.nan), np.eye(4)[:, :1]),
        ValueError,
        r"^u must be finite$",
    ),
    "integrate-ragged": (
        lambda: classical.integrate([[0, 1, 2], [1, 2]], 1, 0.1),
        ValueError,
        r"^initial must be a rectangular array, got \[\[0, 1, 2\], \[1, 2\]\]$",
    ),
    "integrate-blocks-ragged": (
        lambda: next(classical.integrate_blocks([[0, 1, 2], [1, 2]], 1, 0.1)),
        ValueError,
        r"^starts must be a rectangular array, got \[\[0, 1, 2\], \[1, 2\]\]$",
    ),
    "integrate-blocks-complex": (
        lambda: next(classical.integrate_blocks([1j, 0, 0], 1, 0.1)),
        TypeError,
        r"^starts must be real numbers, got \[1j, 0, 0\]$",
    ),
    "lindblad-rhs-3x3": (
        lambda: quantum.lindblad_rhs(np.eye(3)),
        ValueError,
        r"^rho must be a 4x4 matrix, got shape \(3, 3\)$",
    ),
    "ehrenfest-lx-3x3": (
        lambda: quantum.ehrenfest_lx(np.eye(3)),
        ValueError,
        r"^rho must be a 4x4 matrix, got shape \(3, 3\)$",
    ),
    "params-unbroadcastable": (
        lambda: quantum.StationaryParams([0.5, 0.5], [0.5, 0.5, 0.5], 0),
        ValueError,
        r"^a, b and c must broadcast to one shape, got shapes \(2,\), \(3,\), \(\)$",
    ),
    "params-ragged": (
        lambda: quantum.StationaryParams([0.5, [0.5]], 0.5, 0),
        ValueError,
        r"^a must be a rectangular array, got \[0\.5, \[0\.5\]\]$",
    ),
    "params-huge-int": (
        lambda: quantum.StationaryParams(10**400, 0.5, 0),
        quantum.InvalidParams,
        r"^a must be finite, got 1000\S*\.\.\.\S*0000$",
    ),
    "check-density-matrix-ragged": (
        lambda: quantum.check_density_matrix([[1, 0], [0]]),
        ValueError,
        r"^rho must be a rectangular array, got \[\[1, 0\], \[0\]\]$",
    ),
    "evolve-blocks-ragged": (
        lambda: next(quantum.evolve_blocks([[1, 0], [0]], 1, 0.1)),
        ValueError,
        r"^rho0 must be a rectangular array, got \[\[1, 0\], \[0\]\]$",
    ),
    "project-to-stationary-ragged": (
        lambda: quantum.project_to_stationary([[1, 0], [0]]),
        ValueError,
        r"^rho must be a rectangular array, got \[\[1, 0\], \[0\]\]$",
    ),
}


@pytest.mark.parametrize(
    "call, error, message", WRONG_ARGUMENTS.values(), ids=WRONG_ARGUMENTS.keys()
)
def test_a_wrong_library_argument_is_named(call, error, message):
    with pytest.raises(error, match=message):
        call()
