"""The package's calls as its callers make them: the benchmark's calls into
the library, and library arguments that fail naming the argument."""

import functools
import inspect

import numpy as np
import pytest

import syncqubits
from syncqubits import classical, entanglement, linalg, quantum, verify


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
    "params-huge-int-in-list": (
        lambda: quantum.StationaryParams([0.5, 10**400], 0.5, 0),
        quantum.InvalidParams,
        r"^a must be finite, got \[0\.5, 1000\S*\.\.\.\S*0000\]$",
    ),
    "tracked-scalars-str": (
        lambda: classical.tracked_scalars("a", "b", "c"),
        TypeError,
        r"^x must be a number or an array of numbers, got 'a'$",
    ),
    "integrate-blocks-under-half-a-step": (
        lambda: next(classical.integrate_blocks([0, 0.6, 0.8], 1e-4, 1e-3)),
        ValueError,
        r"^t_final is shorter than half a step$",
    ),
    "null-space-empty": (
        lambda: linalg.null_space([]),
        linalg.DimMismatch,
        r"^m must be a nonempty square matrix, got shape \(0,\)$",
    ),
    "principal-angles-one-vector-as-an-array": (
        lambda: linalg.principal_angles(np.ones(3), np.eye(3)),
        linalg.DimMismatch,
        r"^u must be a nonempty 2-d array, got shape \(3,\)$",
    ),
    "hermitian-eigensystem-vector": (
        lambda: linalg.hermitian_eigensystem(np.ones(3)),
        linalg.DimMismatch,
        r"^m must hold nonempty square matrices, got shape \(3,\)$",
    ),
    "principal-angles-ambient-dimensions": (
        lambda: linalg.principal_angles(np.eye(3)[:, :1], np.eye(4)[:, :1]),
        linalg.DimMismatch,
        r"^ambient dimensions differ: 3 vs 4$",
    ),
    "check-density-matrix-2x3": (
        lambda: quantum.check_density_matrix(np.zeros((2, 3))),
        ValueError,
        r"^rho must be a nonempty square matrix, got shape \(2, 3\)$",
    ),
    "density-matrix-to-json-1x3": (
        lambda: quantum.density_matrix_to_json(np.zeros((1, 3))),
        ValueError,
        r"^rho must be a nonempty square matrix, got shape \(1, 3\)$",
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
    "run-all-str": (
        lambda: verify.run_all("x"),
        TypeError,
        r"^seed must be an integer, got 'x'$",
    ),
    "run-all-negative": (
        lambda: verify.run_all(-1),
        ValueError,
        r"^seed must be nonnegative, got -1$",
    ),
    "tracked-scalars-shapes": (
        lambda: classical.tracked_scalars([1, 2], [1, 2, 3], [1]),
        ValueError,
        r"^x, y and z must have one shape, got \(2,\), \(3,\), \(1,\)$",
    ),
    "classical-field-short": (
        lambda: classical.classical_field([1, 2]),
        ValueError,
        r"^state must have shape \(3,\), got shape \(2,\)$",
    ),
    "classical-field-stack": (
        lambda: classical.classical_field(np.zeros((2, 3))),
        ValueError,
        r"^state must have shape \(3,\), got shape \(2, 3\)$",
    ),
    "dissipative-field-short": (
        lambda: classical.dissipative_field([1, 2]),
        ValueError,
        r"^state must have shape \(3,\), got shape \(2,\)$",
    ),
    "quasithermo-field-long": (
        lambda: classical.quasithermo_field([1, 2, 3, 4]),
        ValueError,
        r"^state must have shape \(3,\), got shape \(4,\)$",
    ),
    "hermitian-eigensystem-overflow": (
        # under warnings-as-errors: the symmetry error overflows to inf quietly
        lambda: linalg.hermitian_eigensystem([[0, 1e308], [-1e308, 0]]),
        linalg.NotHermitian,
        r"^m is not Hermitian: symmetry error inf exceeds tolerance 1\.000e-10$",
    ),
    "lindblad-rhs-nan": (
        lambda: quantum.lindblad_rhs(np.full((4, 4), np.nan)),
        ValueError,
        r"^rho must be finite$",
    ),
    "density-matrix-from-json-fractional-dim": (
        lambda: quantum.density_matrix_from_json({"dim": 4.9, "re": [0.0] * 16, "im": [0.0] * 16}),
        ValueError,
        r"^not a serialized density matrix: dim must be a positive integer, got 4\.9$",
    ),
}


#: (function, the argument it names) of each function that casts an array
#: argument through the package's one cast, called on the string "x"
GIVEN_A_STRING = {
    "classical-field": (classical.classical_field, "state"),
    "dissipative-field": (classical.dissipative_field, "state"),
    "quasithermo-field": (classical.quasithermo_field, "state"),
    "lindblad-rhs": (quantum.lindblad_rhs, "rho"),
    "ehrenfest-lx": (quantum.ehrenfest_lx, "rho"),
    "project-to-stationary": (quantum.project_to_stationary, "rho"),
    "check-density-matrix": (quantum.check_density_matrix, "rho"),
    "evolve-blocks": (lambda rho0: next(quantum.evolve_blocks(rho0, 1, 0.1)), "rho0"),
    "vec": (quantum.vec, "mat"),
    "density-matrix-to-json": (quantum.density_matrix_to_json, "rho"),
    "partial-transpose": (entanglement.partial_transpose, "rho"),
    "hermitian-eigensystem": (linalg.hermitian_eigensystem, "m"),
    "null-space": (linalg.null_space, "m"),
}
WRONG_ARGUMENTS.update(
    (
        f"{key}-str",
        (
            functools.partial(fn, "x"),
            TypeError,
            rf"^{name} must be a number or an array of numbers, got 'x'$",
        ),
    )
    for key, (fn, name) in GIVEN_A_STRING.items()
)


@pytest.mark.parametrize(
    "call, error, message", WRONG_ARGUMENTS.values(), ids=WRONG_ARGUMENTS.keys()
)
def test_a_wrong_library_argument_is_named(call, error, message):
    with pytest.raises(error, match=message):
        call()
