"""Synchronization of two dissipatively coupled qubits.

A three-variable classical flow that relaxes two coupled oscillators to a
common phase, the two-qubit Lindblad equation it descends from, the full
family of stationary density matrices, and the entanglement every one of
them carries.
"""

from .classical import (
    StepTooLarge,
    Trajectory,
    classical_field,
    dissipative_field,
    integrate,
    quasithermo_field,
)
from .entanglement import (
    PTSpectrumReport,
    SweepTable,
    cubic_roots,
    partial_transpose,
    ppt_analyze,
    sweep,
)
from .linalg import (
    DimMismatch,
    NotHermitian,
    hermitian_eigensystem,
    null_space,
    principal_angles,
)
from .quantum import (
    InvalidParams,
    KernelBasis,
    OperatorSet,
    PositivityLost,
    QuantumTrajectory,
    StationaryFit,
    StationaryParams,
    build_operators,
    ehrenfest_lx,
    evolve,
    kernel_basis,
    lindblad_rhs,
    liouvillian_matrix,
    project_to_stationary,
    stationary_state,
)
from .verify import CheckResult, run_all

__version__ = "0.1.0"
