"""Synchronization of two dissipatively coupled qubits.

A three-variable classical flow that relaxes two coupled oscillators to a
common phase, the two-qubit Lindblad equation it descends from, the full
family of stationary density matrices, and the entanglement every one of
them carries.  The package exports the names its README uses; the rest
lives in the submodules ``classical``, ``quantum``, ``entanglement``,
``linalg``, ``verify`` and ``cli``.
"""

from .classical import integrate
from .entanglement import ppt_analyze, sweep
from .quantum import StationaryParams, build_operators, evolve, kernel_basis, project_to_stationary
