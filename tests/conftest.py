import numpy as np
import pytest

from syncqubits.quantum import build_operators, kernel_basis
from syncqubits.verify import run_all


@pytest.fixture(scope="session")
def ops():
    return build_operators()


@pytest.fixture(scope="session")
def basis():
    return kernel_basis()


@pytest.fixture(scope="session")
def verify_results():
    """The thirteen check results, computed once per test session."""
    return run_all()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
