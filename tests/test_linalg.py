import numpy as np
import pytest
import scipy.linalg

from syncqubits.linalg import (
    DimMismatch,
    NotHermitian,
    hermitian_eigensystem,
    null_space,
    principal_angles,
)

JUMP = 0.5 * np.array(
    [[2, -1, -1, 0], [1, 0, 0, -1], [1, 0, 0, -1], [0, 1, 1, -2]], dtype=complex
)
PSI1 = np.full(4, 0.5, dtype=complex)
PSI2 = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def test_hermitian_eigensystem_diagonal():
    report = hermitian_eigensystem(np.diag([1.0, 0.0, 0.0, -1.0]))
    assert np.array_equal(report.eigenvalues, [-1.0, 0.0, 0.0, 1.0])


def test_hermitian_eigensystem_projector():
    v = np.array([1.0, 2.0j, -1.0, 0.5])
    v = v / np.linalg.norm(v)
    report = hermitian_eigensystem(np.outer(v, v.conj()))
    assert np.abs(report.eigenvalues - [0.0, 0.0, 0.0, 1.0]).max() < 1e-12


def test_hermitian_eigensystem_stationary_mix():
    # equal mix of the two dark-state projectors: eigenvalues 0, 0, 1/2, 1/2
    rho = 0.5 * np.outer(PSI1, PSI1.conj()) + 0.5 * np.outer(PSI2, PSI2.conj())
    report = hermitian_eigensystem(rho)
    assert np.abs(report.eigenvalues - [0.0, 0.0, 0.5, 0.5]).max() < 1e-12


def test_hermitian_eigensystem_random(rng):
    for dim in (2, 3, 5, 8):
        m = random_hermitian(rng, dim)
        report = hermitian_eigensystem(m)
        w, v = report.eigenvalues, report.eigenvectors
        assert np.all(np.diff(w) >= 0)
        assert abs(w.sum() - np.trace(m).real) < 1e-10
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-10
        assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() < 1e-10


def test_hermitian_eigensystem_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigensystem_stack_matches_one_at_a_time(rng):
    stack = np.array([random_hermitian(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
    report = hermitian_eigensystem(stack)
    assert report.eigenvalues.shape == (2, 3, 4)
    assert report.eigenvectors.shape == (2, 3, 4, 4)
    for i in np.ndindex(2, 3):
        one = hermitian_eigensystem(stack[i])
        assert report.eigenvalues[i].tobytes() == one.eigenvalues.tobytes()
        assert report.eigenvectors[i].tobytes() == one.eigenvectors.tobytes()


def test_hermitian_eigensystem_names_the_first_nonhermitian_matrix(rng):
    stack = np.array([random_hermitian(rng, 3) for _ in range(4)])
    stack[3, 1, 0] += 1e-3
    stack[2, 0, 1] += 1e-6
    with pytest.raises(NotHermitian, match=r"^symmetry error 1\.000e-06 .* in matrix \(2,\)$") as info:
        hermitian_eigensystem(stack)
    assert info.value.index == (2,)


@pytest.mark.parametrize("shape", [(4,), (2, 3), (5, 2, 3), (0, 0)])
def test_hermitian_eigensystem_rejects_non_square_shapes(shape):
    with pytest.raises(DimMismatch):
        hermitian_eigensystem(np.zeros(shape))


def test_null_space_of_jump():
    kern = null_space(JUMP)
    assert len(kern) == 2
    angles = principal_angles(kern, [PSI1, PSI2])
    assert angles.max() < 1e-10


def test_null_space_trivial_cases():
    assert null_space(np.eye(4)) == []
    assert len(null_space(np.zeros((4, 4)))) == 4


def test_null_space_random_rank_deficient(rng):
    # build a 6x6 matrix with two prescribed null directions
    q1, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    q2, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    s = np.array([3.0, 2.0, 1.5, 0.7, 0.0, 0.0])
    m = q1 @ np.diag(s) @ q2.conj().T
    kern = null_space(m)
    assert len(kern) == 2
    for v in kern:
        assert np.linalg.norm(m @ v) <= 1e-9
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_principal_angles_against_scipy(rng):
    for _ in range(10):
        u = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        v = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        ours = principal_angles(u, v)
        theirs = np.sort(scipy.linalg.subspace_angles(u, v))
        assert np.abs(ours - theirs).max() < 1e-8


def test_principal_angles_extremes(rng):
    u = rng.normal(size=(5, 2))
    assert principal_angles(u, u).max() < 1e-7
    a = np.eye(4)[:, :2]
    b = np.eye(4)[:, 2:]
    assert abs(principal_angles(a, b).min() - np.pi / 2) < 1e-12


def test_principal_angles_dim_mismatch():
    with pytest.raises(DimMismatch):
        principal_angles(np.eye(4)[:, :2], np.eye(4)[:, :3])
