import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncqubits import entanglement
from syncqubits.entanglement import (
    MAX_GRID,
    cubic_roots,
    partial_transpose,
    ppt_analyze,
    sweep,
)
from syncqubits.quantum import (
    StationaryParams,
    random_density_matrix,
    random_stationary_params,
    stationary_state,
)


def test_partial_transpose_identity():
    assert np.array_equal(partial_transpose(np.eye(4) / 4.0), np.eye(4) / 4.0)


@given(parts=st.lists(st.floats(), min_size=32, max_size=32))
def test_partial_transpose_is_involution(parts):
    # entries are only moved, so twice is the identity bit for bit, NaN included
    m = np.array(parts).view(complex).reshape(4, 4)
    twice = partial_transpose(partial_transpose(m))
    assert twice.tobytes() == m.tobytes()


def test_partial_transpose_moves_coherences():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 3] = 1.0  # |00><11|
    out = partial_transpose(rho)
    assert out[1, 2] == 1.0  # becomes |01><10|
    assert out[0, 3] == 0.0


def test_partial_transpose_subsystems_share_spectrum(rng):
    # transposing qubit 1 instead, done here by hand, is the full transpose
    # of transposing qubit 2, so the spectra agree
    rho = random_density_matrix(rng)
    w1 = np.linalg.eigvalsh(rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4))
    w2 = np.linalg.eigvalsh(partial_transpose(rho))
    assert np.abs(w1 - w2).max() < 1e-10
    assert np.abs(w2 - np.linalg.eigvalsh(rho)).max() > 0.01


def test_partial_transpose_rejects_bad_input():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(3))


def test_singlet_spectrum():
    singlet = stationary_state(StationaryParams(0.0, 1.0, 0.0))
    w = np.linalg.eigvalsh(partial_transpose(singlet))
    assert np.abs(w - [-0.5, 0.5, 0.5, 0.5]).max() < 1e-12


def test_pt_eigenvector_b_half(rng):
    v = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)
    for _ in range(50):
        params = random_stationary_params(rng)
        pt = partial_transpose(stationary_state(params))
        assert np.abs(pt @ v - 0.5 * params.b * v).max() < 1e-12


def test_cubic_roots_corners():
    # pure singlet: double root at 1/2 resolved exactly
    assert np.abs(cubic_roots(StationaryParams(0.0, 1.0, 0.0)) - [-0.5, 0.5, 0.5]).max() < 1e-12
    # uniform in-phase state: roots 0, 0, 1
    assert np.abs(cubic_roots(StationaryParams(1.0, 0.0, 0.0)) - [0.0, 0.0, 1.0]).max() < 1e-12


@settings(deadline=None)
@given(a=st.floats(0.0, 1.0), t=st.floats(-1.0, 1.0))
@example(a=0.0, t=0.0)  # the pure singlet, with its double root at 1/2
@example(a=1e-8, t=0.0)  # next to it, where the coefficients fix the roots only to 1e-8
@example(a=0.5, t=1.0)  # on the boundary ab = c^2
@example(a=1.0, t=0.0)  # the separable corner, roots 0, 0, 1
def test_cubic_roots_match_numerical_spectrum(a, t):
    # c = t sqrt(ab) sweeps the whole valid set; t = +-1 is its boundary
    b = 1.0 - a
    params = StationaryParams(a, b, t * math.sqrt(a * b))
    numeric = np.linalg.eigvalsh(partial_transpose(stationary_state(params)))
    closed = np.sort(np.append(cubic_roots(params), 0.5 * params.b))
    assert np.abs(numeric - closed).max() < 1e-9


def test_cubic_roots_need_real_c():
    with pytest.raises(ValueError):
        cubic_roots(StationaryParams(0.7, 0.3, 0.1j))


def test_exactly_one_negative_root_for_positive_b(rng):
    for _ in range(200):
        params = random_stationary_params(rng, max_a=1.0 - 1e-6)
        roots = cubic_roots(params)
        assert (roots < 0.0).sum() == 1
    roots = cubic_roots(StationaryParams(1.0, 0.0, 0.0))
    assert roots.min() >= -1e-12


def test_ppt_analyze_singlet():
    report = ppt_analyze(StationaryParams(0.0, 1.0, 0.0))
    assert not report.separable
    assert abs(report.negativity - 0.5) < 1e-10
    assert abs(report.min_eigenvalue + 0.5) < 1e-10
    assert np.abs(report.closed_form_eigenvalues - [-0.5, 0.5, 0.5, 0.5]).max() < 1e-12


def test_ppt_analyze_in_phase_corner_is_separable():
    report = ppt_analyze(StationaryParams(1.0, 0.0, 0.0))
    assert report.separable
    assert report.negativity < 1e-10
    assert np.abs(np.sort(report.eigenvalues) - [0.0, 0.0, 0.0, 1.0]).max() < 1e-10


def test_ppt_analyze_generic_states_entangled(rng):
    for _ in range(50):
        params = random_stationary_params(rng, max_a=0.999)
        report = ppt_analyze(params)
        assert not report.separable
        assert report.min_eigenvalue < -1e-12
        assert abs(report.eigenvalues.sum() - 1.0) < 1e-10


@settings(deadline=None)
@given(b=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0), phase=st.floats(0.0, 2.0 * math.pi))
@example(b=1e-5, t=0.0, phase=0.0)  # ppt --a 0.99999, once reported separable
@example(b=1e-5, t=1.0, phase=1.0)
@example(b=0.0, t=0.0, phase=0.0)  # the separable corner
@example(b=1.0, t=0.0, phase=0.0)  # the pure singlet
def test_pt_determinant_decides_the_verdict(b, t, phase):
    # det(rho^T_B) = -b^4/16 on the whole family, complex c included, so
    # b = 0 is the one separable point however small b gets
    a = 1.0 - b
    report = ppt_analyze(StationaryParams(a, b, t * math.sqrt(a * b) * cmath.exp(1j * phase)))
    assert abs(np.prod(report.eigenvalues) + b**4 / 16.0) <= 1e-15
    assert report.separable == (b == 0.0)


def test_ppt_analyze_guards_the_determinant(monkeypatch):
    # a state built with the wrong singlet weight fails the cross-check,
    # also for complex c, where there is no closed form to compare with
    def wrong(params):
        return stationary_state(StationaryParams(params.a - 0.1, params.b + 0.1, params.c))

    monkeypatch.setattr(entanglement, "stationary_state", wrong)
    with pytest.raises(RuntimeError, match="^determinant disagrees with -b\\^4/16 by "):
        ppt_analyze(StationaryParams(0.7, 0.3, 0.1j))


def test_ppt_analyze_complex_c_has_no_closed_form():
    report = ppt_analyze(StationaryParams(0.7, 0.3, 0.1j))
    assert report.closed_form_eigenvalues is None
    assert not report.separable


def test_negativity_decays_with_singlet_weight():
    values = [
        ppt_analyze(StationaryParams(1.0 - b, b, 0.0)).negativity
        for b in (0.5, 0.2, 0.05, 0.01, 0.001)
    ]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert values[-1] < 1e-4  # small weight, nearly separable, but still > 0
    assert values[-1] > 0.0


def test_sweep_grid():
    rows = sweep(11)
    # the full c range only survives near a = 1/2; corners keep c = 0 only
    assert all(r.c * r.c <= r.a * (1.0 - r.a) + 1e-12 for r in rows)
    by_point = {(round(r.a, 6), round(r.c, 6)): r for r in rows}
    assert by_point[(1.0, 0.0)].separable
    assert abs(by_point[(0.0, 0.0)].negativity - 0.5) < 1e-10
    for r in rows:
        if r.a < 1.0:
            assert not r.separable
            assert r.min_pt_eigenvalue < 0.0
    # boundary points with c^2 = a (1 - a) are included
    assert (0.5, 0.5) in by_point and (0.5, -0.5) in by_point


def test_sweep_deterministic_and_ordered():
    rows_a = sweep(5)
    rows_b = sweep(5)
    assert rows_a == rows_b
    a_values = [r.a for r in rows_a]
    assert a_values == sorted(a_values)


def test_sweep_rejects_tiny_grid():
    with pytest.raises(ValueError):
        sweep(1)


def test_sweep_rejects_huge_grid():
    # refused before np.linspace would allocate 8 GB or the loop start
    with pytest.raises(ValueError, match="MAX_GRID = 1001, got 1000000000"):
        sweep(10**9)
    with pytest.raises(ValueError, match="MAX_GRID"):
        sweep(MAX_GRID + 1)
