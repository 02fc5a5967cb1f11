import math

import numpy as np
import pytest

from syncqubits.classical import (
    StepTooLarge,
    classical_field,
    default_quasithermo,
    dissipative_field,
    finite_difference_gradient,
    integrate,
    quasithermo_field,
    schwinger_map,
    schwinger_map_polar,
    sync_jump,
    sync_jump_grad,
)


def test_field_fixed_point():
    assert np.array_equal(classical_field([1.0, 0.0, 0.0]), np.zeros(3))


def test_field_known_values():
    assert np.array_equal(classical_field([1.0, 2.0, 3.0]), [26.0, -4.0, -6.0])
    assert np.array_equal(classical_field([0.0, 0.0, 1.0]), [2.0, 0.0, 0.0])


def test_schwinger_map_values():
    assert np.allclose(schwinger_map(1.0, 1.0), [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(schwinger_map(1.0, 1.0j), [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(schwinger_map(1.0, 0.0), [0.0, 0.0, 0.5], atol=1e-15)


def test_schwinger_map_polar_phase_difference(rng):
    # ly = r1 r2 sin(phi2 - phi1), so it vanishes exactly at phase lock
    for _ in range(20):
        r1, r2 = rng.uniform(0.1, 2.0, size=2)
        p1, p2 = rng.uniform(-np.pi, np.pi, size=2)
        l = schwinger_map_polar(r1, p1, r2, p2)
        assert abs(l[1] - r1 * r2 * math.sin(p2 - p1)) < 1e-12
        assert abs(l[0] - r1 * r2 * math.cos(p2 - p1)) < 1e-12


def test_sync_jump_and_gradient(rng):
    point = np.array([0.3, -1.2, 0.7])
    assert sync_jump(point) == complex(0.7, 1.2)
    num = finite_difference_gradient(sync_jump, point)
    assert np.abs(num - sync_jump_grad(point)).max() < 1e-9


def test_dissipative_field_matches_direct(rng):
    for _ in range(100):
        point = rng.uniform(-2.0, 2.0, size=3)
        assert np.abs(dissipative_field(point) - classical_field(point)).max() < 1e-12


def test_dissipative_field_custom_coupling():
    # a constant coupling has zero gradient, hence no torque at all
    silent = dissipative_field([1.0, 2.0, 3.0], lambda l: 1.0 + 2.0j, lambda l: np.zeros(3))
    assert np.array_equal(silent, np.zeros(3))


def test_quasithermo_field_matches_direct(rng):
    fns = default_quasithermo()
    for _ in range(100):
        point = rng.uniform(-2.0, 2.0, size=3)
        assert np.abs(quasithermo_field(point, fns) - classical_field(point)).max() < 1e-12


def test_quasithermo_field_parallel_gradients_vanish():
    # S proportional to H gives a field of exact zeros
    fns = default_quasithermo()
    from syncqubits.classical import QuasiThermoFunctions

    degenerate = QuasiThermoFunctions(h=fns.h, s=fns.h, grad_h=fns.grad_h, grad_s=fns.grad_h)
    assert np.array_equal(quasithermo_field([0.4, -1.0, 2.0], degenerate), np.zeros(3))


def test_default_quasithermo_gradients(rng):
    fns = default_quasithermo()
    points = rng.uniform(-2.0, 2.0, size=(20, 3))
    assert fns.gradient_errors(points) < 1e-6


def test_integrate_fixed_point_is_constant():
    traj = integrate([2.0, 0.0, 0.0], 1.0, 1e-2)
    assert np.abs(traj.states - np.array([2.0, 0.0, 0.0])).max() == 0.0


def test_integrate_matches_closed_form():
    # for |l| = 1 and lx(0) = 0 the solution is lx = tanh(2t),
    # (ly, lz) = (ly0, lz0) / cosh(2t)
    traj = integrate([0.0, 0.6, 0.8], 2.0, 1e-3)
    for t_probe in (0.5, 1.0, 2.0):
        i = int(round(t_probe / 1e-3))
        expected = np.array(
            [
                math.tanh(2.0 * t_probe),
                0.6 / math.cosh(2.0 * t_probe),
                0.8 / math.cosh(2.0 * t_probe),
            ]
        )
        assert np.abs(traj.states[i] - expected).max() < 1e-9


def test_integrate_conserves_invariants():
    traj = integrate([0.0, 0.6, 0.8], 20.0, 1e-3)
    assert np.abs(traj.h_values - 0.5).max() < 1e-8
    k = traj.k_values[~np.isnan(traj.k_values)]
    assert np.abs(k - 0.75).max() < 1e-7
    assert np.diff(traj.s_values).min() >= 0.0
    # and it has converged to the synchronized point
    assert np.abs(traj.states[-1] - [1.0, 0.0, 0.0]).max() < 1e-6


def test_integrate_convergence_random(rng):
    # light version of the full ensemble check in the acceptance suite
    for _ in range(5):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        start = direction * np.sqrt(rng.uniform(0.25, 4.0))
        if abs(start[1]) + abs(start[2]) < 1e-8:
            continue
        traj = integrate(start, 30.0, 1e-3)
        length = np.linalg.norm(start)
        assert np.abs(traj.states[-1] - [length, 0.0, 0.0]).max() < 1e-5


def test_trajectory_layout():
    traj = integrate([0.1, 0.2, 0.3], 0.01, 1e-3)
    assert traj.times.shape == (11,)
    assert traj.states.shape == (11, 3)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[0] == 0.0 and np.array_equal(traj.states[0], [0.1, 0.2, 0.3])


def test_k_marker_nan_when_lz_zero():
    # lz = 0 is an invariant plane, so k stays undefined the whole run
    traj = integrate([0.0, 1.0, 0.0], 0.01, 1e-3)
    assert np.isnan(traj.k_values).all()


def test_integrate_divergence_guard():
    with pytest.raises(StepTooLarge):
        integrate([2e6, 0.0, 1.0], 1.0, 1e-3)


def test_integrate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integrate([0.0, 0.6, 0.8], -1.0, 1e-3)
    with pytest.raises(ValueError):
        integrate([0.0, 0.6, 0.8], 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate([np.nan, 0.0, 0.0], 1.0, 1e-3)
    with pytest.raises(ValueError):
        integrate([1.0, 2.0], 1.0, 1e-3)


@pytest.mark.parametrize(
    "t_final, dt", [(math.inf, 1e-3), (1.0, math.nan), (math.nan, 1e-3), (1.0, math.inf)]
)
def test_integrate_rejects_nonfinite_steps(t_final, dt):
    with pytest.raises(ValueError, match="must be finite"):
        integrate([0.0, 0.6, 0.8], t_final, dt)
