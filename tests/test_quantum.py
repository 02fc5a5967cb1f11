import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncqubits import quantum
from syncqubits.entanglement import ppt_analyze
from syncqubits.classical import BLOCK_STEPS
from syncqubits.quantum import (
    InvalidParams,
    PositivityLost,
    StationaryParams,
    build_operators,
    check_density_matrix,
    density_matrix_from_json,
    density_matrix_to_json,
    ehrenfest_lx,
    evolve,
    evolve_blocks,
    kernel_basis,
    labelled_state,
    lindblad_rhs,
    liouvillian_matrix,
    point_label,
    project_to_stationary,
    random_density_matrix,
    random_stationary_coefficients,
    stationary_state,
    vec,
)

JUMP_EXPECTED = 0.5 * np.array(
    [[2, -1, -1, 0], [1, 0, 0, -1], [1, 0, 0, -1], [0, 1, 1, -2]], dtype=complex
)


def test_operator_entries(ops):
    assert np.array_equal(ops.lz, np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex))
    assert np.array_equal(ops.jump, JUMP_EXPECTED)
    assert np.array_equal(ops.jump, ops.lz - 1j * ops.ly)
    assert np.array_equal(ops.jump_dagger, ops.jump.conj().T)
    # first row spelled out, as a guard against basis-ordering slips
    assert np.array_equal(ops.jump[0], 0.5 * np.array([2.0, -1.0, -1.0, 0.0]))


def test_operators_are_hermitian(ops):
    for m in (ops.lx, ops.ly, ops.lz, ops.l_squared):
        assert np.abs(m - m.conj().T).max() == 0.0


def test_l_squared_consistent(ops):
    total = ops.lx @ ops.lx + ops.ly @ ops.ly + ops.lz @ ops.lz
    assert np.abs(ops.l_squared - total).max() < 1e-15
    for comp in (ops.lx, ops.ly, ops.lz):
        assert np.abs(ops.l_squared @ comp - comp @ ops.l_squared).max() < 1e-15


def test_operator_commutators(ops):
    # the collective components close the usual angular-momentum algebra,
    # and [J, J+] = 2 lx for the jump operator
    assert np.abs(ops.ly @ ops.lz - ops.lz @ ops.ly - 1j * ops.lx).max() < 1e-15
    jump_commutator = ops.jump @ ops.jump_dagger - ops.jump_dagger @ ops.jump
    assert np.abs(jump_commutator - 2.0 * ops.lx).max() < 1e-15


def test_operators_read_only(ops):
    with pytest.raises(ValueError):
        ops.jump[0, 0] = 5.0


def test_kernel_basis_is_one_read_only_instance(basis):
    assert kernel_basis() is quantum.KERNEL_BASIS is basis
    with pytest.raises(ValueError):
        basis.psi1[0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.psi2 = basis.psi1


def test_kernel_basis_annihilated(ops, basis):
    assert np.abs(ops.jump @ basis.psi1).max() == 0.0
    assert np.abs(ops.jump @ basis.psi2).max() == 0.0
    assert abs(np.vdot(basis.psi1, basis.psi2)) == 0.0
    assert abs(np.linalg.norm(basis.psi1) - 1.0) < 1e-15
    assert abs(np.linalg.norm(basis.psi2) - 1.0) < 1e-15
    # the singlet carries zero total angular momentum
    assert np.abs(ops.l_squared @ basis.psi2).max() < 1e-15


def test_rhs_vanishes_on_dark_states(ops, basis):
    for v in (basis.psi1, basis.psi2):
        rho = np.outer(v, v.conj())
        assert np.abs(lindblad_rhs(rho)).max() < 1e-15


def test_rhs_of_mixed_state_is_lx(ops):
    # 2 J J+ - 2 J+ J = 2 [J, J+] has trace-free part 4 lx; on 1/4 it gives lx
    assert np.abs(lindblad_rhs(np.eye(4) / 4.0) - ops.lx).max() < 1e-15


def test_rhs_preserves_hermiticity_and_trace(ops, rng):
    for _ in range(100):
        rho = random_density_matrix(rng)
        out = lindblad_rhs(rho)
        assert abs(np.trace(out)) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12


def test_ehrenfest_values(ops, basis):
    assert abs(ehrenfest_lx(np.eye(4) / 4.0) - 2.0) < 1e-14
    assert ehrenfest_lx(np.outer(basis.psi2, basis.psi2.conj())) == 0.0
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    assert abs(ehrenfest_lx(rho00) - 3.0) < 1e-14


def test_ehrenfest_identity(ops, rng):
    for _ in range(100):
        rho = random_density_matrix(rng)
        via_rhs = np.trace(ops.lx @ lindblad_rhs(rho)).real
        assert abs(ehrenfest_lx(rho) - via_rhs) < 1e-12


def test_absorber_is_positive_semidefinite(ops):
    absorb = ops.jump_dagger @ ops.jump
    assert np.linalg.eigvalsh(absorb).min() >= -1e-12


def test_expectation_value(ops):
    # <lz> = tr(rho lz) on |11> is exactly -1
    rho = np.zeros((4, 4), dtype=complex)
    rho[3, 3] = 1.0
    assert np.trace(rho @ ops.lz).real == -1.0


def test_stationary_params_validation():
    StationaryParams(0.3, 0.7, 0.2)  # fine
    with pytest.raises(InvalidParams):
        StationaryParams(0.5, 0.6, 0.0)
    with pytest.raises(InvalidParams):
        StationaryParams(0.3, 0.7, 0.5)  # a b = 0.21 < 0.25
    with pytest.raises(InvalidParams):
        StationaryParams(-0.1, 1.1, 0.0)


@pytest.mark.parametrize(
    "a, b, c, name",
    [
        (math.nan, 0.5, 0.0, "a"),
        (0.5, math.inf, 0.0, "b"),
        (0.5, 0.5, complex(math.nan, 0.0), "c"),
        (0.5, 0.5, complex(0.0, -math.inf), "c"),
    ],
)
def test_stationary_params_rejects_nonfinite(a, b, c, name):
    # NaN passes every range comparison, so it must be caught first
    with pytest.raises(InvalidParams, match=f"^{name} must be finite"):
        StationaryParams(a, b, c)


def test_stationary_params_point_holds_python_scalars():
    params = StationaryParams(np.float64(0.5), np.array(0.5), 0)
    assert type(params.a) is float and type(params.b) is float and type(params.c) is complex
    assert (params.a, params.b, params.c) == (0.5, 0.5, 0j)


def test_stationary_params_stack_names_the_first_invalid_point():
    with pytest.raises(
        InvalidParams,
        match=r"^positivity needs a\*b >= \|c\|\^2, got a\*b = 0\.21, \|c\|\^2 = 0\.25 "
        r"at \(a, c\) = \(0\.3, 0\.5\)$",
    ):
        StationaryParams([0.5, 0.3, 0.3], [0.5, 0.7, 0.7], [0.1, 0.5, 0.9])
    stack = StationaryParams(0.5, 0.5, [0.1, 0.2j])  # scalars broadcast
    assert stack.a.shape == stack.b.shape == stack.c.shape == (2,)
    assert stack.a.dtype == stack.b.dtype == float and stack.c.dtype == complex
    assert not (stack.a.flags.writeable or stack.b.flags.writeable or stack.c.flags.writeable)


def test_stationary_params_stack_copies_its_arguments():
    a = np.array([0.5, 0.3])
    stack = StationaryParams(a, 1.0 - a, 0.0)
    a[0] = 7.0
    assert stack.a.tolist() == [0.5, 0.3]


# numpy's own cast would only warn and drop the imaginary part
_CAST_WARNS = pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")


@pytest.mark.parametrize(
    "a, b",
    [
        (0.5j, 0.5),
        (0.5, 0.5 + 0j),
        ([0.5, 0.5j], [0.5, 0.5]),
        ([0.5, 0.5], [0.5 + 0j, 0.5]),
        pytest.param(np.complex128(0.5), 0.5, marks=_CAST_WARNS),
        pytest.param(np.array([0.5 + 0.1j]), [0.5], marks=_CAST_WARNS),
    ],
    ids=["point-a", "point-b", "stack-a", "stack-b", "numpy-point", "numpy-stack"],
)
def test_stationary_params_rejects_complex_weights(a, b):
    # only c may be complex
    with pytest.raises(TypeError, match="must be real"):
        StationaryParams(a, b, 0.0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((None, 0.5, 0.0), "^a must be a number or an array of numbers, got None$"),
        ((0.5, [0.5, None], 0.0), r"^b must be a number or an array of numbers, got \[0\.5, None\]$"),
        ((0.5, 0.5, "0"), "^c must be a number or an array of numbers, got '0'$"),
    ],
    ids=["none", "none-in-a-stack", "string"],
)
def test_stationary_params_names_a_value_that_is_no_number(args, message):
    # numpy would cast None to NaN, and a string to the number it spells
    with pytest.raises(TypeError, match=message):
        StationaryParams(*args)


@given(
    a=st.one_of(st.floats(-0.1, 1.1), st.floats()),
    re=st.one_of(st.floats(-0.6, 0.6), st.floats()),
    im=st.one_of(st.just(0.0), st.floats(-0.6, 0.6), st.floats()),
    drift=st.sampled_from([0.0, 1e-13, 1e-11]),
)
def test_stationary_params_checks_a_stack_point_by_point(a, re, im, drift):
    # one set of conditions: a stack fails where its point alone does, with
    # the same message plus the point; when the middle point is valid, the
    # last one, with b < 0, is named
    b = 1.0 - a + drift
    c = complex(re, im)
    expected = "a and b must be nonnegative, got 2.0, -1.0 at (a, c) = (2.0, 0.0)"
    try:
        StationaryParams(a, b, c)
    except InvalidParams as exc:
        expected = f"{exc} at {point_label(a, c)}"
    with pytest.raises(InvalidParams) as info:
        StationaryParams([0.5, a, 2.0], [0.5, b, -1.0], [0.0, c, 0.0])
    assert str(info.value) == expected


def test_stationary_state_corners(basis):
    uniform = stationary_state(StationaryParams(1.0, 0.0, 0.0))
    assert np.abs(uniform - 0.25).max() == 0.0
    singlet = stationary_state(StationaryParams(0.0, 1.0, 0.0))
    assert np.abs(singlet - np.outer(basis.psi2, basis.psi2.conj())).max() == 0.0


def test_stationary_state_entry_pattern(rng):
    # entries follow the a/4, b/2, c/(2 sqrt 2) pattern worked out by hand
    for _ in range(20):
        params = StationaryParams(*random_stationary_coefficients(rng))
        a4 = params.a / 4.0
        b2 = params.b / 2.0
        cp = params.c.real / (2.0 * math.sqrt(2.0))
        cq = params.c.real / math.sqrt(2.0)
        expected = np.array(
            [
                [a4, a4 + cp, a4 - cp, a4],
                [a4 + cp, a4 + b2 + cq, a4 - b2, a4 + cp],
                [a4 - cp, a4 - b2, a4 + b2 - cq, a4 - cp],
                [a4, a4 + cp, a4 - cp, a4],
            ]
        )
        assert np.abs(stationary_state(params) - expected).max() < 1e-14


def test_stationary_state_is_stationary(ops, rng):
    for i in range(50):
        params = StationaryParams(*random_stationary_coefficients(rng, real_c=i % 2 == 0))
        rho = stationary_state(params)
        check_density_matrix(rho)
        assert np.abs(lindblad_rhs(rho)).max() < 1e-12


def test_stationary_spectrum_quadratic(rng):
    w = np.linalg.eigvalsh(stationary_state(StationaryParams(0.5, 0.5, 0.0)))
    assert np.abs(w - [0.0, 0.0, 0.5, 0.5]).max() < 1e-12
    for _ in range(20):
        params = StationaryParams(*random_stationary_coefficients(rng, real_c=False))
        w = np.linalg.eigvalsh(stationary_state(params))
        det = params.a * params.b - abs(params.c) ** 2
        disc = math.sqrt(max(1.0 - 4.0 * det, 0.0))
        assert np.abs(w[:2]).max() < 1e-10
        assert np.abs(w[2:] - [0.5 * (1 - disc), 0.5 * (1 + disc)]).max() < 1e-10


def test_project_round_trip():
    params = StationaryParams(0.3, 0.7, 0.1 + 0.05j)
    fit = project_to_stationary(stationary_state(params))
    assert abs(fit.a - 0.3) < 1e-14
    assert abs(fit.b - 0.7) < 1e-14
    assert abs(fit.c - (0.1 + 0.05j)) < 1e-14
    assert fit.residual < 1e-14


@pytest.mark.parametrize(
    "rho, message",
    [
        (np.eye(3), r"^rho must be a 4x4 matrix, got shape \(3, 3\)$"),
        (np.full((4, 4), np.nan), "^rho must be finite$"),
    ],
    ids=["shape", "nan"],
)
def test_project_rejects_what_is_no_two_qubit_matrix(rho, message):
    with pytest.raises(ValueError, match=message):
        project_to_stationary(rho)


def test_project_mixed_state_far_from_family():
    fit = project_to_stationary(np.eye(4) / 4.0)
    assert abs(fit.a - 0.25) < 1e-14
    assert abs(fit.b - 0.25) < 1e-14
    assert fit.residual > 0.1


def test_project_state_orthogonal_to_kernel():
    v = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0)
    fit = project_to_stationary(np.outer(v, v.conj()))
    assert fit.a < 1e-14 and fit.b < 1e-14
    assert abs(fit.residual - 0.5) < 1e-14


@settings(max_examples=30, deadline=None)
@given(start=st.integers(0, 2**32 - 1))  # the seed of a random state, or a label
@example(start="mixed")
@example(start="basis:00")
@example(start="basis:01")
@example(start="basis:10")
@example(start="basis:11")
def test_run_ends_at_the_member_fixed_by_its_start(ops, basis, start):
    # J psi1 = J psi2 = J+ psi2 = 0 conserves b and c, so a run from rho0
    # ends at the member (1 - b0, b0, c0), entangled iff b0 > 0
    if isinstance(start, str):
        rho0 = labelled_state(start)
    else:
        rho0 = random_density_matrix(np.random.default_rng(start))
    b0 = float((basis.psi2.conj() @ rho0 @ basis.psi2).real)
    c0 = complex(basis.psi1.conj() @ rho0 @ basis.psi2)
    for states, _ in evolve_blocks(rho0, 20.0, 1e-2):
        last = states[-1].copy()
    predicted = StationaryParams(1.0 - b0, b0, c0)
    assert np.abs(last - stationary_state(predicted)).max() <= 1e-10
    report = ppt_analyze(predicted)
    assert report.separable == (b0 <= 0.0)
    assert report.separable or report.min_eigenvalue < 0.0


@pytest.mark.parametrize("label", ["basis:00", "basis:01", "basis:10", "basis:11", "mixed"])
def test_run_approaches_its_member_at_the_slowest_rate(ops, basis, label):
    # L's spectrum is {0 x4, -2 x8, -4 x4}: the distance to the member fixed
    # by the start falls by e^-4 per 2 time units once the rate -4 modes have
    # faded; the mixed start has no weight on the rate -2 modes and falls faster
    rho0 = labelled_state(label)
    b0 = float((basis.psi2.conj() @ rho0 @ basis.psi2).real)
    c0 = complex(basis.psi1.conj() @ rho0 @ basis.psi2)
    member = stationary_state(StationaryParams(1.0 - b0, b0, c0))
    rows = (2000, 4000, 6000)  # t = 2, 4, 6
    distance = {}
    row = 0
    for states, _ in evolve_blocks(rho0, 6.0, 1e-3):
        for r in rows:
            if row <= r < row + len(states):
                distance[r] = np.linalg.norm(states[r - row] - member)
        row += len(states)
    ratios = np.array([distance[4000] / distance[2000], distance[6000] / distance[4000]])
    ratios /= math.exp(-4.0)
    if label == "mixed":
        assert ratios.max() <= 1.02
    else:
        assert np.abs(ratios - 1.0).max() <= 0.02


def test_evolve_dark_state_constant(ops, basis):
    rho0 = np.outer(basis.psi2, basis.psi2.conj())
    states = evolve(rho0, ops, 2.0, 1e-3)
    assert np.abs(states[-1] - rho0).max() < 1e-12


def test_evolve_mixed_state_reaches_family(ops):
    states = evolve(np.eye(4) / 4.0, ops, 10.0, 1e-3)
    fit = project_to_stationary(states[-1])
    assert fit.residual < 1e-6
    assert states.shape == (10001, 4, 4)


def test_evolve_monotone_and_conserving(ops):
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    states = evolve(rho0, ops, 5.0, 1e-3)
    trace = np.einsum("tii->t", states).real
    assert np.abs(trace - 1.0).max() < 1e-9
    s = 2.0 * np.einsum("tij,ji->t", states, ops.lx).real
    assert np.diff(s).min() > -1e-10
    l2 = np.einsum("tij,ji->t", states, ops.l_squared).real
    assert np.abs(l2 - l2[0]).max() < 1e-8


@pytest.mark.parametrize(
    "label, diagonal",
    [
        ("mixed", [0.25, 0.25, 0.25, 0.25]),
        ("basis:00", [1.0, 0.0, 0.0, 0.0]),
        ("basis:01", [0.0, 1.0, 0.0, 0.0]),
        ("basis:10", [0.0, 0.0, 1.0, 0.0]),
        ("basis:11", [0.0, 0.0, 0.0, 1.0]),
    ],
)
def test_labelled_state(label, diagonal):
    assert np.array_equal(labelled_state(label), np.diag(diagonal).astype(complex))


@pytest.mark.parametrize(
    "label, message",
    [
        ("basis:7", "bad basis label '7'"),
        ("basis:011", "bad basis label '011'"),
        ("pure", "unknown state label 'pure'"),
    ],
)
def test_labelled_state_rejects_unknown(label, message):
    with pytest.raises(ValueError, match=message):
        labelled_state(label)


def test_evolve_large_step_loses_positivity(ops):
    with pytest.raises(PositivityLost):
        evolve(np.eye(4) / 4.0, ops, 30.0, 1.0)


def test_evolve_rejects_bad_input(ops):
    with pytest.raises(ValueError):
        evolve(np.eye(4) / 2.0, ops, 1.0, 1e-3)  # trace 2
    with pytest.raises(ValueError):
        evolve(np.eye(4) / 4.0, ops, -1.0, 1e-3)
    with pytest.raises(ValueError, match="shape"):
        evolve(np.eye(2) / 2.0, ops, 1.0, 1e-3)  # a valid state, but of one qubit


def test_evolve_validates_its_state_once(ops, monkeypatch):
    calls = []

    def counted(rho, name):
        calls.append(name)
        return density_matrix(rho, name)

    density_matrix = quantum._density_matrix
    monkeypatch.setattr(quantum, "_density_matrix", counted)
    evolve(np.eye(4) / 4.0, ops, 0.01, 1e-3)
    assert calls == ["rho0"]
    # a bad state is still reported before bad steps
    with pytest.raises(ValueError, match=r"^rho0 must have trace 1, got \(2\+0j\)$"):
        evolve(np.eye(4) / 2.0, ops, -1.0, 1e-3)
    with pytest.raises(ValueError, match="^rho0 must have trace 1"):
        next(evolve_blocks(np.eye(4) / 2.0, -1.0, 1e-3))


@pytest.mark.parametrize(
    "t_final, dt", [(math.inf, 1e-3), (1.0, math.nan), (math.nan, 1e-3), (1.0, math.inf)]
)
def test_evolve_rejects_nonfinite_steps(ops, t_final, dt):
    with pytest.raises(ValueError, match="must be finite"):
        evolve(np.eye(4) / 4.0, ops, t_final, dt)


def test_evolve_rejects_too_many_steps(ops):
    # checked before the (1e12 + 1, 4, 4) stack would be allocated
    with pytest.raises(ValueError, match="MAX_STEPS"):
        evolve(np.eye(4) / 4.0, ops, 1e9, 1e-3)


def test_evolve_divergence_names_first_bad_time(ops, monkeypatch):
    # at dt = 1 an eigenvalue is far below -1e-6 after one step, hundreds of
    # steps before the state stops being finite in the same block: the
    # earlier failure is the one named
    with pytest.raises(PositivityLost, match=r"^eigenvalue -\S+ at t = 1; reduce dt$"):
        evolve(np.eye(4) / 4.0, ops, 3000.0, 1.0)
    # with that floor out of the way, the first state that is not finite
    monkeypatch.setattr(quantum, "POSITIVITY_ERROR", -np.inf)
    with pytest.raises(PositivityLost, match="^state diverged at t = ") as exc:
        evolve(np.eye(4) / 4.0, ops, 3000.0, 1.0)
    t_bad = float(str(exc.value).rsplit("= ", 1)[1])
    assert 1.0 < t_bad < 3000.0
    # one step earlier every state is still finite
    assert np.isfinite(evolve(np.eye(4) / 4.0, ops, t_bad - 1.0, 1.0)).all()


def _rk4_reference(rho, dt, n_steps):
    """Classical four-stage RK4 on lindblad_rhs, the reference for evolve."""
    out = [rho]
    for _ in range(n_steps):
        k1 = lindblad_rhs(rho)
        k2 = lindblad_rhs(rho + 0.5 * dt * k1)
        k3 = lindblad_rhs(rho + 0.5 * dt * k2)
        k4 = lindblad_rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(rho)
    return np.stack(out)


def test_evolve_matches_staged_rk4(ops, rng, monkeypatch):
    # The model's jump operator is real, which makes its generator the same
    # under row and column stacking; a complex one, put in place of the
    # model's operators, tells the two apart.
    jump = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    complex_ops = dataclasses.replace(ops, jump=jump, jump_dagger=jump.conj().T)
    for model in (ops, ops, complex_ops, complex_ops):
        monkeypatch.setattr(quantum, "OPERATORS", model)
        rho0 = random_density_matrix(rng)
        states = evolve(rho0, model, 2.0, 1e-3)
        assert states.shape == (2001, 4, 4)
        assert np.abs(states - _rk4_reference(rho0, 1e-3, 2000)).max() < 1e-12


def test_evolve_takes_only_the_model_operators(ops):
    # an equal copy is refused as well: evolve runs the one set it reads
    for other in (dataclasses.replace(ops), dataclasses.replace(ops, jump=-ops.jump)):
        with pytest.raises(ValueError, match=r"^evolve takes only the model's operators"):
            evolve(np.eye(4) / 4.0, other, 0.01, 1e-3)


@settings(deadline=None)
@given(
    entries=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
    dt=st.floats(0.0, 0.1, exclude_min=True),
)
def test_evolve_one_step_is_rk4_step(ops, entries, dt):
    a = np.array(entries[:16]).reshape(4, 4) + 1j * np.array(entries[16:]).reshape(4, 4)
    rho0 = a @ a.conj().T + 0.1 * np.eye(4)  # Hermitian, safely positive
    rho0 /= np.trace(rho0).real
    states = evolve(rho0, ops, dt, dt)
    assert states.shape == (2, 4, 4)
    assert np.abs(states[1] - _rk4_reference(rho0, dt, 1)[1]).max() < 1e-13


def test_evolve_stays_hermitian_without_correction(ops, rng):
    states = evolve(random_density_matrix(rng), ops, 20.0, 1e-3)
    assert states.shape == (20001, 4, 4)
    assert np.abs(states - states.conj().transpose(0, 2, 1)).max() <= 1e-12


def _unvec(v):
    """Inverse of vec for a square matrix."""
    dim = int(np.sqrt(v.size))
    return v.reshape(dim, dim, order="F")


def test_vec_unvec_round_trip(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(_unvec(vec(m)), m)
    # column stacking: vec of A X B equals kron(B.T, A) vec(X)
    a, x, b = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3))
    assert np.abs(vec(a @ x @ b) - np.kron(b.T, a) @ vec(x)).max() < 1e-12


def test_liouvillian_matches_rhs(ops, rng):
    lmat = liouvillian_matrix()
    for _ in range(20):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        direct = lindblad_rhs(h)
        assert np.abs(_unvec(lmat @ vec(h)) - direct).max() < 1e-12


def test_liouvillian_kernel_structure(ops, basis):
    from syncqubits.linalg import null_space, principal_angles

    lmat = liouvillian_matrix()
    assert np.abs(lmat @ vec(np.outer(basis.psi1, basis.psi1.conj()))).max() < 1e-15
    assert np.abs(lmat @ vec(np.eye(4) / 4.0) - vec(ops.lx)).max() < 1e-15
    kern = null_space(lmat)
    assert len(kern) == 4
    span = [
        vec(np.outer(u, v.conj()))
        for u in (basis.psi1, basis.psi2)
        for v in (basis.psi1, basis.psi2)
    ]
    assert principal_angles(kern, span).max() < 1e-8


@given(
    dim=st.integers(1, 4),
    parts=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=32, max_size=32),
)
def test_density_matrix_json_round_trip(dim, parts):
    # exact for any finite complex matrix, signed zeros included
    m = np.array(parts[: 2 * dim * dim]).view(complex).reshape(dim, dim)
    payload = json.loads(json.dumps(density_matrix_to_json(m)))
    assert payload["dim"] == dim
    assert density_matrix_from_json(payload).tobytes() == m.tobytes()


def test_density_matrix_json_rejects_garbage():
    with pytest.raises(ValueError):
        density_matrix_from_json({"dim": 3, "re": [1.0], "im": [0.0]})
    with pytest.raises(ValueError):
        density_matrix_from_json({"re": [1.0]})


def test_check_density_matrix_rejects_bad_states():
    with pytest.raises(ValueError, match=r"^rho must have trace 1, got \(4\+0j\)$"):
        check_density_matrix(np.eye(4))
    with pytest.raises(ValueError, match="^rho is not Hermitian"):
        check_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="^rho is not positive: lowest eigenvalue -5.000e-01$"):
        check_density_matrix(np.diag([1.5, -0.5]))
    # refused before any LAPACK call
    with pytest.raises(ValueError, match="empty"):
        check_density_matrix(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="must be finite"):
        check_density_matrix(np.diag([np.inf, -np.inf]))
    with pytest.raises(ValueError, match="must be finite"):
        check_density_matrix(np.array([[0.5, np.nan], [np.nan, 0.5]]))
    # huge finite entries overflow to an infinite trace or deviation, without a warning
    with pytest.raises(ValueError, match="^rho must have trace 1"):
        check_density_matrix(np.full((4, 4), 1e308))
    with pytest.raises(ValueError, match="not Hermitian"):
        check_density_matrix(np.array([[0.5, 1e308], [-1e308, 0.5]]))


def test_random_density_matrix_is_valid(rng):
    for _ in range(10):
        rho = check_density_matrix(random_density_matrix(rng))
        assert np.linalg.eigvalsh(rho).min() > 0.0


# ---------------------------------------------------------------------------
# the block generator behind evolve


def _whole_run(rho0, n_steps, dt):
    """The propagator loop over one preallocated stack of every state."""
    step = quantum._rk4_propagator(dt).dot
    flat = np.empty((n_steps + 1, 16), dtype=complex)
    flat[0] = rho0.ravel()
    for prev, cur in zip(flat[:-1], flat[1:]):
        step(prev, out=cur)
    return flat.reshape(-1, 4, 4)


@pytest.mark.parametrize("n_steps", [BLOCK_STEPS - 1, BLOCK_STEPS, 2 * BLOCK_STEPS + 1])
@pytest.mark.parametrize("label", ["mixed", "basis:01"])
def test_blocks_collect_to_the_whole_run(ops, label, n_steps):
    rho0 = labelled_state(label)
    t_final = n_steps * 1e-3
    whole = _whole_run(rho0, n_steps, 1e-3)
    assert np.array_equal(evolve(rho0, ops, t_final, 1e-3), whole)
    blocks = [(s.copy(), low) for s, low in evolve_blocks(rho0, t_final, 1e-3)]
    full, rest = divmod(n_steps + 1, BLOCK_STEPS)
    assert [len(s) for s, _ in blocks] == [BLOCK_STEPS] * full + ([rest] if rest else [])
    assert np.array_equal(np.concatenate([s for s, _ in blocks]), whole)
    # the positivity check's eigenvalues, block by block, equal one batch
    # over the whole run
    assert np.array_equal(np.concatenate([low for _, low in blocks]), np.linalg.eigvalsh(whole)[:, 0])


def test_last_block_stays_valid_once_the_run_has_ended():
    # the last of two blocks is a view of the buffer the first one filled
    run = evolve_blocks(labelled_state("basis:01"), (BLOCK_STEPS + 9) * 1e-3, 1e-3)
    for states, lowest in run:
        yielded = states.copy(), lowest.copy()
    assert next(run, None) is None
    assert len(states) == 10
    assert np.array_equal(states, yielded[0]) and np.array_equal(lowest, yielded[1])


@pytest.mark.parametrize("block_steps", [2, 4, 5])
def test_positivity_loss_named_alike_in_any_block(ops, monkeypatch, block_steps):
    # at dt = 0.41 an eigenvalue first falls below -1e-6 at step 6, and at
    # dt = 1, with that floor out of the way, the state stops being finite
    # after hundreds of steps: both in a later block of each size tried here
    def message(dt, t_final):
        with pytest.raises(PositivityLost) as exc:
            evolve(np.eye(4) / 4.0, ops, t_final, dt)
        return str(exc.value)

    floor = quantum.POSITIVITY_ERROR
    eigenvalue = message(0.41, 10.0)
    assert eigenvalue.endswith(" at t = 2.46; reduce dt")
    monkeypatch.setattr(quantum, "POSITIVITY_ERROR", -np.inf)
    divergence = message(1.0, 1000.0)
    assert divergence.startswith("state diverged at t = ")
    assert float(divergence.rsplit("= ", 1)[1]) > 5.0
    monkeypatch.setattr(quantum, "BLOCK_STEPS", block_steps)
    assert message(1.0, 1000.0) == divergence
    monkeypatch.setattr(quantum, "POSITIVITY_ERROR", floor)
    assert message(0.41, 10.0) == eigenvalue


def test_evolve_blocks_rejects_bad_arguments(ops):
    # checked when the first block is asked for, before anything is allocated
    with pytest.raises(ValueError, match="trace"):
        next(evolve_blocks(np.eye(4) / 2.0, 1.0, 1e-3))
    with pytest.raises(ValueError, match="MAX_STEPS"):
        next(evolve_blocks(np.eye(4) / 4.0, 1e9, 1e-3))


def test_evolve_blocks_is_fourth_order():
    # against the exact flow exp(t L) vec(rho0), taken by scipy's scaling and
    # squaring (not by diagonalising L, whose -4 block is defective): RK4's
    # error at t = 1 falls 16-fold per halved step, a lower order's at most 8-fold
    scipy_linalg = pytest.importorskip("scipy.linalg")
    psi = np.array([1.0, 1.0j, 0.0, 0.0]) / math.sqrt(2.0)  # (|00> + i|01>) / sqrt(2)
    rho0 = np.outer(psi, psi.conj())
    exact = (scipy_linalg.expm(liouvillian_matrix()) @ vec(rho0)).reshape(4, 4, order="F")
    errors = []
    for dt in (0.04, 0.02, 0.01, 0.005):
        *_, (states, _) = evolve_blocks(rho0, 1.0, dt)
        errors.append(np.abs(states[-1] - exact).max())
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert all(3.8 <= p <= 4.4 for p in orders), orders
