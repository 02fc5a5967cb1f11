import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncqubits import cli, entanglement
from syncqubits.entanglement import (
    MAX_GRID,
    cubic_roots,
    partial_transpose,
    ppt_analyze,
    sweep,
)
from syncqubits.linalg import NotHermitian
from syncqubits.quantum import (
    PARAM_TOL,
    StationaryParams,
    random_density_matrix,
    random_stationary_coefficients,
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


@pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4), (0, 4, 4)])
def test_partial_transpose_never_shares_memory_with_its_input(shape):
    # a broadcast input has equal (zero) strides on its last two axes, so
    # the transposed reshape alone would be a read-only view of it
    for rho in (
        np.arange(math.prod(shape), dtype=complex).reshape(shape),
        np.broadcast_to(np.complex128(0.25), shape),
    ):
        out = partial_transpose(rho)
        assert out.shape == shape
        assert not np.shares_memory(out, rho)
        assert out.flags.writeable


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
        params = StationaryParams(*random_stationary_coefficients(rng))
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


def test_exactly_one_negative_root_for_positive_b(rng):
    for _ in range(200):
        params = StationaryParams(*random_stationary_coefficients(rng, max_a=1.0 - 1e-6))
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
        params = StationaryParams(*random_stationary_coefficients(rng, max_a=0.999))
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
    # also for complex c; the determinant is checked first
    def wrong(params):
        return stationary_state(StationaryParams(params.a - 0.1, params.b + 0.1, params.c))

    monkeypatch.setattr(entanglement, "stationary_state", wrong)
    with pytest.raises(RuntimeError, match="^determinant disagrees with -b\\^4/16 by "):
        ppt_analyze(StationaryParams(0.7, 0.3, 0.1j))


def test_ppt_analyze_complex_c_has_the_closed_form():
    report = ppt_analyze(StationaryParams(0.7, 0.3, 0.1j))
    assert np.abs(report.closed_form_eigenvalues - report.eigenvalues).max() < 1e-12
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
    table = sweep(11)
    # the full c range only survives near a = 1/2; corners keep c = 0 only
    assert np.all(table.c * table.c <= table.a * (1.0 - table.a) + 1e-12)
    by_point = {
        (round(a, 6), round(c, 6)): i for i, (a, c) in enumerate(zip(table.a, table.c))
    }
    assert table.separable[by_point[(1.0, 0.0)]]
    assert abs(table.negativity[by_point[(0.0, 0.0)]] - 0.5) < 1e-10
    inner = table.a < 1.0
    assert not table.separable[inner].any()
    assert np.all(table.min_pt_eigenvalue[inner] < 0.0)
    # boundary points with c^2 = a (1 - a) are included
    assert (0.5, 0.5) in by_point and (0.5, -0.5) in by_point


def test_sweep_deterministic_and_ordered():
    table_a = sweep(5)
    table_b = sweep(5)
    columns_a, columns_b = table_a.columns(), table_b.columns()
    assert list(columns_a) == ["a", "c", "min_pt_eigenvalue", "negativity", "separable"]
    assert all(columns_a[k].tobytes() == columns_b[k].tobytes() for k in columns_a)
    a_values = list(table_a.a)
    assert a_values == sorted(a_values)


def test_sweep_table_columns_are_read_only():
    table = sweep(5)
    assert len(table) == 13 == table.negativity.size
    assert table.separable.dtype == bool
    for column in table.columns().values():
        with pytest.raises(ValueError):
            column[0] = column[1]


def _reference_sweep(grid_n):
    """sweep's columns computed one grid point at a time."""
    rows = []
    for a in np.linspace(0.0, 1.0, grid_n):
        b = 1.0 - a
        for c in np.linspace(-0.5, 0.5, grid_n):
            if c * c > a * b + PARAM_TOL:
                continue
            params = StationaryParams(float(a), float(b), complex(c))
            w = np.linalg.eigh(partial_transpose(stationary_state(params)))[0]
            rows.append((float(a), float(c), float(w[0]), float(-w[w < 0.0].sum()), params.b <= 0.0))
    names = ["a", "c", "min_pt_eigenvalue", "negativity", "separable"]
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


@pytest.mark.parametrize("grid_n", [2, 3, 21, 41])
def test_sweep_writes_the_per_point_text(grid_n):
    # text, not np.array_equal, which cannot tell -0.0 (the b = 0 corner's
    # negativity) from 0.0
    reference = _reference_sweep(grid_n)
    columns = sweep(grid_n).columns()
    for fmt in ("csv", "json"):
        expected = "".join(cli._table_chunks(cli._blocks(reference), fmt, records=True))
        assert "".join(cli._table_chunks(cli._blocks(columns), fmt, records=True)) == expected


def _perturb_eigenvalues(monkeypatch, points, factors):
    """Scale the numerical PT spectrum of each (a, c) in ``points`` by ``factors``."""
    targets = [
        partial_transpose(stationary_state(StationaryParams(a, 1.0 - a, c))) for a, c in points
    ]
    solve = entanglement.hermitian_eigensystem

    def perturbed(stack):
        w, v = solve(stack)
        w = w.copy()
        for target in targets:
            w[np.all(stack == target, axis=(-2, -1))] *= factors
        return w, v

    monkeypatch.setattr(entanglement, "hermitian_eigensystem", perturbed)


def test_sweep_negativity_without_negative_eigenvalues_is_minus_zero(monkeypatch):
    # -(empty sum) is -0.0 and prints as -0; zeroing the b = 0 corner's three
    # rounding-size negative eigenvalues leaves it none
    _perturb_eigenvalues(monkeypatch, [(1.0, 0.0)], [0.0, 0.0, 0.0, 1.0])
    text = "".join(cli._table_chunks(cli._blocks(sweep(3).columns()), "csv"))
    assert text.endswith("\n1,0,-0,-0,true\n")


def test_sweep_names_the_point_failing_the_determinant_check(monkeypatch):
    # three failing points, two in one stack; the first in row-major order
    # is named
    failing = [(0.75, -0.25), (0.5, 0.25), (0.5, -0.25)]
    _perturb_eigenvalues(monkeypatch, failing, [1.0, 1.0, 1.0, 1.01])
    with pytest.raises(
        RuntimeError,
        match=r"^determinant disagrees with -b\^4/16 by \S+ at \(a, c\) = \(0\.5, -0\.25\)$",
    ):
        sweep(5)


def test_sweep_names_the_point_failing_the_closed_form_check(monkeypatch):
    # the product is kept, so only the closed-form comparison can see it
    _perturb_eigenvalues(monkeypatch, [(0.5, 0.25)], [1.0, 1.0, 1.001, 1.0 / 1.001])
    with pytest.raises(
        RuntimeError,
        match=r"^closed-form spectrum disagrees with the numerical one by \S+ "
        r"at \(a, c\) = \(0\.5, 0\.25\)$",
    ):
        sweep(5)


def test_sweep_names_the_point_failing_the_symmetry_check(monkeypatch):
    transpose = entanglement.partial_transpose
    target = transpose(stationary_state(StationaryParams(0.25, 0.75, 0.0)))

    def broken(rho):
        pt = transpose(rho)
        pt[np.all(pt == target, axis=(-2, -1)), 0, 1] += 1e-6
        return pt

    monkeypatch.setattr(entanglement, "partial_transpose", broken)
    with pytest.raises(NotHermitian, match=r"in matrix \(1,\) at \(a, c\) = \(0\.25, 0\.0\)$"):
        sweep(5)


def _scalar_cubic_roots(a, b, c):
    """The closed-form roots as computed one point at a time in Python floats."""
    u = c * c
    c2 = -(a + 0.5 * b)
    c1 = -(0.25 * b * b + u - 0.5 * a * b)
    c0 = b ** 3 / 8.0
    disc = 0.25 * (
        a * a * (a * b - 2.0 * u) ** 2
        + a * a * b ** 4
        + 10.0 * a * a * b * b * u
        - 2.0 * a * b ** 3 * u
        - 20.0 * a * b * u * u
        + 8.0 * b ** 4 * u
        + 13.0 * b * b * u * u
        + 16.0 * u ** 3
    )
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2 ** 3 / 27.0 - c2 * c1 / 3.0 + c0
    shift = -c2 / 3.0
    if p >= 0.0:
        return np.full(3, shift - np.cbrt(q))
    m = 2.0 * math.sqrt(-p / 3.0)
    phi = math.atan2(math.sqrt(max(disc, 0.0) / 27.0), -q) / 3.0
    third = 2.0 * math.pi / 3.0
    return np.sort(shift + m * np.cos([phi, phi - third, phi - 2.0 * third]))


@settings(deadline=None)
@given(points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=20))
@example(points=[(0.0, 0.0), (1e-8, 0.0), (0.5, 1.0), (1.0, 0.0), (0.3, 0.2 / math.sqrt(0.21))])
def test_cubic_roots_reproduce_the_scalar_bits(points):
    # ppt prints the closed form, so the array roots must equal the
    # one-point Python computation bit for bit, stacked or not
    a = np.array([p[0] for p in points])
    b = 1.0 - a
    c = np.array([p[1] for p in points]) * np.sqrt(a * b)
    stacked = cubic_roots(StationaryParams(a, b, c))
    assert stacked.shape == (len(points), 3)
    for k, (ak, bk, ck) in enumerate(zip(a.tolist(), b.tolist(), c.tolist())):
        expected = _scalar_cubic_roots(ak, bk, ck).tobytes()
        assert stacked[k].tobytes() == expected
        assert cubic_roots(StationaryParams(ak, bk, ck)).tobytes() == expected


def test_cubic_roots_reproduce_the_scalar_bits_on_random_points(rng):
    # hypothesis favours round numbers, whose powers are exact; uniform
    # draws reach the last-bit differences of numpy's vectorised pow
    a = rng.uniform(0.0, 1.0, 2000)
    b = 1.0 - a
    c = rng.uniform(-1.0, 1.0, 2000) * np.sqrt(a * b)
    stacked = cubic_roots(StationaryParams(a, b, c))
    expected = [_scalar_cubic_roots(*point) for point in zip(a.tolist(), b.tolist(), c.tolist())]
    assert stacked.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("a, c", [(0.3, 0.2), (0.0, 0.0), (1e-8, 0.0), (0.99999, 0.0), (1.0, 0.0)])
def test_ppt_closed_form_reproduces_the_scalar_bits(a, c):
    params = StationaryParams(a, 1.0 - a, c)
    expected = np.sort(np.append(_scalar_cubic_roots(a, 1.0 - a, c), 0.5 * (1.0 - a)))
    assert ppt_analyze(params).closed_form_eigenvalues.tobytes() == expected.tobytes()


def test_negativity_margin_on_the_sweep_grid():
    # -lambda_min > b^2/4 (proven in test_symbolic); the slack covers eigh
    # rounding as b -> 0
    table = sweep(301)
    b = 1.0 - table.a
    assert np.all(-table.min_pt_eigenvalue >= b * b / 4.0 - 1e-14)


@settings(deadline=None)
@given(a=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0), phase=st.floats(0.0, 2.0 * math.pi))
@example(a=1.0 - 1e-7, t=1.0, phase=0.0)
@example(a=1.0 - 1e-4, t=1.0, phase=2.0)
@example(a=0.0, t=0.0, phase=0.0)  # the pure singlet, with its double root at 1/2
@example(a=1e-8, t=1.0, phase=1.0)
@example(a=1.0, t=0.0, phase=0.0)  # the separable corner
def test_closed_form_and_margin_over_the_valid_set(a, t, phase):
    # c enters the transposed spectrum only through |c|^2, so the closed
    # form holds for complex c; -lambda_min > b^2/4 for every b > 0 by
    # test_symbolic, but the gap is about b^3/4, which eigh's rounding
    # resolves only for b >= 1e-4
    b = 1.0 - a
    modulus = t * math.sqrt(a * b)
    params = StationaryParams(a, b, modulus * cmath.exp(1j * phase))
    report = ppt_analyze(params)
    assert np.abs(report.closed_form_eigenvalues - report.eigenvalues).max() <= 1e-12
    assert np.abs(cubic_roots(params) - cubic_roots(StationaryParams(a, b, modulus))).max() <= 1e-14
    if b >= 1e-4:
        assert -report.min_eigenvalue > b * b / 4.0
    else:
        assert -report.min_eigenvalue >= b * b / 4.0 - 1e-14


REPORT_FIELDS = ("eigenvalues", "min_eigenvalue", "negativity", "separable", "closed_form_eigenvalues")


def _report_bits(report, index=...) -> list:
    """Each field of a report, or of one point of a stacked report, as
    bytes, so that -0.0 and 0.0 differ."""
    return [np.asarray(getattr(report, name))[index].tobytes() for name in REPORT_FIELDS]


def test_stacked_analysis_matches_one_point_at_a_time(rng):
    draws = [random_stationary_coefficients(rng, real_c=(k % 2 == 0)) for k in range(20)]
    params = [StationaryParams(*draw) for draw in draws]
    stack = StationaryParams(*zip(*draws))
    states = stationary_state(stack)
    transposed = partial_transpose(states)
    assert states.shape == transposed.shape == (20, 4, 4)
    report = ppt_analyze(stack)
    assert report.eigenvalues.shape == (20, 4)
    assert report.min_eigenvalue.shape == report.negativity.shape == report.separable.shape == (20,)
    assert report.closed_form_eigenvalues.shape == (20, 4)  # half the points have complex c
    for k, p in enumerate(params):
        assert states[k].tobytes() == stationary_state(p).tobytes()
        assert transposed[k].tobytes() == partial_transpose(stationary_state(p)).tobytes()
        one = ppt_analyze(p)
        assert isinstance(one.min_eigenvalue, float) and isinstance(one.negativity, float)
        assert type(one.separable) is bool
        assert _report_bits(report, k) == _report_bits(one)


def test_stacked_analysis_keeps_two_leading_axes(rng):
    a, b, c = (np.array(x) for x in zip(*(random_stationary_coefficients(rng) for _ in range(12))))
    flat = ppt_analyze(StationaryParams(a, b, c))
    grid = ppt_analyze(StationaryParams(a.reshape(3, 4), b.reshape(3, 4), c.reshape(3, 4)))
    assert grid.eigenvalues.shape == grid.closed_form_eigenvalues.shape == (3, 4, 4)
    assert grid.min_eigenvalue.shape == grid.negativity.shape == grid.separable.shape == (3, 4)
    for name in REPORT_FIELDS:
        got, want = getattr(grid, name), getattr(flat, name)
        assert got.tobytes() == want.tobytes()
    # a scalar broadcasts against an array: one a, b and a row of c values
    row = ppt_analyze(StationaryParams(0.5, 0.5, [0.1, -0.2, 0.3]))
    assert row.eigenvalues.shape == (3, 4)
    for k, ck in enumerate([0.1, -0.2, 0.3]):
        assert _report_bits(row, k) == _report_bits(ppt_analyze(StationaryParams(0.5, 0.5, ck)))


def test_sweep_rejects_tiny_grid():
    with pytest.raises(ValueError):
        sweep(1)


def test_sweep_rejects_huge_grid():
    # refused before np.linspace would allocate 8 GB or the loop start
    with pytest.raises(ValueError, match="MAX_GRID = 1001, got 1000000000"):
        sweep(10**9)
    with pytest.raises(ValueError, match="MAX_GRID"):
        sweep(MAX_GRID + 1)
