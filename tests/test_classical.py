import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from syncqubits import classical
from syncqubits.classical import (
    BLOCK_STEPS,
    MAX_STEPS,
    StepTooLarge,
    classical_field,
    dissipative_field,
    integrate,
    integrate_blocks,
    quasithermo_field,
    tracked_scalars,
)
from syncqubits.verify import DEFAULT_SEED, _classical_starts


def test_field_fixed_point():
    assert np.array_equal(classical_field([1.0, 0.0, 0.0]), np.zeros(3))


def test_field_known_values():
    assert np.array_equal(classical_field([1.0, 2.0, 3.0]), [26.0, -4.0, -6.0])
    assert np.array_equal(classical_field([0.0, 0.0, 1.0]), [2.0, 0.0, 0.0])


def _finite_difference_gradient(f, point, step=1e-5):
    """Central-difference gradient of a scalar (possibly complex) function."""
    p = np.asarray(point, dtype=float)
    return np.array([(f(p + step * e) - f(p - step * e)) / (2.0 * step) for e in np.eye(p.size)])


def test_dissipative_field_matches_direct(rng):
    for _ in range(100):
        point = rng.uniform(-2.0, 2.0, size=3)
        assert np.abs(dissipative_field(point) - classical_field(point)).max() < 1e-12


def test_quasithermo_field_matches_direct(rng):
    for _ in range(100):
        point = rng.uniform(-2.0, 2.0, size=3)
        assert np.abs(quasithermo_field(point) - classical_field(point)).max() < 1e-12


def _recorded(index):
    """H (index 0) or S (index 1) as integrate records it, at one point."""
    return lambda p: tracked_scalars(*np.asarray(p)[:, None])[index][0]


def test_quasithermo_gradients_match_tracked_scalars(rng):
    # the field is built from the gradients of the H and S that integrate
    # records: l and (2, 0, 0)
    for p in rng.uniform(-2.0, 2.0, size=(20, 3)):
        grad_h = _finite_difference_gradient(_recorded(0), p)
        grad_s = _finite_difference_gradient(_recorded(1), p)
        assert np.abs(grad_h - p).max() < 1e-6
        assert np.abs(grad_s - [2.0, 0.0, 0.0]).max() < 1e-6
        field = np.cross(grad_h, np.cross(grad_s, grad_h))
        assert np.abs(field - quasithermo_field(p)).max() < 1e-5


def test_integrate_fixed_point_is_constant():
    states = integrate([2.0, 0.0, 0.0], 1.0, 1e-2)
    assert np.abs(states - np.array([2.0, 0.0, 0.0])).max() == 0.0


def _collected(starts, t_final, dt):
    """The blocks of integrate_blocks, copied and joined: (T, 3, n)."""
    return np.concatenate([block.copy() for block in integrate_blocks(starts, t_final, dt)])


def _first_block(starts, t_final, dt):
    return next(integrate_blocks(starts, t_final, dt))


def _closed_form(start, t):
    """Exact solution: lx = R tanh(2 R t + atanh(lx0 / R)) with R = |l|, while
    (ly, lz) shrink by the common factor that keeps |l| fixed."""
    radius = float(np.linalg.norm(start))
    phase = 2.0 * radius * t + math.atanh(start[0] / radius)
    shrink = np.cosh(phase[0]) / np.cosh(phase)
    return np.column_stack([radius * np.tanh(phase), start[1] * shrink, start[2] * shrink])


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
@pytest.mark.parametrize("radius, lx0", [(1.0, 0.0), (0.5, -0.2), (2.0, 0.6), (3.0, -1.5)])
def test_integrate_matches_closed_form(stacked, radius, lx0):
    rest = math.sqrt(radius * radius - lx0 * lx0)
    start = np.array([lx0, 0.6 * rest, 0.8 * rest])
    if stacked:
        # the mirrored start runs beside it and has a closed form of its own
        states = _collected([start, -start], 2.0, 1e-3)
        runs = [(start, states[:, :, 0]), (-start, states[:, :, 1])]
    else:
        runs = [(start, integrate(start, 2.0, 1e-3))]
    t = 1e-3 * np.arange(2001)
    for begin, states in runs:
        assert np.abs(states - _closed_form(begin, t)).max() < 1e-10


def test_integrate_conserves_invariants():
    states = integrate([0.0, 0.6, 0.8], 20.0, 1e-3)
    h, s, k = tracked_scalars(*states.T)
    assert np.abs(h - 0.5).max() < 1e-8
    k = k[~np.isnan(k)]
    assert np.abs(k - 0.75).max() < 1e-7
    assert np.diff(s).min() >= 0.0
    # and it has converged to the synchronized point
    assert np.abs(states[-1] - [1.0, 0.0, 0.0]).max() < 1e-6


def test_integrate_convergence_random(rng):
    # light version of the full ensemble check in the acceptance suite
    for _ in range(5):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        start = direction * np.sqrt(rng.uniform(0.25, 4.0))
        if abs(start[1]) + abs(start[2]) < 1e-8:
            continue
        states = integrate(start, 30.0, 1e-3)
        length = np.linalg.norm(start)
        assert np.abs(states[-1] - [length, 0.0, 0.0]).max() < 1e-5


def test_trajectory_layout():
    states = integrate([0.1, 0.2, 0.3], 0.01, 1e-3)
    assert states.shape == (11, 3)
    assert np.array_equal(states[0], [0.1, 0.2, 0.3])


def test_k_marker_nan_when_lz_zero():
    # lz = 0 is an invariant plane, so k stays undefined the whole run
    states = integrate([0.0, 1.0, 0.0], 0.01, 1e-3)
    assert np.isnan(tracked_scalars(*states.T)[2]).all()


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
def test_integrate_divergence_guard(stacked):
    # at dt = 0.5 the start (0, 3, 4) is far outside RK4's stability region,
    # and its second step passes the limit
    run = _first_block if stacked else integrate
    start = [0.0, 3.0, 4.0]
    initial = [[0.0, 0.6, 0.8], start] if stacked else start
    suffix = " in run 1" if stacked else ""
    with pytest.raises(StepTooLarge, match=rf"^state exceeded 1e\+06 at t = 1{suffix}$"):
        run(initial, 5.0, 0.5)
    start = [2e6, 0.0, 1.0]
    initial = [[0.0, 0.6, 0.8], start] if stacked else start
    with pytest.raises(StepTooLarge, match=rf"^state exceeded 1e\+06 at t = 0{suffix}$"):
        run(initial, 1.0, 1e-3)


def test_integrate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integrate([0.0, 0.6, 0.8], -1.0, 1e-3)
    with pytest.raises(ValueError):
        integrate([0.0, 0.6, 0.8], 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate([np.nan, 0.0, 0.0], 1.0, 1e-3)
    with pytest.raises(ValueError, match="shape"):
        integrate([1.0, 2.0], 1.0, 1e-3)
    with pytest.raises(ValueError, match="shape"):
        integrate(5.0, 1.0, 1e-3)


@pytest.mark.parametrize("starts", [[[0.0, 0.6, 0.8]], [[0.0, 0.6, 0.8], [0.1, 0.2, 0.3]]])
def test_integrate_refuses_a_stack(starts):
    # one start only: a stack is integrate_blocks' input
    message = r"^initial must have shape \(3,\), got shape \(\d, 3\)$"
    with pytest.raises(ValueError, match=message):
        integrate(starts, 1.0, 1e-3)


@pytest.mark.parametrize(
    "t_final, dt", [(math.inf, 1e-3), (1.0, math.nan), (math.nan, 1e-3), (1.0, math.inf)]
)
def test_integrate_rejects_nonfinite_steps(t_final, dt):
    with pytest.raises(ValueError, match="must be finite"):
        integrate([0.0, 0.6, 0.8], t_final, dt)


@pytest.mark.parametrize(
    "t_final, dt, message",
    [
        (1.0, "x", "^dt must be a real number, got 'x'$"),
        (None, 1e-3, "^t_final must be a real number, got None$"),
    ],
    ids=["dt", "t_final"],
)
def test_integrate_names_a_step_that_is_no_number(t_final, dt, message):
    with pytest.raises(TypeError, match=message):
        integrate([0.0, 0.6, 0.8], t_final, dt)


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
def test_integrate_rejects_too_many_steps(stacked):
    run = _first_block if stacked else integrate
    start = [0.0, 0.6, 0.8]
    initial = [start, start] if stacked else start
    # checked before anything is allocated: a 1e12-step run would need 24 TB
    with pytest.raises(ValueError, match="MAX_STEPS"):
        run(initial, 1e9, 1e-3)
    with pytest.raises(ValueError, match="MAX_STEPS"):
        run(initial, (MAX_STEPS + 1) * 1e-3, 1e-3)


# ---------------------------------------------------------------------------
# a stack of starts, run in blocks, against one-start runs


def _bits(values):
    """The float64 values as their bit patterns: -0.0 differs from 0.0, and
    a subnormal's last bit counts."""
    return np.asarray(values).view(np.uint64)


def _assert_run_equal(states, i, one):
    """Run i of collected blocks (T, 3, n) equals the one-start run's (T, 3)
    states bit for bit, and so do the scalars computed from them."""
    assert np.array_equal(_bits(states[:, :, i]), _bits(one))
    scalars = tracked_scalars(*(states[:, j, i] for j in range(3)))
    for name, values, expected in zip("HSk", scalars, tracked_scalars(*one.T)):
        assert np.array_equal(_bits(values), _bits(expected)), name


def test_stack_layout():
    block = _first_block([[0.1, 0.2, 0.3], [0.0, 0.6, 0.8]], 0.01, 1e-3)
    assert block.shape == (11, 3, 2)
    assert np.array_equal(block[0].T, [[0.1, 0.2, 0.3], [0.0, 0.6, 0.8]])


def test_stack_is_bit_identical_on_verify_starts():
    starts = _classical_starts(np.random.default_rng(DEFAULT_SEED))
    states = _collected(starts, 2.0, 1e-3)
    for i, start in enumerate(starts):
        _assert_run_equal(states, i, integrate(start, 2.0, 1e-3))


def test_stack_edge_rows():
    # a fixed point on the ly = lz = 0 line, and an lz = 0 start whose k is
    # NaN throughout, beside an ordinary start
    starts = [[0.7, 0.0, 0.0], [0.2, 0.5, 0.0], [0.0, 0.6, 0.8]]
    states = _collected(starts, 1.0, 1e-3)
    for i, start in enumerate(starts):
        _assert_run_equal(states, i, integrate(start, 1.0, 1e-3))
    assert np.array_equal(states[:, :, 0], np.tile([0.7, 0.0, 0.0], (1001, 1)))
    k_values = tracked_scalars(*(states[:, j].T for j in range(3)))[2]
    assert np.isnan(k_values[:2]).all()
    assert not np.isnan(k_values[2, 0])


#: signed zeros and subnormals, whose products round differently
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-160, -1e-155]


@settings(max_examples=30, deadline=None)
@given(
    starts=arrays(
        float,
        st.tuples(st.integers(1, 100), st.just(3)),
        elements=st.floats(-3.0, 3.0) | st.sampled_from(EDGE_FLOATS),
    ),
    dt=st.sampled_from([1e-3, 1e-2, 5e-2]),
)
# a subnormal ly: lx ly and 2 lx ly round differently here, so a stack
# and a loop that halve the field differently part
@example(starts=np.array([[0.3, 1e-310, -0.1]]), dt=5e-2)
# zero ly or lz of either sign, beside lx of either sign: a stack and a loop
# that place the field's minus signs differently part in the zero's sign
@example(starts=np.array([[0.5, -0.0, 0.8], [0.5, 0.0, -0.0], [-0.5, -0.0, 0.3]]), dt=1e-2)
@example(starts=np.array([[0.0, -0.0, -0.0], [-0.0, 0.0, 0.7], [-0.4, 0.6, 0.0]]), dt=5e-2)
def test_stack_matches_one_start_runs(starts, dt):
    states = _collected(starts, 20 * dt, dt)
    for i, start in enumerate(starts):
        _assert_run_equal(states, i, integrate(start, 20 * dt, dt))


@pytest.mark.parametrize("width", [1, 7, 50, 100])
def test_stack_is_bit_identical_at_any_width(width):
    # across two block boundaries of a stack this wide
    starts = np.random.default_rng(width).uniform(-2.0, 2.0, size=(width, 3))
    t_final = (2 * max(1, BLOCK_STEPS // width) + 1) * 1e-3
    states = _collected(starts, t_final, 1e-3)
    for i, start in enumerate(starts):
        _assert_run_equal(states, i, integrate(start, t_final, 1e-3))


def test_stack_step_broadcasts_nothing(monkeypatch):
    # every operand of the step loop has the shape of the output row, and is
    # contiguous, or is a 0-d constant: a broadcast costs several plain calls.
    # The step sizes carry the field's minus signs, so nothing is negated.
    calls = []

    def checked(ufunc):
        def call(*args):
            *operands, out = args
            for x in operands:
                assert np.ndim(x) == 0 or (x.shape == out.shape and x.flags.c_contiguous), ufunc
            assert out.flags.c_contiguous, ufunc
            calls.append(ufunc)
            return ufunc(*args)

        return call

    for name in ("multiply", "add", "negative"):
        monkeypatch.setattr(np, name, checked(getattr(np, name)))
    _collected(np.random.default_rng(5).uniform(-2.0, 2.0, size=(7, 3)), 0.01, 1e-3)
    assert len(calls) == 10 * 28  # ten steps
    assert np.negative not in calls


def _unhalved_run(start, n_steps, dt):
    """The one-start RK4 loop with the whole field 2 (ly^2 + lz^2), 2 lx ly,
    2 lx lz, its y and z minus signs in the step sizes: dt / 2, dt and
    dt / 6 for lx, their negatives for ly and lz.  The arithmetic before the
    stages held the halved field, with the signs placed as now."""
    lx, ly, lz = (float(v) for v in start)
    half, h, sixth = 0.5 * dt, dt, dt / 6.0
    neg_half, neg_h, neg_sixth = -half, -h, -sixth
    states = [(lx, ly, lz)]
    for _ in range(n_steps):
        ax, ay, az = 2.0 * (ly * ly + lz * lz), 2.0 * lx * ly, 2.0 * lx * lz
        x1, y1, z1 = lx + half * ax, ly + neg_half * ay, lz + neg_half * az
        bx, by, bz = 2.0 * (y1 * y1 + z1 * z1), 2.0 * x1 * y1, 2.0 * x1 * z1
        x2, y2, z2 = lx + half * bx, ly + neg_half * by, lz + neg_half * bz
        cx, cy, cz = 2.0 * (y2 * y2 + z2 * z2), 2.0 * x2 * y2, 2.0 * x2 * z2
        x3, y3, z3 = lx + h * cx, ly + neg_h * cy, lz + neg_h * cz
        dx, dy, dz = 2.0 * (y3 * y3 + z3 * z3), 2.0 * x3 * y3, 2.0 * x3 * z3
        lx += sixth * (ax + 2.0 * (bx + cx) + dx)
        ly += neg_sixth * (ay + 2.0 * (by + cy) + dy)
        lz += neg_sixth * (az + 2.0 * (bz + cz) + dz)
        states.append((lx, ly, lz))
    return np.array(states)


@settings(max_examples=50, deadline=None)
@given(
    start=arrays(float, 3, elements=st.floats(-3.0, 3.0)),
    dt=st.sampled_from([1e-3, 1e-2, 5e-2]),
)
def test_halved_field_changes_no_bit_of_normal_runs(start, dt):
    # the exact factor 2 moved from the field into the step sizes; only a
    # subnormal product rounds differently, and from 1e-150 up none is
    assume(np.abs(start[start != 0.0]).min(initial=1.0) >= 1e-150)
    states = integrate(start, 20 * dt, dt)
    assert np.array_equal(_bits(states), _bits(_unhalved_run(start, 20, dt)))


def _unfolded_run(start, n_steps, dt):
    """The one-start RK4 loop with the halved field ly^2 + lz^2, -lx ly,
    -lx lz and the step sizes dt, 2 dt and 2 (dt / 6): the arithmetic
    before the y and z minus signs moved into the step sizes."""
    lx, ly, lz = (float(v) for v in start)
    half, full, sixth = dt, 2.0 * dt, 2.0 * (dt / 6.0)
    states = [(lx, ly, lz)]
    for _ in range(n_steps):
        ax, ay, az = ly * ly + lz * lz, -lx * ly, -lx * lz
        x1, y1, z1 = lx + half * ax, ly + half * ay, lz + half * az
        bx, by, bz = y1 * y1 + z1 * z1, -x1 * y1, -x1 * z1
        x2, y2, z2 = lx + half * bx, ly + half * by, lz + half * bz
        cx, cy, cz = y2 * y2 + z2 * z2, -x2 * y2, -x2 * z2
        x3, y3, z3 = lx + full * cx, ly + full * cy, lz + full * cz
        dx, dy, dz = y3 * y3 + z3 * z3, -x3 * y3, -x3 * z3
        lx += sixth * (ax + 2.0 * (bx + cx) + dx)
        ly += sixth * (ay + 2.0 * (by + cy) + dy)
        lz += sixth * (az + 2.0 * (bz + cz) + dz)
        states.append((lx, ly, lz))
    return np.array(states)


#: an ly or lz that stays normal through a short run, so never exactly zero
NONZERO = st.floats(-3.0, -1e-150) | st.floats(1e-150, 3.0)


@settings(max_examples=50, deadline=None)
@given(
    start=st.tuples(st.floats(-3.0, 3.0), NONZERO, NONZERO),
    dt=st.sampled_from([1e-3, 1e-2, 5e-2]),
)
def test_folded_signs_change_no_bit_of_nonzero_runs(start, dt):
    # -(lx ly) and dt (-(lx ly)) = (-dt)(lx ly) are exact, so moving the
    # minus signs into the step sizes changes only the sign of a zero
    states = integrate(start, 20 * dt, dt)
    assert np.array_equal(_bits(states), _bits(_unfolded_run(start, 20, dt)))


@settings(max_examples=50, deadline=None)
@given(
    start=arrays(float, 3, elements=st.floats(-3.0, 3.0)),
    zeros=st.dictionaries(st.sampled_from([1, 2]), st.sampled_from([0.0, -0.0]), min_size=1),
    dt=st.sampled_from([1e-3, 1e-2, 5e-2]),
)
def test_a_zero_ly_or_lz_keeps_its_sign(start, zeros, dt):
    # the flow keeps a zero ly or lz, and so does the run in either kernel,
    # the zero's sign included, whatever the sign of lx
    for axis, zero in zeros.items():
        start[axis] = zero
    one = integrate(start, 20 * dt, dt)
    stacked = _collected([start, [0.1, 0.6, 0.8]], 20 * dt, dt)[:, :, 0]
    for states in (one, stacked):
        for axis, zero in zeros.items():
            assert np.array_equal(_bits(states[:, axis]), _bits(np.full(21, zero))), axis


@settings(max_examples=20, deadline=None)
@given(
    directions=arrays(float, st.tuples(st.integers(1, 4), st.just(3)), elements=st.floats(-1.0, 1.0)),
    radius=st.floats(0.5, 2.0),
)
def test_rk4_keeps_length_and_ratio(directions, radius):
    norms = np.linalg.norm(directions, axis=1)
    assume(norms.min() > 0.1)
    # a subnormal ly or lz has no relative precision left to keep k to 1e-9;
    # from 1e-150 up they stay normal through the run
    assume(np.abs(directions[directions != 0.0]).min(initial=1.0) >= 1e-150)
    states = _collected(radius * directions / norms[:, None], 2.0, 1e-3)
    h_values, _, k_values = tracked_scalars(*(states[:, j].T for j in range(3)))
    for h, k in zip(h_values, k_values):
        assert np.abs(h - h[0]).max() <= 5e-9  # |l|^2 = 2 H within 1e-8
        k = k[~np.isnan(k)]
        if k.size:
            assert np.abs(k - k[0]).max() <= 1e-9 * abs(k[0])


# ---------------------------------------------------------------------------
# block boundaries and bad arguments


def _block_sizes(n_steps, block=BLOCK_STEPS):
    """Rows per block of an n_steps run: full blocks, then the rest."""
    full, rest = divmod(n_steps + 1, block)
    return [block] * full + ([rest] if rest else [])


@pytest.mark.parametrize("n_steps", [BLOCK_STEPS - 1, BLOCK_STEPS, 2 * BLOCK_STEPS + 1])
def test_blocks_collect_to_the_whole_run(n_steps):
    starts = np.array([[0.0, 0.6, 0.8], [-0.9, 0.1, -0.3], [0.2, 0.5, 0.0]])
    t_final = n_steps * 1e-3
    views = list(integrate_blocks(starts, t_final, 1e-3))
    # one reused buffer, so only the last block is still intact here
    assert all(np.shares_memory(v, views[0]) for v in views)
    blocks = [b.copy() for b in integrate_blocks(starts, t_final, 1e-3)]
    # a block of three runs holds BLOCK_STEPS // 3 time points
    assert [len(b) for b in blocks] == _block_sizes(n_steps, BLOCK_STEPS // 3)
    # the one-start float loop, the reference, agrees bit for bit, and
    # yields blocks of BLOCK_STEPS time points
    states = np.concatenate(blocks)
    for i, start in enumerate(starts):
        _assert_run_equal(states, i, integrate(start, t_final, 1e-3))
        assert [b.shape for b in integrate_blocks(start, t_final, 1e-3)] == [
            (m, 3) for m in _block_sizes(n_steps)
        ]


def test_a_stacks_last_block_stays_valid_once_the_run_has_ended():
    # three blocks of 40 time points at 50 runs; the generator writes
    # nothing after its last yield
    starts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(50, 3))
    run = integrate_blocks(starts, 0.1, 1e-3)
    for block in run:
        yielded = block.copy()
    assert next(run, None) is None
    assert len(yielded) < BLOCK_STEPS // 50
    assert np.array_equal(block, yielded)


def test_stack_wider_than_a_block_yields_one_time_point_per_block():
    starts = np.random.default_rng(4).uniform(-2.0, 2.0, size=(BLOCK_STEPS + 1, 3))
    blocks = [b.copy() for b in integrate_blocks(starts, 5e-3, 1e-3)]
    assert [b.shape for b in blocks] == [(1, 3, BLOCK_STEPS + 1)] * 6
    states = np.concatenate(blocks)
    for i, start in enumerate(starts):
        _assert_run_equal(states, i, integrate(start, 5e-3, 1e-3))


@pytest.mark.parametrize("block_steps", [2, 3, BLOCK_STEPS])
def test_divergence_named_alike_in_any_block(monkeypatch, block_steps):
    # (0, 3, 4) passes the limit at its second step, t = 1: in the second
    # block of two rows, and at the end of the first block of three; the
    # stack of two runs holds BLOCK_STEPS // 2 rows a block.  A start past
    # the limit fails the first block, at t = 0, also in a stack wider than
    # a block, whose first block holds the starts alone
    calm, late, bad = [0.0, 0.6, 0.8], [0.0, 3.0, 4.0], [2e6, 0.0, 1.0]
    for initial, block, when in (
        ([calm, late], 2 * block_steps, "1 in run 1"),
        (late, block_steps, "1"),
        ([calm, bad], 2 * block_steps, "0 in run 1"),
        (bad, block_steps, "0"),
        ([calm] * block_steps + [bad], block_steps, f"0 in run {block_steps}"),
    ):
        monkeypatch.setattr(classical, "BLOCK_STEPS", block)
        blocks = integrate_blocks(initial, 5.0, 0.5)
        if block_steps == 2 and when.startswith("1"):
            assert len(next(blocks)) == 2  # t = 0 and 0.5 pass
        with pytest.raises(StepTooLarge, match=rf"^state exceeded 1e\+06 at t = {when}$"):
            next(blocks)


@pytest.mark.parametrize(
    "starts, t_final, message",
    [
        ([0.6, 0.8], 1.0, r"shape \(n, 3\) or \(3,\), got shape \(2,\)$"),
        ([[[0.0, 0.6, 0.8]]], 1.0, r"shape \(n, 3\) or \(3,\), got shape \(1, 1, 3\)$"),
        ([[1.0, 2.0], [0.5, 0.5]], 1.0, r"shape \(n, 3\)"),
        (np.empty((0, 3)), 1.0, r"shape \(n, 3\)"),
        ([[0.0, 0.6, 0.8]], 1e9, "MAX_STEPS"),
        ([[np.nan, 0.6, 0.8]], 1.0, "finite"),
        ([[0.0, 0.6, 0.8], [np.nan, 0.0, 1.0]], 1.0, "finite"),
    ],
    ids=[
        "short-start",
        "three-axes",
        "two-columns",
        "empty",
        "too-many-steps",
        "nonfinite",
        "nonfinite-row",
    ],
)
def test_integrate_blocks_rejects_bad_arguments(starts, t_final, message):
    # checked when the first block is asked for, before anything is allocated
    with pytest.raises(ValueError, match=message):
        next(integrate_blocks(starts, t_final, 1e-3))


# ---------------------------------------------------------------------------
# order of accuracy against the closed form


@pytest.mark.parametrize(
    "starts",
    [[0.1, 0.6, 0.8], [[0.1, 0.6, 0.8], [0.3, -0.5, 0.7]]],
    ids=["one-start", "two-run-stack"],
)
def test_integrators_are_fourth_order(starts):
    # RK4's error at t = 1 falls 16-fold per halved step; a lower order's
    # at most 8-fold
    ends = np.array([0.0, 1.0])
    exact = np.array([_closed_form(s, ends)[-1] for s in np.reshape(starts, (-1, 3))])
    errors = []
    for dt in (0.04, 0.02, 0.01, 0.005):
        *_, last = integrate_blocks(starts, 1.0, dt)
        # the last time point: a (3,) row, or a (3, n) row of a stack
        errors.append(np.abs(np.reshape(last[-1].T, (-1, 3)) - exact).max())
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert all(3.8 <= p <= 4.4 for p in orders), orders
