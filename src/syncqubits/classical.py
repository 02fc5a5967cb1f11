"""Classical model of two coupled oscillators relaxing to phase synchrony.

The state is the real triple l = (lx, ly, lz) of collective variables of
the oscillator amplitudes z1 = r1 exp(i phi1) and z2 = r2 exp(i phi2):
lx + i ly = conj(z1) z2 and lz = (|z1|^2 - |z2|^2) / 2, half the population
imbalance.  So ly = r1 r2 sin(phi2 - phi1), and ly -> 0 marks phase
locking.  The flow is

    dlx/dt =  2 (ly^2 + lz^2)
    dly/dt = -2 lx ly
    dlz/dt = -2 lx lz

The flow conserves the squared length lx^2 + ly^2 + lz^2 and the ratio
k = ly / lz while lx only ever grows, so every generic initial state relaxes
to the synchronized point (|l|, 0, 0).  The same field can be produced two
other ways, fixed like the flow itself, and all three agree identically:

* from the coupling function r = lz - i ly as l x (i r grad(conj r) - h.c.),
  see :func:`dissipative_field`;
* from the conserved H = |l|^2 / 2 and the growing S = 2 lx alone as
  grad H x (grad S x grad H), see :func:`quasithermo_field`.

:func:`trajectory_blocks` runs one start as a loop over Python floats and
:func:`integrate_blocks` a stack of starts as one numpy block, both yielded
a block of at most BLOCK_STEPS states at a time (BLOCK_STEPS time points of
one start, BLOCK_STEPS // n of n starts); :func:`integrate` collects one
start's run whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: below this |lz| the ratio k = ly / lz is reported as NaN
K_UNDEFINED_LZ = 1e-12

#: any state component beyond this magnitude aborts integration
DIVERGENCE_LIMIT = 1e6

#: most steps one integrator call may take.  It bounds the time of every
#: run, and the memory of integrate() and quantum.evolve(), which join the
#: blocks of a whole run (24 MB of classical or 256 MB of quantum states at
#: this limit, twice that while joining); a block generator holds one block.
MAX_STEPS = 10**6

#: states per block: time points per block of trajectory_blocks() and
#: quantum.evolve_blocks(), BLOCK_STEPS // n (at least one) of an n-run
#: integrate_blocks() stack, and rows per block of the command line's
#: tables; a reduction over the blocks holds one block, however long the
#: run and however wide the stack
BLOCK_STEPS = 2048


class StepTooLarge(RuntimeError):
    """Integration blew past the divergence guard."""


@dataclass(frozen=True)
class Trajectory:
    """Time series of an integrated state and its tracked scalars.

    ``states`` has one (lx, ly, lz) row per time; ``h_values`` holds
    |l|^2 / 2, ``s_values`` holds 2 lx, and ``k_values`` holds ly / lz with
    NaN wherever |lz| < 1e-12 makes the ratio meaningless.  ``states`` is
    (T, 3) and the other arrays are (T,).
    """

    times: np.ndarray
    states: np.ndarray
    h_values: np.ndarray
    s_values: np.ndarray
    k_values: np.ndarray


def classical_field(state) -> np.ndarray:
    """Right-hand side of the synchronization equations."""
    lx, ly, lz = (float(x) for x in np.asarray(state, dtype=float))
    return np.array([2.0 * (ly * ly + lz * lz), -2.0 * lx * ly, -2.0 * lx * lz])


def dissipative_field(state) -> np.ndarray:
    """Relaxation field generated by the coupling function r = lz - i ly.

    With its constant gradient (0, -i, 1) the torque
    i r grad(conj r) - i conj(r) grad r is real, and the field is its cross
    product with l; it reproduces :func:`classical_field`.
    """
    l = np.asarray(state, dtype=float)
    r = complex(l[2], -l[1])
    grad = np.array([0.0, -1.0j, 1.0])
    torque = -2.0 * (r * grad.conj()).imag
    return np.cross(l, torque)


def quasithermo_field(state) -> np.ndarray:
    """Flow reconstructed from H = |l|^2 / 2 and S = 2 lx alone, whose
    gradients are l and (2, 0, 0): grad H x (grad S x grad H)."""
    gh = np.asarray(state, dtype=float)
    gs = np.array([2.0, 0.0, 0.0])
    return np.cross(gh, np.cross(gs, gh))


def step_count(t_final: float, dt: float) -> int:
    """round(t_final / dt), the step count of the fixed-step integrators.

    Raises ValueError unless dt and t_final are finite and positive and
    the count lies in [1, MAX_STEPS]; the count is checked before anything
    is allocated.
    """
    if not (math.isfinite(t_final) and math.isfinite(dt)):
        raise ValueError(f"dt and t_final must be finite, got dt={dt!r}, t_final={t_final!r}")
    if dt <= 0.0 or t_final <= 0.0:
        raise ValueError("dt and t_final must be positive")
    steps = t_final / dt
    if steps > MAX_STEPS:
        raise ValueError(f"t_final / dt = {steps:g} steps, more than MAX_STEPS = {MAX_STEPS}")
    n_steps = int(round(steps))
    if n_steps < 1:
        raise ValueError("t_final is shorter than half a step")
    return n_steps


def _checked(start: np.ndarray, t_final: float, dt: float) -> int:
    """The step count, once the start(s) are known to be finite."""
    if not np.all(np.isfinite(start)):
        raise ValueError("initial state must be finite")
    return step_count(t_final, dt)


def integrate(initial, t_final: float, dt: float) -> Trajectory:
    """Fixed-step RK4 integration of the synchronization flow from one
    start, shape (3,): the blocks of :func:`trajectory_blocks` collected
    into one :class:`Trajectory`, with H, S and k for every state.  A
    stack of starts runs in :func:`integrate_blocks`.  Errors as for
    :func:`trajectory_blocks`.
    """
    states = np.concatenate(list(trajectory_blocks(initial, t_final, dt)))
    return Trajectory(dt * np.arange(len(states)), states, *tracked_scalars(*states.T))


def trajectory_blocks(initial, t_final: float, dt: float):
    """Fixed-step RK4 run of the synchronization flow from one start, shape
    (3,), as a loop over Python floats, the fastest way to make a single
    run.  Yields the states from the start on as (m, 3) blocks, m being
    BLOCK_STEPS but in the last block; each block is a new array.

    The step count is round(t_final / dt), at most MAX_STEPS.  Because
    every stage of the lx update is a sum of squares, lx is nondecreasing
    exactly, not just within tolerance.

    Once iteration begins, raises StepTooLarge when any component exceeds
    1e6 in magnitude or is no longer a number, and ValueError for a shape
    other than (3,), a nonfinite start, nonfinite or nonpositive dt /
    t_final, or more than MAX_STEPS steps.
    """
    start = np.asarray(initial, dtype=float)
    if start.shape != (3,):
        raise ValueError(
            f"initial state must have shape (3,), got shape {start.shape};"
            " integrate_blocks runs a stack of starts"
        )
    n_steps = _checked(start, t_final, dt)
    lx, ly, lz = (float(v) for v in start)
    limit = DIVERGENCE_LIMIT
    if not (abs(lx) <= limit and abs(ly) <= limit and abs(lz) <= limit):
        raise StepTooLarge(f"initial state exceeds {limit:g}")

    h = dt
    half = 0.5 * dt
    sixth = dt / 6.0
    total = n_steps + 1
    xs = [lx]
    ys = [ly]
    zs = [lz]
    for offset in range(0, total, BLOCK_STEPS):
        for i in range(max(offset, 1), min(offset + BLOCK_STEPS, total)):
            ax = 2.0 * (ly * ly + lz * lz)
            ay = -2.0 * lx * ly
            az = -2.0 * lx * lz

            x1 = lx + half * ax
            y1 = ly + half * ay
            z1 = lz + half * az
            bx = 2.0 * (y1 * y1 + z1 * z1)
            by = -2.0 * x1 * y1
            bz = -2.0 * x1 * z1

            x2 = lx + half * bx
            y2 = ly + half * by
            z2 = lz + half * bz
            cx = 2.0 * (y2 * y2 + z2 * z2)
            cy = -2.0 * x2 * y2
            cz = -2.0 * x2 * z2

            x3 = lx + h * cx
            y3 = ly + h * cy
            z3 = lz + h * cz
            dx = 2.0 * (y3 * y3 + z3 * z3)
            dy = -2.0 * x3 * y3
            dz = -2.0 * x3 * z3

            lx += sixth * (ax + 2.0 * (bx + cx) + dx)
            ly += sixth * (ay + 2.0 * (by + cy) + dy)
            lz += sixth * (az + 2.0 * (bz + cz) + dz)

            if not (abs(lx) <= limit and abs(ly) <= limit and abs(lz) <= limit):
                raise StepTooLarge(f"state exceeded {limit:g} at t = {i * dt:g}")
            xs.append(lx)
            ys.append(ly)
            zs.append(lz)
        yield np.column_stack([xs, ys, zs])
        xs = []
        ys = []
        zs = []


def integrate_blocks(starts, t_final: float, dt: float):
    """The RK4 run of :func:`trajectory_blocks` from a stack of starts,
    shape (n, 3), yielded as (m, 3, n) blocks of states from the starts on;
    m is max(1, BLOCK_STEPS // n) but in the last block, so that a block
    holds at most BLOCK_STEPS states (or one time point) at any width.
    Each line of the loop repeats one float operation of the one-start
    loop, operands swapped only where IEEE arithmetic is commutative
    (x + half a becomes half a + x), so each run is bit-identical to the
    one-start run from its row.  A block is a view of one reused buffer,
    valid until the next is requested, and is tested for divergence before
    it is yielded.  Errors as for :func:`trajectory_blocks`, naming the
    first run that failed, and ValueError for any shape but (n, 3) with
    n >= 1.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != 3 or not len(starts):
        raise ValueError(f"starts must have shape (n, 3), got shape {starts.shape}")
    n_steps = _checked(starts, t_final, dt)
    limit = DIVERGENCE_LIMIT
    bad = ~(np.abs(starts) <= limit).all(axis=1)
    if bad.any():
        raise StepTooLarge(f"initial state exceeds {limit:g} in run {np.argmax(bad)}")

    n = len(starts)
    total = n_steps + 1
    buf = np.empty((min(max(1, BLOCK_STEPS // n), total), 3, n))
    buf[0] = starts.T
    prev = buf[0]
    a, b, c, d, mid, acc = (np.empty((3, n)) for _ in range(6))
    squares = np.empty((2, n))
    sq_y, sq_z = squares
    minus_2x = np.empty(n)
    mid_x, mid_yz = mid[0], mid[1:]
    # 0-d arrays: numpy converts a Python float on every call
    two, minus_two, half, full, sixth = (np.array(v) for v in (2.0, -2.0, 0.5 * dt, dt, dt / 6.0))
    mul, add = np.multiply, np.add

    def field(x, yz, out_x, out_yz):
        # (2 (y y + z z), (-2 x) y, (-2 x) z)
        mul(yz, yz, squares)
        add(sq_y, sq_z, out_x)
        mul(out_x, two, out_x)
        mul(x, minus_two, minus_2x)
        mul(minus_2x, yz, out_yz)

    (a_x, a_yz), (b_x, b_yz), (c_x, c_yz), (d_x, d_yz) = ((v[0], v[1:]) for v in (a, b, c, d))
    for offset in range(0, total, len(buf)):
        block = buf[: total - offset]
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            for cur in block[1:] if offset == 0 else block:
                field(prev[0], prev[1:], a_x, a_yz)
                mul(a, half, mid)
                add(mid, prev, mid)
                field(mid_x, mid_yz, b_x, b_yz)
                mul(b, half, mid)
                add(mid, prev, mid)
                field(mid_x, mid_yz, c_x, c_yz)
                mul(c, full, mid)
                add(mid, prev, mid)
                field(mid_x, mid_yz, d_x, d_yz)
                # prev + sixth (a + 2 (b + c) + d)
                add(b, c, acc)
                mul(acc, two, acc)
                add(acc, a, acc)
                add(acc, d, acc)
                mul(acc, sixth, acc)
                add(prev, acc, cur)
                prev = cur
        # NaN fails both comparisons; min and max allocate nothing
        if not (-limit <= block.min() and block.max() <= limit):
            step, run = np.argwhere(~(np.abs(block) <= limit).all(axis=1))[0]
            raise StepTooLarge(f"state exceeded {limit:g} at t = {(offset + step) * dt:g} in run {run}")
        yield block


def tracked_scalars(x, y, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H = |l|^2 / 2, S = 2 lx and k = ly / lz (NaN wherever |lz| < 1e-12)
    of the state components x, y, z, each computed into its own output
    array: a stack of runs makes no full-size temporaries."""
    h = np.multiply(x, x)
    s = np.multiply(y, y)  # scratch until S is written
    h += s
    np.multiply(z, z, out=s)
    h += s
    h *= 0.5
    np.multiply(x, 2.0, out=s)
    k = np.abs(z)
    defined = k >= K_UNDEFINED_LZ
    k.fill(np.nan)
    np.divide(y, z, out=k, where=defined)
    return h, s, k
