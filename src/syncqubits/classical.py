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

:func:`integrate_blocks` runs the flow by fixed-step RK4 from one start or
from a stack of starts, a block of at most BLOCK_STEPS states at a time,
and picks its kernel from the start's shape; :func:`integrate` joins one
start's run.
"""

from __future__ import annotations

import math
import numbers
import reprlib

import numpy as np

from .linalg import _as_numbers

#: below this |lz| the ratio k = ly / lz is reported as NaN
K_UNDEFINED_LZ = 1e-12

#: any state component beyond this magnitude aborts integration
DIVERGENCE_LIMIT = 1e6

#: most steps one integrator call may take.  It bounds the time of every
#: run, and the memory of integrate() and quantum.evolve(), which join the
#: blocks of a whole run (24 MB of classical or 256 MB of quantum states at
#: this limit, twice that while joining); a block generator holds one block.
MAX_STEPS = 10**6

#: states per block: time points per block of one start's
#: integrate_blocks() and of quantum.evolve_blocks(), BLOCK_STEPS // n (at
#: least one) of an n-run integrate_blocks() stack, and rows per block of the
#: command line's tables; a reduction over the blocks holds one block,
#: however long the run and however wide the stack
BLOCK_STEPS = 2048


class StepTooLarge(RuntimeError):
    """Integration blew past the divergence guard."""


def _as_point(value, name: str) -> np.ndarray:
    """``value`` cast by :func:`linalg._as_numbers` to a real state
    (lx, ly, lz), or ValueError naming ``name`` for any shape but (3,)."""
    l = _as_numbers(value, name, float)
    if l.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got shape {l.shape}")
    return l


def classical_field(state) -> np.ndarray:
    """Right-hand side of the synchronization equations at ``state``, shape (3,)."""
    lx, ly, lz = _as_point(state, "state").tolist()
    return np.array([2.0 * (ly * ly + lz * lz), -2.0 * lx * ly, -2.0 * lx * lz])


def dissipative_field(state) -> np.ndarray:
    """Relaxation field generated by the coupling function r = lz - i ly.

    With its constant gradient (0, -i, 1) the torque
    i r grad(conj r) - i conj(r) grad r is real, and the field is its cross
    product with l; it reproduces :func:`classical_field`.
    """
    l = _as_point(state, "state")
    r = complex(l[2], -l[1])
    grad = np.array([0.0, -1.0j, 1.0])
    torque = -2.0 * (r * grad.conj()).imag
    return np.cross(l, torque)


def quasithermo_field(state) -> np.ndarray:
    """Flow reconstructed from H = |l|^2 / 2 and S = 2 lx alone, whose
    gradients are l and (2, 0, 0): grad H x (grad S x grad H)."""
    gh = _as_point(state, "state")
    gs = np.array([2.0, 0.0, 0.0])
    return np.cross(gh, np.cross(gs, gh))


def step_count(t_final: float, dt: float) -> int:
    """round(t_final / dt), the step count of the fixed-step integrators.

    Raises TypeError unless dt and t_final are real numbers, and
    ValueError unless they are finite and positive and the count lies in
    [1, MAX_STEPS]; the count is checked before anything is allocated.
    """
    for name, value in (("t_final", t_final), ("dt", dt)):
        if not isinstance(value, numbers.Real):
            raise TypeError(f"{name} must be a real number, got {reprlib.repr(value)}")
        try:
            float(value)
        except OverflowError:  # an int beyond the largest float
            raise ValueError(f"{name} must be finite, got {reprlib.repr(value)}") from None
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


def integrate(initial, t_final: float, dt: float) -> np.ndarray:
    """Fixed-step RK4 run of the synchronization flow from one start, shape
    (3,): the blocks of :func:`integrate_blocks` joined into the (T, 3)
    states from t = 0 on, dt apart; :func:`tracked_scalars` gives their H,
    S and k.  ValueError for any other shape, a stack of starts included,
    or a nonfinite start, and otherwise errors as for
    :func:`integrate_blocks`.
    """
    if not np.isfinite(_as_point(initial, "initial")).all():
        raise ValueError("initial must be finite")
    return np.concatenate([block.copy() for block in integrate_blocks(initial, t_final, dt)])


def integrate_blocks(starts, t_final: float, dt: float):
    """Fixed-step RK4 run of the synchronization flow from one start, shape
    (3,), or from a stack of starts, shape (n, 3), yielded in blocks of
    states from the start(s) on: (m, 3) blocks of one start, m being
    BLOCK_STEPS, and (m, 3, n) blocks of a stack, m being max(1,
    BLOCK_STEPS // n), so that a block holds at most BLOCK_STEPS states (or
    one time point) at any width; the last block may be shorter.  A block
    is valid until the next block is requested; the last one stays valid
    once the run has ended.

    The start's shape picks the kernel: one start runs as a loop over
    Python floats, a stack as one numpy block, each run of which is
    bit-identical to the one-start run from its row.  A stack's step costs
    about the same at any width up to 50 runs, about twelve steps of the
    float loop (10-11 us against 0.84 us on a 2-vCPU x86 host), so the
    stack is the faster of the two from about a dozen runs on; a narrower
    stack runs faster start by start.  The step count is round(t_final /
    dt), at most MAX_STEPS.  Each stage holds the halved field without its
    minus signs, (ly^2 + lz^2, lx ly, lx lz); the step sizes are doubled
    instead, and those of ly and lz negated.  Against the whole field
    that changes no bit but where a product is subnormal, or where ly or lz
    is exactly zero: the run keeps that zero's sign, as the flow does.
    Because every stage of the lx update is a sum of squares, lx is
    nondecreasing exactly, not just within tolerance.

    Once iteration begins, raises TypeError for starts that are no real
    numbers; ValueError for any other shape, a nonfinite start, nonfinite
    or nonpositive dt / t_final, or more than MAX_STEPS steps; and
    StepTooLarge when a state, the start included, exceeds 1e6 in
    magnitude or is no longer a number, naming its time (and run); each
    block is tested here, before it is yielded.
    """
    start = _as_numbers(starts, "starts", float)
    one = start.shape == (3,)
    if not (one or (start.ndim == 2 and start.shape[1] == 3 and len(start))):
        raise ValueError(f"starts must have shape (n, 3) or (3,), got shape {start.shape}")
    if not np.all(np.isfinite(start)):
        raise ValueError("starts must be finite")
    n_steps = step_count(t_final, dt)
    rows = max(1, BLOCK_STEPS // (1 if one else len(start)))
    limit = DIVERGENCE_LIMIT
    for i, block in enumerate((_run_one if one else _run_stack)(start, n_steps, dt, rows)):
        # NaN fails both comparisons; min and max allocate nothing
        if not (-limit <= block.min() and block.max() <= limit):
            bad = np.argwhere(~(np.abs(block) <= limit).all(axis=1))[0]
            where = "" if one else f" in run {bad[1]}"
            # every block before this one held rows time points
            raise StepTooLarge(f"state exceeded {limit:g} at t = {(i * rows + bad[0]) * dt:g}{where}")
        yield block


def _run_one(start: np.ndarray, n_steps: int, dt: float, rows: int):
    """The blocks of rows states of one start's run, as a loop over Python
    floats.  Past any bound its arithmetic gives inf or NaN and never raises."""
    lx, ly, lz = (float(v) for v in start)
    # the stages hold the halved field without its y and z minus signs, so
    # each step size is doubled, 0.5 dt, dt and dt / 6 times 2, all exact,
    # and the y and z ones are negated; the signs move no bit but that of a
    # zero ly or lz, which the run keeps, as the flow does
    half, full, sixth = dt, 2.0 * dt, 2.0 * (dt / 6.0)
    neg_half, neg_full, neg_sixth = -half, -full, -sixth
    total = n_steps + 1
    xs = [lx]
    ys = [ly]
    zs = [lz]
    for offset in range(0, total, rows):
        for i in range(max(offset, 1), min(offset + rows, total)):
            ax = ly * ly + lz * lz
            ay = lx * ly
            az = lx * lz

            x1 = lx + half * ax
            y1 = ly + neg_half * ay
            z1 = lz + neg_half * az
            bx = y1 * y1 + z1 * z1
            by = x1 * y1
            bz = x1 * z1

            x2 = lx + half * bx
            y2 = ly + neg_half * by
            z2 = lz + neg_half * bz
            cx = y2 * y2 + z2 * z2
            cy = x2 * y2
            cz = x2 * z2

            x3 = lx + full * cx
            y3 = ly + neg_full * cy
            z3 = lz + neg_full * cz
            dx = y3 * y3 + z3 * z3
            dy = x3 * y3
            dz = x3 * z3

            lx += sixth * (ax + 2.0 * (bx + cx) + dx)
            ly += neg_sixth * (ay + 2.0 * (by + cy) + dy)
            lz += neg_sixth * (az + 2.0 * (bz + cz) + dz)

            xs.append(lx)
            ys.append(ly)
            zs.append(lz)
        yield np.column_stack([xs, ys, zs])
        xs = []
        ys = []
        zs = []


def _run_stack(starts: np.ndarray, n_steps: int, dt: float, rows: int):
    """The blocks of rows time points of a stack's runs, as one numpy
    block.  Each line of the loop repeats one float operation of
    :func:`_run_one`, 28 a step, operands swapped only where IEEE
    arithmetic is commutative (x + half a becomes half a + x).  Every
    operand in the loop is a whole row, (n,) or (3, n), of a buffer viewed
    once per call, or a 0-d constant: numpy's cost per call bounds the
    loop, and a call that broadcasts, or a slice, costs several times a
    plain call.  A block is a view of one reused buffer."""
    n = len(starts)
    total = n_steps + 1
    buf = np.empty((min(rows, total), 3, n))
    buf[0] = starts.T
    a, b, c, d, mid, acc = (np.empty((3, n)) for _ in range(6))
    squares = np.empty((2, n))
    sq_y, sq_z = squares
    # the stages hold the halved field without its y and z minus signs, so
    # each step size is doubled, exactly, and its y and z rows negated, as
    # in _run_one: whole (3, n) rows (+c, -c, -c), which cost a call no more
    # than a 0-d constant, where a (3, 1) column would broadcast
    half, full, sixth = (
        np.repeat([[v], [-v], [-v]], n, axis=1) for v in (dt, 2.0 * dt, 2.0 * (dt / 6.0))
    )
    # 0-d: numpy converts a Python float on every call
    two = np.array(2.0)
    mul, add = np.multiply, np.add

    def field(state, out):
        # the halved field without its minus signs, (y y + z z, x y, x z),
        # of state's (row, x, y, z, yz)
        _, x, y, z, yz = state
        _, out_x, out_y, out_z, _ = out
        mul(yz, yz, squares)
        add(sq_y, sq_z, out_x)
        mul(x, y, out_y)
        mul(x, z, out_z)

    def views(rows):
        """(row, x, y, z, yz) of each (3, n) row, made once."""
        return [(row, row[0], row[1], row[2], row[1:]) for row in rows]

    buf_s = views(buf)
    a_s, b_s, c_s, d_s, mid_s = views((a, b, c, d, mid))
    prev = buf_s[0]
    for offset in range(0, total, len(buf)):
        block = buf[: total - offset]
        with np.errstate(over="ignore", invalid="ignore"):  # integrate_blocks reports it
            # row 0 of the first block holds the starts
            for cur in buf_s[1 if offset == 0 else 0 : len(block)]:
                row = prev[0]
                field(prev, a_s)
                mul(a, half, mid)
                add(mid, row, mid)
                field(mid_s, b_s)
                mul(b, half, mid)
                add(mid, row, mid)
                field(mid_s, c_s)
                mul(c, full, mid)
                add(mid, row, mid)
                field(mid_s, d_s)
                # prev + sixth (a + 2 (b + c) + d)
                add(b, c, acc)
                mul(acc, two, acc)
                add(acc, a, acc)
                add(acc, d, acc)
                mul(acc, sixth, acc)
                add(row, acc, cur[0])
                prev = cur
        yield block


def tracked_scalars(x, y, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H = |l|^2 / 2, S = 2 lx and k = ly / lz (NaN wherever |lz| < 1e-12)
    of the state components x, y, z.  TypeError unless the components are
    real numbers, ValueError unless they share one shape."""
    x, y, z = (_as_numbers(v, name, float) for v, name in ((x, "x"), (y, "y"), (z, "z")))
    if not x.shape == y.shape == z.shape:
        raise ValueError(f"x, y and z must have one shape, got {x.shape}, {y.shape}, {z.shape}")
    k = np.full(z.shape, np.nan)
    np.divide(y, z, out=k, where=np.abs(z) >= K_UNDEFINED_LZ)
    return 0.5 * (x * x + y * y + z * z), 2.0 * x, k
