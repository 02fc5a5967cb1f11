"""Classical model of two coupled oscillators relaxing to phase synchrony.

The state is the real triple l = (lx, ly, lz) obeying

    dlx/dt =  2 (ly^2 + lz^2)
    dly/dt = -2 lx ly
    dlz/dt = -2 lx lz

The flow conserves the squared length lx^2 + ly^2 + lz^2 and the ratio
k = ly / lz while lx only ever grows, so every generic initial state relaxes
to the synchronized point (|l|, 0, 0).  The same field can be produced two
other ways, and all three agree identically:

* from a complex coupling function r(l) as l x (i r grad(conj r) - h.c.),
  see :func:`dissipative_field`;
* from a conserved H and a growing S alone as grad H x (grad S x grad H),
  see :func:`quasithermo_field`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: below this |lz| the ratio k = ly / lz is reported as NaN
K_UNDEFINED_LZ = 1e-12

#: any state component beyond this magnitude aborts integration
DIVERGENCE_LIMIT = 1e6


class StepTooLarge(RuntimeError):
    """Integration blew past the divergence guard."""


@dataclass(frozen=True)
class Trajectory:
    """Time series of an integrated state and its tracked scalars.

    ``states`` has one (lx, ly, lz) row per time; ``h_values`` holds
    |l|^2 / 2, ``s_values`` holds 2 lx, and ``k_values`` holds ly / lz with
    NaN wherever |lz| < 1e-12 makes the ratio meaningless.
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


def schwinger_map(z1: complex, z2: complex) -> np.ndarray:
    """Collective variables of two oscillator amplitudes.

    lx + i ly = conj(z1) z2 and lz is half the population imbalance; in
    polar form ly = r1 r2 sin(phi2 - phi1), so ly -> 0 signals that the
    phases have locked.
    """
    cross = np.conj(complex(z1)) * complex(z2)
    return np.array([cross.real, cross.imag, 0.5 * (abs(z1) ** 2 - abs(z2) ** 2)])


def schwinger_map_polar(r1: float, phi1: float, r2: float, phi2: float) -> np.ndarray:
    """Same map from polar amplitudes r1 e^(i phi1), r2 e^(i phi2)."""
    return schwinger_map(r1 * np.exp(1j * phi1), r2 * np.exp(1j * phi2))


def sync_jump(state) -> complex:
    """The model's own coupling function, lz - i ly."""
    l = np.asarray(state, dtype=float)
    return complex(l[2], -l[1])


def sync_jump_grad(state) -> np.ndarray:
    """Gradient of :func:`sync_jump`, constant (0, -i, 1)."""
    return np.array([0.0, -1.0j, 1.0])


def dissipative_field(state, jump=sync_jump, jump_grad=sync_jump_grad) -> np.ndarray:
    """Relaxation field generated by a complex coupling function.

    The torque i r grad(conj r) - i conj(r) grad r is real whenever the
    gradient is exact, and the field is its cross product with l.  With the
    default coupling lz - i ly this reproduces :func:`classical_field`.
    """
    l = np.asarray(state, dtype=float)
    r = complex(jump(l))
    grad = np.asarray(jump_grad(l), dtype=complex)
    torque = -2.0 * (r * grad.conj()).imag
    return np.cross(l, torque)


@dataclass(frozen=True)
class QuasiThermoFunctions:
    """A conserved scalar H and a growing scalar S with analytic gradients."""

    h: Callable[[np.ndarray], float]
    s: Callable[[np.ndarray], float]
    grad_h: Callable[[np.ndarray], np.ndarray]
    grad_s: Callable[[np.ndarray], np.ndarray]

    def gradient_errors(self, points, step: float = 1e-5) -> float:
        """Worst deviation of the analytic gradients from central differences."""
        worst = 0.0
        for p in points:
            p = np.asarray(p, dtype=float)
            for func, grad in ((self.h, self.grad_h), (self.s, self.grad_s)):
                num = finite_difference_gradient(func, p, step)
                worst = max(worst, float(np.abs(np.asarray(grad(p)) - num).max()))
        return worst


def default_quasithermo() -> QuasiThermoFunctions:
    """H = |l|^2 / 2 and S = 2 lx, the pair the flow conserves and grows."""
    return QuasiThermoFunctions(
        h=lambda l: 0.5 * float(np.dot(l, l)),
        s=lambda l: 2.0 * float(l[0]),
        grad_h=lambda l: np.asarray(l, dtype=float).copy(),
        grad_s=lambda l: np.array([2.0, 0.0, 0.0]),
    )


def quasithermo_field(state, fns: QuasiThermoFunctions | None = None) -> np.ndarray:
    """Flow reconstructed from the scalar pair alone: grad H x (grad S x grad H)."""
    if fns is None:
        fns = default_quasithermo()
    l = np.asarray(state, dtype=float)
    gh = np.asarray(fns.grad_h(l), dtype=float)
    gs = np.asarray(fns.grad_s(l), dtype=float)
    return np.cross(gh, np.cross(gs, gh))


def finite_difference_gradient(f, point, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar (possibly complex) function."""
    p = np.asarray(point, dtype=float)
    out = []
    for i in range(p.size):
        up = p.copy()
        dn = p.copy()
        up[i] += step
        dn[i] -= step
        out.append((f(up) - f(dn)) / (2.0 * step))
    return np.asarray(out)


def integrate(initial, t_final: float, dt: float) -> Trajectory:
    """Fixed-step RK4 integration of the synchronization flow.

    Records the state after every step (the initial state included) along
    with H, S and k; the step count is round(t_final / dt).  Because every
    stage of the lx update is a sum of squares, the recorded S is
    nondecreasing exactly, not just within tolerance.

    Raises StepTooLarge as soon as any component exceeds 1e6 in magnitude,
    and ValueError for nonfinite or nonpositive dt / t_final or a nonfinite
    start.
    """
    start = np.asarray(initial, dtype=float)
    if start.shape != (3,):
        raise ValueError(f"initial state must have three components, got shape {start.shape}")
    if not np.all(np.isfinite(start)):
        raise ValueError("initial state must be finite")
    if not (math.isfinite(t_final) and math.isfinite(dt)):
        raise ValueError(f"dt and t_final must be finite, got dt={dt!r}, t_final={t_final!r}")
    if dt <= 0.0 or t_final <= 0.0:
        raise ValueError("dt and t_final must be positive")
    n_steps = int(round(t_final / dt))
    if n_steps < 1:
        raise ValueError("t_final is shorter than half a step")

    lx, ly, lz = (float(v) for v in start)
    limit = DIVERGENCE_LIMIT
    if abs(lx) > limit or abs(ly) > limit or abs(lz) > limit:
        raise StepTooLarge(f"initial state exceeds {limit:g}")

    xs = [lx]
    ys = [ly]
    zs = [lz]
    h = dt
    half = 0.5 * dt
    sixth = dt / 6.0
    for i in range(1, n_steps + 1):
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

        if abs(lx) > limit or abs(ly) > limit or abs(lz) > limit:
            raise StepTooLarge(f"state exceeded {limit:g} at t = {i * dt:g}")
        xs.append(lx)
        ys.append(ly)
        zs.append(lz)

    x = np.asarray(xs)
    y = np.asarray(ys)
    z = np.asarray(zs)
    k = np.full(x.size, np.nan)
    defined = np.abs(z) >= K_UNDEFINED_LZ
    k[defined] = y[defined] / z[defined]
    return Trajectory(
        times=dt * np.arange(n_steps + 1),
        states=np.column_stack([x, y, z]),
        h_values=0.5 * (x * x + y * y + z * z),
        s_values=2.0 * x,
        k_values=k,
    )
