"""Symbolic certificates of the identities the package and README rely on
over whole domains, derived exactly with sympy.

Each certificate is tied to the package's own objects: the operators and
the Liouvillian are read from it exactly (their entries are binary
fractions), the partial transpose is the package's own permutation of
entries, and the closed form's coefficients are cubic_roots' own statements
run on symbols.  Where a certificate needs an object the package builds
only in floating point (the stationary state, the classical field), the
exact expression is checked against the package at sample points.
"""

import ast
import inspect
import operator
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest
import sympy

from syncqubits import classical, entanglement, quantum

t = sympy.Symbol("t")
b, x, y = sympy.symbols("b x y", real=True)
a = 1 - b
u = x * x + y * y  # |c|^2 with c = x + i y


def _numeric(m: sympy.Matrix) -> np.ndarray:
    """An exact matrix rounded to complex doubles."""
    return np.array(m.evalf(30), dtype=complex)


def _exact(m: np.ndarray) -> sympy.Matrix:
    """A complex matrix of binary fractions as an exact sympy matrix."""
    rows, cols = m.shape
    return sympy.Matrix(
        rows,
        cols,
        [sympy.Rational(v.real) + sympy.I * sympy.Rational(v.imag) for v in m.ravel().tolist()],
    )


PSI1 = sympy.Matrix([1, 1, 1, 1]) / 2
PSI2 = sympy.Matrix([0, 1, -1, 0]) / sympy.sqrt(2)


def _stationary_state(a_, b_, c_) -> sympy.Matrix:
    """rho(a, b, c) = a P1 + b P2 + c |psi1><psi2| + conj(c) |psi2><psi1|."""
    return (
        a_ * PSI1 * PSI1.H
        + b_ * PSI2 * PSI2.H
        + c_ * PSI1 * PSI2.H
        + sympy.conjugate(c_) * PSI2 * PSI1.H
    )


def _partial_transpose(m: sympy.Matrix) -> sympy.Matrix:
    """The package's partial transpose, read off as the permutation it
    applies to 16 labelled entries."""
    labels = entanglement.partial_transpose(np.arange(16.0).reshape(4, 4)).real.astype(int)
    return sympy.Matrix(4, 4, [m[k] for k in labels.ravel().tolist()])


def _cubic_roots_coefficients():
    """(coeff2, coeff1, coeff0, disc) as cubic_roots computes them, its own
    statements run on symbols with np.float_power as a plain power and a
    namespace of symbols passing its StationaryParams type check."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(entanglement.cubic_roots)))
    (fn,) = tree.body
    assert isinstance(fn.body[-1], ast.Return)
    fn.body[-1] = ast.parse("return coeff2, coeff1, coeff0, disc").body[0]
    fn.args.args[0].annotation = fn.returns = None
    namespace = {"np": SimpleNamespace(float_power=operator.pow), "StationaryParams": SimpleNamespace}
    exec(compile(ast.fix_missing_locations(tree), "<cubic_roots>", "exec"), namespace)
    params = SimpleNamespace(a=a, b=b, c=SimpleNamespace(real=x, imag=y))
    return [sympy.nsimplify(e, rational=True) for e in namespace["cubic_roots"](params)]


def _depressed_p(c2, c1):
    """The depressed cubic's p as _real_cubic_roots computes it, its own
    statement run on symbols."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(entanglement._real_cubic_roots)))
    (fn,) = tree.body
    (statement,) = [
        s for s in fn.body if isinstance(s, ast.Assign) and getattr(s.targets[0], "id", "") == "p"
    ]
    p = eval(compile(ast.Expression(statement.value), "<p>", "eval"), {"c1": c1, "c2": c2})
    return sympy.nsimplify(p, rational=True)


CUBIC = 8 * t**3 - 8 * t**2 + 4 * b * t**2 + 4 * b * t - 6 * b**2 * t - 8 * u * t + b**3


@pytest.fixture(scope="module")
def transposed():
    return _partial_transpose(_stationary_state(a, b, x + sympy.I * y))


def test_exact_state_is_the_package_state(rng):
    for _ in range(5):
        a_, b_, c_ = quantum.random_stationary_coefficients(rng, real_c=False)
        exact = _stationary_state(a_, b_, c_)
        numeric = quantum.stationary_state(quantum.StationaryParams(a_, b_, c_))
        assert np.abs(_numeric(exact) - numeric).max() < 1e-15
        pt = _numeric(_partial_transpose(exact))
        assert np.abs(pt - entanglement.partial_transpose(numeric)).max() < 1e-15


def test_transposed_characteristic_polynomial(transposed):
    # c enters only through |c|^2, and the b/2 eigenvalue splits off for
    # complex c too
    charpoly = transposed.charpoly(t).as_expr()
    assert sympy.expand(charpoly - (2 * t - b) * CUBIC / 16) == 0


def test_cubic_roots_solves_the_transposed_cubic():
    coeff2, coeff1, coeff0, disc = _cubic_roots_coefficients()
    monic = t**3 + coeff2 * t**2 + coeff1 * t + coeff0
    assert sympy.expand(monic - CUBIC / 8) == 0
    # the discriminant that picks the trigonometric branch's angle
    assert sympy.expand(disc - sympy.discriminant(monic, t)) == 0


def test_depressed_cubic_takes_the_trigonometric_form():
    # p = -(5/6) (a - 1/2)^2 - 1/8 - |c|^2 <= -1/8: the roots always come
    # from the trigonometric form, which needs p < 0
    coeff2, coeff1, _, _ = _cubic_roots_coefficients()
    half = sympy.Rational(1, 2)
    closed = -sympy.Rational(5, 6) * (a - half) ** 2 - sympy.Rational(1, 8) - u
    assert sympy.expand(_depressed_p(coeff2, coeff1) - closed) == 0


def test_transposed_determinant(transposed):
    assert sympy.expand(transposed.det() + b**4 / 16) == 0


def test_negativity_margin():
    # p(-b^2/4) > 0 for every 0 < b <= 1 and p -> -inf as t -> -inf, so the
    # one negative root lies below -b^2/4: the negativity exceeds b^2/4
    p = CUBIC / 8
    value = p.subs(t, -(b**2) / 4)
    assert sympy.expand(value - b**2 * (b**2 * (8 + 2 * b - b**2) + 16 * u) / 64) == 0
    assert sympy.solveset(8 + 2 * b - b**2 <= 0, b, sympy.Interval(0, 1)) == sympy.S.EmptySet
    assert sympy.limit(p, t, -sympy.oo) == -sympy.oo


def test_liouvillian_spectrum():
    liouvillian = _exact(quantum.liouvillian_matrix())
    charpoly = liouvillian.charpoly(t).as_expr()
    assert sympy.expand(charpoly - t**4 * (t + 2) ** 8 * (t + 4) ** 4) == 0


@pytest.mark.parametrize(
    "observable",
    [PSI2 * PSI2.H, PSI1 * PSI2.H],
    ids=["singlet-weight", "coherence"],
)
def test_adjoint_generator_conserves_b_and_c(observable):
    # d tr(X rho)/dt = tr(L+(X) rho) with L+(X) = 2 J+ X J - {J+J, X}, so
    # b = <psi2|rho|psi2> and c = <psi1|rho|psi2> are constant for every rho
    ops = quantum.build_operators()
    j, jd = _exact(ops.jump), _exact(ops.jump_dagger)
    absorb = jd * j
    adjoint = 2 * jd * observable * j - absorb * observable - observable * absorb
    assert sympy.simplify(adjoint) == sympy.zeros(4, 4)


lx, ly, lz = sympy.symbols("lx ly lz", real=True)
FLOW = sympy.Matrix([2 * (ly**2 + lz**2), -2 * lx * ly, -2 * lx * lz])


def test_exact_flow_is_the_package_flow(rng):
    for state in rng.uniform(-1.0, 1.0, size=(5, 3)):
        exact = _numeric(FLOW.subs(dict(zip((lx, ly, lz), state)))).real.ravel()
        assert np.abs(exact - classical.classical_field(state)).max() < 1e-14


def test_classical_invariants():
    def rate(f):
        return sympy.expand((sympy.Matrix([f]).jacobian([lx, ly, lz]) * FLOW)[0])

    grad_h = sympy.Matrix([lx, ly, lz])  # of H = |l|^2 / 2
    grad_s = sympy.Matrix([2, 0, 0])  # of S = 2 lx
    assert rate((lx**2 + ly**2 + lz**2) / 2) == 0
    assert sympy.simplify(rate(ly / lz)) == 0
    assert rate(2 * lx) == sympy.expand(4 * (ly**2 + lz**2))
    assert sympy.expand(grad_h.cross(grad_s.cross(grad_h)) - FLOW) == sympy.zeros(3, 1)
