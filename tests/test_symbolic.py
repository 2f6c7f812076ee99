"""Independent symbolic check of the kernel's member jet and thresholds.

The oracle and the closed-form bounds share ``classes.Kernel``, so only a
separate derivation tests its formulas.  Here sympy expands the defining
quotient of f = z + a2 z^2 + a3 z^3 (z D f / f for starlike, D(z D f) / D f
for convex) against phi(w(z)) = 1 + b1 w + b2 w^2 with w = w1 z + w2 z^2,
solves for (a2, a3), and compares the result, and the mu where v(mu)
crosses 0, 1 and 1/2, with the kernel evaluated on symbols.  The same
checks run on ``Kernel.scaled`` against the jet mapped to (L2 a2, L3 a3).
"""

from types import SimpleNamespace

import pytest

from pqfs.classes import Kernel

sp = pytest.importorskip("sympy")

z, mu, w1, w2, a2, a3, c1, c2 = sp.symbols("z mu w1 w2 a2 a3 c1 c2")
TWO, THREE = sp.symbols("two three", positive=True)  # the deformed integers [2], [3]
L2, L3 = sp.symbols("L2 L3", positive=True)  # coefficient multipliers of a2 and a3
B1 = sp.Symbol("b1", positive=True)
B2 = sp.Symbol("b2", nonnegative=True)
PHI = SimpleNamespace(b1=B1, b2=B2)
KINDS = ("starlike", "convex")


def _d(f):
    """Deformed derivative of a polynomial in z: z^n maps to [n] z^(n-1)."""
    number = {1: 1, 2: TWO, 3: THREE}
    return sum(coeff * number[n] * z ** (n - 1) for (n,), coeff in sp.Poly(f, z).terms())


def _through_z2(expr):
    expr = sp.series(expr, z, 0, 3).removeO()
    return [sp.expand(expr.coeff(z, n)) for n in (1, 2)]


def _derived_jet(kind):
    f = z + a2 * z**2 + a3 * z**3
    quotient = z * _d(f) / f if kind == "starlike" else _d(z * _d(f)) / _d(f)
    w = w1 * z + w2 * z**2
    target = 1 + B1 * w + B2 * w**2
    eqs = [sp.Eq(q, t) for q, t in zip(_through_z2(quotient), _through_z2(target))]
    (sol,) = sp.solve(eqs, [a2, a3], dict=True)
    # Caratheodory data of (1 + w)/(1 - w): c1 = 2 w1, c2 = 2 w1^2 + 2 w2
    schwarz = {w1: c1 / 2, w2: (c2 - c1**2 / 2) / 2}
    return sol[a2].subs(schwarz), sol[a3].subs(schwarz)


def _exact(expr):
    # the kernel's float constants (0.5, 1.0, 2.0) are exact binary fractions
    return sp.nsimplify(expr, rational=True)


@pytest.fixture(scope="module", params=KINDS)
def case(request):
    kind = request.param
    return kind, Kernel.from_numbers(kind, TWO, THREE), _derived_jet(kind)


def test_member_jet_matches_derivation(case):
    _, kernel, (d2, d3) = case
    k2, k3 = kernel.member(c1, c2, PHI)
    assert sp.simplify(_exact(k2) - d2) == 0
    assert sp.simplify(_exact(k3) - d3) == 0


def _assert_thresholds_cross_v(kernel, d2, d3):
    functional = sp.expand(sp.together(d3 - mu * d2**2))
    # a3 - mu a2^2 = alpha (c2 - v c1^2)
    alpha = sp.diff(functional, c2)
    v = sp.simplify(-sp.diff(functional, c1, 2) / 2 / alpha)
    for crossing, level in zip(kernel.thresholds(PHI), (0, 1, sp.Rational(1, 2))):
        (solved,) = sp.solve(sp.Eq(v, level), mu)
        assert sp.simplify(_exact(crossing) - solved) == 0


def test_thresholds_are_the_crossings_of_v(case):
    _, kernel, (d2, d3) = case
    _assert_thresholds_cross_v(kernel, d2, d3)


def test_scaled_member_is_the_mapped_jet(case):
    # a coefficient map (a2, a3) -> (L2 a2, L3 a3), such as the Bernardi operator
    _, kernel, (d2, d3) = case
    k2, k3 = kernel.scaled(L2, L3).member(c1, c2, PHI)
    assert sp.simplify(_exact(k2) - L2 * d2) == 0
    assert sp.simplify(_exact(k3) - L3 * d3) == 0


def test_scaled_thresholds_are_the_crossings_of_mapped_v(case):
    _, kernel, (d2, d3) = case
    _assert_thresholds_cross_v(kernel.scaled(L2, L3), L2 * d2, L3 * d3)
