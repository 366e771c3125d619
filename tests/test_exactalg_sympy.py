"""The exact algebra against sympy: RatFunc arithmetic and powers, the field
automorphisms and characteristic polynomials, on random inputs."""

from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wdigraph.exactalg import (Poly, RatFunc, RatMatrix, RF_ZERO, char_poly,
                               sigma, ubar)

# sympy's own field Q(u) and ring Q[u], not its symbolic expressions
QU = sympy.QQ.frac_field(sympy.Symbol("u"))
RING = QU.field.ring
U = QU.field.gens[0]

coeff_st = st.one_of(st.integers(min_value=-6, max_value=6),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4))
poly_st = st.lists(coeff_st, min_size=0, max_size=5).map(Poly)
nonzero_poly_st = poly_st.filter(lambda p: not p.is_zero())
# the denominators include non-monomial ones such as 1 + u or u^2 - 2
ratfunc_st = st.builds(RatFunc, poly_st, nonzero_poly_st)
nonzero_ratfunc_st = ratfunc_st.filter(lambda f: not f.is_zero())
# the entries `char_poly` takes: integer polynomials
int_poly_st = st.lists(st.integers(min_value=-6, max_value=6), min_size=0,
                       max_size=5).map(lambda cs: RatFunc(Poly(cs)))


def to_ring(p: Poly):
    return RING.from_list([sympy.QQ(Fraction(c)) for c in reversed(p.coeffs)])


def to_field(f: RatFunc):
    return QU.field(to_ring(f.num)) / QU.field(to_ring(f.den))


def assert_canonical_and_equal(f: RatFunc, expected):
    """f is in canonical form (monic denominator coprime to the numerator,
    denominator 1 for zero) and equals the element of sympy's Q(u)."""
    num, den = to_ring(f.num), to_ring(f.den)
    assert f.den.coeffs[-1] == 1
    assert num.gcd(den).degree() == 0 if num else f.den.coeffs == (1,)
    assert num * expected.denom == expected.numer * den


def substitute(f: RatFunc, t):
    """f(t) for an element t of sympy's Q(u), by Horner on num and den."""
    def horner(p: Poly):
        acc = QU.field.zero
        for c in reversed(p.coeffs):
            acc = acc * t + QU.field.ground_new(sympy.QQ(Fraction(c)))
        return acc
    return horner(f.num) / horner(f.den)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ratfunc_st, ratfunc_st, nonzero_ratfunc_st)
def test_ratfunc_field_operations_match_sympy(a, b, c):
    sa, sb, sc = to_field(a), to_field(b), to_field(c)
    assert_canonical_and_equal(a + b, sa + sb)
    assert_canonical_and_equal(a - b, sa - sb)
    assert_canonical_and_equal(a * b, sa * sb)
    assert_canonical_and_equal(a / c, sa / sc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ratfunc_st, st.integers(min_value=-3, max_value=4))
@example(RF_ZERO, 0)
@example(RF_ZERO, 4)
@example(RatFunc(Poly([1, 2]), Poly([Fraction(1, 2), 0, 3])), -3)
@example(RatFunc(Poly([Fraction(2, 3), 0, 1]), Poly([-2, 0, 1])), 4)
def test_ratfunc_power_matches_sympy(f, k):
    # non-monomial denominators such as u^2 - 2 included; a negative power
    # of zero is a division by zero, and 0^0 = 1 (which sympy refuses)
    if f.is_zero() and k < 0:
        with pytest.raises(ZeroDivisionError):
            f ** k
        return
    got = f ** k
    assert_canonical_and_equal(got, to_field(f) ** k if f or k else QU.one)
    assert all(type(c) is int
               for c in got.num.coeffs + got.den.coeffs
               if Fraction(c).denominator == 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ratfunc_st)
def test_sigma_and_ubar_match_sympy(f):
    assert_canonical_and_equal(sigma(f), substitute(f, -1 / U))
    assert_canonical_and_equal(ubar(f), substitute(f, 1 / U))


@st.composite
def sparse_matrices(draw):
    """Square RatMatrix of size <= 6: indices fall into up to three groups,
    entries between groups are zero except, when `triangular`, above the
    diagonal (so one of M[i][j], M[j][i] is zero), and each remaining entry
    is zero or a random integer polynomial."""
    n = draw(st.integers(min_value=0, max_value=6))
    group = draw(st.lists(st.integers(min_value=0, max_value=2),
                          min_size=n, max_size=n))
    triangular = draw(st.booleans())
    rows = [[draw(int_poly_st)
             if (group[i] == group[j] or (triangular and i < j))
             and draw(st.booleans()) else RF_ZERO
             for j in range(n)] for i in range(n)]
    return RatMatrix(rows)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sparse_matrices())
def test_char_poly_matches_sympy(m):
    cp = char_poly(m)
    expected = DomainMatrix([[to_field(x) for x in row] for row in m.rows],
                            (m.n, m.n), QU).charpoly()
    assert len(cp) == len(expected)
    for ours, theirs in zip(reversed(cp), expected):
        assert_canonical_and_equal(ours, theirs)
