"""Tests for the exact polynomial / rational-function / matrix layer."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdigraph.coxeter import CoxeterSystem
import wdigraph.exactalg as exactalg
from wdigraph.exactalg import (
    P_ONE,
    P_U,
    P_ZERO,
    Poly,
    RatFunc,
    RatMatrix,
    RF_ONE,
    RF_U,
    RF_ZERO,
    char_poly,
    matrix_rank,
    nullspace,
    poly_p,
    rf,
    sigma,
    solve_simultaneous_eigenspace,
    ubar,
    _norm_coeff,
    _pack,
    _unpack,
)
from wdigraph.coxeter import DiagramAutomorphism
from wdigraph.families import FamilySpec, build_family, build_lv
from wdigraph.modrep import ModuleRep

from conftest import (eval_at, identity_matrix, is_poly, lampoly_eval_matrix,
                      lampoly_mul, matrix_is_zero, zeta)
from test_modrep import reversal_inputs

U2 = RF_U * RF_U


def test_poly_canonical_trailing_zeros():
    assert Poly((1, 0, 0)).coeffs == (1,)
    assert Poly(()).is_zero()
    assert Poly((0, 0)).is_zero()
    assert Poly((0, 0)).degree is None
    assert Poly((3, 0, 1)).degree == 2


def _reference_coeffs(coeffs):
    """Poly's coefficient normalization without the plain-int fast path."""
    cs = [_norm_coeff(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
          for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@pytest.mark.parametrize("coeffs", [
    pytest.param((3, -1, 0, 2, 0), id="int"),
    pytest.param((Fraction(4, 2), Fraction(-3), Fraction(0)), id="integral_fraction"),
    pytest.param((Fraction(1, 3), 2, Fraction(-5, 7)), id="fraction"),
    pytest.param((True, False, True, False), id="bool"),
])
def test_poly_coeffs_match_reference(coeffs):
    got = Poly(coeffs).coeffs
    want = _reference_coeffs(coeffs)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


def test_poly_product_and_truth_value_match_reference():
    # sparse factors with Fraction coefficients: the zero-skipping product
    # against the full convolution; a Poly is true iff it is nonzero
    rng = random.Random(1729)
    choices = [0, 0, 0, 1, -2, 5, Fraction(1, 2), Fraction(-2, 3)]
    for _ in range(300):
        a = [rng.choice(choices) for _ in range(rng.randint(0, 9))]
        b = [rng.choice(choices) for _ in range(rng.randint(0, 9))]
        full = [0] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                full[i + j] += x * y
        product = Poly(a) * Poly(b)
        assert product.coeffs == _reference_coeffs(full)
        assert bool(product) == any(full)
        assert (Poly(a) + Poly(b)) - Poly(b) == Poly(a)
    assert not P_ZERO and not Poly((0, 0)) and P_ONE and Poly((0, 1))


def test_poly_p_small_values():
    assert poly_p(0) == P_ONE
    assert poly_p(1) == Poly((1, 0, -1))
    assert poly_p(2) == Poly((1, 0, -2, 0, 1))
    assert poly_p(3) == Poly((1, 0, -2, 0, 2, 0, -1))


def test_poly_p_degree_and_value_at_zero():
    for d in range(11):
        p = poly_p(d)
        assert p.degree == (2 * d if d else 0)
        assert p(0) == 1


def test_ratfunc_gcd_cancellation():
    # (u^2-1)/(u+1) reduces to u-1
    f = rf([-1, 0, 1], [1, 1])
    assert f == rf([-1, 1])
    assert is_poly(f)


def test_ratfunc_product_of_factors():
    assert rf([1, 1]) * rf([-1, 1]) == rf([-1, 0, 1])


def test_ratfunc_monic_denominator():
    # 1/(u^2-u) + 0 keeps the monic denominator u^2-u
    f = rf(1, [0, -1, 1])
    g = f + RF_ZERO
    assert g.den == Poly((0, -1, 1))
    assert g.den.leading() == 1
    # a non-monic input denominator gets normalized
    h = rf(2, [0, -2, 2])
    assert h == f


def test_ratfunc_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RF_ONE / RF_ZERO
    with pytest.raises(ZeroDivisionError):
        RF_ZERO.inverse()


def test_sigma_and_bar_examples():
    f = rf([1, 0, 0, 1])  # u^3 + 1
    assert sigma(sigma(f)) == f
    # bar(u^2 - 1) = (1 - u^2)/u^2
    assert ubar(rf([-1, 0, 1])) == rf([1, 0, -1], [0, 0, 1])
    # sigma(u) = -1/u
    assert sigma(RF_U) == rf([-1], [0, 1])


def test_eval_examples():
    assert eval_at(rf([-1, -1, 1]), 1) == -1
    assert eval_at(rf([1], [0, 1]), Fraction(1, 2)) == 2
    with pytest.raises(ZeroDivisionError):
        eval_at(rf(1, [0, 1]), 0)


coeff_st = st.integers(min_value=-6, max_value=6)
poly_st = st.lists(coeff_st, min_size=0, max_size=13).map(Poly)


@given(poly_st)
def test_sigma_involution(p):
    f = RatFunc(p)
    assert sigma(sigma(f)) == f


@given(poly_st)
def test_bar_involution(p):
    f = RatFunc(p)
    assert ubar(ubar(f)) == f


@given(poly_st, poly_st)
def test_field_inverse(p, q):
    f = RatFunc(p) + RatFunc(q) * RF_U
    if f.is_zero():
        return
    assert f * f.inverse() == RF_ONE


@given(poly_st, poly_st, poly_st)
def test_ring_laws(p, q, r):
    a, b, c = RatFunc(p), RatFunc(q), RatFunc(r)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a


def test_zeta_flips_odd_coefficients():
    assert zeta(rf([1, 2, 3, 4])) == rf([1, -2, 3, -4])
    assert zeta(zeta(RF_U)) == RF_U


def test_power_multiplies_only_what_it_needs(monkeypatch):
    # u^k takes one squaring per bit of k after the first and one product
    # per set bit; the unit denominator is passed through, not powered
    products = []
    add_product = exactalg._add_product
    monkeypatch.setattr(exactalg, "_add_product",
                        lambda *args: products.append(1) or add_product(*args))
    for k in range(40):
        products.clear()
        power = RF_U ** k
        assert len(products) == max(k.bit_length() - 1, 0) + bin(k).count("1")
        assert power.den is RF_U.den
        assert power == RatFunc(Poly.monomial(1, k), P_ONE)


def test_char_poly_identity():
    cp = char_poly(identity_matrix(2))
    # (x - 1)^2 = 1 - 2x + x^2
    assert cp == (RF_ONE, rf(-2), RF_ONE)


def test_char_poly_companion():
    u6 = RF_U ** 6
    comp = RatMatrix([[RF_ZERO, u6], [RF_ONE, RF_ZERO]])
    assert char_poly(comp) == (-u6, RF_ZERO, RF_ONE)


def test_char_poly_two_by_two_trace_det():
    a, b, c, d = rf([1, 1]), rf(2), rf([0, 1]), rf([3])
    m = RatMatrix([[a, b], [c, d]])
    cp = char_poly(m)
    assert cp[2] == RF_ONE
    assert cp[1] == -(a + d)
    assert cp[0] == a * d - b * c


def _random_matrix(rng, n, deg):
    return RatMatrix([[rf([rng.randint(-3, 3) for _ in range(deg + 1)])
                       for _ in range(n)] for _ in range(n)])


def test_cayley_hamilton_random_4x4():
    rng = random.Random(20240)
    for _ in range(3):
        m = _random_matrix(rng, 4, 2)
        cp = char_poly(m)
        assert matrix_is_zero(lampoly_eval_matrix(cp, m))


def dense_char_poly(m):
    """Berkowitz over Q(u) on the whole matrix, the RatFunc method that
    `char_poly` ran on each block before it cleared denominators: the
    reference for the block split and for Berkowitz over Z[u]."""
    n = m.n
    if n == 0:
        return (RF_ONE,)

    def vector(rows):
        k = len(rows)
        if k == 1:
            return [RF_ONE, -rows[0][0]]
        a = rows[0][0]
        r_row = rows[0][1:]
        c_col = [rows[i][0] for i in range(1, k)]
        sub = [row[1:] for row in rows[1:]]
        items = [RF_ONE, -a]
        vec = c_col
        for _ in range(k - 1):
            dot = RF_ZERO
            for x, y in zip(r_row, vec):
                if x.num.coeffs and y.num.coeffs:
                    dot = dot + x * y
            items.append(-dot)
            nxt = [RF_ZERO] * (k - 1)
            for i in range(k - 1):
                acc = RF_ZERO
                for x, y in zip(sub[i], vec):
                    if x.num.coeffs and y.num.coeffs:
                        acc = acc + x * y
                nxt[i] = acc
            vec = nxt
        prev = vector(sub)
        out = [RF_ZERO] * (k + 1)
        for i in range(k + 1):
            acc = RF_ZERO
            for j in range(k):
                d = i - j
                if 0 <= d <= k:
                    t = items[d]
                    if t.num.coeffs and prev[j].num.coeffs:
                        acc = acc + t * prev[j]
            out[i] = acc
        return out

    return tuple(reversed(vector([list(r) for r in m.rows])))


def poly_berkowitz(rows):
    """Monic characteristic polynomial of a nonempty square matrix over Q[u]
    by the Berkowitz method on `Poly` entries, as an ascending coefficient
    tuple: the method `char_poly` ran on each block before it packed the
    block into integers, and the reference for the packing."""
    def vector(rows):
        # coefficients of the char poly of the submatrix, highest power first
        k = len(rows)
        if k == 1:
            return [P_ONE, -rows[0][0]]
        a = rows[0][0]
        r_row = rows[0][1:]
        c_col = [rows[i][0] for i in range(1, k)]
        sub = [row[1:] for row in rows[1:]]
        # items = [1, -a, -R C, -R A C, -R A^2 C, ...]
        items = [P_ONE, -a]
        vec = c_col
        for _ in range(k - 1):
            items.append(-poly_dot(r_row, vec))
            vec = [poly_dot(row, vec) for row in sub]
        prev = vector(sub)
        out = [P_ZERO] * (k + 1)
        for i in range(k + 1):
            acc = P_ZERO
            for j in range(k):
                d = i - j
                if 0 <= d <= k:
                    t = items[d]
                    if t and prev[j]:
                        acc = acc + t * prev[j]
            out[i] = acc
        return out

    return tuple(reversed(vector(rows)))


def poly_dot(xs, ys):
    """sum x * y over Polys."""
    out = P_ZERO
    for x, y in zip(xs, ys):
        if x and y:
            out = out + x * y
    return out


def poly_char_poly(m):
    """det(xI - M) for M over Z[u] by `poly_berkowitz` on the whole matrix,
    with no block split and no packing."""
    if m.n == 0:
        return (RF_ONE,)
    return tuple(RatFunc(c) for c in poly_berkowitz(
        [[x.num for x in row] for row in m.rows]))


def s_w(rep, w):
    """S_w = u^(2 l(w)) rho(T_w)^-1, the Z[u] matrix `rho_inv` divides by
    u^(2 l(w))."""
    return rep.rho_inv(w).scale(RF_U ** (2 * w.length))


def charpoly_digraphs():
    """The modules benchmark fixtures and the figure 1-8 templates with
    m <= 3 over I2(2..6)."""
    for label, g in reversal_inputs():
        if not label.startswith("figure"):
            yield label, g
    for figure in range(1, 9):
        for m in ([1] if figure in (7, 8) else [2, 3]):
            for n in range(2, 7):
                yield f"figure {figure} m={m} n={n}", build_family(
                    CoxeterSystem.dihedral(n), FamilySpec(figure, m))


def test_block_char_poly_matches_dense_reference_on_rho():
    splits = set()
    for label, g in charpoly_digraphs():
        rep = ModuleRep(g)
        for w in g.system.enumerate(3):
            m = rep.rho(w)
            assert char_poly(m) == dense_char_poly(m), (label, str(w))
            sizes = [len(c) for c in
                     g.restrict(frozenset(w.word)).components()]
            splits.add((len(sizes) > 1, max(sizes) > 1))
    # one block, several 1x1 blocks, and several blocks of which some are larger
    assert splits == {(False, True), (True, False), (True, True)}


def test_char_poly_matches_ratfunc_berkowitz_on_fixtures():
    # rho(T_w) and S_w = u^(2 l(w)) rho(T_w)^-1 both have entries in Z[u]
    for label, g in charpoly_digraphs():
        if label.startswith("figure"):
            continue
        rep = ModuleRep(g)
        for w in g.system.enumerate(2):
            for m in (rep.rho(w), s_w(rep, w)):
                assert all(x.den == P_ONE for row in m.rows for x in row)
                assert char_poly(m) == dense_char_poly(m), (label, str(w))


def _permuted(m, perm):
    """P M P^-1 for the permutation i -> perm[i]."""
    rows = [[None] * m.n for _ in range(m.n)]
    for i in range(m.n):
        for j in range(m.n):
            rows[perm[i]][perm[j]] = m.rows[i][j]
    return RatMatrix(rows)


def test_block_char_poly_matches_dense_reference_on_special_matrices():
    rng = random.Random(4711)
    a, b = _random_matrix(rng, 3, 2), _random_matrix(rng, 2, 1)
    # block upper-triangular: the lower-left block is zero, the upper-right
    # block is not, so the support joins the blocks into one
    tri = RatMatrix([list(a.rows[i]) + [rf(i + 1), RF_ZERO] for i in range(3)]
                    + [[RF_ZERO] * 3 + list(b.rows[i]) for i in range(2)])
    assert char_poly(tri) == dense_char_poly(tri)
    assert char_poly(tri) == lampoly_mul(char_poly(a), char_poly(b))
    # a directed 3-cycle 0 -> 2 -> 1 -> 0 with every reverse entry zero: the
    # cycle term u^3 is lost if a one-sided entry fails to join its indices
    cycle = RatMatrix([[rf(1), RF_ZERO, RF_U], [RF_U, rf(2), RF_ZERO],
                       [RF_ZERO, RF_U, rf(3)]])
    assert char_poly(cycle) == dense_char_poly(cycle)
    assert char_poly(cycle)[0] == -(rf(6) + RF_U ** 3)
    # a triangular pattern, permuted so that its one-sided entries fall on
    # both sides of the diagonal
    sparse = RatMatrix([[rf([rng.randint(-2, 2), 1]) if i == j or (
        i < j and (i + j) % 3 == 0) else RF_ZERO for j in range(6)]
        for i in range(6)])
    sparse = _permuted(sparse, rng.sample(range(6), 6))
    assert char_poly(sparse) == dense_char_poly(sparse)
    # a block-diagonal matrix, randomly permuted
    diag_blocks = [_random_matrix(rng, k, 2) for k in (3, 1, 2, 3)]
    n = sum(blk.n for blk in diag_blocks)
    rows = [[RF_ZERO] * n for _ in range(n)]
    offset = 0
    for blk in diag_blocks:
        for i in range(blk.n):
            rows[offset + i][offset:offset + blk.n] = blk.rows[i]
        offset += blk.n
    mixed = _permuted(RatMatrix(rows), rng.sample(range(n), n))
    assert char_poly(mixed) == dense_char_poly(mixed)
    expected = (RF_ONE,)
    for blk in diag_blocks:
        expected = lampoly_mul(expected, char_poly(blk))
    assert char_poly(mixed) == expected
    for k in (0, 1, 5):
        for m in (identity_matrix(k), RatMatrix.zero(k)):
            assert char_poly(m) == dense_char_poly(m)
    assert char_poly(RatMatrix.zero(3)) == (RF_ZERO,) * 3 + (RF_ONE,)


def support_blocks(m):
    """The index sets of the components of the support of m (i and j joined
    when m[i][j] or m[j][i] is nonzero), by union-find."""
    parent = list(range(m.n))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i
    for i in range(m.n):
        for j in range(m.n):
            if m.rows[i][j]:
                parent[root(i)] = root(j)
    blocks = {}
    for i in range(m.n):
        blocks.setdefault(root(i), []).append(i)
    return list(blocks.values())


def blockwise_char_poly(m):
    """det(xI - M) for M over Z[u] from `poly_char_poly` and
    `dense_char_poly` on the support blocks of M, which must agree on every
    block; the blocks' polynomials are multiplied over Z[u]."""
    out = (P_ONE,)
    for block in support_blocks(m):
        sub = RatMatrix([[m.rows[i][j] for j in block] for i in block])
        reference = poly_char_poly(sub)
        assert reference == dense_char_poly(sub)
        out = lampoly_mul(out, tuple(c.num for c in reference), P_ZERO)
    return tuple(RatFunc(c) for c in out)


def test_char_poly_matches_poly_berkowitz_on_fixtures_and_b4_lv():
    # the seven modules benchmark fixtures, whole matrices (the same
    # matrices meet `dense_char_poly` in
    # test_char_poly_matches_ratfunc_berkowitz_on_fixtures), and B4 LV, 76
    # vertices, where the whole-matrix references take 10-30 s a matrix, so
    # both run on its support blocks
    b4 = CoxeterSystem(["q", "r", "s", "t"],
                       {("q", "r"): 3, ("r", "s"): 3, ("s", "t"): 4})
    inputs = [(label, g) for label, g in charpoly_digraphs()
              if not label.startswith("figure")]
    assert len(inputs) == 7
    inputs.append(("lv_b4", build_lv(b4, DiagramAutomorphism.identity(b4))))
    sizes = set()
    for label, g in inputs:
        rep = ModuleRep(g)
        for w in g.system.enumerate(2):
            for m in (rep.rho(w), s_w(rep, w)):
                got = char_poly(m)
                if m.n <= 30:
                    assert got == poly_char_poly(m), (label, str(w))
                else:
                    assert got == blockwise_char_poly(m), (label, str(w))
                sizes.add(m.n)
    assert 76 in sizes


def norm1(p):
    """The sum of |c| over every (x, u) coefficient of a polynomial given
    as its ascending tuple of RatFunc coefficients over Z[u]."""
    return sum(abs(c) for x in p for c in x.num.coeffs)


def assert_width_premise(m):
    """The block product's width premise in `char_poly`: every coefficient
    of det(xI - M) is at most bound = prod |p_i|_1 over the block
    polynomials p_i, which is below 2^(bits - 1); the block polynomials'
    product over Z[u] is det(xI - M)."""
    polys = [char_poly(RatMatrix([[m.rows[i][j] for j in block]
                                  for i in block]))
             for block in support_blocks(m)]
    bound = math.prod(norm1(p) for p in polys)
    bits = bound.bit_length() + 1
    got = char_poly(m)
    assert max(abs(c) for x in got for c in x.num.coeffs) <= bound
    assert norm1(got) <= bound < 1 << (bits - 1)
    expected = (P_ONE,)
    for p in polys:
        expected = lampoly_mul(expected, tuple(x.num for x in p), P_ZERO)
    assert got == tuple(RatFunc(c) for c in expected)
    return got


def test_block_product_width_premise_on_rho():
    for _, g in charpoly_digraphs():
        rep = ModuleRep(g)
        for w in g.system.enumerate(3):
            assert_width_premise(rep.rho(w))


def equal_block_matrices():
    """Matrices of many equal blocks, each with its det(xI - M): the
    identity of size 40, 30 permuted copies of the solid tau_s block, and a
    permuted diagonal of repeated -u^2, u^2 - 1 and 1."""
    rng = random.Random(2024)
    # 40 blocks x - 1: the coefficients are the binomials C(40, k), up to
    # C(40, 20) ~ 1.4e11 against the bound 2^40
    yield identity_matrix(40), tuple(rf((-1) ** (40 - k) * math.comb(40, k))
                                     for k in range(41))
    # 30 permuted copies of the solid tau_s block, (x - u^2)(x + 1) each
    tau = [[RF_ZERO, U2], [RF_ONE, U2 - RF_ONE]]
    rows = [[RF_ZERO] * 60 for _ in range(60)]
    for k in range(30):
        for i in range(2):
            rows[2 * k + i][2 * k:2 * k + 2] = tau[i]
    m = _permuted(RatMatrix(rows), rng.sample(range(60), 60))
    factor = (Poly((0, 0, -1)), Poly((1, 0, -1)), P_ONE)
    expected = (P_ONE,)
    for _ in range(30):
        expected = lampoly_mul(expected, factor, P_ZERO)
    yield m, tuple(RatFunc(c) for c in expected)
    # a permuted diagonal of repeated -u^2, u^2 - 1 and 1
    diag = [-U2, U2 - RF_ONE, RF_ONE] * 12
    rng.shuffle(diag)
    m = RatMatrix([[diag[i] if i == j else RF_ZERO for j in range(36)]
                   for i in range(36)])
    expected = (P_ONE,)
    for d in diag:
        expected = lampoly_mul(expected, (-d.num, P_ONE), P_ZERO)
    yield m, tuple(RatFunc(c) for c in expected)


def test_block_product_width_premise_on_many_equal_blocks():
    for m, expected in equal_block_matrices():
        assert assert_width_premise(m) == expected


def column_norm_bits(rows):
    """The column-norm width of a block: bound.bit_length() + 1 for bound =
    prod_j (1 + c_j), where c_j is the sum of |c| over the coefficients of
    column j."""
    bound = 1
    for j in range(len(rows)):
        bound *= 1 + sum(abs(c) for row in rows for c in row[j].coeffs)
    return bound.bit_length() + 1


def hadamard_tight_blocks():
    """Blocks with a coefficient of det(xI - B) near the Hadamard bound of
    `_block_bits`, where a narrower width would lose it: the zero 1x1 block
    (x, at the bound 1), [5] (x - 5 against 6), the adjacency matrix of K4
    ((x + 1)^3 (x - 3), with a zero diagonal), and a 12x12 Jordan block of
    1 + u ((x - 1 - u)^12, coefficients up to C(12, 8) C(8, 4) = 34,650
    against sqrt(9 * 10^11) ~ 9.5e5)."""
    yield RatMatrix.zero(1)
    yield RatMatrix([[rf(5)]])
    yield RatMatrix([[RF_ZERO if i == j else RF_ONE for j in range(4)]
                     for i in range(4)])
    yield RatMatrix([[rf([1, 1]) if i == j else RF_ONE if j == i + 1
                      else RF_ZERO for j in range(12)] for i in range(12)])


def test_block_width_premise_at_the_hadamard_width():
    # every coefficient of each support block's polynomial, from the
    # unpacked reference `poly_char_poly`, fits the signed digits of
    # `_block_bits`, and that width is never wider than the column-norm one
    matrices = [m for m, _ in equal_block_matrices()]
    matrices += hadamard_tight_blocks()
    for _, g in charpoly_digraphs():
        rep = ModuleRep(g)
        matrices += [rep.rho(w) for w in g.system.enumerate(3)]
    blocks = {}
    for m in matrices:
        for block in support_blocks(m):
            sub = tuple(tuple(m.rows[i][j] for j in block) for i in block)
            blocks[sub] = [[x.num for x in row] for row in sub]
    narrower = 0
    for sub, rows in blocks.items():
        bits = exactalg._block_bits(rows)
        top = max(abs(c) for x in poly_char_poly(RatMatrix(sub))
                  for c in x.num.coeffs)
        assert top < 1 << (bits - 1), [[str(x) for x in row] for row in sub]
        assert bits <= column_norm_bits(rows)
        narrower += bits < column_norm_bits(rows)
    assert len(blocks) > 100 and narrower > 0


def test_char_poly_runs_berkowitz_once_per_distinct_block(monkeypatch):
    calls = []
    real = exactalg._block_char_poly

    def counting(rows):
        calls.append(rows)
        return real(rows)
    monkeypatch.setattr(exactalg, "_block_char_poly", counting)
    identity, tau_copies, _ = (m for m, _ in equal_block_matrices())
    char_poly(identity)
    assert len(calls) == 1
    # a permutation may list a tau_s copy in either order, so two keys
    calls.clear()
    char_poly(tau_copies)
    assert 1 <= len(calls) <= 2
    g = dict(reversal_inputs())["regular_a3"]
    rep = ModuleRep(g)
    for s in g.system.generators:
        m = rep.rho(g.system.element(s))
        assert len(support_blocks(m)) == 12
        calls.clear()
        assert char_poly(m) == poly_char_poly(m)
        assert len(calls) == 1, s


def test_char_poly_raises_each_distinct_polynomial_to_its_power_once(
        monkeypatch):
    # the 30 tau_s copies may fall under two keys, one per vertex order,
    # but they share one polynomial, so one power of it is taken, to k = 30
    powers = []
    real = exactalg._power

    def counting(p, k):
        powers.append(k)
        return real(p, k)
    monkeypatch.setattr(exactalg, "_power", counting)
    matrices = equal_block_matrices()
    identity, expected = next(matrices)
    assert char_poly(identity) == expected
    assert powers == [40]
    powers.clear()
    tau_copies, expected = next(matrices)
    assert char_poly(tau_copies) == expected
    assert powers == [30]
    # the diagonal of -u^2, u^2 - 1 and 1: three polynomials, 12 each
    powers.clear()
    diagonal, expected = next(matrices)
    assert char_poly(diagonal) == expected
    assert powers == [12, 12, 12]
    # a single copy is multiplied in as it is
    powers.clear()
    char_poly(RatMatrix([[rf([1, 1]), RF_ZERO], [RF_ZERO, rf(2)]]))
    assert powers == []


@st.composite
def powerable(draw):
    """A nonzero polynomial in x over Z[u], as its ascending tuple of Polys,
    and an exponent k.  Its constant term may be zero, a monomial in u or
    not a monomial, and its lowest terms in x may vanish."""
    coeff = st.lists(st.integers(-4, 4), max_size=4).map(Poly)
    low = draw(st.integers(0, 2))
    body = draw(st.lists(coeff, min_size=1, max_size=4).filter(
        lambda cs: cs[0] and any(cs)))
    return (P_ZERO,) * low + tuple(body), draw(st.integers(1, 40))


def power_by_products(p, k):
    """p^k for p in Z[u][x], one factor at a time."""
    out = (P_ONE,)
    for _ in range(k):
        out = lampoly_mul(out, p, P_ZERO)
    return out


@given(powerable())
@settings(max_examples=60, deadline=None)
def test_miller_power_matches_repeated_multiplication(case):
    # Miller's recurrence on the polynomial packed at a width that bounds
    # p^k (the norm bound of `char_poly`), read back coefficient by
    # coefficient, is p^k
    p, k = case
    expected = power_by_products(p, k)
    bits = (sum(sum(map(abs, x.coeffs)) for x in p) ** k).bit_length() + 1
    got = exactalg._power([_pack(x, bits) for x in p], k)
    assert tuple(_unpack(v, bits) for v in got) == expected


def test_miller_power_on_chosen_constant_terms():
    # p0 = 0 (x (x - u)), a monomial -u^2 ((x + 1)(x - u^2)), and two
    # non-monomials 1 + u and 3 - 2u, the last with a zero x coefficient
    u = P_U
    cases = [(P_ZERO, -u, P_ONE), (-u * u, P_ONE - u * u, P_ONE),
             (P_ONE + u, Poly((2, 1)), P_ONE), (Poly((3, -2)), P_ZERO, u)]
    for p in cases:
        for k in (1, 2, 7, 40):
            bits = exactalg._read_width((sum(sum(map(abs, x.coeffs))
                                             for x in p) ** k).bit_length() + 1)
            got = exactalg._power([_pack(x, bits) for x in p], k)
            assert tuple(_unpack(v, bits) for v in got) == \
                power_by_products(p, k), (p, k)


def test_char_poly_edge_cases_match_references():
    rng = random.Random(1913)
    big = (1 << 61) - 1
    p = Poly((big, -big, big))
    e = rf([rng.randint(-5, 5) for _ in range(3)])
    cases = {
        "1x1": RatMatrix([[rf([3, -2, 5])]]),
        "zero 1x1": RatMatrix.zero(1),
        "zero 4x4": RatMatrix.zero(4),
        # [p]: the coefficients 1 and -p sum in L1 norm to 1 + |p|_1, exactly
        # the bound; a coupled 2x2 block with p on the diagonal comes close
        "bound 1x1": RatMatrix([[RatFunc(p)]]),
        "bound 2x2": RatMatrix([[RatFunc(p), RF_ZERO], [e, RatFunc(p)]]),
    }
    for label, m in cases.items():
        got = char_poly(m)
        assert got == poly_char_poly(m) == dense_char_poly(m), label
    assert char_poly(cases["1x1"]) == (-rf([3, -2, 5]), RF_ONE)
    assert char_poly(cases["zero 4x4"]) == (RF_ZERO,) * 4 + (RF_ONE,)
    bound = 1 + sum(abs(c) for c in p.coeffs)
    assert sum(abs(c) for x in char_poly(cases["bound 1x1"])
               for c in x.num.coeffs) == bound
    # entries outside Z[u]: a denominator, or a Fraction coefficient in a
    # polynomial entry
    for x in (rf(1, [0, 1]), rf([1, 1], [3, 5]), rf(Fraction(1, 3)),
              rf([Fraction(-1, 2), 1])):
        with pytest.raises(ValueError, match="Z\\[u\\]"):
            char_poly(RatMatrix([[RF_ONE, RF_ZERO], [RF_ZERO, x]]))
        with pytest.raises(ValueError, match="Z\\[u\\]"):
            char_poly(RatMatrix([[RF_ONE, x], [RF_ZERO, RF_ONE]]))


@st.composite
def packable(draw):
    # every width up to 80 bits, and each width `_unpack` reads as signed
    # native ints drawn on its own
    bits = draw(st.one_of(st.integers(2, 80),
                          st.sampled_from(sorted(exactalg._SIGNED_DIGITS))))
    top = (1 << (bits - 1)) - 1
    coeffs = draw(st.lists(st.one_of(st.sampled_from([top, -top, 0, 1, -1]),
                                     st.integers(-top, top)), max_size=12))
    return Poly(coeffs), bits


@given(packable())
@settings(max_examples=300, deadline=None)
def test_unpack_inverts_pack(case):
    p, bits = case
    assert _pack(p, bits) == sum(c << (bits * i) for i, c in enumerate(p.coeffs))
    assert _unpack(_pack(p, bits), bits) == p


@given(packable())
@settings(max_examples=300, deadline=None)
def test_pack_is_evaluation_at_a_power_of_two(case):
    # `_pack` and the Horner evaluation `Poly.__call__` agree at u = 2^bits
    p, bits = case
    assert p(1 << bits) == _pack(p, bits)


def test_read_width_rounds_up_to_a_signed_digit_up_to_64_bits():
    assert sorted(exactalg._SIGNED_DIGITS) == [8, 16, 32, 64]
    for bits in range(2, 200):
        width = exactalg._read_width(bits)
        if bits <= 64:
            assert width == min(w for w in (8, 16, 32, 64) if w >= bits)
        else:
            assert width == bits


def test_unpack_reads_extreme_digits_on_both_paths():
    # the signed-int read at 8, 16, 32 and 64 bits and the shifted read at
    # other widths, whole bytes among them, on digits at +-(2^(bits-1) - 1)
    # and around zero, whatever the sign of the top digit
    for bits in (8, 16, 32, 64, 2, 7, 24, 65, 72, 200):
        top = (1 << (bits - 1)) - 1
        for coeffs in ([top], [-top], [top, -top] * 5, [-top, top] * 5,
                       [0, -1, 1, top, 0, -top], [1, 0, 0, -1], [-1] * 9):
            p = Poly(coeffs)
            assert _unpack(_pack(p, bits), bits) == p, (bits, coeffs)


def test_lampoly_mul():
    # (x - 1)(x + 1) = x^2 - 1
    a = (rf(-1), RF_ONE)
    b = (rf(1), RF_ONE)
    assert lampoly_mul(a, b) == (rf(-1), RF_ZERO, RF_ONE)


def test_eigenspace_empty_condition():
    basis = solve_simultaneous_eigenspace([], [], dim=3)
    assert len(basis) == 3


def test_eigenspace_diagonal():
    m = RatMatrix([[U2, RF_ZERO], [RF_ZERO, rf(-1)]])
    basis = solve_simultaneous_eigenspace([m], [U2])
    assert len(basis) == 1
    v = basis[0]
    assert [sum((a * x for a, x in zip(row, v)), RF_ZERO)
            for row in m.rows] == [U2 * v[0], U2 * v[1]]


def test_eigenspace_intersection():
    m = RatMatrix([[U2, RF_ZERO], [RF_ZERO, rf(-1)]])
    # the u^2-eigenspace meets the (-1)-eigenspace of the same matrix trivially
    assert solve_simultaneous_eigenspace([m, m], [U2, rf(-1)]) == []


def test_nullspace_and_rank():
    rows = [[RF_ONE, RF_ONE], [RF_ONE, RF_ONE]]
    assert matrix_rank(rows) == 1
    ns = nullspace(rows, 2)
    assert len(ns) == 1
    v = ns[0]
    assert (v[0] + v[1]).is_zero()


def test_matrix_product_and_inverse_of_tau_block():
    # the 2x2 solid-edge block and its quadratic relation
    tau = RatMatrix([[RF_ZERO, U2], [RF_ONE, U2 - RF_ONE]])
    ident = identity_matrix(2)
    assert matrix_is_zero((tau - ident.scale(U2)) * (tau + ident))


def test_string_grammar():
    assert str(rf([1, 0, -2, 0, 2, 0, -1])) == "1-2*u^2+2*u^4-u^6"
    assert str(rf([1, 0, -1], [0, 0, 1])) == "(1-u^2)/(u^2)"
    assert str(RF_ZERO) == "0"
    assert str(rf(Fraction(1, 2))) == "1/2"
    assert str(rf([0, Fraction(-3, 2)])) == "-3/2*u"


def test_poly_divmod_roundtrip():
    a = Poly((2, 0, 1, 4))
    b = Poly((1, 1))
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree is None or r.degree < b.degree
